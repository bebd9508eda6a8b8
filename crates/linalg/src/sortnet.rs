//! Data-independent sorting schedules for the coordinate-wise filters.
//!
//! CWTM (eq. 24), the coordinate-wise median and Bulyan's trim stage need
//! the order statistics of every column of an `n × d` batch. A sorting
//! *network* — a fixed list of compare-exchanges `(lo, hi)` that sorts any
//! input — turns that into straight-line code: the filters apply each
//! exchange between two **rows** of a column tile, element-wise over the
//! tile's columns, so all of them are sorted at once and the instruction
//! stream never depends on the data (a hostile column cannot make it slow,
//! and a stray NaN cannot reorder it).

/// Batcher's merge-exchange network (Knuth, TAOCP vol. 3, §5.2.2,
/// Algorithm M): sorts any number of rows, with `283` comparators at
/// `n = 40` and `O(n log² n)` in general.
///
/// The schedule is a pure function of the row count. It lives in
/// [`BatchScratch`](crate::BatchScratch), so a driver that aggregates the
/// same number of rows every round builds it once and allocates nothing
/// afterwards; pool workers read it through a shared reference.
#[derive(Debug, Clone, Default)]
pub struct SortingNetwork {
    rows: usize,
    comparators: Vec<(usize, usize)>,
}

impl SortingNetwork {
    /// The comparators that sort `rows` rows ascending, in execution
    /// order. Every pair is `(lo, hi)` with `lo < hi < rows`; after the
    /// exchange, row `lo` holds the smaller value. Rebuilt only when
    /// `rows` differs from the previous call's.
    pub fn for_rows(&mut self, rows: usize) -> &[(usize, usize)] {
        if self.rows != rows {
            self.rows = rows;
            self.comparators.clear();
            // 2^(t − 1) for t = ⌈log₂ rows⌉; zero below two rows, which
            // need no comparator.
            let top = rows.next_power_of_two() / 2;
            let mut p = top;
            while p > 0 {
                let (mut q, mut r, mut d) = (top, 0, p);
                loop {
                    let exchanged = (0..rows - d).filter(|i| i & p == r);
                    self.comparators.extend(exchanged.map(|i| (i, i + d)));
                    if q == p {
                        break;
                    }
                    d = q - p;
                    q /= 2;
                    r = p;
                }
                p /= 2;
            }
        }
        &self.comparators
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use rand::Rng;

    /// Sixty-four 0/1 columns at once — bit `b` of `lanes[i]` is row `i`
    /// of column `b` — so an exchange is an AND and an OR.
    struct ZeroOneColumns {
        lanes: Vec<u64>,
        filled: u32,
    }

    impl ZeroOneColumns {
        fn new(rows: usize) -> Self {
            ZeroOneColumns {
                lanes: vec![0; rows],
                filled: 0,
            }
        }

        /// Queues the column `row ↦ value(row)`, checking a full word.
        fn push(&mut self, schedule: &[(usize, usize)], mut value: impl FnMut(usize) -> bool) {
            for (row, lane) in self.lanes.iter_mut().enumerate() {
                *lane |= u64::from(value(row)) << self.filled;
            }
            self.filled += 1;
            if self.filled == u64::BITS {
                self.check(schedule);
            }
        }

        /// Runs the schedule over the queued columns and asserts every
        /// one comes out ascending.
        fn check(&mut self, schedule: &[(usize, usize)]) {
            let rows = self.lanes.len();
            for &(lo, hi) in schedule {
                assert!(lo < hi && hi < rows, "({lo}, {hi}) outside {rows} rows");
                let (a, b) = (self.lanes[lo], self.lanes[hi]);
                self.lanes[lo] = a & b;
                self.lanes[hi] = a | b;
            }
            let unsorted = self.lanes.windows(2).any(|pair| pair[0] & !pair[1] != 0);
            assert!(!unsorted, "a 0/1 input of {rows} rows came out unsorted");
            self.lanes.fill(0);
            self.filled = 0;
        }
    }

    #[test]
    fn every_schedule_up_to_130_rows_sorts_zero_one_inputs() {
        // Zero–one principle: a comparator network sorts every input iff
        // it sorts every 0/1 input. Exhaustive up to 16 rows; beyond that
        // a seeded sample plus the structured inputs a merge network is
        // most likely to get wrong (every rotation of every sorted run,
        // and alternating blocks of every period).
        let mut network = SortingNetwork::default();
        let mut rng = seeded_rng(24);
        for rows in 0..=130usize {
            let schedule = network.for_rows(rows).to_vec();
            let mut columns = ZeroOneColumns::new(rows);
            if rows <= 16 {
                for bits in 0..1u32 << rows {
                    columns.push(&schedule, |row| bits >> row & 1 == 1);
                }
            } else {
                for ones in 0..=rows {
                    for shift in 0..rows {
                        columns.push(&schedule, |row| (row + shift) % rows < ones);
                    }
                }
                for period in 1..rows {
                    columns.push(&schedule, |row| row / period % 2 == 0);
                }
                for _ in 0..2048 {
                    // A density per sample, so sparse and dense inputs
                    // are both drawn.
                    let density = rng.next_u64() % 101;
                    columns.push(&schedule, |_| rng.next_u64() % 100 < density);
                }
            }
            columns.check(&schedule);
        }
    }

    #[test]
    fn comparator_counts_match_merge_exchange() {
        let mut network = SortingNetwork::default();
        for (rows, count) in [(0, 0), (1, 0), (2, 1), (3, 3), (9, 26), (16, 63), (40, 283)] {
            assert_eq!(network.for_rows(rows).len(), count, "rows {rows}");
        }
    }

    #[test]
    fn a_changed_row_count_rebuilds_the_schedule() {
        let mut network = SortingNetwork::default();
        let nine = network.for_rows(9).to_vec();
        let kept = network.for_rows(9).as_ptr();
        assert_eq!(kept, network.for_rows(9).as_ptr(), "same count: reused");
        let forty = network.for_rows(40).to_vec();
        assert_ne!(nine, forty);
        assert!(forty.iter().any(|&(_, hi)| hi == 39));
        // …and back: a stale 40-row schedule would index past row 8.
        assert_eq!(network.for_rows(9), nine.as_slice());
    }
}
