//! Fixed-bucket log-scale latency histograms.
//!
//! Buckets are powers of two of nanoseconds, fixed at compile time, so
//! recording is a `leading_zeros` and an array increment — no allocation,
//! no rebucketing, and two histograms merge by element-wise addition.

/// Number of log₂ buckets. Bucket `i ≥ 1` counts durations in
/// `[2^i, 2^(i+1))` ns; bucket 0 counts `[0, 2)` ns; the last bucket
/// absorbs everything at or above `2^31` ns (~2.1 s) as an overflow
/// catch-all.
pub const BUCKETS: usize = 32;

/// A fixed-bucket log₂ histogram of durations in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }

    /// Rebuilds a histogram from raw parts (the [`DispatchProfile`]
    /// snapshot path).
    ///
    /// [`DispatchProfile`]: crate::DispatchProfile
    pub(crate) fn from_raw(counts: [u64; BUCKETS], count: u64, total_ns: u64, max_ns: u64) -> Self {
        Histogram {
            counts,
            count,
            total_ns,
            max_ns,
        }
    }

    /// The bucket index a duration of `ns` nanoseconds falls into.
    pub fn bucket_index(ns: u64) -> usize {
        if ns < 2 {
            0
        } else {
            ((63 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// The inclusive lower bound of bucket `index`, in nanoseconds.
    fn bucket_floor_ns(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            1u64 << index.min(BUCKETS - 1)
        }
    }

    /// Records one duration.
    // LINT-ALLOW(panic-reach): `bucket_index` clamps to BUCKETS - 1, and
    // `counts` is a fixed `[u64; BUCKETS]` array.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Element-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded durations, in nanoseconds (saturating).
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Largest recorded duration, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Occupancy of bucket `index` (0 when out of range).
    pub fn bucket_count(&self, index: usize) -> u64 {
        self.counts.get(index).copied().unwrap_or(0)
    }

    /// The `q`-quantile (`0.0..=1.0`) as the lower bound of the log₂
    /// bucket containing it — deterministic and conservative, which is
    /// all a fixed-bucket histogram can honestly promise. Returns 0 on an
    /// empty histogram.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let mut target = (q * self.count as f64).ceil() as u64;
        if target == 0 {
            target = 1;
        }
        let mut seen = 0u64;
        for (index, &bucket) in self.counts.iter().enumerate() {
            seen += bucket;
            if seen >= target {
                return Self::bucket_floor_ns(index);
            }
        }
        Self::bucket_floor_ns(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // The pinned contract: bucket 0 is [0,2), bucket i is
        // [2^i, 2^(i+1)), the last bucket absorbs the tail.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(1023), 9);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(Histogram::bucket_floor_ns(0), 0);
        assert_eq!(Histogram::bucket_floor_ns(1), 2);
        assert_eq!(Histogram::bucket_floor_ns(10), 1024);
        assert_eq!(Histogram::bucket_floor_ns(BUCKETS - 1), 1u64 << 31);
    }

    #[test]
    fn record_accumulates_count_total_max() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(1000);
        h.record(5);
        assert_eq!(h.count(), 3);
        assert_eq!(h.total_ns(), 1008);
        assert_eq!(h.max_ns(), 1000);
        assert_eq!(h.bucket_count(1), 1); // 3
        assert_eq!(h.bucket_count(2), 1); // 5
        assert_eq!(h.bucket_count(9), 1); // 1000
    }

    #[test]
    fn percentiles_return_bucket_floors() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 6, floor 64
        }
        h.record(1_000_000); // bucket 19, floor 524288
        assert_eq!(h.percentile_ns(0.50), 64);
        assert_eq!(h.percentile_ns(0.99), 64);
        assert_eq!(h.percentile_ns(1.0), 524_288);
        assert_eq!(Histogram::new().percentile_ns(0.5), 0);
    }

    #[test]
    fn merge_is_element_wise_addition() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(10);
        b.record(4000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.total_ns(), 4020);
        assert_eq!(a.max_ns(), 4000);
        assert_eq!(a.bucket_count(3), 2);
        assert_eq!(a.bucket_count(11), 1);
    }
}
