//! Tiled kernels shared by the filters, serial or sharded across a
//! [`WorkerPool`].
//!
//! Every kernel here obeys the pool contract (fixed schedule, disjoint
//! output slots — see [`abft_linalg::pool`]): a unit's result is computed
//! by exactly the same floating-point operations in the same order
//! whether the batch carries a pool or not, so parallel aggregation is
//! **bit-identical** to serial at any thread count. Kernels read the batch
//! through [`Rows`] — a `Copy` view of the flat storage — because the
//! batch itself (scratch arena included) is deliberately not `Sync`.
//!
//! Three sharding axes cover all registered filters:
//!
//! * **Column tiles** ([`for_each_column`], [`weighted_sum_into`]): the
//!   per-coordinate filters (CWTM, CWMed, sign-majority, mean) and every
//!   row-accumulation reduce independently per coordinate; columns are
//!   split into contiguous tile chunks.
//! * **Slot rows** ([`fill_slots`]): CGE, FABA and geomed compute one
//!   scalar per row — a norm, a distance to the running mean, a Weiszfeld
//!   weight — into its own slot; rows are split into contiguous chunks.
//! * **Pair indices** ([`pairwise_dist_sq_into`]): the Krum family
//!   (Krum, multi-Krum, Bulyan) fills one symmetric squared-distance
//!   matrix per aggregation call; the linearised upper-triangle pairs are
//!   split into contiguous chunks, each pair owning its two mirrored
//!   slots.

use abft_linalg::pool::{SharedSlots, WorkerPool};
use abft_linalg::{rowops, GradientBatch, LinalgError};
use abft_telemetry::DispatchProfile;
use std::ops::Range;

/// Columns transposed per tile pass. At 32 columns × 8 bytes each row
/// segment spans four cache lines, so the row-major batch streams through
/// the cache once per tile instead of missing once per (row, column) pair
/// — the difference between memory-bound and compute-bound behaviour for
/// the coordinate-wise filters at `d ≫ n`. Tiles are also the unit of the
/// parallel schedule: a worker owns a contiguous run of whole tiles.
const TILE_COLUMNS: usize = 32;

/// Minimum estimated scalar operations before a kernel dispatches to the
/// pool. Cross-thread dispatch costs a few microseconds per round; below
/// this floor (the paper's `n = 6, d = 2` regime, say) the serial pass is
/// faster than waking a worker, and since parallel output is bit-identical
/// anyway the cutoff is pure scheduling — results never change.
const MIN_PARALLEL_WORK: usize = 8192;

/// The pool, if sharding `work` estimated scalar operations across it is
/// worth the dispatch.
fn worth_sharding(pool: Option<&WorkerPool>, work: usize) -> Option<&WorkerPool> {
    pool.filter(|_| work >= MIN_PARALLEL_WORK)
}

/// Runs one pool dispatch, timing the caller-blocking duration into
/// `profile` when a driver installed one (wall-clock telemetry only; see
/// [`GradientBatch::set_dispatch_profile`]). Timing wraps only the
/// dispatch itself — the serial fallback paths never read a clock.
fn timed_dispatch(profile: Option<&DispatchProfile>, dispatch: impl FnOnce()) {
    match profile {
        Some(profile) => {
            let start = profile.start();
            dispatch();
            profile.record_since(start);
        }
        None => dispatch(),
    }
}

/// A `Copy + Sync` view of a batch's rows (or any contiguous
/// `count × dim` buffer, e.g. GMoM's bucket means), safe to capture in
/// pool tasks.
#[derive(Clone, Copy)]
pub(crate) struct Rows<'a> {
    data: &'a [f64],
    dim: usize,
}

impl<'a> Rows<'a> {
    /// A view over `data` holding rows of width `dim`.
    pub(crate) fn new(data: &'a [f64], dim: usize) -> Self {
        debug_assert!(dim > 0 && data.len().is_multiple_of(dim));
        Rows { data, dim }
    }

    /// The batch's rows.
    pub(crate) fn of(batch: &'a GradientBatch) -> Self {
        Rows::new(batch.as_flat(), batch.dim())
    }

    /// Row `i`.
    // LINT-ALLOW(panic-reach): `data.len()` is a multiple of `dim`
    // (checked in `new`) and callers pass row indices below that bound —
    // the filters only index through validated batch shapes.
    pub(crate) fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Applies `reduce` to every column of the batch (restricted to `rows`
/// when given, in that order), writing results into `slots`. Columns are
/// gathered tile-by-tile into a reused column-major buffer which `reduce`
/// may reorder; with a pool attached to the batch, tile chunks run on the
/// workers (each gathering into its own persistent buffer), bit-identical
/// to the serial pass.
///
/// # Panics
///
/// Panics if `reduce` fails — callers validate the batch shape first, and
/// every per-column reduce in this crate is total on validated shapes.
// LINT-ALLOW(panic-reach): tile arithmetic keeps `k0 + width <= dim =
// slots.len()` by construction (`width = TILE_COLUMNS.min(dim - k0)`).
pub(crate) fn for_each_column(
    batch: &GradientBatch,
    rows: Option<&[usize]>,
    tile: &mut Vec<f64>,
    slots: &mut [f64],
    reduce: impl Fn(&mut [f64]) -> Result<f64, LinalgError> + Sync,
) {
    let view = Rows::of(batch);
    let count = rows.map_or(batch.len(), <[usize]>::len);
    let dim = slots.len();
    let tiles = dim.div_ceil(TILE_COLUMNS);
    match worth_sharding(batch.worker_pool(), count * dim) {
        Some(pool) if tiles > 1 => {
            let out = SharedSlots::new(slots);
            timed_dispatch(batch.dispatch_profile(), || {
                pool.run_with_scratch(tiles, tile, &|buf, tile_range| {
                    for t in tile_range {
                        let k0 = t * TILE_COLUMNS;
                        let width = TILE_COLUMNS.min(dim - k0);
                        // SAFETY: tile `t` owns columns `k0..k0 + width`, and
                        // the fixed schedule hands every tile to one chunk.
                        let tile_slots = unsafe { out.slice(k0..k0 + width) };
                        reduce_tile(view, rows, count, k0, tile_slots, buf, &reduce);
                    }
                });
            });
        }
        _ => {
            for t in 0..tiles {
                let k0 = t * TILE_COLUMNS;
                let width = TILE_COLUMNS.min(dim - k0);
                reduce_tile(
                    view,
                    rows,
                    count,
                    k0,
                    &mut slots[k0..k0 + width],
                    tile,
                    &reduce,
                );
            }
        }
    }
}

/// One tile of [`for_each_column`]: gather columns `k0..k0 + slots.len()`
/// into `tile` (column-major) and reduce each into its slot.
// LINT-ALLOW(panic-reach): `tile` is resized to `TILE_COLUMNS * count`
// above the loops, `width <= TILE_COLUMNS`, rows come from the caller's
// validated index list, and `k0 + width <= dim` per `for_each_column`.
fn reduce_tile(
    view: Rows<'_>,
    rows: Option<&[usize]>,
    count: usize,
    k0: usize,
    slots: &mut [f64],
    tile: &mut Vec<f64>,
    reduce: &(impl Fn(&mut [f64]) -> Result<f64, LinalgError> + Sync),
) {
    let width = slots.len();
    tile.clear();
    tile.resize(TILE_COLUMNS * count, 0.0);
    for i in 0..count {
        let row = view.row(rows.map_or(i, |r| r[i]));
        for (c, &v) in row[k0..k0 + width].iter().enumerate() {
            tile[c * count + i] = v;
        }
    }
    for (c, slot) in slots.iter_mut().enumerate() {
        let column = &mut tile[c * count..(c + 1) * count];
        // LINT-ALLOW(no-panic-hot-path): tile columns are sized from the validated batch shape
        *slot = reduce(column).expect("column shape validated by caller");
    }
}

/// `slots[i] = compute(i)` for every slot, chunked across the pool when
/// one is supplied and the total work (`slots.len() × unit_work`
/// estimated scalar operations) clears the sharding floor. Each slot is
/// an independent computation, so parallel output is bit-identical to
/// serial.
pub(crate) fn fill_slots(
    pool: Option<&WorkerPool>,
    profile: Option<&DispatchProfile>,
    unit_work: usize,
    slots: &mut [f64],
    compute: impl Fn(usize) -> f64 + Sync,
) {
    match worth_sharding(pool, slots.len().saturating_mul(unit_work)) {
        Some(pool) if slots.len() > 1 => {
            let out = SharedSlots::new(slots);
            timed_dispatch(profile, || {
                pool.run(out.len(), &|range| {
                    for i in range {
                        // SAFETY: `i` is owned by exactly one chunk.
                        unsafe { out.write(i, compute(i)) };
                    }
                });
            });
        }
        _ => {
            for (i, slot) in slots.iter_mut().enumerate() {
                *slot = compute(i);
            }
        }
    }
}

/// Fills `out` with the batch's symmetric `n × n` squared-distance matrix
/// (row-major, zero diagonal): `out[i·n + j] = dist(row_i, row_j)²`.
///
/// Each unordered pair is computed once — four pairs per walk over row
/// `i` ([`rowops::dist4`]) — and written to both mirrored slots. The unit
/// of the fixed schedule is the linearised upper-triangle pair index
/// (`(0,1), (0,2), …, (n−2,n−1)`), so chunks balance even though row `i`
/// owns `n − 1 − i` pairs. Whatever chunk or four-wide group a pair lands
/// in, its value is [`rowops::dist`]'s bit for bit, so the matrix is
/// identical at any thread count.
pub(crate) fn pairwise_dist_sq_into(batch: &GradientBatch, out: &mut Vec<f64>) {
    let rows = Rows::of(batch);
    let n = batch.len();
    let pairs = n * n.saturating_sub(1) / 2;
    out.clear();
    out.resize(n * n, 0.0);
    let slots = SharedSlots::new(out);
    match worth_sharding(batch.worker_pool(), pairs.saturating_mul(batch.dim())) {
        Some(pool) if pairs > 1 => timed_dispatch(batch.dispatch_profile(), || {
            // SAFETY: `slots` has `n × n` entries and the fixed schedule
            // hands every pair index below `pairs` to exactly one chunk.
            pool.run(pairs, &|range| unsafe {
                fill_pairs(rows, n, range, &slots)
            });
        }),
        // SAFETY: `slots` has `n × n` entries and nothing else runs.
        _ => unsafe { fill_pairs(rows, n, 0..pairs, &slots) },
    }
}

/// The pairs of [`pairwise_dist_sq_into`] with linear indices in `range`.
///
/// # Safety
///
/// `rows` holds `n` rows, `out` has `n × n` slots, `range` lies within
/// `0..n(n − 1)/2`, and no other thread concurrently handles a pair index
/// in `range` — pair `(i, j)` is the sole writer of slots `(i, j)` and
/// `(j, i)`.
unsafe fn fill_pairs(rows: Rows<'_>, n: usize, range: Range<usize>, out: &SharedSlots<'_>) {
    let store = |i: usize, j: usize, d: f64| {
        // SAFETY: the walk below only reaches `i < j < n`, inside the
        // `n × n` matrix, and this call owns pair `(i, j)` per the
        // function's contract.
        unsafe {
            out.write(i * n + j, d * d);
            out.write(j * n + i, d * d);
        }
    };
    if range.is_empty() {
        return;
    }
    // Unlinearise the first pair: row `i` owns `n − 1 − i` pairs.
    let (mut i, mut offset) = (0, range.start);
    while offset >= n - 1 - i {
        offset -= n - 1 - i;
        i += 1;
    }
    let mut j = i + 1 + offset;
    let mut left = range.len();
    while left > 0 {
        let end = n.min(j + left);
        left -= end - j;
        let a = rows.row(i);
        while j + 4 <= end {
            let four = rowops::dist4(a, [j, j + 1, j + 2, j + 3].map(|p| rows.row(p)));
            for (lane, d) in four.into_iter().enumerate() {
                store(i, j + lane, d);
            }
            j += 4;
        }
        while j < end {
            store(i, j, rowops::dist(a, rows.row(j)));
            j += 1;
        }
        i += 1;
        j = i + 1;
    }
}

/// `acc[k] += Σ_p w_p · row_p[k]` over the listed rows, **in list order
/// per coordinate** — the exact addition sequence of the serial
/// row-major loop, so splitting columns across the pool changes nothing
/// bitwise. `indices = None` means rows `0..count` in order; `weights =
/// None` means all ones (plain accumulation).
#[allow(clippy::too_many_arguments)] // internal kernel: shard + profile plumbing
                                     // LINT-ALLOW(panic-reach): `indices` and `weights` carry exactly `count`
                                     // entries (debug-asserted below), `p` ranges over `0..count`, and column
                                     // ranges come from the pool's schedule over `acc.len()`.
pub(crate) fn weighted_sum_into(
    pool: Option<&WorkerPool>,
    profile: Option<&DispatchProfile>,
    rows: Rows<'_>,
    indices: Option<&[usize]>,
    weights: Option<&[f64]>,
    count: usize,
    acc: &mut [f64],
) {
    debug_assert!(indices.is_none_or(|idx| idx.len() == count));
    debug_assert!(weights.is_none_or(|w| w.len() == count));
    match worth_sharding(pool, count.saturating_mul(acc.len())) {
        Some(pool) if acc.len() > 1 => {
            let out = SharedSlots::new(acc);
            timed_dispatch(profile, || {
                pool.run(out.len(), &|range| {
                    // SAFETY: this chunk owns exactly the columns in `range`.
                    let acc = unsafe { out.slice(range.clone()) };
                    for p in 0..count {
                        let row = &rows.row(indices.map_or(p, |idx| idx[p]))[range.clone()];
                        match weights {
                            None => {
                                for (a, &v) in acc.iter_mut().zip(row) {
                                    *a += v;
                                }
                            }
                            Some(w) => {
                                let w = w[p];
                                for (a, &v) in acc.iter_mut().zip(row) {
                                    *a += w * v;
                                }
                            }
                        }
                    }
                });
            });
        }
        _ => {
            for p in 0..count {
                let row = rows.row(indices.map_or(p, |idx| idx[p]));
                match weights {
                    None => rowops::add_assign(acc, row),
                    Some(w) => rowops::axpy(acc, w[p], row),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_linalg::{stats, Vector, WorkerPool};
    use std::sync::Arc;

    fn demo_batch(n: usize, dim: usize) -> GradientBatch {
        let mut batch = GradientBatch::with_capacity(n, dim);
        for i in 0..n {
            let row: Vec<f64> = (0..dim)
                .map(|k| ((i * 31 + k * 7) % 13) as f64 - 6.0 + 0.1 * i as f64)
                .collect();
            batch.push_row(&row);
        }
        batch
    }

    #[test]
    fn for_each_column_parallel_is_bit_identical_to_serial() {
        // 1024 and 2000 clear the sharding floor at n = 9 (so the pool
        // actually engages); the small dims pin the serial-fallback path.
        for dim in [1usize, 31, 32, 33, 100, 1024, 2000] {
            let mut serial_batch = demo_batch(9, dim);
            let mut serial = Vector::zeros(dim);
            let mut tile = Vec::new();
            for_each_column(
                &serial_batch,
                None,
                &mut tile,
                serial.as_mut_slice(),
                stats::median_in_place,
            );
            for threads in [2usize, 4] {
                serial_batch.set_worker_pool(Some(Arc::new(WorkerPool::new(threads))));
                let mut parallel = Vector::zeros(dim);
                for_each_column(
                    &serial_batch,
                    None,
                    &mut tile,
                    parallel.as_mut_slice(),
                    stats::median_in_place,
                );
                assert_eq!(
                    serial.as_slice(),
                    parallel.as_slice(),
                    "dim {dim}, {threads}t"
                );
            }
        }
    }

    #[test]
    fn row_subsets_restrict_the_reduction() {
        let batch = demo_batch(5, 3);
        let mut tile = Vec::new();
        let mut all = vec![0.0; 3];
        let subset = [1usize, 3];
        let mut sub = vec![0.0; 3];
        for_each_column(&batch, None, &mut tile, &mut all, |col| stats::mean(col));
        for_each_column(&batch, Some(&subset), &mut tile, &mut sub, |col| {
            stats::mean(col)
        });
        for k in 0..3 {
            let expected = 0.5 * (batch.row(1)[k] + batch.row(3)[k]);
            assert_eq!(sub[k], expected);
            assert_ne!(all[k], sub[k]);
        }
    }

    #[test]
    fn weighted_sum_matches_serial_axpy_bitwise() {
        // 7 × 1500 clears the sharding floor, so the pool path runs.
        let batch = demo_batch(7, 1500);
        let rows = Rows::of(&batch);
        let weights: Vec<f64> = (0..7).map(|p| 0.3 + 0.1 * p as f64).collect();
        let mut serial = vec![0.0; 1500];
        weighted_sum_into(None, None, rows, None, Some(&weights), 7, &mut serial);
        let pool = WorkerPool::new(4);
        let mut parallel = vec![0.0; 1500];
        weighted_sum_into(
            Some(&pool),
            None,
            rows,
            None,
            Some(&weights),
            7,
            &mut parallel,
        );
        assert!(serial
            .iter()
            .zip(&parallel)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn installed_dispatch_profile_counts_pool_dispatches_only() {
        let mut batch = demo_batch(9, 2000);
        let mut tile = Vec::new();
        let mut slots = vec![0.0; 2000];

        batch.set_worker_pool(Some(Arc::new(WorkerPool::new(2))));
        batch.set_dispatch_profile(Some(DispatchProfile::new()));
        for_each_column(&batch, None, &mut tile, &mut slots, stats::median_in_place);
        let profile = batch.take_dispatch_profile().expect("installed above");
        let snap = profile.snapshot();
        assert!(snap.dispatches >= 1, "the pool path times its dispatch");
        assert_eq!(snap.hist.count(), snap.dispatches);

        // The serial path never touches the profile (or any clock).
        batch.set_worker_pool(None);
        batch.set_dispatch_profile(Some(DispatchProfile::new()));
        for_each_column(&batch, None, &mut tile, &mut slots, stats::median_in_place);
        let profile = batch.take_dispatch_profile().expect("installed above");
        assert_eq!(profile.snapshot().dispatches, 0);
    }

    #[test]
    fn pair_matrix_is_dist_squared_per_entry_at_any_thread_count() {
        // 1500 columns clear the sharding floor; the sizes put chunk
        // boundaries mid-row and leave every four-wide remainder.
        for n in [2usize, 3, 6, 7, 9] {
            let mut batch = demo_batch(n, 1500);
            let mut serial = Vec::new();
            pairwise_dist_sq_into(&batch, &mut serial);
            for i in 0..n {
                for j in 0..n {
                    let d = rowops::dist(batch.row(i), batch.row(j));
                    let want = if i == j { 0.0 } else { d * d };
                    assert_eq!(serial[i * n + j].to_bits(), want.to_bits(), "({i}, {j})");
                }
            }
            for threads in [2usize, 3, 4] {
                batch.set_worker_pool(Some(Arc::new(WorkerPool::new(threads))));
                let mut parallel = vec![f64::NAN; 3];
                pairwise_dist_sq_into(&batch, &mut parallel);
                assert_eq!(serial, parallel, "n {n}, {threads}t");
            }
        }
    }

    #[test]
    fn fill_slots_covers_every_slot_in_parallel() {
        let pool = WorkerPool::new(3);
        let mut serial = vec![0.0; 11];
        fill_slots(None, None, 10_000, &mut serial, |i| (i as f64).sqrt());
        let mut parallel = vec![0.0; 11];
        fill_slots(Some(&pool), None, 10_000, &mut parallel, |i| {
            (i as f64).sqrt()
        });
        assert_eq!(serial, parallel);
    }
}
