//! Contiguous gradient storage for the aggregation hot path.
//!
//! The DGD loop (Section 4.1) aggregates `n` gradients of dimension `d`
//! every iteration. Passing them as `&[Vector]` means `n` separate heap
//! allocations per round and pointer-chasing inside every filter — fine
//! for the paper's `n = 6, d = 2` regression, hostile to the production
//! shapes this repository targets. [`GradientBatch`] replaces that with
//! one row-major `n × d` buffer that is filled in place each round and
//! reused across all `T` iterations, plus a [`BatchScratch`] arena of
//! reusable working buffers so filters allocate nothing per call.
//!
//! # Example
//!
//! ```
//! use abft_linalg::GradientBatch;
//!
//! let mut batch = GradientBatch::with_capacity(3, 2);
//! batch.push_row(&[1.0, 2.0]);
//! batch.push_row(&[3.0, 4.0]);
//! assert_eq!(batch.len(), 2);
//! assert_eq!(batch.row(1), &[3.0, 4.0]);
//!
//! // Rounds reuse the same buffer: clear keeps the allocation.
//! batch.clear();
//! assert!(batch.is_empty());
//! ```

use crate::pool::WorkerPool;
use crate::sortnet::SortingNetwork;
use abft_telemetry::DispatchProfile;
use std::cell::{RefCell, RefMut};
use std::sync::Arc;

/// Reusable working buffers for batch consumers (filters, drivers).
///
/// Buffers keep their capacity across uses, so a filter that runs every
/// iteration allocates only on its first call per size regime. The
/// buffers are plain `Vec`s — callers `clear`/`resize` them to whatever
/// shape they need; nothing about their content survives a call by
/// contract.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Per-row scalar workspace (norms, scores).
    pub keys: Vec<f64>,
    /// Per-row scalar workspace (column gathers, distances).
    pub column: Vec<f64>,
    /// Per-row index workspace (sort orders).
    pub order: Vec<usize>,
    /// Per-row index workspace (candidate pools).
    pub pool: Vec<usize>,
    /// Per-row index workspace (selections).
    pub selection: Vec<usize>,
    /// Dimension-sized vector workspace.
    pub vec_a: Vec<f64>,
    /// Dimension-sized vector workspace.
    pub vec_b: Vec<f64>,
    /// Arbitrary flat matrix workspace (e.g. bucket means, the
    /// coordinate-wise filters' row-major column tile).
    pub flat: Vec<f64>,
    /// The coordinate-wise filters' sorting schedule, kept between calls
    /// so a steady row count builds it once.
    pub network: SortingNetwork,
    /// Row-major `n × n` pairwise workspace (the Krum family's symmetric
    /// squared-distance matrix, filled once per aggregation call; while it
    /// is filled, the packed triangle and the pair kernel's column block
    /// sit past its end).
    pub dist_sq: Vec<f64>,
}

/// A contiguous, row-major batch of `n` gradients of dimension `d`.
///
/// The batch owns its storage and a [`BatchScratch`] arena behind a
/// `RefCell`, making it a single-thread working arena: the aggregation
/// entry points take `&GradientBatch` and borrow the scratch internally.
/// (The type is `Send` but deliberately not `Sync` — each server loop or
/// simulation owns one.)
#[derive(Debug)]
pub struct GradientBatch {
    data: Vec<f64>,
    dim: usize,
    rows: usize,
    scratch: RefCell<BatchScratch>,
    pool: Option<Arc<WorkerPool>>,
    profile: Option<DispatchProfile>,
}

impl GradientBatch {
    /// An empty batch of `dim`-dimensional rows.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`: a zero-dimension gradient carries no
    /// information, and rejecting it here keeps every row exactly `dim`
    /// entries wide with no special cases downstream.
    pub fn new(dim: usize) -> Self {
        Self::with_capacity(0, dim)
    }

    /// An empty batch with storage reserved for `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0` (see [`GradientBatch::new`]).
    pub fn with_capacity(rows: usize, dim: usize) -> Self {
        // LINT-ALLOW(panic-reach): documented panic contract for caller bugs, not a data-dependent failure
        assert!(dim > 0, "GradientBatch requires dim > 0");
        GradientBatch {
            data: Vec::with_capacity(rows * dim),
            dim,
            rows: 0,
            scratch: RefCell::new(BatchScratch::default()),
            pool: None,
            profile: None,
        }
    }

    /// Attaches (or detaches, with `None`) the worker pool filters shard
    /// their kernels across. Serial aggregation — the default — is simply a
    /// batch with no pool.
    pub fn set_worker_pool(&mut self, pool: Option<Arc<WorkerPool>>) {
        self.pool = pool;
    }

    /// The attached worker pool, if any. A pool of one thread counts as
    /// serial and is reported as `None`, so kernels have exactly one
    /// serial path.
    pub fn worker_pool(&self) -> Option<&WorkerPool> {
        self.pool.as_deref().filter(|pool| pool.threads() > 1)
    }

    /// Installs (or removes, with `None`) a telemetry profile that the
    /// parallel kernels time their pool dispatches into. Drivers install
    /// one per run when wall-clock telemetry is enabled and
    /// [`take_dispatch_profile`](GradientBatch::take_dispatch_profile)
    /// it back at run end; a batch without one times nothing.
    pub fn set_dispatch_profile(&mut self, profile: Option<DispatchProfile>) {
        self.profile = profile;
    }

    /// The installed dispatch profile, if any.
    pub fn dispatch_profile(&self) -> Option<&DispatchProfile> {
        self.profile.as_ref()
    }

    /// Removes and returns the installed dispatch profile.
    pub fn take_dispatch_profile(&mut self) -> Option<DispatchProfile> {
        self.profile.take()
    }

    /// Row dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows currently in the batch.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Drops all rows, keeping the allocation (per-round reset).
    pub fn clear(&mut self) {
        self.data.clear();
        self.rows = 0;
    }

    /// Resizes to exactly `rows` zeroed rows, keeping the allocation.
    ///
    /// Used by drivers that assign row slots up front and then fill them
    /// out of order (e.g. honest gradients first, forgeries second).
    pub fn reset_rows(&mut self, rows: usize) {
        self.data.clear();
        self.data.resize(rows * self.dim, 0.0);
        self.rows = rows;
    }

    /// Appends a row copied from `src`, returning its index.
    ///
    /// # Panics
    ///
    /// Panics when `src.len() != self.dim()`.
    pub fn push_row(&mut self, src: &[f64]) -> usize {
        // LINT-ALLOW(panic-reach): documented panic contract for caller bugs, not a data-dependent failure
        assert_eq!(src.len(), self.dim, "row length must equal batch dim");
        self.data.extend_from_slice(src);
        self.rows += 1;
        self.rows - 1
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    // LINT-ALLOW(panic-reach): the assert bounds `i`, so the slice
    // arithmetic below it stays inside `data`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of range for {} rows", self.rows);
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    // LINT-ALLOW(panic-reach): the assert bounds `i`, so the slice
    // arithmetic below it stays inside `data`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of range for {} rows", self.rows);
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Removes row `i`, shifting the rows after it down by one (for a
    /// driver that assigns row slots up front and must vacate one; no
    /// driver in the workspace does any more).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn remove_row(&mut self, i: usize) {
        assert!(i < self.rows, "row {i} out of range for {} rows", self.rows);
        let start = i * self.dim;
        self.data.copy_within((i + 1) * self.dim.., start);
        self.data.truncate((self.rows - 1) * self.dim);
        self.rows -= 1;
    }

    /// Iterates over the rows in order.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        // dim > 0 is a construction invariant, so the chunk size is valid.
        self.data.chunks_exact(self.dim).take(self.rows)
    }

    /// The whole buffer as one flat slice (`len() * dim()` values).
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// The whole buffer as one flat mutable slice. Runtimes that stream
    /// agent replies directly into their rows derive per-row pointers from
    /// this base exactly once per round.
    pub fn as_flat_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// `true` if any entry of any row is NaN or infinite, along with the
    /// first offending row index.
    pub fn first_non_finite_row(&self) -> Option<usize> {
        self.rows_iter()
            .position(|row| row.iter().any(|a| !a.is_finite()))
    }

    /// Borrows the scratch arena.
    ///
    /// # Panics
    ///
    /// Panics when the scratch is already borrowed — aggregation entry
    /// points take it exactly once and pass it down by reference, so a
    /// double borrow indicates a bug in a filter implementation.
    pub fn scratch(&self) -> RefMut<'_, BatchScratch> {
        self.scratch.borrow_mut()
    }
}

/// Elementary slice kernels shared by filters and drivers: the workspace's
/// one home of the row reductions and `axpy`. [`crate::Vector`]'s methods
/// are these, on the vector's entries.
pub mod rowops {
    /// Squared Euclidean norm.
    pub fn norm_sq(row: &[f64]) -> f64 {
        row.iter().map(|a| a * a).sum()
    }

    /// Euclidean norm.
    pub fn norm(row: &[f64]) -> f64 {
        norm_sq(row).sqrt()
    }

    /// Inner product.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ (debug builds).
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Euclidean distance.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ (debug builds).
    pub fn dist(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    /// Euclidean distances from `a` to four rows in one walk over `a`:
    /// lane `l` equals [`dist`]`(a, rows[l])` **bit for bit** — each lane
    /// sums its `(x − y)²` terms in index order into its own accumulator,
    /// so the four add chains are independent where a lone [`dist`] call
    /// is bound by one chain's latency. The Krum family's narrow pair walk
    /// runs it with `a` a row, the filters' row-to-centre passes with `a`
    /// the centre: since `(x − y)² ≡ (y − x)²`, lane `l` is also
    /// [`dist`]`(rows[l], a)` bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ (debug builds).
    pub fn dist4(a: &[f64], rows: [&[f64]; 4]) -> [f64; 4] {
        let [b0, b1, b2, b3] = rows;
        debug_assert!(rows.iter().all(|b| b.len() == a.len()));
        // `-0.0` is the identity `Iterator::sum` starts from, so even a
        // zero-length lane matches `dist`.
        let (mut s0, mut s1, mut s2, mut s3) = (-0.0f64, -0.0f64, -0.0f64, -0.0f64);
        for ((((x, y0), y1), y2), y3) in a.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
            s0 += (x - y0) * (x - y0);
            s1 += (x - y1) * (x - y1);
            s2 += (x - y2) * (x - y2);
            s3 += (x - y3) * (x - y3);
        }
        [s0.sqrt(), s1.sqrt(), s2.sqrt(), s3.sqrt()]
    }

    /// Euclidean norms of four rows in one walk: lane `l` equals
    /// [`norm`]`(rows[l])` **bit for bit**, each lane summing its squares
    /// in index order into its own accumulator — [`dist4`] against the
    /// origin, since `(0 − y)² ≡ y²`, without reading one.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ (debug builds).
    pub fn norm4(rows: [&[f64]; 4]) -> [f64; 4] {
        let [b0, b1, b2, b3] = rows;
        debug_assert!(rows.iter().all(|b| b.len() == b0.len()));
        let (mut s0, mut s1, mut s2, mut s3) = (-0.0f64, -0.0f64, -0.0f64, -0.0f64);
        for (((y0, y1), y2), y3) in b0.iter().zip(b1).zip(b2).zip(b3) {
            s0 += y0 * y0;
            s1 += y1 * y1;
            s2 += y2 * y2;
            s3 += y3 * y3;
        }
        [s0.sqrt(), s1.sqrt(), s2.sqrt(), s3.sqrt()]
    }

    /// `acc[i] += row[i]`.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ (debug builds).
    pub fn add_assign(acc: &mut [f64], row: &[f64]) {
        debug_assert_eq!(acc.len(), row.len());
        for (a, b) in acc.iter_mut().zip(row) {
            *a += b;
        }
    }

    /// `acc[i] += factor * row[i]` (BLAS `axpy`).
    ///
    /// # Panics
    ///
    /// Panics when lengths differ (debug builds).
    pub fn axpy(acc: &mut [f64], factor: f64, row: &[f64]) {
        debug_assert_eq!(acc.len(), row.len());
        for (a, b) in acc.iter_mut().zip(row) {
            *a += factor * b;
        }
    }

    /// `row[i] *= factor`.
    pub fn scale(row: &mut [f64], factor: f64) {
        for a in row {
            *a *= factor;
        }
    }

    /// `row[i] = 0.0`.
    pub fn fill_zero(row: &mut [f64]) {
        row.fill(0.0);
    }

    /// Lexicographic comparison of two rows under IEEE-754 `totalOrder`
    /// ([`f64::total_cmp`] per entry, then length).
    ///
    /// Total order makes tie-breaking well-defined on *any* input: a NaN
    /// that slips past an entry guard sorts deterministically instead of
    /// aborting the aggregator mid-round. (For the finite values the
    /// aggregation path actually admits, this agrees with the numeric
    /// order, except that `-0.0` sorts before `+0.0`.)
    pub fn lex_cmp(a: &[f64], b: &[f64]) -> std::cmp::Ordering {
        for (x, y) in a.iter().zip(b) {
            match x.total_cmp(y) {
                std::cmp::Ordering::Equal => {}
                unequal => return unequal,
            }
        }
        a.len().cmp(&b.len())
    }
}

#[cfg(test)]
mod tests {
    use super::rowops;
    use super::GradientBatch;
    use crate::Vector;

    #[test]
    fn push_and_read_rows() {
        let mut b = GradientBatch::with_capacity(2, 3);
        assert_eq!(b.push_row(&[1.0, 2.0, 3.0]), 0);
        assert_eq!(b.push_row(&[4.0, 5.0, 6.0]), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.dim(), 3);
        assert_eq!(b.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(b.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(b.as_flat(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn push_row_rejects_wrong_dim() {
        GradientBatch::new(2).push_row(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_out_of_range_panics() {
        let b = GradientBatch::new(2);
        let _ = b.row(0);
    }

    #[test]
    #[should_panic(expected = "dim > 0")]
    fn zero_dimension_batches_are_rejected_at_construction() {
        let _ = GradientBatch::new(0);
    }

    #[test]
    fn remove_row_shifts_later_rows_down() {
        let mut b = GradientBatch::new(2);
        b.push_row(&[1.0, 2.0]);
        b.push_row(&[3.0, 4.0]);
        b.push_row(&[5.0, 6.0]);
        b.remove_row(1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(0), &[1.0, 2.0]);
        assert_eq!(b.row(1), &[5.0, 6.0]);
        b.remove_row(1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.as_flat(), &[1.0, 2.0]);
        b.remove_row(0);
        assert!(b.is_empty());
    }

    #[test]
    fn worker_pool_attachment_reports_parallel_pools_only() {
        use crate::pool::WorkerPool;
        use std::sync::Arc;
        let mut b = GradientBatch::new(2);
        assert!(b.worker_pool().is_none());
        b.set_worker_pool(Some(Arc::new(WorkerPool::new(1))));
        assert!(b.worker_pool().is_none(), "1 thread means serial");
        b.set_worker_pool(Some(Arc::new(WorkerPool::new(2))));
        assert_eq!(b.worker_pool().expect("parallel pool").threads(), 2);
        b.set_worker_pool(None);
        assert!(b.worker_pool().is_none());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = GradientBatch::with_capacity(4, 8);
        for _ in 0..4 {
            b.push_row(&[0.0; 8]);
        }
        let cap = b.data.capacity();
        b.clear();
        assert!(b.is_empty());
        for _ in 0..4 {
            b.push_row(&[1.0; 8]);
        }
        assert_eq!(b.data.capacity(), cap, "round reuse must not reallocate");
    }

    #[test]
    fn reset_rows_zeroes_slots() {
        let mut b = GradientBatch::new(2);
        b.push_row(&[9.0, 9.0]);
        b.reset_rows(3);
        assert_eq!(b.len(), 3);
        assert!(b.as_flat().iter().all(|&x| x == 0.0));
        b.row_mut(2).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(b.row(2), &[1.0, 2.0]);
        assert_eq!(b.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn non_finite_detection_reports_first_row() {
        let mut b = GradientBatch::new(2);
        b.push_row(&[1.0, 2.0]);
        b.push_row(&[f64::NAN, 0.0]);
        b.push_row(&[f64::INFINITY, 0.0]);
        assert_eq!(b.first_non_finite_row(), Some(1));
        let mut ok = GradientBatch::new(1);
        ok.push_row(&[0.5]);
        assert_eq!(ok.first_non_finite_row(), None);
    }

    #[test]
    fn rows_iter_matches_rows() {
        let mut b = GradientBatch::new(2);
        b.push_row(&[1.0, 2.0]);
        b.push_row(&[3.0, 4.0]);
        let collected: Vec<&[f64]> = b.rows_iter().collect();
        assert_eq!(collected, vec![b.row(0), b.row(1)]);
    }

    #[test]
    fn scratch_buffers_persist_capacity() {
        let b = GradientBatch::new(4);
        {
            let mut s = b.scratch();
            s.keys.resize(100, 0.0);
        }
        let s = b.scratch();
        assert!(s.keys.capacity() >= 100);
    }

    #[test]
    fn rowops_match_vector_ops() {
        let x = Vector::from(vec![3.0, -4.0]);
        let y = Vector::from(vec![1.0, 1.0]);
        assert_eq!(rowops::norm(x.as_slice()), x.norm());
        assert_eq!(rowops::norm_sq(x.as_slice()), x.norm_sq());
        assert_eq!(rowops::dot(x.as_slice(), y.as_slice()), x.dot(&y));
        assert_eq!(rowops::dist(x.as_slice(), y.as_slice()), x.dist(&y));

        let mut acc = vec![1.0, 1.0];
        rowops::add_assign(&mut acc, x.as_slice());
        assert_eq!(acc, vec![4.0, -3.0]);
        rowops::axpy(&mut acc, 2.0, y.as_slice());
        assert_eq!(acc, vec![6.0, -1.0]);
        rowops::scale(&mut acc, 0.5);
        assert_eq!(acc, vec![3.0, -0.5]);
        rowops::fill_zero(&mut acc);
        assert_eq!(acc, vec![0.0, 0.0]);
    }

    #[test]
    fn lex_cmp_orders_rows() {
        use std::cmp::Ordering;
        assert_eq!(rowops::lex_cmp(&[1.0, 2.0], &[1.0, 3.0]), Ordering::Less);
        assert_eq!(rowops::lex_cmp(&[2.0], &[1.0]), Ordering::Greater);
        assert_eq!(rowops::lex_cmp(&[1.0], &[1.0]), Ordering::Equal);
        assert_eq!(rowops::lex_cmp(&[1.0], &[1.0, 0.0]), Ordering::Less);
    }

    #[test]
    fn lex_cmp_is_total_on_non_finite_rows() {
        use std::cmp::Ordering;
        // A NaN that slips past the entry guard must order, not panic.
        assert_eq!(rowops::lex_cmp(&[f64::NAN], &[1.0]), Ordering::Greater);
        assert_eq!(rowops::lex_cmp(&[1.0], &[f64::NAN]), Ordering::Less);
        assert_eq!(rowops::lex_cmp(&[f64::NAN], &[f64::NAN]), Ordering::Equal);
        assert_eq!(
            rowops::lex_cmp(&[f64::NEG_INFINITY], &[f64::INFINITY]),
            Ordering::Less
        );
    }
}
