//! Tiled kernels shared by the filters, serial or sharded across a
//! [`WorkerPool`].
//!
//! Every kernel here obeys the pool contract (fixed schedule, split
//! output — see [`abft_linalg::pool`]): the pool cuts the kernel's output
//! at its own chunk edges and hands each chunk its piece as `&mut`, and a
//! unit's result is computed by exactly the same floating-point operations
//! in the same order whether the batch carries a pool or not, so parallel
//! aggregation is **bit-identical** to serial at any thread count. No
//! kernel here writes through a pointer: the serial pass is the same task
//! called once on the whole output. Kernels read the batch through
//! [`Rows`] — a `Copy` view of the flat storage — because the batch itself
//! (scratch arena included) is deliberately not `Sync`.
//!
//! Three sharding axes cover all registered filters:
//!
//! * **Columns** ([`trimmed_mean_columns`], [`weighted_sum_into`],
//!   [`for_each_slot_range`]): the per-coordinate filters and every
//!   row-accumulation reduce independently per coordinate. The order-statistics filters (CWTM,
//!   CWMed, Bulyan's trim stage) split the columns into 32-column tiles,
//!   each copied row-major and sorted whole by one sorting-network pass;
//!   the accumulations (mean, the weighted sums, sign-majority's vote)
//!   walk the batch row-major over contiguous column ranges.
//! * **Slot rows** ([`centre_dists_into`]): CGE, FABA, geomed and the two
//!   clipping filters compute one scalar per row — a norm, a distance to
//!   the running mean, to the Weiszfeld iterate or to the clipping
//!   iterate — into its own slot, four rows per walk over the centre;
//!   rows are split into contiguous chunks.
//! * **Pair indices** ([`pairwise_dist_sq_into`]): the Krum family
//!   (Krum, multi-Krum, Bulyan) fills one symmetric squared-distance
//!   matrix per aggregation call; the linearised upper-triangle pairs are
//!   split into contiguous chunks — a chunk may start and end mid-row —
//!   each filling its run of a packed triangle that one serial pass
//!   mirrors into the matrix.
//!
//! Two kernels are [`simd::Kernel`]s: each pool chunk runs them at the
//! widest vector width the CPU reports (AVX-512F, AVX2 or the SSE2
//! baseline, [`simd::widest`]). Every width performs the same operations
//! in the same order, so its bits are the baseline's, which stays the
//! reference (the unit tests below hold every supported width to it and,
//! for the pairs, to [`rowops::dist`]).
//!
//! * The **tile kernel** — copy, exchanges, signed-zero fix-up and
//!   ascending sum — so a 32-lane exchange is four 512-bit `min`/`max`
//!   pairs instead of sixteen 128-bit ones.
//! * The **pair kernel** ([`PairKernel`]) copies a block of columns
//!   column-major, so one vector op advances eight pairs `(i, j)` of a row
//!   `i` by one column each, every lane summing its own `(x − y)²` terms
//!   in column order: the per-pair add chain is no longer the bound.
//!
//! A batch narrower than one tile or block — the paper's `d = 2` — keeps
//! the baseline instructions and, for the pairs, the four-pair walk: the
//! choice follows the input's shape, never an option.

use abft_linalg::pool::WorkerPool;
use abft_linalg::simd::{self, Kernel};
use abft_linalg::{rowops, GradientBatch, SortingNetwork};
use abft_telemetry::DispatchProfile;
use std::hint::select_unpredictable;
use std::ops::Range;

/// Columns sorted per tile pass. At 32 columns × 8 bytes each row
/// segment spans four cache lines, so the row-major batch streams through
/// the cache once per tile instead of missing once per (row, column) pair,
/// a 40-row tile (10 KiB) stays in L1 through all of its exchanges, and
/// every exchange runs over 32 independent lanes. Tiles are also the unit
/// of the parallel schedule: a worker owns a contiguous run of whole tiles.
const TILE_COLUMNS: usize = 32;

// `reduce_tile` sorts a tile's lanes in groups of 32, 16, … 1: a wider
// tile needs a wider first group (this fails to compile until it has one).
const _: [(); 32] = [(); TILE_COLUMNS];

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

    /// Every row, in order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &'a [f64]> {
        self.data.chunks_exact(self.dim)
    }

    /// Row `i`.
    // LINT-ALLOW(panic-reach): `data.len()` is a multiple of `dim`
    // (checked in `new`) and callers pass row indices below that bound —
    // the filters only index through validated batch shapes.
    pub(crate) fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Per-column trimmed mean of the batch's rows (restricted to `rows` when
/// given): `slots[k]` becomes the mean of the middle `count − 2·trim`
/// order statistics of column `k` under [`f64::total_cmp`], **summed in
/// ascending order** from [`Iterator::sum`]'s identity — bit-equal to
/// [`abft_linalg::stats::trimmed_mean`] of the gathered column, so the
/// result depends on the column's multiset only: not on the agents' order,
/// and not on which algorithm finds the order statistics. With
/// `trim = (count − 1) / 2` that is [`abft_linalg::stats::median`], bit for
/// bit (one kept value divides by 1, two halve their sum). Callers
/// guarantee `count > 2·trim`.
///
/// Each tile of [`TILE_COLUMNS`] columns is copied row-major into `tile`
/// and sorted by one pass of `network`'s schedule over its rows, every
/// compare-exchange applied element-wise across the tile's columns. With
/// a pool attached to the batch, tile chunks run on the workers (each
/// with its own persistent tile buffer, all reading one schedule),
/// bit-identical to the serial pass.
pub(crate) fn trimmed_mean_columns(
    batch: &GradientBatch,
    rows: Option<&[usize]>,
    trim: usize,
    network: &mut SortingNetwork,
    tile: &mut Vec<f64>,
    slots: &mut [f64],
) {
    let view = Rows::of(batch);
    let count = rows.map_or(batch.len(), <[usize]>::len);
    debug_assert!(count > 2 * trim);
    let schedule = network.for_rows(count);
    let dim = slots.len();
    let tiles = dim.div_ceil(TILE_COLUMNS);
    let reduce = |tile: &mut Vec<f64>, tiles: Range<usize>, slots: &mut [f64]| {
        let kernel = TileKernel {
            view,
            rows,
            trim,
            schedule,
            tiles,
            tile,
            slots,
        };
        // A batch narrower than one tile (the paper's `d = 2`) keeps the
        // instructions it always ran: its few lanes gain nothing from
        // wider vectors.
        if dim < TILE_COLUMNS {
            kernel.compute();
        } else {
            simd::widest(kernel);
        }
    };
    match worth_sharding(batch.worker_pool(), count * dim) {
        Some(pool) if tiles > 1 => timed_dispatch(batch.dispatch_profile(), || {
            let edge = |t: usize| (t * TILE_COLUMNS).min(dim);
            pool.run_split(tiles, slots, edge, tile, &reduce);
        }),
        _ => reduce(tile, 0..tiles, slots),
    }
}

/// Tiles `tiles` of [`trimmed_mean_columns`] reduced into `slots` (the
/// tiles' columns, in order) through the `tile` buffer — the whole
/// per-tile kernel, compiled at every [`simd::Width`].
struct TileKernel<'a, 'b> {
    view: Rows<'a>,
    rows: Option<&'a [usize]>,
    trim: usize,
    schedule: &'a [(usize, usize)],
    tiles: Range<usize>,
    tile: &'b mut Vec<f64>,
    slots: &'b mut [f64],
}

impl Kernel for TileKernel<'_, '_> {
    type Output = ();

    #[inline(always)]
    fn compute(self) {
        let TileKernel {
            view,
            rows,
            trim,
            schedule,
            tiles,
            tile,
            slots,
        } = self;
        for (t, tile_slots) in tiles.zip(slots.chunks_mut(TILE_COLUMNS)) {
            match rows {
                None => reduce_tile(view.iter(), t, trim, schedule, tile, tile_slots),
                Some(rows) => {
                    let listed = rows.iter().map(|&i| view.row(i));
                    reduce_tile(listed, t, trim, schedule, tile, tile_slots);
                }
            }
        }
    }
}

/// Tile `t` of [`trimmed_mean_columns`]: copy the rows' segments of its
/// `slots.len()` columns into `tile`, sort the columns, and average rows
/// `trim..count − trim` into the slots. Inlined, like everything it calls,
/// into each width's copy of [`TileKernel::compute`].
#[inline(always)]
fn reduce_tile<'a>(
    rows: impl ExactSizeIterator<Item = &'a [f64]>,
    t: usize,
    trim: usize,
    schedule: &[(usize, usize)],
    tile: &mut Vec<f64>,
    slots: &mut [f64],
) {
    let (count, width) = (rows.len(), slots.len());
    tile.resize(count * width, 0.0);
    let mut negative_zero = false;
    for (dst, row) in tile.chunks_exact_mut(width).zip(rows) {
        let segment = row.chunks(TILE_COLUMNS).nth(t).unwrap_or_default();
        for (d, &v) in dst.iter_mut().zip(segment) {
            *d = v;
            negative_zero |= v.to_bits() == NEGATIVE_ZERO;
        }
    }
    // Lanes are sorted in groups of a power of two, largest first: a full
    // tile is one group of 32, a partial last tile is the groups of its
    // real width (the paper's `d = 2` is one group of 2, never 32 padded
    // lanes), and every group size is its own copy of the loop with the
    // lane count known — which is what makes each exchange straight-line
    // vector code.
    let done = sort_lanes::<32>(tile, width, 0, schedule);
    let done = sort_lanes::<16>(tile, width, done, schedule);
    let done = sort_lanes::<8>(tile, width, done, schedule);
    let done = sort_lanes::<4>(tile, width, done, schedule);
    let done = sort_lanes::<2>(tile, width, done, schedule);
    sort_lanes::<1>(tile, width, done, schedule);
    // The exchanges compare as `f64`, under which `-0.0 == 0.0`; only a
    // tile that holds a negative zero can disagree with `total_cmp`.
    if negative_zero {
        order_zeros(tile, width);
    }
    // `-0.0` is the identity `Iterator::sum` starts from.
    slots.fill(-0.0);
    let kept = count - 2 * trim;
    for row in tile.chunks_exact(width).skip(trim).take(kept) {
        for (slot, &v) in slots.iter_mut().zip(row) {
            *slot += v;
        }
    }
    let kept = kept as f64;
    for slot in slots {
        *slot /= kept;
    }
}

/// The bits of `-0.0`.
const NEGATIVE_ZERO: u64 = 1 << 63;

/// Sorts columns `first..first + LANES` of the row-major `tile` (rows of
/// `width` values) ascending under `f64` comparison by applying
/// `schedule` between rows, and returns `first + LANES` — or does nothing
/// and returns `first` when fewer than `LANES` columns are left.
///
/// The exchange is two selects on one comparison, so the pair comes out
/// either as it went in or swapped, whole bit patterns either way: the
/// column's multiset survives any input (`f64::min`/`max` would merge
/// `-0.0` with `0.0` and drop a NaN's partner). `select_unpredictable`
/// keeps it branch-free — an `if` compiles to a data-dependent jump per
/// lane — and the two selects lower to one vector `min` and one `max`.
#[inline(always)]
fn sort_lanes<const LANES: usize>(
    tile: &mut [f64],
    width: usize,
    first: usize,
    schedule: &[(usize, usize)],
) -> usize {
    if width - first < LANES {
        return first;
    }
    for &(lo, hi) in schedule {
        let Some((head, tail)) = tile.split_at_mut_checked(hi * width + first) else {
            continue;
        };
        let lo_lanes = head.get_mut(lo * width + first..);
        let lo_lanes = lo_lanes.and_then(<[f64]>::first_chunk_mut::<LANES>);
        let (Some(lo_lanes), Some(hi_lanes)) = (lo_lanes, tail.first_chunk_mut::<LANES>()) else {
            continue;
        };
        for (a, b) in lo_lanes.iter_mut().zip(hi_lanes) {
            let (x, y) = (*a, *b);
            let swap = y < x;
            *a = select_unpredictable(swap, y, x);
            *b = select_unpredictable(swap, x, y);
        }
    }
    first + LANES
}

/// Restores `total_cmp`'s `-0.0 < +0.0` in every column of a tile sorted
/// by [`sort_lanes`]: a column's zeros sit in consecutive rows, so
/// rewriting them in row order, negatives first, is the sorted order.
#[inline(always)]
fn order_zeros(tile: &mut [f64], width: usize) {
    for c in 0..width {
        let column = || tile.iter().skip(c).step_by(width);
        let mut negatives = column().filter(|v| v.to_bits() == NEGATIVE_ZERO).count();
        for v in tile.iter_mut().skip(c).step_by(width) {
            if *v == 0.0 {
                *v = if negatives > 0 { -0.0 } else { 0.0 };
                negatives = negatives.saturating_sub(1);
            }
        }
    }
}

/// `slots[p] = ‖row_p − centre‖` — or `‖row_p‖` when `centre` is `None` —
/// where `row_p` is row `members[p]` of `rows` (row `p` when `members` is
/// `None`): the row-to-centre pass of geomed, FABA, centered-clipping and
/// the norm filters. Rows go four per walk over the centre
/// ([`rowops::dist4`], [`rowops::norm4`]), so four add chains run side by
/// side; every slot still equals [`rowops::dist`]`(row_p, centre)` (or
/// [`rowops::norm`]`(row_p)`) bit for bit, because `(x − y)² ≡ (y − x)²`
/// and `(0 − y)² ≡ y²`. Slots are chunked across the pool when the work
/// clears the sharding floor; a chunk's four-row groups start at its own
/// first slot, which moves no bit.
pub(crate) fn centre_dists_into(
    pool: Option<&WorkerPool>,
    profile: Option<&DispatchProfile>,
    rows: Rows<'_>,
    members: Option<&[usize]>,
    centre: Option<&[f64]>,
    slots: &mut [f64],
) {
    // LINT-ALLOW(panic-reach): callers pass one member per slot, and the
    // pool hands out slot indices below `slots.len()`.
    let row = |p: usize| rows.row(members.map_or(p, |m| m[p]));
    let work = slots.len().saturating_mul(rows.dim);
    for_each_slot_range(pool, profile, work, slots, |range, slots| {
        let mut p = range.start;
        let mut fours = slots.chunks_exact_mut(4);
        for four in &mut fours {
            let group = [p, p + 1, p + 2, p + 3].map(row);
            four.copy_from_slice(&match centre {
                Some(centre) => rowops::dist4(centre, group),
                None => rowops::norm4(group),
            });
            p += 4;
        }
        for slot in fours.into_remainder() {
            *slot = match centre {
                Some(centre) => rowops::dist(centre, row(p)),
                None => rowops::norm(row(p)),
            };
            p += 1;
        }
    });
}

/// Columns per block of the pair kernel. A block of 40 rows is 40 KiB,
/// which a 48 KiB L1 data cache holds while every row's `k` loop walks
/// it, and each row's partial sums make one round trip through the packed
/// triangle per 128 columns.
const PAIR_BLOCK: usize = 128;

/// `f64` lanes per accumulator group: one AVX-512 register.
const GROUP_LANES: usize = 8;

/// Most lane groups one `k` loop advances together: 48 pairs, six
/// AVX-512 registers of partial sums — all of row 0's at `n = 40`. With
/// more, the compiler stops unrolling the group loop and the sums spill.
const MAX_GROUPS: usize = 6;

/// Fills `out` with the batch's symmetric `n × n` squared-distance matrix
/// (row-major, zero diagonal): `out[i·n + j] = dist(row_i, row_j)²`.
///
/// Each unordered pair is computed once into its slot of a packed upper
/// triangle kept past the matrix's end, then mirrored into both matrix
/// slots. The unit of the fixed schedule is the linearised upper-triangle
/// pair index (`(0,1), (0,2), …, (n−2,n−1)`), which is also the packed
/// slot, so a chunk's pairs are one contiguous piece — which may start and
/// end mid-row — and chunks balance even though row `i` owns `n − 1 − i`
/// pairs. Each chunk is one [`fill_pairs`] call: the caller's runs in a
/// column block kept past the triangle, a worker's in its persistent
/// buffer. Whatever chunk, block or lane a pair lands in, its value is
/// [`rowops::dist`]'s squared, bit for bit, so the matrix is identical at
/// any thread count and any vector width.
pub(crate) fn pairwise_dist_sq_into(batch: &GradientBatch, out: &mut Vec<f64>) {
    let rows = Rows::of(batch);
    let n = batch.len();
    let pairs = n * n.saturating_sub(1) / 2;
    let block_len = if batch.dim() < PAIR_BLOCK {
        0
    } else {
        PAIR_BLOCK * n.next_multiple_of(GROUP_LANES)
    };
    out.clear();
    out.resize(n * n + pairs + block_len, 0.0);
    let (matrix, rest) = out.split_at_mut(n * n);
    let (packed, block) = rest.split_at_mut(pairs);
    // Every cut leaves the whole block with the first chunk; a chunk whose
    // piece of it is empty runs on a worker, in the worker's own buffer.
    let fill =
        |scratch: &mut Vec<f64>, range: Range<usize>, (packed, block): (&mut [f64], &mut [f64])| {
            let block = if block.len() < block_len {
                scratch.clear();
                scratch.resize(block_len, 0.0);
                scratch.as_mut_slice()
            } else {
                block
            };
            fill_pairs(rows, n, range, packed, block);
        };
    match worth_sharding(batch.worker_pool(), pairs.saturating_mul(batch.dim())) {
        Some(pool) if pairs > 1 => timed_dispatch(batch.dispatch_profile(), || {
            let edge = |p: usize| (p, block_len);
            pool.run_split(pairs, (&mut *packed, block), edge, &mut Vec::new(), &fill);
        }),
        _ => fill(&mut Vec::new(), 0..pairs, (&mut *packed, block)),
    }
    let upper = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
    for (&d_sq, (i, j)) in packed.iter().zip(upper) {
        for at in [i * n + j, j * n + i] {
            if let Some(slot) = matrix.get_mut(at) {
                *slot = d_sq;
            }
        }
    }
    out.truncate(n * n);
}

/// The pairs of [`pairwise_dist_sq_into`] with linear indices in `range`,
/// squared into `packed` in that order. `rows` holds `n` rows, `range`
/// lies within `0..n(n − 1)/2`, and `block` holds at least
/// `PAIR_BLOCK · n` values rounded up to whole lane groups.
///
/// A batch at least one [`PAIR_BLOCK`] wide runs the [`PairKernel`] at the
/// widest vector width the CPU reports; a narrower one — the paper's
/// `d = 2` — walks each row against four others at a time
/// ([`rowops::dist4`]), the instructions it always ran.
fn fill_pairs(
    rows: Rows<'_>,
    n: usize,
    range: Range<usize>,
    packed: &mut [f64],
    block: &mut [f64],
) {
    if rows.dim < PAIR_BLOCK {
        walk_pairs(rows, n, range, packed);
    } else {
        simd::widest(PairKernel {
            rows,
            n,
            range,
            packed,
            block,
        });
    }
}

/// The pair of linear index `p` in `n` rows' upper triangle: row `i` owns
/// the `n − 1 − i` pairs `(i, i + 1) … (i, n − 1)`. `p` lies below
/// `n(n − 1)/2`.
#[inline(always)]
fn unlinearise(n: usize, p: usize) -> (usize, usize) {
    let (mut i, mut offset) = (0, p);
    while offset >= n - 1 - i {
        offset -= n - 1 - i;
        i += 1;
    }
    (i, i + 1 + offset)
}

/// [`fill_pairs`] on a batch narrower than one block: four pairs per walk
/// over row `i`.
fn walk_pairs(rows: Rows<'_>, n: usize, range: Range<usize>, packed: &mut [f64]) {
    let mut slots = packed.iter_mut();
    let mut store = |d: f64| {
        if let Some(slot) = slots.next() {
            *slot = d * d;
        }
    };
    if range.is_empty() {
        return;
    }
    let (mut i, mut j) = unlinearise(n, range.start);
    let mut left = range.len();
    while left > 0 {
        let end = n.min(j + left);
        left -= end - j;
        let a = rows.row(i);
        while j + 4 <= end {
            let four = rowops::dist4(a, [j, j + 1, j + 2, j + 3].map(|p| rows.row(p)));
            four.into_iter().for_each(&mut store);
            j += 4;
        }
        while j < end {
            store(rowops::dist(a, rows.row(j)));
            j += 1;
        }
        i += 1;
        j = i + 1;
    }
}

/// The pairs `range` of [`pairwise_dist_sq_into`] into `packed`, one
/// column block at a time — the whole pair kernel, compiled at every
/// [`simd::Width`].
///
/// Each block of [`PAIR_BLOCK`] columns is copied column-major into
/// `block` — the chunk's rows from the first one's 8-aligned lane up,
/// padded with zeros to whole groups of [`GROUP_LANES`] — so column `k`'s
/// values for those rows are contiguous. Then, for each row `i`, one `k`
/// loop advances all of its lanes `j` together, up to [`MAX_GROUPS`]
/// groups of 8 in registers: lane `j` adds `(x_ik − x_jk)²` to its own sum,
/// in column order from `−0.0`, exactly [`rowops::dist`]'s order. Lanes
/// outside the row's pairs in `range` (`j ≤ i`, pad lanes, pairs of other
/// chunks) ride along and are discarded. Partial sums cross block edges in
/// the packed slots; after the last block each is square-rooted and
/// squared back, as [`walk_pairs`] stores it.
struct PairKernel<'a, 'b> {
    rows: Rows<'a>,
    n: usize,
    range: Range<usize>,
    packed: &'b mut [f64],
    block: &'b mut [f64],
}

/// Where a column block sits in the batch: the first starts each sum at
/// `−0.0`, the last finishes it.
#[derive(Clone, Copy)]
struct BlockEdge {
    first: bool,
    last: bool,
}

impl Kernel for PairKernel<'_, '_> {
    type Output = ();

    #[inline(always)]
    fn compute(self) {
        let PairKernel {
            rows,
            n,
            range,
            packed,
            block,
        } = self;
        if range.is_empty() {
            return;
        }
        let (first_row, first_j) = unlinearise(n, range.start);
        let base = first_row - first_row % GROUP_LANES;
        let lanes = (n - base).next_multiple_of(GROUP_LANES);
        let Some(block) = block.get_mut(..PAIR_BLOCK * lanes) else {
            return;
        };
        let dim = rows.dim;
        let blocks = dim.div_ceil(PAIR_BLOCK);
        for b in 0..blocks {
            let columns = b * PAIR_BLOCK..dim.min((b + 1) * PAIR_BLOCK);
            let width = columns.len();
            transpose_block(rows, base..n, columns, lanes, block);
            let edge = BlockEdge {
                first: b == 0,
                last: b + 1 == blocks,
            };
            let block = block.get(..width * lanes).unwrap_or_default();
            let (mut i, mut j) = (first_row, first_j);
            let mut slots: &mut [f64] = packed;
            let mut left = range.len();
            while left > 0 {
                let count = left.min(n - j);
                let Some((row_slots, rest)) = slots.split_at_mut_checked(count) else {
                    break;
                };
                row_pairs(block, lanes, i - base, j - base, row_slots, edge);
                slots = rest;
                left -= count;
                i += 1;
                j = i + 1;
            }
        }
    }
}

/// Copies `columns` of `rows` into `block` column-major: column `k`'s
/// value of row `r` lands at `k · lanes + (r − rows.start)`, and lanes
/// past the last row get zeros. Eight rows go per walk, so each column
/// gets one contiguous group of eight values per walk.
#[inline(always)]
fn transpose_block(
    view: Rows<'_>,
    rows: Range<usize>,
    columns: Range<usize>,
    lanes: usize,
    block: &mut [f64],
) {
    let width = columns.len();
    let zeros: &[f64] = &[0.0; PAIR_BLOCK];
    for (g, first) in rows.clone().step_by(GROUP_LANES).enumerate() {
        let segment = |l: usize| {
            let row = Some(first + l).filter(|r| rows.contains(r));
            let segment = row.and_then(|r| view.row(r).get(columns.clone()));
            segment.or(zeros.get(..width)).unwrap_or_default()
        };
        let segments: [&[f64]; GROUP_LANES] = std::array::from_fn(segment);
        for (k, column) in block.chunks_exact_mut(lanes).take(width).enumerate() {
            let group = column.get_mut(g * GROUP_LANES..);
            let Some(group) = group.and_then(<[f64]>::first_chunk_mut::<GROUP_LANES>) else {
                continue;
            };
            for (slot, segment) in group.iter_mut().zip(&segments) {
                *slot = segment.get(k).copied().unwrap_or(0.0);
            }
        }
    }
}

/// Row `i`'s pairs against lanes `first..first + slots.len()` over one
/// column-major `block` (rows of `lanes` values, one per column): `x` is
/// row `i`'s lane. Lanes are taken in aligned groups of [`GROUP_LANES`],
/// at most [`MAX_GROUPS`] per `k` loop.
#[inline(always)]
fn row_pairs(
    block: &[f64],
    lanes: usize,
    x: usize,
    first: usize,
    mut slots: &mut [f64],
    edge: BlockEdge,
) {
    let mut lane = first - first % GROUP_LANES;
    let mut offset = first - lane;
    while !slots.is_empty() {
        let groups = (offset + slots.len()).div_ceil(GROUP_LANES).min(MAX_GROUPS);
        let count = slots.len().min(groups * GROUP_LANES - offset);
        let Some((piece, rest)) = slots.split_at_mut_checked(count) else {
            break;
        };
        let pass = LanePass {
            block,
            lanes,
            x,
            lane,
            offset,
            edge,
        };
        match groups {
            1 => pass.sweep::<1>(piece),
            2 => pass.sweep::<2>(piece),
            3 => pass.sweep::<3>(piece),
            4 => pass.sweep::<4>(piece),
            5 => pass.sweep::<5>(piece),
            _ => pass.sweep::<6>(piece),
        }
        slots = rest;
        lane += groups * GROUP_LANES;
        offset = 0;
    }
}

/// One `k` loop of [`row_pairs`]: groups of lanes from `lane` on against
/// row `x`'s lane, whose pairs are the lanes from `lane + offset` on.
#[derive(Clone, Copy)]
struct LanePass<'a> {
    block: &'a [f64],
    lanes: usize,
    x: usize,
    lane: usize,
    offset: usize,
    edge: BlockEdge,
}

impl LanePass<'_> {
    /// Advances `GROUPS` groups of lanes over every column of the block,
    /// the partial sums in registers, and stores the lanes that are pairs
    /// into `slots` (slot `s` is lane `lane + offset + s`).
    #[inline(always)]
    fn sweep<const GROUPS: usize>(self, slots: &mut [f64]) {
        let LanePass {
            block,
            lanes,
            x,
            lane,
            offset,
            edge,
        } = self;
        if lane + GROUPS * GROUP_LANES > lanes || x >= lanes {
            return;
        }
        // The sums move through these buffers with one slice copy each
        // way; every access to the sums themselves has a constant index,
        // so they stay in registers, never in an indexed stack array.
        let pairs = offset..offset + slots.len();
        let mut carried = [-0.0f64; MAX_GROUPS * GROUP_LANES];
        if !edge.first {
            if let Some(carried) = carried.get_mut(pairs.clone()) {
                carried.copy_from_slice(slots);
            }
        }
        let sums: [[f64; GROUP_LANES]; GROUPS] = std::array::from_fn(|g| {
            std::array::from_fn(|l| carried.get(g * GROUP_LANES + l).copied().unwrap_or(-0.0))
        });
        let sums = advance(block, lanes, x, lane, sums);
        let mut done = [0.0f64; MAX_GROUPS * GROUP_LANES];
        for (g, group) in sums.iter().enumerate() {
            for (l, &sum) in group.iter().enumerate() {
                if let Some(slot) = done.get_mut(g * GROUP_LANES + l) {
                    *slot = sum;
                }
            }
        }
        if let Some(done) = done.get(pairs) {
            slots.copy_from_slice(done);
        }
        if edge.last {
            for slot in slots {
                let d = slot.sqrt();
                *slot = d * d;
            }
        }
    }
}

/// `sums` advanced over every column of `block` (rows of `lanes` values):
/// lane `lane + g·8 + l` adds `(x_k − y_k)²` in column order, `x` being
/// row `x`'s lane. Kept apart from the loads and stores around it so the
/// sums stay in vector registers — up to [`MAX_GROUPS`] of them, where the
/// compiler still unrolls the group loop.
#[inline(always)]
fn advance<const GROUPS: usize>(
    block: &[f64],
    lanes: usize,
    x: usize,
    lane: usize,
    mut sums: [[f64; GROUP_LANES]; GROUPS],
) -> [[f64; GROUP_LANES]; GROUPS] {
    let window = lane..lane + GROUPS * GROUP_LANES;
    for column in block.chunks_exact(lanes) {
        // One length check per column: the groups are then a fixed-size
        // array, and the body below is straight-line vector code.
        let ys = column
            .get(window.clone())
            .map(|ys| ys.as_chunks::<GROUP_LANES>().0);
        let ys: Option<&[[f64; GROUP_LANES]; GROUPS]> = ys.and_then(|ys| ys.try_into().ok());
        let (Some(&xk), Some(ys)) = (column.get(x), ys) else {
            continue;
        };
        for (group, ys) in sums.iter_mut().zip(ys) {
            for (sum, &y) in group.iter_mut().zip(ys) {
                let d = xk - y;
                *sum += d * d;
            }
        }
    }
    sums
}

/// `task(range, &mut out[range])` over contiguous slot ranges that cover
/// `out`: one range on the caller when serial, one piece per chunk of the
/// pool's fixed schedule when `work` estimated scalar operations clear the
/// sharding floor. A task that computes each slot from that slot's own
/// inputs alone (a column, a row, a pair) is bit-identical at any thread
/// count.
pub(crate) fn for_each_slot_range(
    pool: Option<&WorkerPool>,
    profile: Option<&DispatchProfile>,
    work: usize,
    out: &mut [f64],
    task: impl Fn(Range<usize>, &mut [f64]) + Sync,
) {
    match worth_sharding(pool, work) {
        Some(pool) if out.len() > 1 => timed_dispatch(profile, || {
            pool.run_split(
                out.len(),
                out,
                |k| k,
                &mut Vec::new(),
                &|_, range, piece| {
                    task(range, piece);
                },
            );
        }),
        _ => task(0..out.len(), out),
    }
}

/// `acc[k] += Σ_p w_p · row_p[k]` over the listed rows, **in list order
/// per coordinate** — the exact addition sequence of the serial
/// row-major loop, so splitting columns across the pool changes nothing
/// bitwise. `indices = None` means rows `0..count` in order; `weights =
/// None` means all ones (plain accumulation).
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
    let work = count.saturating_mul(acc.len());
    for_each_slot_range(pool, profile, work, acc, |columns, acc| {
        for p in 0..count {
            let row = &rows.row(indices.map_or(p, |idx| idx[p]))[columns.clone()];
            match weights {
                None => rowops::add_assign(acc, row),
                Some(w) => rowops::axpy(acc, w[p], row),
            }
        }
    });
}

// The integration tests' hostile columns, for the kernel's own tests.
#[cfg(test)]
#[path = "../tests/common/hostile.rs"]
mod hostile;

#[cfg(test)]
mod tests {
    use super::*;
    use abft_linalg::simd::Width;
    use abft_linalg::{stats, WorkerPool};
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

    /// The column medians of `batch` (or of its listed rows).
    fn medians(batch: &GradientBatch, rows: Option<&[usize]>) -> Vec<f64> {
        let mut scratch = batch.scratch();
        let s = &mut *scratch;
        let mut slots = vec![0.0; batch.dim()];
        let trim = (rows.map_or(batch.len(), <[usize]>::len) - 1) / 2;
        trimmed_mean_columns(batch, rows, trim, &mut s.network, &mut s.flat, &mut slots);
        slots
    }

    /// A batch of `count` hostile rows of width `dim`.
    fn hostile_batch(count: usize, dim: usize, seed: u64) -> GradientBatch {
        let mut batch = GradientBatch::new(dim);
        for row in hostile::hostile_rows(count, dim, seed) {
            batch.push_row(row.as_slice());
        }
        batch
    }

    /// [`TileKernel`] over every tile of the batch (or of its listed
    /// rows) at `width`, or `None` when the CPU lacks the width.
    fn kernel_at(
        width: Width,
        batch: &GradientBatch,
        rows: Option<&[usize]>,
        trim: usize,
    ) -> Option<Vec<u64>> {
        let count = rows.map_or(batch.len(), <[usize]>::len);
        let mut network = SortingNetwork::default();
        let mut tile = Vec::new();
        let mut slots = vec![f64::NAN; batch.dim()];
        let kernel = TileKernel {
            view: Rows::of(batch),
            rows,
            trim,
            schedule: network.for_rows(count),
            tiles: 0..batch.dim().div_ceil(TILE_COLUMNS),
            tile: &mut tile,
            slots: &mut slots,
        };
        width.call(kernel).ok()?;
        Some(slots.iter().map(|v| v.to_bits()).collect())
    }

    /// Runs the kernel at every width the CPU supports and requires the
    /// baseline's bits from each; returns the baseline's bits.
    fn every_width_agrees(batch: &GradientBatch, rows: Option<&[usize]>, trim: usize) -> Vec<u64> {
        let baseline = kernel_at(Width::Baseline, batch, rows, trim);
        let baseline = baseline.expect("the baseline always runs");
        for width in Width::ALL.into_iter().filter(|w| w.is_supported()) {
            let got = kernel_at(width, batch, rows, trim);
            assert_eq!(
                got.as_ref(),
                Some(&baseline),
                "{width:?}: n={} d={} rows={rows:?} trim={trim}",
                batch.len(),
                batch.dim(),
            );
        }
        baseline
    }

    #[test]
    fn every_width_matches_the_baseline_at_every_count_and_trim() {
        // 63 columns: one full tile, then lane groups of 16, 8, 4, 2 and 1.
        for count in 1..=70usize {
            let batch = hostile_batch(count, 63, count as u64);
            for trim in 0..=(count - 1) / 2 {
                every_width_agrees(&batch, None, trim);
            }
        }
    }

    #[test]
    fn every_width_matches_the_baseline_at_every_lane_group() {
        for dim in [1usize, 2, 31, 32, 33, 63, 100] {
            for count in [1usize, 2, 3, 9, 40, 70] {
                let batch = hostile_batch(count, dim, (count * 131 + dim) as u64);
                for trim in [0, 1, (count - 1) / 2]
                    .into_iter()
                    .filter(|t| count > 2 * t)
                {
                    every_width_agrees(&batch, None, trim);
                }
            }
        }
    }

    #[test]
    fn every_width_matches_the_baseline_on_row_subsets() {
        // Bulyan's trim stage reduces a selection of rows, in its order.
        let batch = hostile_batch(40, 100, 7);
        let odd_reversed: Vec<usize> = (1..40).step_by(2).rev().collect();
        let selections = [vec![3, 1], vec![39, 0, 17], odd_reversed, (0..40).collect()];
        for rows in &selections {
            for trim in 0..=(rows.len() - 1) / 2 {
                let bits = every_width_agrees(&batch, Some(rows), trim);
                let mut gathered = GradientBatch::new(batch.dim());
                for &i in rows {
                    gathered.push_row(batch.row(i));
                }
                assert_eq!(bits, every_width_agrees(&gathered, None, trim));
            }
        }
    }

    #[test]
    fn every_width_orders_signed_zeros_across_the_trim_boundary() {
        // Column `k` of 24 rows holds `k % 9` values of -1, then signed
        // zeros alternating with a column-dependent phase, then +1s, with
        // rows permuted: a run of zeros starts and ends on every row and
        // so straddles every trim boundary, in every lane position.
        let (count, dim) = (24usize, 100usize);
        let mut batch = GradientBatch::new(dim);
        for i in 0..count {
            let row: Vec<f64> = (0..dim)
                .map(|k| {
                    let rank = (i * 7 + k) % count;
                    let (below, zeros) = (k % 9, 3 + k % 13);
                    match rank {
                        r if r < below => -1.0,
                        r if r < below + zeros && (r + k / 9) % 2 == 0 => -0.0,
                        r if r < below + zeros => 0.0,
                        _ => 1.0,
                    }
                })
                .collect();
            batch.push_row(&row);
        }
        for trim in 0..=(count - 1) / 2 {
            let bits = every_width_agrees(&batch, None, trim);
            for (k, got) in bits.into_iter().enumerate() {
                let column: Vec<f64> = batch.rows_iter().map(|row| row[k]).collect();
                let want = stats::trimmed_mean(&column, trim).unwrap();
                assert_eq!(got, want.to_bits(), "trim={trim} column {k}");
            }
        }
    }

    #[test]
    fn trimmed_mean_columns_parallel_is_bit_identical_to_serial() {
        // 1024 and 2000 clear the sharding floor at n = 9 (so the pool
        // actually engages); the small dims pin the serial-fallback path.
        for dim in [1usize, 31, 32, 33, 100, 1024, 2000] {
            let mut batch = demo_batch(9, dim);
            let serial = medians(&batch, None);
            for (k, got) in serial.iter().enumerate() {
                let column: Vec<f64> = batch.rows_iter().map(|row| row[k]).collect();
                let want = stats::median(&column).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "dim {dim}, column {k}");
            }
            for threads in [2usize, 4] {
                batch.set_worker_pool(Some(Arc::new(WorkerPool::new(threads))));
                assert_eq!(serial, medians(&batch, None), "dim {dim}, {threads}t");
            }
        }
    }

    #[test]
    fn row_subsets_restrict_the_reduction() {
        let batch = demo_batch(5, 3);
        let all = medians(&batch, None);
        let sub = medians(&batch, Some(&[3, 1]));
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

        batch.set_worker_pool(Some(Arc::new(WorkerPool::new(2))));
        batch.set_dispatch_profile(Some(DispatchProfile::new()));
        medians(&batch, None);
        let profile = batch.take_dispatch_profile().expect("installed above");
        let snap = profile.snapshot();
        assert!(snap.dispatches >= 1, "the pool path times its dispatch");
        assert_eq!(snap.hist.count(), snap.dispatches);

        // The serial path never touches the profile (or any clock).
        batch.set_worker_pool(None);
        batch.set_dispatch_profile(Some(DispatchProfile::new()));
        medians(&batch, None);
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

    /// [`PairKernel`] over pairs `range` of the batch at `width`, or
    /// `None` when the CPU lacks the width.
    fn pairs_at(width: Width, batch: &GradientBatch, range: Range<usize>) -> Option<Vec<u64>> {
        let n = batch.len();
        let mut packed = vec![f64::NAN; range.len()];
        let mut block = vec![f64::NAN; PAIR_BLOCK * n.next_multiple_of(GROUP_LANES)];
        let kernel = PairKernel {
            rows: Rows::of(batch),
            n,
            range,
            packed: &mut packed,
            block: &mut block,
        };
        width.call(kernel).ok()?;
        Some(packed.iter().map(|v| v.to_bits()).collect())
    }

    /// `dist(row_i, row_j)²` of every pair, in linear pair order.
    fn reference_pairs(batch: &GradientBatch) -> Vec<u64> {
        let n = batch.len();
        let upper = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
        let dist_sq = |(i, j)| {
            let d = rowops::dist(batch.row(i), batch.row(j));
            (d * d).to_bits()
        };
        upper.map(dist_sq).collect()
    }

    /// The pool's fixed schedule: `units` cut into `chunks` ranges.
    fn chunk_ranges(units: usize, chunks: usize) -> Vec<Range<usize>> {
        let (base, extra) = (units / chunks, units % chunks);
        let start = |w: usize| w * base + w.min(extra);
        (0..chunks).map(|w| start(w)..start(w + 1)).collect()
    }

    /// Runs the pair kernel over `range` at every width the CPU supports
    /// and requires the reference's bits from each.
    fn every_width_fills_pairs(batch: &GradientBatch, range: Range<usize>, reference: &[u64]) {
        let want = reference
            .get(range.clone())
            .expect("range within the triangle");
        for width in Width::ALL.into_iter().filter(|w| w.is_supported()) {
            let got = pairs_at(width, batch, range.clone());
            assert_eq!(
                got.as_deref(),
                Some(want),
                "{width:?}: n={} d={} pairs {range:?}",
                batch.len(),
                batch.dim(),
            );
        }
    }

    #[test]
    fn every_width_fills_the_pair_triangle_at_every_count() {
        // One block and one column: every lane-group count up to 9, and
        // rows whose lanes start at every offset inside a group.
        for n in 2..=70usize {
            let batch = hostile_batch(n, PAIR_BLOCK + 1, n as u64);
            let reference = reference_pairs(&batch);
            every_width_fills_pairs(&batch, 0..reference.len(), &reference);
        }
    }

    #[test]
    fn every_width_fills_the_pair_triangle_across_block_edges() {
        for dim in [
            PAIR_BLOCK - 1,
            PAIR_BLOCK,
            PAIR_BLOCK + 1,
            2 * PAIR_BLOCK + 5,
        ] {
            for n in [2usize, 3, 7, 8, 9, 16, 17, 40, 41, 70] {
                let batch = hostile_batch(n, dim, (n * 131 + dim) as u64);
                let reference = reference_pairs(&batch);
                every_width_fills_pairs(&batch, 0..reference.len(), &reference);
                // The dispatch: the narrow walk below one block, the
                // kernel from one block up.
                let mut matrix = Vec::new();
                pairwise_dist_sq_into(&batch, &mut matrix);
                let upper = (0..n).flat_map(|i| (i + 1..n).map(move |j| i * n + j));
                let got: Vec<u64> = upper.map(|at| matrix[at].to_bits()).collect();
                assert_eq!(got, reference, "n={n} d={dim}");
            }
        }
    }

    #[test]
    fn every_width_fills_pair_ranges_cut_at_every_chunk_edge() {
        // Each thread count's chunks, and ranges that start and end
        // mid-row: inside one row, across two, and across many.
        for n in [9usize, 40, 43, 70] {
            let batch = hostile_batch(n, 2 * PAIR_BLOCK + 5, n as u64 + 5);
            let reference = reference_pairs(&batch);
            let pairs = reference.len();
            let mut ranges: Vec<Range<usize>> = (1..=4)
                .flat_map(|threads| chunk_ranges(pairs, threads))
                .collect();
            ranges.extend([2..5, n - 3..n + 4, n + 1..pairs - 2, pairs - 1..pairs]);
            for range in ranges {
                every_width_fills_pairs(&batch, range, &reference);
            }
            let mut sharded = batch;
            let mut serial = Vec::new();
            pairwise_dist_sq_into(&sharded, &mut serial);
            for threads in 2..=4 {
                sharded.set_worker_pool(Some(Arc::new(WorkerPool::new(threads))));
                let mut parallel = Vec::new();
                pairwise_dist_sq_into(&sharded, &mut parallel);
                assert_eq!(serial, parallel, "n={n}, {threads} threads");
            }
        }
    }

    #[test]
    fn centre_distances_equal_dist_and_norm_per_row_at_any_thread_count() {
        // 1500 columns clear the sharding floor from 6 rows on; the counts
        // leave every four-row remainder, on the caller and on a worker.
        let centre = hostile_batch(1, 1500, 99);
        let centre = centre.row(0);
        for count in [1usize, 2, 3, 4, 5, 6, 7, 9, 11] {
            let batch = hostile_batch(count, 1500, count as u64);
            let rows = Rows::of(&batch);
            let members: Vec<usize> = (0..count).rev().step_by(2).collect();
            let cases = [
                (None, None),
                (Some(&members[..]), None),
                (None, Some(centre)),
            ];
            for (listed, centre) in cases {
                let picked = |p: usize| batch.row(listed.map_or(p, |m| m[p]));
                let len = listed.map_or(count, <[usize]>::len);
                let want: Vec<u64> = (0..len)
                    .map(|p| match centre {
                        Some(centre) => rowops::dist(picked(p), centre).to_bits(),
                        None => rowops::norm(picked(p)).to_bits(),
                    })
                    .collect();
                for threads in [None, Some(2usize), Some(3), Some(4)] {
                    let pool = threads.map(WorkerPool::new);
                    let mut slots = vec![f64::NAN; len];
                    centre_dists_into(pool.as_ref(), None, rows, listed, centre, &mut slots);
                    let got: Vec<u64> = slots.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "count={count} {threads:?} threads");
                }
            }
        }
    }
}
