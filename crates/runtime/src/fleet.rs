//! The persistent agent fleet behind the event-loop server runtime.
//!
//! The historical server runtime parked one OS thread per agent on a
//! channel and paid two channel round-trips (plus the scheduler wake-ups
//! they imply) per agent per round — ~15× slower than the in-process
//! driver on the suite-throughput workload, with the whole fleet re-spawned
//! for every grid cell. Here agents are *state machines* instead of
//! threads: an [`AgentCell`] holds one agent's cost function, attack plan,
//! and crash schedule, and reacts to a `RoundStart` event by writing its
//! (possibly forged) gradient straight into the batch row the server
//! loaned it. Cells are multiplexed over a small
//! [`abft_linalg::WorkerPool`], whose **fixed schedule** makes the
//! agent→worker assignment a pure function of `(active agents, workers)` —
//! never of timing — so traces stay bit-identical to the historical
//! thread-per-agent runtime (and to the in-process driver) at any worker
//! count.
//!
//! A [`Fleet`] survives across runs: the worker threads, the gradient
//! batch, and the per-agent staging buffers are all paid for once and
//! reused by every subsequent run, so a 14×6 scenario grid performs fleet
//! setup once instead of `14 × 6 × n` thread spawns. The scenario layer
//! keeps one fleet per suite worker (see `abft_scenario::SuiteWorkspace`);
//! [`Launch::Threaded`](crate::Launch::Threaded) creates a transient one per
//! call.

use abft_attacks::{AttackContext, ByzantineStrategy};
use abft_linalg::{GradientBatch, Vector, WorkerPool};
use abft_problems::SharedCost;
use std::sync::Arc;

/// One agent as a state machine: its cost function, its fault plan, and
/// the staging buffer its Byzantine strategy forges from.
///
/// A cell is *programmed* per run (strategies are stateful, seeded values
/// that each run materializes fresh) and *driven* per round: on a
/// `RoundStart` event it either writes its gradient into the row slot the
/// server loaned it, or goes silent when its crash schedule says so — the
/// event-loop analogue of a crashed agent thread dropping its channels.
pub struct AgentCell {
    cost: SharedCost,
    strategy: Option<Box<dyn ByzantineStrategy>>,
    crash_at: Option<usize>,
    /// The honest gradient, staged per round so Byzantine strategies can
    /// read it while forging into the loaned row.
    true_gradient: Vector,
    /// Whether the last `RoundStart` event found the agent crashed — read
    /// by the server's collect phase, the event-loop analogue of a missing
    /// `Ready` reply.
    silent: bool,
}

impl AgentCell {
    fn new(
        cost: SharedCost,
        strategy: Option<Box<dyn ByzantineStrategy>>,
        crash_at: Option<usize>,
    ) -> Self {
        let dim = cost.dim();
        AgentCell {
            cost,
            strategy,
            crash_at,
            true_gradient: Vector::zeros(dim),
            silent: false,
        }
    }

    /// Reacts to the round event: writes the (possibly forged) gradient at
    /// `estimate` into `row`, or goes silent when the crash schedule has
    /// fired. The floating-point operations are exactly those of the
    /// historical agent-thread body, so the row contents are bit-identical
    /// no matter which worker drives the cell.
    fn on_round_start(&mut self, iteration: usize, estimate: &Vector, row: &mut [f64]) {
        if let Some(crash) = self.crash_at {
            if iteration >= crash {
                self.silent = true;
                return;
            }
        }
        match self.strategy.as_mut() {
            Some(strategy) => {
                self.cost
                    .gradient_into(estimate, self.true_gradient.as_mut_slice());
                let ctx = AttackContext::new(iteration, &self.true_gradient, estimate);
                strategy.corrupt_into(&ctx, row);
            }
            None => self.cost.gradient_into(estimate, row),
        }
        self.silent = false;
    }
}

/// Debug-build loan tracker: one flag per loanable slot, set on first
/// loan and never cleared for the table's lifetime (one dispatch).
///
/// This is the dynamic half of the `abft-lint` fixed-schedule contract:
/// the raw-pointer wrappers below are sound *because* the pool's fixed
/// schedule hands every slot to exactly one worker per dispatch. The
/// tracker turns that safety argument into a checked property — a
/// schedule bug that loaned the same row (or cell) to two workers would
/// be a silent data race in release; in debug builds it aborts the
/// dispatch on the spot instead. Release builds compile it away
/// entirely, so the hot path stays untouched.
#[cfg(debug_assertions)]
struct LoanTable {
    flags: Vec<std::sync::atomic::AtomicBool>,
}

#[cfg(debug_assertions)]
impl LoanTable {
    fn new(slots: usize) -> Self {
        LoanTable {
            flags: (0..slots)
                .map(|_| std::sync::atomic::AtomicBool::new(false))
                .collect(),
        }
    }

    /// Records the loan of slot `i`, aborting if it is already out.
    // LINT-ALLOW(panic-reach): `i` is a schedule slot < `slots`, and
    // `flags` is allocated with exactly `slots` entries in `new`.
    fn claim(&self, i: usize, what: &str) {
        let taken = self.flags[i].swap(true, std::sync::atomic::Ordering::Relaxed);
        debug_assert!(
            !taken,
            "abft race detector: {what} {i} loaned twice within one dispatch — \
             the fixed schedule must hand every slot to exactly one worker"
        );
    }
}

/// A shared view of the cell table for disjoint-cell parallel dispatch —
/// the `AgentCell` counterpart of [`abft_linalg::SharedSlots`].
struct SharedCells {
    ptr: *mut AgentCell,
    #[cfg(debug_assertions)]
    loans: LoanTable,
}

// SAFETY: the fixed worker schedule hands every active agent index to
// exactly one chunk, so no two workers ever touch the same cell; cell
// contents are `Send`. Debug builds verify the disjointness with a loan
// table that aborts on overlap.
unsafe impl Send for SharedCells {}
// SAFETY: see `Send` above — all shared access is to disjoint cells.
unsafe impl Sync for SharedCells {}

impl SharedCells {
    /// A shared view over the `cells` cell table.
    fn new(cells: &mut [AgentCell]) -> Self {
        SharedCells {
            ptr: cells.as_mut_ptr(),
            #[cfg(debug_assertions)]
            loans: LoanTable::new(cells.len()),
        }
    }

    /// # Safety
    ///
    /// `agent` must be handed to exactly one worker for the duration of
    /// the dispatch (guaranteed by the pool's fixed schedule), which is
    /// exactly why the `&self -> &mut` shape is sound here. Debug builds
    /// abort on an overlapping loan.
    #[allow(clippy::mut_from_ref)]
    unsafe fn cell(&self, agent: usize) -> &mut AgentCell {
        #[cfg(debug_assertions)]
        self.loans.claim(agent, "cell");
        // SAFETY: `agent` is in bounds of the table this view was built
        // over, and per the contract above no other loan of it exists.
        unsafe { &mut *self.ptr.add(agent) }
    }
}

/// A shared view of the round's batch rows for disjoint-row parallel
/// writes (row `i` belongs to active agent `i` alone).
struct SharedRows {
    base: *mut f64,
    dim: usize,
    #[cfg(debug_assertions)]
    loans: LoanTable,
}

// SAFETY: rows of distinct active agents never alias, and the schedule
// assigns each row to exactly one worker. Debug builds verify the
// disjointness with a loan table that aborts on overlap.
unsafe impl Send for SharedRows {}
// SAFETY: see `Send` above — all shared access is to disjoint rows.
unsafe impl Sync for SharedRows {}

impl SharedRows {
    /// A shared view over the first `rows` rows of width `dim` at `base`.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn new(base: *mut f64, dim: usize, rows: usize) -> Self {
        SharedRows {
            base,
            dim,
            #[cfg(debug_assertions)]
            loans: LoanTable::new(rows),
        }
    }

    /// # Safety
    ///
    /// Row `i` must be handed to exactly one worker for the duration of
    /// the dispatch (guaranteed by the pool's fixed schedule), which is
    /// exactly why the `&self -> &mut` shape is sound here. Debug builds
    /// abort on an overlapping loan.
    #[allow(clippy::mut_from_ref)]
    unsafe fn row(&self, i: usize) -> &mut [f64] {
        #[cfg(debug_assertions)]
        self.loans.claim(i, "row");
        // SAFETY: row `i` lies inside the batch storage this view was
        // built over, and per the contract above no other loan of it
        // exists.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(i * self.dim), self.dim) }
    }
}

/// A persistent, reusable agent fleet: the worker pool that multiplexes
/// the agents, the round's gradient batch, and the per-run cell table.
///
/// The expensive parts of a server run — OS threads, the `n × d` batch,
/// the aggregation pool — live here and survive across runs, which is
/// what closes the thread-per-agent runtime's 15× throughput gap: a
/// scenario suite keeps one fleet per suite worker and every cell after
/// the first is a [fleet-reuse hit](Fleet::reuse_hits). Programs (costs,
/// attack plans, crash schedules) are cheap per-run installs.
///
/// `workers = 1` (the default) drives every agent inline on the caller —
/// no threads exist at all; larger fleets spawn `workers − 1` OS threads
/// lazily on first dispatch and keep them parked between runs. The
/// agent→worker assignment is the pool's fixed schedule, so the trace is
/// bit-identical at any worker count.
pub struct Fleet {
    pool: Arc<WorkerPool>,
    cells: Vec<AgentCell>,
    batch: GradientBatch,
    /// Active (non-eliminated) agent ids, row-ordered; reset per run.
    active: Vec<usize>,
    /// `(n, dim)` the batch was last sized for.
    shape: (usize, usize),
    /// Aggregation pool cached across runs when its thread count differs
    /// from the fleet's own pool.
    agg_pool: Option<Arc<WorkerPool>>,
    /// Runs served since construction — `reuse_hits` is everything after
    /// the first.
    runs_served: usize,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("workers", &self.workers())
            .field("agents", &self.cells.len())
            .field("runs_served", &self.runs_served)
            .finish()
    }
}

impl Fleet {
    /// A fleet multiplexing its agents over `workers` event-loop workers
    /// (clamped to at least 1; `workers = 1` runs every agent inline).
    pub fn new(workers: usize) -> Self {
        Fleet {
            pool: Arc::new(WorkerPool::new(workers)),
            cells: Vec::new(),
            batch: GradientBatch::new(1),
            active: Vec::new(),
            shape: (0, 0),
            agg_pool: None,
            runs_served: 0,
        }
    }

    /// The event-loop worker count (the caller included).
    pub fn workers(&self) -> usize {
        self.pool.threads()
    }

    /// Runs this fleet has served since construction.
    pub fn runs_served(&self) -> usize {
        self.runs_served
    }

    /// Runs that found the fleet already warm — every run after the first.
    /// The scheduler counter the scenario layer surfaces as
    /// `BackendMetrics::fleet_reuse_hits`.
    pub fn reuse_hits(&self) -> usize {
        self.runs_served.saturating_sub(1)
    }

    /// Installs one run's agent programs, sizes the batch, and attaches
    /// the aggregation pool for `aggregation_threads`. Returns `true` when
    /// the fleet was already warm (a fleet-reuse hit).
    // LINT-ALLOW(panic-reach): `strategies` and `crash_at` are built by the
    // caller with one entry per cost, and `i` ranges over `costs`.
    pub(crate) fn load(
        &mut self,
        costs: &[SharedCost],
        mut strategies: Vec<Option<Box<dyn ByzantineStrategy>>>,
        crash_at: &[Option<usize>],
        dim: usize,
        aggregation_threads: usize,
    ) -> bool {
        let n = costs.len();
        self.cells.clear();
        for (i, cost) in costs.iter().enumerate() {
            self.cells.push(AgentCell::new(
                cost.clone(),
                strategies[i].take(),
                crash_at[i],
            ));
        }
        let (rows, width) = self.shape;
        if width != dim || rows < n {
            self.batch = GradientBatch::with_capacity(n, dim);
            self.shape = (n, dim);
        }
        self.active.clear();
        self.active.extend(0..n);
        let agg_pool = self.aggregation_pool(aggregation_threads);
        self.batch.set_worker_pool(agg_pool);
        let warm = self.runs_served > 0;
        self.runs_served += 1;
        warm
    }

    /// The pool backing sharded aggregation for this run: the fleet's own
    /// event-loop pool when the thread counts coincide (one set of OS
    /// threads serves both roles), otherwise a pool cached across runs.
    fn aggregation_pool(&mut self, threads: usize) -> Option<Arc<WorkerPool>> {
        if threads <= 1 {
            return None;
        }
        if self.pool.threads() == threads {
            return Some(self.pool.clone());
        }
        if self
            .agg_pool
            .as_ref()
            .is_none_or(|pool| pool.threads() != threads)
        {
            self.agg_pool = Some(Arc::new(WorkerPool::new(threads)));
        }
        self.agg_pool.clone()
    }

    /// Dispatches the `RoundStart` event to every active agent (row order
    /// = agent-id order over survivors) and returns how many events that
    /// was: each cell writes its gradient into its loaned row (or goes
    /// silent). The fixed worker schedule shards the active list, so the
    /// row contents are bit-identical at any worker count.
    // LINT-ALLOW(panic-reach): the schedule shards `0..units` over the
    // workers, so `i < units = active.len()` in every shard.
    pub(crate) fn dispatch_round(&mut self, iteration: usize, estimate: &Vector) -> usize {
        let units = self.active.len();
        let dim = self.shape.1;
        self.batch.reset_rows(units);
        let rows = SharedRows::new(self.batch.as_flat_mut().as_mut_ptr(), dim, units);
        let cells = SharedCells::new(&mut self.cells);
        let active = &self.active;
        self.pool.run(units, &|range| {
            for i in range {
                // SAFETY: the fixed schedule hands unit `i` (hence active
                // agent `active[i]` and row `i`) to exactly one worker.
                let (cell, row) = unsafe { (cells.cell(active[i]), rows.row(i)) };
                cell.on_round_start(iteration, estimate, row);
            }
        });
        units
    }

    /// The collect phase of step S1: an agent whose `RoundStart` event
    /// found it crashed is the no-reply case — it leaves the active list for
    /// good and its unwritten row is compacted away (descending order keeps
    /// the earlier indices stable), restoring agent-id row order over the
    /// survivors. Returns how many agents were eliminated.
    // LINT-ALLOW(panic-reach): `row < active.len()`, and `active` holds
    // agent ids < cells.len() by construction in `load`.
    pub(crate) fn eliminate_silent(&mut self) -> usize {
        let dispatched = self.active.len();
        for row in (0..dispatched).rev() {
            if self.cells[self.active[row]].silent {
                self.batch.remove_row(row);
                self.active.remove(row);
            }
        }
        dispatched - self.active.len()
    }

    /// The round's gradient batch (rows in agent-id order over survivors
    /// after the collect phase compacts silent agents away).
    pub(crate) fn batch_mut(&mut self) -> &mut GradientBatch {
        &mut self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_problems::RegressionProblem;

    #[test]
    fn fleet_counts_reuse_hits() {
        let problem = RegressionProblem::paper_instance();
        let costs = problem.costs();
        let n = costs.len();
        let mut fleet = Fleet::new(1);
        assert_eq!(fleet.reuse_hits(), 0);
        for expected_hits in 0..3 {
            let strategies = (0..n).map(|_| None).collect();
            let warm = fleet.load(&costs, strategies, &vec![None; n], 2, 1);
            assert_eq!(warm, expected_hits > 0);
            assert_eq!(fleet.reuse_hits(), expected_hits);
        }
        assert_eq!(fleet.runs_served(), 3);
    }

    #[test]
    fn dispatch_is_bit_identical_at_any_worker_count() {
        let problem = RegressionProblem::paper_instance();
        let costs = problem.costs();
        let n = costs.len();
        let x = Vector::from(vec![0.3, -0.7]);
        let reference_rows: Vec<Vec<f64>> = {
            let mut fleet = Fleet::new(1);
            fleet.load(&costs, (0..n).map(|_| None).collect(), &vec![None; n], 2, 1);
            fleet.dispatch_round(0, &x);
            (0..n)
                .map(|i| fleet.batch_mut().row_mut(i).to_vec())
                .collect()
        };
        for workers in [2usize, 3, 4] {
            let mut fleet = Fleet::new(workers);
            fleet.load(&costs, (0..n).map(|_| None).collect(), &vec![None; n], 2, 1);
            fleet.dispatch_round(0, &x);
            for (i, reference) in reference_rows.iter().enumerate() {
                let row = fleet.batch_mut().row_mut(i);
                assert!(
                    row.iter()
                        .zip(reference)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "row {i} diverged at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn crashed_cells_go_silent_without_writing() {
        let problem = RegressionProblem::paper_instance();
        let costs = problem.costs();
        let n = costs.len();
        let mut fleet = Fleet::new(1);
        let mut crash_at = vec![None; n];
        crash_at[2] = Some(5);
        fleet.load(&costs, (0..n).map(|_| None).collect(), &crash_at, 2, 1);
        fleet.dispatch_round(4, &Vector::zeros(2));
        assert_eq!(fleet.eliminate_silent(), 0);
        fleet.dispatch_round(5, &Vector::zeros(2));
        assert_eq!(fleet.eliminate_silent(), 1);
        // Agent 2 — row 2 — is the one that left.
        assert_eq!(fleet.active, vec![0, 1, 3, 4, 5]);
        assert_eq!(fleet.batch_mut().len(), 5);
    }

    /// The debug race detector must abort when one row is loaned to two
    /// borrowers within a single dispatch — the exact bug a broken worker
    /// schedule would introduce.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "loaned twice")]
    fn overlapping_row_loan_aborts_in_debug_builds() {
        let mut storage = vec![0.0f64; 3 * 2];
        let rows = SharedRows::new(storage.as_mut_ptr(), 2, 3);
        // SAFETY: distinct rows — sound on its own; the claim below is
        // the violation under test.
        let _first = unsafe { rows.row(0) };
        // SAFETY: deliberately loans row 0 a second time; the loan table
        // must catch it before the aliasing references could coexist.
        let _second = unsafe { rows.row(0) };
    }

    /// Same contract for the cell table view.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "loaned twice")]
    fn overlapping_cell_loan_aborts_in_debug_builds() {
        let problem = RegressionProblem::paper_instance();
        let costs = problem.costs();
        let mut fleet = Fleet::new(1);
        let n = costs.len();
        fleet.load(&costs, (0..n).map(|_| None).collect(), &vec![None; n], 2, 1);
        let cells = SharedCells::new(&mut fleet.cells);
        // SAFETY: a single loan of cell 1 is sound; the second claim is
        // the violation under test.
        let _first = unsafe { cells.cell(1) };
        // SAFETY: deliberately loans cell 1 a second time to exercise the
        // debug loan table.
        let _second = unsafe { cells.cell(1) };
    }
}
