//! Step S1 written once — the agent fleet: the cell that produces an
//! agent's row, and the workspace that collects a round of them.
//!
//! [`AgentCell::reply_into`] is the only code in the workspace that turns
//! *(cost, strategy, t, x)* into what an agent reports. The simulated
//! servers and the peer-to-peer loop call it with a reused buffer; the
//! lockstep server hands its cells to a [`RoundWorkspace`], whose
//! [`run_rounds`](RoundWorkspace::run_rounds) is the one server loop
//! ([`RowSource::serve`]) with the workspace as the row source: each round
//! it collects the cells' rows into its batch. Its in-process and
//! event-loop launches differ in
//! configuration only: in process the rows are filled on the caller's
//! thread, the event loop shards the fill over `fleet_workers` of an
//! [`abft_linalg::WorkerPool`], whose **fixed schedule** makes the
//! agent→worker assignment a pure function of `(active agents, workers)`
//! — never of timing — so the rows are bit-identical at any worker count.

use crate::engine::{RoundEngine, RowSource, RunCounters};
use crate::error::DgdError;
use abft_attacks::{AttackContext, ByzantineStrategy, HonestGradients};
use abft_linalg::{GradientBatch, SharedSlots, Vector, WorkerPool};
use abft_problems::SharedCost;
use abft_telemetry::Phase;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One agent as a state machine: its true cost, the strategy it forges
/// with (if Byzantine), the iteration it goes silent at (if it crashes),
/// and the buffer its honest gradient is staged in while it forges.
///
/// Strategies are stateful, seeded values: a cell that outlives a run
/// carries its strategy's stream into the next one.
pub struct AgentCell {
    cost: SharedCost,
    strategy: Option<Box<dyn ByzantineStrategy>>,
    omniscient: bool,
    crash_at: Option<usize>,
    /// The honest gradient, staged per round so the strategy can read it
    /// while forging into the output row. Empty for a cell that never
    /// forges.
    true_gradient: Vector,
}

impl AgentCell {
    /// An honest agent holding `cost`.
    pub fn new(cost: SharedCost) -> Self {
        AgentCell {
            cost,
            strategy: None,
            omniscient: false,
            crash_at: None,
            true_gradient: Vector::zeros(0),
        }
    }

    /// Makes the agent Byzantine: from now on it reports what `strategy`
    /// forges from its true gradient.
    pub fn forge(&mut self, strategy: Box<dyn ByzantineStrategy>) {
        self.omniscient = strategy.is_omniscient();
        self.true_gradient = Vector::zeros(self.cost.dim());
        self.strategy = Some(strategy);
    }

    /// Schedules a crash: the agent behaves as before until iteration
    /// `iteration` and sends nothing from then on.
    pub fn crash_at(&mut self, iteration: usize) {
        self.crash_at = Some(iteration);
    }

    /// The agent's true cost.
    pub fn cost(&self) -> &SharedCost {
        &self.cost
    }

    /// `true` when the agent carries a Byzantine strategy.
    pub fn is_forging(&self) -> bool {
        self.strategy.is_some()
    }

    /// The iteration the agent is scheduled to crash at, if any.
    pub fn crash_point(&self) -> Option<usize> {
        self.crash_at
    }

    /// `true` when the agent sends nothing at iteration `t`: its crash
    /// point has passed — the "no gradient received" case of step S1.
    pub fn silent_at(&self, t: usize) -> bool {
        self.crash_at.is_some_and(|crash| t >= crash)
    }

    /// `true` for an agent with no strategy and no crash schedule — the
    /// only rows an omniscient attacker is shown. (A crash-scheduled agent
    /// replies honestly until it crashes, but it is *faulty*.)
    fn is_honest(&self) -> bool {
        self.strategy.is_none() && self.crash_at.is_none()
    }

    /// Writes what the agent reports at iteration `t`, having heard the
    /// estimate `x`, into `out`: its gradient `∇Q_i(x)`, or its strategy's
    /// forgery of it. `view` is what the strategy may see of the honest
    /// agents' gradients — [`HonestGradients::Hidden`] wherever agents
    /// reply independently. The crash schedule is the caller's to consult
    /// ([`AgentCell::silent_at`]): a silent agent is not asked.
    pub fn reply_into(&mut self, t: usize, x: &Vector, view: HonestGradients<'_>, out: &mut [f64]) {
        match self.strategy.as_mut() {
            None => self.cost.gradient_into(x, out),
            Some(strategy) => {
                self.cost
                    .gradient_into(x, self.true_gradient.as_mut_slice());
                let ctx = AttackContext {
                    iteration: t,
                    true_gradient: &self.true_gradient,
                    estimate: x,
                    honest: view,
                };
                strategy.corrupt_into(&ctx, out);
            }
        }
    }
}

/// Debug-build loan tracker: one flag per loanable slot, cleared when a
/// dispatch begins and set on first loan.
///
/// This is the dynamic half of the pool's fixed-schedule contract:
/// the raw-pointer view below is sound *because* the pool's fixed
/// schedule hands every slot to exactly one worker per dispatch. The
/// tracker turns that safety argument into a checked property — a
/// schedule bug that loaned the same row (or cell) to two workers would
/// be a silent data race in release; in debug builds it aborts the
/// dispatch on the spot instead. In release builds both methods are empty
/// and the table stays an unallocated `Vec`, so the hot path is untouched.
#[derive(Debug, Default)]
struct LoanTable {
    flags: Vec<AtomicBool>,
}

impl LoanTable {
    /// Starts a dispatch over `slots` slots, none of them out on loan. The
    /// flags are reused: only a larger dispatch than any before allocates.
    fn begin(&mut self, slots: usize) -> &Self {
        if cfg!(debug_assertions) {
            self.flags.clear();
            self.flags.resize_with(slots, Default::default);
        }
        self
    }

    /// Records the loan of slot `i`, aborting if it is already out (or was
    /// never part of the dispatch).
    fn claim(&self, i: usize, what: &str) {
        let loan = |flag: &AtomicBool| flag.swap(true, Ordering::Relaxed);
        debug_assert!(
            !self.flags.get(i).is_none_or(loan),
            "abft race detector: {what} {i} loaned twice within one dispatch — \
             the fixed schedule must hand every slot to exactly one worker"
        );
    }
}

/// A shared view of one round's dispatch units for disjoint parallel
/// fills: unit `row` is row `row` of the batch together with the cell of
/// the active agent that row belongs to. The rows are
/// [`abft_linalg::SharedSlots`]; the cell table is its `AgentCell`
/// counterpart.
struct SharedRound<'a> {
    cells: *mut AgentCell,
    rows: SharedSlots<'a>,
    dim: usize,
    cell_loans: &'a LoanTable,
    row_loans: &'a LoanTable,
    _cells: PhantomData<&'a mut [AgentCell]>,
}

// SAFETY: the fixed worker schedule hands every unit — a row and the one
// active agent it belongs to, agent ids being distinct — to exactly one
// chunk, so no two workers ever touch the same cell or row; cell contents
// are `Send`. Debug builds verify the disjointness with loan tables that
// abort on overlap.
unsafe impl Send for SharedRound<'_> {}
// SAFETY: see `Send` above — all shared access is to disjoint units.
unsafe impl Sync for SharedRound<'_> {}

impl<'a> SharedRound<'a> {
    /// A shared view over the `cells` table and over `flat` as rows of
    /// width `dim`, loans tracked in `loans` (cells, rows).
    fn new(
        cells: &'a mut [AgentCell],
        flat: &'a mut [f64],
        dim: usize,
        loans: &'a mut (LoanTable, LoanTable),
    ) -> Self {
        SharedRound {
            cell_loans: loans.0.begin(cells.len()),
            row_loans: loans.1.begin(flat.len() / dim.max(1)),
            cells: cells.as_mut_ptr(),
            rows: SharedSlots::new(flat),
            dim,
            _cells: PhantomData,
        }
    }

    /// # Safety
    ///
    /// `agent` must index the cell table and `row` a row of the storage
    /// the view was built over, and each must be handed to exactly one
    /// worker for the duration of the dispatch (guaranteed by the pool's
    /// fixed schedule), which is exactly why the `&self -> &mut` shape is
    /// sound here. Debug builds abort on an overlapping loan.
    #[expect(
        clippy::mut_from_ref,
        reason = "each loan is exclusive under the fixed schedule (see Safety)"
    )]
    unsafe fn unit(&self, row: usize, agent: usize) -> (&mut AgentCell, &mut [f64]) {
        self.cell_loans.claim(agent, "cell");
        self.row_loans.claim(row, "row");
        let columns = row * self.dim..(row + 1) * self.dim;
        // SAFETY: `agent` is in bounds of the cell table and row `row`
        // lies inside the batch storage this view was built over, and per
        // the contract above no other loan of either exists.
        unsafe { (&mut *self.cells.add(agent), self.rows.slice(columns)) }
    }
}

/// The persistent working memory of the synchronous server loop: the
/// round's `n × d` gradient batch, the worker pools that fill and
/// aggregate it, and the per-round bookkeeping of step S1.
///
/// The expensive parts of a run — the batch, its scratch arena, OS threads
/// — survive across runs: a workspace sizes itself on first use, replaces
/// the batch only when the dimension changes, and keeps one lazily
/// spawned pool per thread count it has been asked for, so changing
/// `fleet_workers` or `aggregation_threads` between runs swaps a pool
/// handle and nothing else. Suite drivers keep one per worker thread.
#[derive(Debug)]
pub struct RoundWorkspace {
    batch: GradientBatch,
    /// Active (non-eliminated) agent ids, row-ordered; reset per run.
    active: Vec<usize>,
    /// Rows of the truly honest agents — the omniscient view.
    honest_rows: Vec<usize>,
    /// Where an omniscient forgery is staged: its context borrows the
    /// batch it will be written into.
    forged: Vector,
    /// Whether any of the run's cells is omniscient (the second pass).
    omniscient: bool,
    /// One pool per thread count asked for so far; a pool installed from
    /// outside sits first and so takes precedence at its thread count.
    pools: Vec<Arc<WorkerPool>>,
    /// The pool this run's fill is sharded over (`None`: the caller's
    /// thread).
    fill_pool: Option<Arc<WorkerPool>>,
    /// Fill-worker count of the latest run (0 before the first).
    fill_workers: usize,
    runs_served: usize,
    /// The latest run's message-level counters.
    counters: RunCounters,
    /// Debug-build loan tables of the fill dispatch (cells, rows).
    loans: (LoanTable, LoanTable),
}

impl Default for RoundWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl RoundWorkspace {
    /// An empty workspace; buffers are sized lazily by the first run.
    pub fn new() -> Self {
        RoundWorkspace {
            // 1-dimensional placeholders (batches reject dim 0); `load`
            // replaces them with correctly shaped ones before first use.
            batch: GradientBatch::new(1),
            forged: Vector::zeros(1),
            active: Vec::new(),
            honest_rows: Vec::new(),
            omniscient: false,
            pools: Vec::new(),
            fill_pool: None,
            fill_workers: 0,
            runs_served: 0,
            counters: RunCounters::default(),
            loans: Default::default(),
        }
    }

    /// Installs a pool shared from outside — suites create one
    /// [`WorkerPool`] and hand it to every worker's workspace so a whole
    /// grid shares one set of threads. It serves every run that asks for
    /// its thread count, for the fill and for aggregation alike.
    pub fn set_shared_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pools.insert(0, pool);
    }

    /// Runs this workspace has served since construction.
    pub fn runs_served(&self) -> usize {
        self.runs_served
    }

    /// The round batch as the latest round left it: rows in agent-id order
    /// over the agents that replied.
    pub fn batch(&self) -> &GradientBatch {
        &self.batch
    }

    /// The pool for `threads` workers: `None` for 1 (the caller's thread
    /// alone), otherwise the first pool of that size — the suite-shared
    /// one when there is one — created on first request.
    fn pool_for(&mut self, threads: usize) -> Option<Arc<WorkerPool>> {
        if threads <= 1 {
            return None;
        }
        if !self.pools.iter().any(|pool| pool.threads() == threads) {
            self.pools.push(Arc::new(WorkerPool::new(threads)));
        }
        let sized = self.pools.iter().find(|pool| pool.threads() == threads);
        sized.cloned()
    }

    /// Installs one run: buffers of the cells' dimension (kept when they
    /// already are), the full active list, and the fill and aggregation
    /// pools. Returns `true` when the workspace was already warm at this
    /// fill-worker count.
    fn load(
        &mut self,
        cells: &[AgentCell],
        dim: usize,
        fill_workers: usize,
        aggregation_threads: usize,
    ) -> bool {
        if self.batch.dim() != dim {
            self.batch = GradientBatch::with_capacity(cells.len(), dim);
            self.forged = Vector::zeros(dim);
        }
        self.active.clear();
        self.active.extend(0..cells.len());
        self.omniscient = cells.iter().any(|cell| cell.omniscient);
        self.fill_pool = self.pool_for(fill_workers);
        let aggregation_pool = self.pool_for(aggregation_threads);
        self.batch.set_worker_pool(aggregation_pool);
        let warm = self.fill_workers == fill_workers;
        self.fill_workers = fill_workers;
        self.runs_served += 1;
        warm
    }

    /// Step S1 for iteration `t`: every active agent is sent `x` and
    /// writes what it reports into its row of the batch — rows in agent-id
    /// order over the agents that reply, the wire order every runtime
    /// shares. An agent whose crash point has come sends nothing and
    /// leaves the active list for good. Returns how many agents the
    /// estimate went out to, the newly silent ones included.
    ///
    /// Agents reply independently of each other, so the fill is sharded
    /// over the run's fill pool; only an omniscient strategy must wait
    /// for the honest rows, and is served in a second pass on the caller's
    /// thread with those rows — the truly honest agents', never a
    /// crash-scheduled one's — in view.
    fn collect_round(&mut self, cells: &mut [AgentCell], t: usize, x: &Vector) -> usize {
        let sent = self.active.len();
        let replies = |agent: &usize| cells.get(*agent).is_some_and(|cell| !cell.silent_at(t));
        self.active.retain(replies);
        let active = self.active.as_slice();
        self.batch.reset_rows(active.len());

        let dim = self.batch.dim();
        let round = SharedRound::new(cells, self.batch.as_flat_mut(), dim, &mut self.loans);
        let fill = |rows: Range<usize>| {
            let agents = active.get(rows.clone()).unwrap_or_default();
            for (row, &agent) in rows.zip(agents) {
                // SAFETY: `agent` indexes the cell table (`retain` kept
                // only such ids), and the fixed schedule hands unit `row`
                // — row `row` and active agent `agent`, ids being
                // distinct — to exactly one worker.
                let (cell, out) = unsafe { round.unit(row, agent) };
                if !cell.omniscient {
                    cell.reply_into(t, x, HonestGradients::Hidden, out);
                }
            }
        };
        match &self.fill_pool {
            Some(pool) => pool.run(active.len(), &fill),
            None => fill(0..active.len()),
        }

        if self.omniscient {
            let honest =
                |&(_, &agent): &(usize, &usize)| cells.get(agent).is_some_and(AgentCell::is_honest);
            let rows = active.iter().enumerate().filter(honest).map(|(row, _)| row);
            self.honest_rows.clear();
            self.honest_rows.extend(rows);
            for (row, &agent) in active.iter().enumerate() {
                if let Some(cell) = cells.get_mut(agent).filter(|cell| cell.omniscient) {
                    let view = HonestGradients::Rows {
                        batch: &self.batch,
                        rows: &self.honest_rows,
                    };
                    cell.reply_into(t, x, view, self.forged.as_mut_slice());
                    let forged = self.forged.as_slice();
                    self.batch.row_mut(row).copy_from_slice(forged);
                }
            }
        }
        sent
    }

    /// The synchronous server over `cells`, in process or as an event
    /// loop: [`RowSource::serve`] with this workspace collecting each
    /// round — step S1 sharded over `fill_workers` (1 fills on the caller's
    /// thread), a silent agent eliminated for good, so the server's
    /// `(n, f)` view shrinks. Runs until a step halts; the caller finishes
    /// the engine.
    ///
    /// Returns the run's message-level counters (`rounds` is the engine's
    /// to count): the event loop reports them, the in-process launch —
    /// which passes no messages — drops them.
    ///
    /// # Errors
    ///
    /// See [`RoundEngine::step`].
    pub fn run_rounds(
        &mut self,
        cells: &mut [AgentCell],
        fill_workers: usize,
        f: usize,
        engine: &mut RoundEngine<'_>,
    ) -> Result<RunCounters, DgdError> {
        let options = engine.options();
        let dim = engine.x().dim();
        let warm = self.load(cells, dim, fill_workers.max(1), options.aggregation_threads);
        self.counters = RunCounters {
            fleet_reuse_hits: usize::from(warm),
            ..RunCounters::default()
        };
        engine.instrument(&mut self.batch);
        let n = cells.len();
        Lockstep(self, cells).serve(n, f, engine)?;
        engine.absorb(&mut self.batch);
        Ok(self.counters)
    }
}

/// The lockstep row source: every round, the workspace collects the
/// cells' rows into its batch and counts the messages that took.
struct Lockstep<'a>(&'a mut RoundWorkspace, &'a mut [AgentCell]);

impl RowSource for Lockstep<'_> {
    type Error = DgdError;

    fn round_rows(
        &mut self,
        t: usize,
        engine: &mut RoundEngine<'_>,
    ) -> Result<&GradientBatch, DgdError> {
        let Lockstep(workspace, cells) = self;
        let fill_span = engine.telemetry.begin(Phase::GradientFill);
        let sent = workspace.collect_round(cells, t, engine.x());
        let counters = &mut workspace.counters;
        counters.broadcasts_sent += sent;
        counters.events_processed += sent;
        counters.rounds_dispatched += 1;
        counters.replies_received += workspace.batch.len();
        counters.agents_eliminated = cells.len() - workspace.active.len();
        engine.telemetry.end(fill_span);
        Ok(&workspace.batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_problems::RegressionProblem;

    fn paper_cells() -> Vec<AgentCell> {
        let costs = RegressionProblem::paper_instance().costs();
        costs.into_iter().map(AgentCell::new).collect()
    }

    #[test]
    fn fleet_counts_reuse_hits() {
        let cells = paper_cells();
        let mut workspace = RoundWorkspace::new();
        for expected_warm in [false, true, true] {
            assert_eq!(workspace.load(&cells, 2, 1, 1), expected_warm);
        }
        assert_eq!(workspace.runs_served(), 3);
        // A new fill-worker count starts cold; the batch stays put.
        let storage = workspace.batch().as_flat().as_ptr();
        assert!(!workspace.load(&cells, 2, 2, 1));
        assert!(workspace.load(&cells, 2, 2, 2));
        assert_eq!(workspace.batch().as_flat().as_ptr(), storage);
    }

    #[test]
    fn dispatch_is_bit_identical_at_any_worker_count() {
        let x = Vector::from(vec![0.3, -0.7]);
        let rows_at = |workers: usize| -> Vec<Vec<f64>> {
            let mut cells = paper_cells();
            let mut workspace = RoundWorkspace::new();
            workspace.load(&cells, 2, workers, 1);
            assert_eq!(workspace.collect_round(&mut cells, 0, &x), cells.len());
            workspace.batch().rows_iter().map(<[f64]>::to_vec).collect()
        };
        let reference = rows_at(1);
        for workers in [2usize, 3, 4] {
            let rows = rows_at(workers);
            assert_eq!(rows.len(), reference.len());
            for (i, (row, expected)) in rows.iter().zip(&reference).enumerate() {
                assert!(
                    row.iter()
                        .zip(expected)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "row {i} diverged at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn crashed_cells_go_silent_without_writing() {
        let mut cells = paper_cells();
        cells[2].crash_at(5);
        let n = cells.len();
        let mut workspace = RoundWorkspace::new();
        workspace.load(&cells, 2, 1, 1);
        assert_eq!(workspace.collect_round(&mut cells, 4, &Vector::zeros(2)), n);
        assert_eq!(workspace.batch().len(), n);
        // The crash round still sends agent 2 the estimate; it is agent 2
        // — row 2 — that leaves, for good.
        assert_eq!(workspace.collect_round(&mut cells, 5, &Vector::zeros(2)), n);
        assert_eq!(workspace.active, vec![0, 1, 3, 4, 5]);
        assert_eq!(workspace.batch().len(), n - 1);
        assert_eq!(
            workspace.collect_round(&mut cells, 6, &Vector::zeros(2)),
            n - 1
        );
    }

    /// The debug race detector must abort when one row is loaned to two
    /// borrowers within a single dispatch — the exact bug a broken worker
    /// schedule would introduce.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "loaned twice")]
    fn overlapping_row_loan_aborts_in_debug_builds() {
        let (mut cells, mut storage) = (paper_cells(), vec![0.0f64; 3 * 2]);
        let mut loans = Default::default();
        let round = SharedRound::new(&mut cells, &mut storage, 2, &mut loans);
        // SAFETY: a single loan of row 0 (with cell 0) is sound on its
        // own; the claim below is the violation under test.
        let _first = unsafe { round.unit(0, 0) };
        // SAFETY: deliberately loans row 0 a second time (with another
        // cell); the loan table must catch it before the aliasing
        // references could coexist.
        let _second = unsafe { round.unit(0, 1) };
    }

    /// Same contract for the cell table view.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "loaned twice")]
    fn overlapping_cell_loan_aborts_in_debug_builds() {
        let (mut cells, mut storage) = (paper_cells(), vec![0.0f64; 3 * 2]);
        let mut loans = Default::default();
        let round = SharedRound::new(&mut cells, &mut storage, 2, &mut loans);
        // SAFETY: a single loan of cell 1 (with row 0) is sound; the
        // second claim is the violation under test.
        let _first = unsafe { round.unit(0, 1) };
        // SAFETY: deliberately loans cell 1 a second time (with another
        // row) to exercise the debug loan table.
        let _second = unsafe { round.unit(1, 1) };
    }
}
