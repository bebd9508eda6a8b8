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
//! The pool hands each worker its chunk's rows and agent cells as `&mut`
//! pieces ([`WorkerPool::run_split`]), so no two workers can reach the
//! same row or cell, and the compiler checks it.

use crate::engine::{RoundEngine, RowSource, RunCounters};
use crate::error::DgdError;
use abft_attacks::{AttackContext, ByzantineStrategy, HonestGradients};
use abft_linalg::{GradientBatch, Vector, WorkerPool};
use abft_problems::SharedCost;
use abft_telemetry::Phase;
use std::ops::Range;
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

        // Unit `row` is row `row` of the batch and the cell of `active[row]`:
        // a chunk's rows are one piece of the batch, and — `active` being
        // strictly increasing — its agents' cells one piece of the table,
        // starting at its first agent's cell (chunk 0 at cell 0). A silent
        // agent's cell sits inside some piece and is never touched.
        let (dim, table) = (self.batch.dim(), cells.len());
        let edge = |row: usize| match row {
            0 => (0, 0),
            _ => (row * dim, active.get(row).copied().unwrap_or(table)),
        };
        let fill =
            |_: &mut Vec<f64>, rows: Range<usize>, (out, cells): (&mut [f64], &mut [AgentCell])| {
                let first = edge(rows.start).1;
                let agents = active.get(rows).unwrap_or_default();
                for (out, &agent) in out.chunks_exact_mut(dim).zip(agents) {
                    let cell = cells.get_mut(agent - first).filter(|cell| !cell.omniscient);
                    if let Some(cell) = cell {
                        cell.reply_into(t, x, HonestGradients::Hidden, out);
                    }
                }
            };
        let round = (self.batch.as_flat_mut(), &mut *cells);
        match &self.fill_pool {
            Some(pool) => pool.run_split(active.len(), round, edge, &mut Vec::new(), &fill),
            None => fill(&mut Vec::new(), 0..active.len(), round),
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
        let rows_at = |workers: usize, silent: Option<usize>| -> Vec<Vec<f64>> {
            let mut cells = paper_cells();
            if let Some(agent) = silent {
                cells[agent].crash_at(0);
            }
            let mut workspace = RoundWorkspace::new();
            workspace.load(&cells, 2, workers, 1);
            assert_eq!(workspace.collect_round(&mut cells, 0, &x), cells.len());
            let replied = cells.len() - usize::from(silent.is_some());
            assert_eq!(workspace.batch().len(), replied);
            workspace.batch().rows_iter().map(<[f64]>::to_vec).collect()
        };
        // No silent agent, then the first, the last, and agent 3 — the
        // first agent of chunk 1 when 2 workers split all 6 agents.
        for silent in [None, Some(0), Some(5), Some(3)] {
            let reference = rows_at(1, silent);
            for workers in [2usize, 3, 4] {
                let rows = rows_at(workers, silent);
                assert_eq!(rows.len(), reference.len());
                for (i, (row, expected)) in rows.iter().zip(&reference).enumerate() {
                    assert!(
                        row.iter()
                            .zip(expected)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "row {i} diverged at {workers} workers, silent {silent:?}"
                    );
                }
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
}
