//! Streaming run observation: per-round sinks with lazy instrumentation
//! and early-stop control flow.
//!
//! The paper's guarantees are `lim sup` statements — the estimate *settles
//! inside* the `(2f/n)ε`-ball (Theorems 3–6) — which a fixed-horizon,
//! dense-in-memory [`Trace`] serves poorly: long-horizon runs want
//! streaming metrics, convergence-triggered termination, and the option to
//! skip per-round instrumentation entirely. This module is the sink side
//! of that contract, shared by every driver in the workspace:
//!
//! * [`RunObserver`] — the per-round hook. A driver calls
//!   [`RunObserver::observe`] once per synchronous round with a
//!   [`RoundView`] and stops the run early when the observer returns
//!   [`ControlFlow::Halt`]. "Round" here means *one aggregation of the
//!   estimate*: the asynchronous bounded-staleness server has no
//!   synchronous rounds, but it aggregates on a fixed step cadence and
//!   reports one view per aggregation step, so recorders, halt rules,
//!   and streamers compose with it unchanged.
//! * [`RoundView`] — a lazy window onto one round. Iteration index,
//!   estimate, and filtered gradient are free; the derived series
//!   (`loss`, `distance`, `grad_norm`, `phi`) are computed **on first
//!   access** through a driver-supplied [`MetricSource`] and memoized, so
//!   an observer that reads nothing costs nothing — in particular, the
//!   per-round honest-cost pass behind `loss` never runs for
//!   pure-throughput observers.
//! * [`RunSummary`] — the always-present result of an observed run: the
//!   final record (computed once, at the end), the number of rounds
//!   executed, and why the run stopped ([`HaltReason`]).
//!
//! Built-in observers: [`TraceRecorder`] (dense or every-`k` subsampled —
//! bit-identical to the historical traces at `k = 1`), [`ConvergenceHalt`]
//! (deterministic early stop once the distance stays inside a
//! radius-plus-slack window — the streaming counterpart of
//! `abft_dgd::convergence::settles_within`), [`CsvStreamer`]
//! (constant-memory CSV streaming through a [`std::io::BufWriter`]), and
//! [`NullObserver`]. Observers compose as tuples: `(recorder, halt)` runs
//! both per round and halts when either asks to.
//!
//! # Example
//!
//! ```
//! use abft_core::observe::{ControlFlow, RoundView, RunObserver, TraceRecorder};
//!
//! struct PrintDistance;
//! impl RunObserver for PrintDistance {
//!     fn observe(&mut self, view: &RoundView<'_>) -> ControlFlow {
//!         println!("t = {}: d = {}", view.iteration(), view.distance());
//!         ControlFlow::Continue
//!     }
//! }
//!
//! // Observers compose as tuples; drivers call `observe` once per round.
//! let mut observer = (TraceRecorder::dense("demo"), PrintDistance);
//! let _ = &mut observer as &mut dyn RunObserver;
//! ```

use crate::error::CoreError;
use crate::trace::{IterationRecord, Trace};
use std::cell::Cell;
use std::io::{BufWriter, Write};
use std::path::Path;

/// What an observer tells the driver after seeing a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a dropped ControlFlow silently ignores an observer's halt request"]
pub enum ControlFlow {
    /// Keep iterating.
    Continue,
    /// Stop the run after this round. The round the observer just saw
    /// becomes the final record; the estimate is **not** updated again.
    Halt,
}

impl ControlFlow {
    /// `true` for [`ControlFlow::Halt`].
    pub fn is_halt(self) -> bool {
        matches!(self, ControlFlow::Halt)
    }

    /// Combines two observers' verdicts: halt wins.
    pub fn merge(self, other: ControlFlow) -> ControlFlow {
        if self.is_halt() || other.is_halt() {
            ControlFlow::Halt
        } else {
            ControlFlow::Continue
        }
    }
}

/// Why an observed run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// The run executed its full iteration budget `T`.
    Completed,
    /// An observer returned [`ControlFlow::Halt`] at this iteration.
    Observer {
        /// The iteration whose round the observer halted on; the final
        /// record is that round's record.
        at_iteration: usize,
    },
}

/// The always-present result of an observed run: what every consumer can
/// rely on even when no trace was recorded.
///
/// The final record is computed exactly once, at the last executed round —
/// a `SummaryOnly` run therefore evaluates the honest costs once per
/// *run*, not once per round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// The last executed round's full record (fields computed at the
    /// final estimate).
    pub final_record: IterationRecord,
    /// Rounds executed, counting the record round at the final estimate —
    /// `iterations + 1` for a completed run, `at_iteration + 1` for a
    /// halted one. Equals the dense trace length.
    pub rounds: usize,
    /// Why the run stopped.
    pub halt: HaltReason,
}

impl RunSummary {
    /// Final approximation error `‖x_out − reference‖` — infallible, in
    /// contrast to the historical `trace.final_distance().expect(…)` path.
    pub fn final_distance(&self) -> f64 {
        self.final_record.distance
    }
}

/// Driver-side provider of the derived per-round metrics.
///
/// Each method computes its metric from the driver's current round state;
/// [`RoundView`] calls them at most once per round (on first access) and
/// memoizes the result, so implementations need no caching of their own.
pub trait MetricSource {
    /// The honest aggregate loss `Σ_{i∈H} Q_i(x_t)` — the expensive pass.
    fn loss(&self) -> f64;
    /// The approximation error `‖x_t − reference‖`.
    fn distance(&self) -> f64;
    /// The filtered gradient norm.
    fn grad_norm(&self) -> f64;
    /// Theorem 3's inner product `φ_t = ⟨x_t − reference, filtered⟩`.
    fn phi(&self) -> f64;
}

/// A lazy, memoizing window onto one synchronous round.
///
/// Construction is free; each derived metric is computed through the
/// [`MetricSource`] on first access and cached for the round, so the cost
/// of a round's instrumentation is exactly the set of metrics its
/// observers actually read.
pub struct RoundView<'a> {
    iteration: usize,
    estimate: &'a [f64],
    aggregate: &'a [f64],
    source: &'a dyn MetricSource,
    loss: Cell<Option<f64>>,
    distance: Cell<Option<f64>>,
    grad_norm: Cell<Option<f64>>,
    phi: Cell<Option<f64>>,
}

impl<'a> RoundView<'a> {
    /// A view for iteration `iteration` at estimate `estimate` with
    /// filtered gradient `aggregate`, deriving metrics from `source`.
    /// Any metric can be read from any view; each is computed at most once.
    pub fn new(
        iteration: usize,
        estimate: &'a [f64],
        aggregate: &'a [f64],
        source: &'a dyn MetricSource,
    ) -> Self {
        RoundView {
            iteration,
            estimate,
            aggregate,
            source,
            loss: Cell::new(None),
            distance: Cell::new(None),
            grad_norm: Cell::new(None),
            phi: Cell::new(None),
        }
    }

    /// The iteration index `t` (0-based).
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// The current estimate `x_t`.
    pub fn estimate(&self) -> &[f64] {
        self.estimate
    }

    /// The filtered (aggregated) gradient of this round. Free, like the
    /// estimate: an observer reads the aggregate itself without a metric.
    pub fn filtered_gradient(&self) -> &[f64] {
        self.aggregate
    }

    fn memo(cell: &Cell<Option<f64>>, compute: impl FnOnce() -> f64) -> f64 {
        match cell.get() {
            Some(value) => value,
            None => {
                let value = compute();
                cell.set(Some(value));
                value
            }
        }
    }

    /// Honest aggregate loss `Σ_{i∈H} Q_i(x_t)` (computed on first access).
    pub fn loss(&self) -> f64 {
        Self::memo(&self.loss, || self.source.loss())
    }

    /// Approximation error `‖x_t − reference‖` (computed on first access).
    pub fn distance(&self) -> f64 {
        Self::memo(&self.distance, || self.source.distance())
    }

    /// Filtered gradient norm (computed on first access).
    pub fn grad_norm(&self) -> f64 {
        Self::memo(&self.grad_norm, || self.source.grad_norm())
    }

    /// Theorem 3's `φ_t` (computed on first access).
    pub fn phi(&self) -> f64 {
        Self::memo(&self.phi, || self.source.phi())
    }

    /// The full [`IterationRecord`] of this round. Forces all four derived
    /// metrics (each memoized, so a later [`RoundView::record`] call — or
    /// an earlier single-metric read — shares the work). Field order
    /// matches the historical record construction exactly.
    ///
    /// Drivers use it to build the final [`RunSummary`] record.
    pub fn record(&self) -> IterationRecord {
        IterationRecord {
            iteration: self.iteration,
            loss: self.loss(),
            distance: self.distance(),
            grad_norm: self.grad_norm(),
            phi: self.phi(),
        }
    }
}

/// Drives one observation round for a driver loop: shows `view` to the
/// observer and decides whether the run ends here.
///
/// Returns `Some(RunSummary)` — the signal to stop, with the summary's
/// final record taken from this round — when the observer halts or when
/// this is the final record round (`advance == false`); `None` when the
/// loop should apply the update and continue. Every driver funnels
/// through this helper, which is what keeps halt bookkeeping (the
/// `HaltReason`, the `rounds = t + 1` count, the compute-final-record-
/// exactly-once rule) identical across backends.
pub fn observe_round(
    observer: &mut dyn RunObserver,
    view: &RoundView<'_>,
    advance: bool,
) -> Option<RunSummary> {
    let stop = observer.observe(view).is_halt();
    if !stop && advance {
        return None;
    }
    // A halt on the final record round is indistinguishable from
    // completion: the run was over either way.
    let halt = if stop && advance {
        HaltReason::Observer {
            at_iteration: view.iteration(),
        }
    } else {
        HaltReason::Completed
    };
    Some(RunSummary {
        final_record: view.record(),
        rounds: view.iteration() + 1,
        halt,
    })
}

/// A per-round sink for an observed run.
///
/// Drivers call [`RunObserver::observe`] exactly once per synchronous
/// round — including the final record round at the last estimate — in
/// iteration order, and stop early when it returns [`ControlFlow::Halt`].
/// Observation must not mutate the run: two runs differing only in their
/// observers produce identical estimates (pinned by the cross-backend
/// equivalence tests). What an observer costs is what it reads from the
/// view: every derived metric is lazy, so there is nothing to declare.
pub trait RunObserver {
    /// Observes one round; return [`ControlFlow::Halt`] to stop the run
    /// with this round as its final record.
    fn observe(&mut self, view: &RoundView<'_>) -> ControlFlow;
}

/// Observers compose as tuples: both see every round (even when the first
/// halts, so a recorder paired with a halt rule still captures the halt
/// round), and the run stops when either asks to.
impl<A: RunObserver, B: RunObserver> RunObserver for (A, B) {
    fn observe(&mut self, view: &RoundView<'_>) -> ControlFlow {
        let first = self.0.observe(view);
        first.merge(self.1.observe(view))
    }
}

impl RunObserver for Box<dyn RunObserver + '_> {
    fn observe(&mut self, view: &RoundView<'_>) -> ControlFlow {
        self.as_mut().observe(view)
    }
}

/// The do-nothing observer: reads nothing, never halts. The observer of
/// a pure-throughput (`SummaryOnly`) run — with it, no per-round loss/φ
/// evaluation ever happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl RunObserver for NullObserver {
    fn observe(&mut self, _view: &RoundView<'_>) -> ControlFlow {
        ControlFlow::Continue
    }
}

/// Records rounds into an in-memory [`Trace`] — dense, or subsampled to
/// every `k`-th iteration.
///
/// At `k = 1` the recorded trace is **bit-identical** to the historical
/// dense traces (same fields, computed from the same values in the same
/// order); at `k > 1` it contains exactly the dense trace's records at
/// iterations `0, k, 2k, …` (the last executed round is *not* forced in —
/// it lives in the [`RunSummary`] instead).
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    trace: Trace,
    every: usize,
}

impl TraceRecorder {
    /// Records every round (the historical dense trace).
    pub fn dense(name: impl Into<String>) -> Self {
        Self::every(name, 1)
    }

    /// Records iterations `0, k, 2k, …` (`k` is clamped to at least 1).
    pub fn every(name: impl Into<String>, k: usize) -> Self {
        TraceRecorder {
            trace: Trace::new(name),
            every: k.max(1),
        }
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the recorder, yielding the recorded trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl RunObserver for TraceRecorder {
    fn observe(&mut self, view: &RoundView<'_>) -> ControlFlow {
        if view.iteration().is_multiple_of(self.every) {
            self.trace.push(view.record());
        }
        ControlFlow::Continue
    }
}

/// Deterministic early stop once the run has *settled*: halts when the
/// distance stays at or below `radius + slack` for `window` consecutive
/// rounds — the streaming counterpart of
/// `abft_dgd::convergence::settles_within`, evaluated online instead of
/// on a recorded trace.
///
/// Determinism: distances are bit-identical across backends and
/// aggregation thread counts (the pool's fixed tile schedule), so the
/// halt round is too — pinned by the cross-backend observation tests.
#[derive(Debug, Clone)]
pub struct ConvergenceHalt {
    radius: f64,
    slack: f64,
    window: usize,
    inside: usize,
}

impl ConvergenceHalt {
    /// Halts once `‖x_t − reference‖ ≤ radius + slack` has held for
    /// `window` consecutive rounds (`window` is clamped to at least 1).
    pub fn new(radius: f64, slack: f64, window: usize) -> Self {
        ConvergenceHalt {
            radius,
            slack,
            window: window.max(1),
            inside: 0,
        }
    }

    /// Halts once the distance has been at or below `radius` for `window`
    /// consecutive rounds (zero slack).
    pub fn within(radius: f64, window: usize) -> Self {
        Self::new(radius, 0.0, window)
    }

    /// Consecutive in-ball rounds seen so far.
    pub fn streak(&self) -> usize {
        self.inside
    }
}

impl RunObserver for ConvergenceHalt {
    fn observe(&mut self, view: &RoundView<'_>) -> ControlFlow {
        // `<=` with a NaN distance is false, so a diverged run can never
        // satisfy the halt rule by accident.
        if view.distance() <= self.radius + self.slack {
            self.inside += 1;
        } else {
            self.inside = 0;
        }
        if self.inside >= self.window {
            ControlFlow::Halt
        } else {
            ControlFlow::Continue
        }
    }
}

/// Streams records to a writer in the workspace's standard trace CSV
/// format (`iteration,loss,distance,grad_norm,phi`, values in `{:.10e}`)
/// through a [`BufWriter`] — constant memory no matter how long the run.
///
/// The emitted bytes are identical to
/// [`Trace::write_csv`](crate::Trace::write_csv) over the same records:
/// both writers take the header and each row from `IterationRecord`'s one
/// CSV formatter. Like a trace recorder it can subsample with
/// [`CsvStreamer::subsample`].
///
/// I/O errors do not perturb the run: the first failure is latched, further
/// writes are skipped, and the error surfaces from [`CsvStreamer::finish`]
/// — observation must never change where the estimate ends up.
pub struct CsvStreamer<W: Write> {
    sink: Option<BufWriter<W>>,
    every: usize,
    header_written: bool,
    error: Option<std::io::Error>,
}

impl CsvStreamer<std::fs::File> {
    /// Streams to a freshly created file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, CoreError> {
        Ok(Self::new(std::fs::File::create(path)?))
    }
}

impl<W: Write> CsvStreamer<W> {
    /// Streams every record to `writer`.
    pub fn new(writer: W) -> Self {
        CsvStreamer {
            sink: Some(BufWriter::new(writer)),
            every: 1,
            header_written: false,
            error: None,
        }
    }

    /// Streams only iterations `0, k, 2k, …` (`k` clamped to at least 1).
    #[must_use]
    pub fn subsample(mut self, k: usize) -> Self {
        self.every = k.max(1);
        self
    }

    fn write_row(&mut self, record: &IterationRecord) -> std::io::Result<()> {
        // The sink is only taken by `finish`; a row arriving after that
        // would be an observer-protocol bug, and dropping it beats
        // panicking mid-run.
        let Some(sink) = self.sink.as_mut() else {
            return Ok(());
        };
        if !self.header_written {
            writeln!(sink, "{}", IterationRecord::CSV_HEADER)?;
            self.header_written = true;
        }
        writeln!(sink, "{}", record.csv_row())
    }

    /// Flushes the stream and returns the first I/O error, if any
    /// occurred while observing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] for the latched write failure or a
    /// failing flush.
    pub fn finish(mut self) -> Result<(), CoreError> {
        if let Some(error) = self.error.take() {
            return Err(error.into());
        }
        if let Some(mut sink) = self.sink.take() {
            sink.flush()?;
        }
        Ok(())
    }
}

impl<W: Write> RunObserver for CsvStreamer<W> {
    fn observe(&mut self, view: &RoundView<'_>) -> ControlFlow {
        if self.error.is_none() && view.iteration().is_multiple_of(self.every) {
            let record = view.record();
            if let Err(error) = self.write_row(&record) {
                self.error = Some(error);
            }
        }
        ControlFlow::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A source with fixed metric values that counts how often each is
    /// actually computed.
    struct Counting {
        loss_calls: Cell<usize>,
        distance: f64,
    }

    impl Counting {
        fn new(distance: f64) -> Self {
            Counting {
                loss_calls: Cell::new(0),
                distance,
            }
        }
    }

    impl MetricSource for Counting {
        fn loss(&self) -> f64 {
            self.loss_calls.set(self.loss_calls.get() + 1);
            7.5
        }
        fn distance(&self) -> f64 {
            self.distance
        }
        fn grad_norm(&self) -> f64 {
            2.0
        }
        fn phi(&self) -> f64 {
            0.25
        }
    }

    fn view<'a>(t: usize, source: &'a Counting) -> RoundView<'a> {
        RoundView::new(t, &[], &[], source)
    }

    #[test]
    fn view_is_lazy_and_memoized() {
        let source = Counting::new(1.0);
        let v = view(3, &source);
        assert_eq!(source.loss_calls.get(), 0, "nothing computed up front");
        assert_eq!(v.loss(), 7.5);
        assert_eq!(v.loss(), 7.5);
        let record = v.record();
        assert_eq!(record.loss, 7.5);
        assert_eq!(record.iteration, 3);
        assert_eq!(source.loss_calls.get(), 1, "memoized across reads");
    }

    #[test]
    fn trace_recorder_subsamples() {
        let source = Counting::new(1.0);
        let mut dense = TraceRecorder::dense("d");
        let mut sparse = TraceRecorder::every("s", 3);
        for t in 0..8 {
            let v = view(t, &source);
            assert!(!dense.observe(&v).is_halt());
            let v = view(t, &source);
            assert!(!sparse.observe(&v).is_halt());
        }
        assert_eq!(dense.trace().len(), 8);
        let sparse = sparse.into_trace();
        assert_eq!(
            sparse
                .records()
                .iter()
                .map(|r| r.iteration)
                .collect::<Vec<_>>(),
            vec![0, 3, 6]
        );
        // Subsampled records equal the dense trace's k-th records.
        for r in sparse.records() {
            assert_eq!(r, &dense.trace().records()[r.iteration]);
        }
    }

    #[test]
    fn convergence_halt_requires_a_full_window() {
        let mut halt = ConvergenceHalt::new(1.0, 0.1, 3);
        let far = Counting::new(5.0);
        let near = Counting::new(1.05);
        let run = [&far, &near, &near, &far, &near, &near, &near];
        let mut halted_at = None;
        for (t, source) in run.iter().enumerate() {
            let v = view(t, source);
            if halt.observe(&v).is_halt() {
                halted_at = Some(t);
                break;
            }
        }
        // The streak of 2 at t = 1..2 is broken at t = 3; the streak that
        // halts is t = 4, 5, 6.
        assert_eq!(halted_at, Some(6));
    }

    #[test]
    fn convergence_halt_never_fires_on_nan() {
        let mut halt = ConvergenceHalt::new(f64::INFINITY, 0.0, 1);
        let nan = Counting::new(f64::NAN);
        let v = view(0, &nan);
        assert!(!halt.observe(&v).is_halt());
    }

    #[test]
    fn tuple_composition_halts_when_either_does_and_both_see_the_round() {
        let source = Counting::new(0.0);
        let mut pair = (TraceRecorder::dense("t"), ConvergenceHalt::within(1.0, 1));
        let v = view(0, &source);
        assert!(pair.observe(&v).is_halt());
        // The recorder captured the halt round.
        assert_eq!(pair.0.trace().len(), 1);
    }

    #[test]
    fn csv_streamer_matches_trace_write_csv() {
        let source = Counting::new(1.5);
        let mut buffer = Vec::new();
        {
            let mut streamer = CsvStreamer::new(&mut buffer);
            let mut recorder = TraceRecorder::dense("t");
            for t in 0..4 {
                let v = view(t, &source);
                let _ = streamer.observe(&v);
                let _ = recorder.observe(&v);
            }
            streamer.finish().unwrap();
            let expected = recorder.trace().to_csv_table().to_csv_string();
            let streamed = String::from_utf8(buffer.clone()).unwrap();
            assert_eq!(streamed, expected);
        }
    }

    #[test]
    fn csv_streamer_latches_io_errors_without_halting() {
        /// A writer that always fails.
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let source = Counting::new(1.0);
        let mut streamer = CsvStreamer::new(Broken);
        for t in 0..3 {
            let v = view(t, &source);
            assert!(!streamer.observe(&v).is_halt(), "I/O never stops the run");
        }
        assert!(streamer.finish().is_err());
    }

    #[test]
    fn null_observer_reads_nothing() {
        let source = Counting::new(1.0);
        let v = view(0, &source);
        assert!(!NullObserver.observe(&v).is_halt());
        assert_eq!(source.loss_calls.get(), 0);
    }

    #[test]
    fn summary_reports_infallible_distance() {
        let summary = RunSummary {
            final_record: IterationRecord {
                iteration: 9,
                loss: 1.0,
                distance: 0.5,
                grad_norm: 0.1,
                phi: 0.0,
            },
            rounds: 10,
            halt: HaltReason::Observer { at_iteration: 9 },
        };
        assert_eq!(summary.final_distance(), 0.5);
    }
}
