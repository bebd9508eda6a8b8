//! Byzantine-robust distributed SGD (the Appendix-K training loop).
//!
//! Each iteration: every agent samples a mini-batch from its local shard
//! and computes a stochastic gradient of the *current global model*; faulty
//! agents corrupt their report (label-flip corrupts the shard itself,
//! gradient-reverse negates the report); the server aggregates with a
//! gradient filter and takes a fixed-step update (`b = 128`, `η = 0.01` in
//! the paper).
//!
//! That server loop is the DGD one fed stochastic gradients, so it is
//! [`abft_dgd::RowSource::serve`] around [`abft_dgd::RoundEngine::step`]
//! (constant schedule, `W = ℝ^d`); this file is D-SGD's row source — how
//! the agents' rows are sampled and filled each round — and the
//! evaluation series.

use crate::dataset::Dataset;
use crate::error::MlError;
use abft_core::observe::{NullObserver, RunObserver, RunSummary};
use abft_dgd::{ProjectionSet, RoundEngine, RoundMetrics, RowSource, RunOptions, StepSchedule};
use abft_filters::GradientFilter;
use abft_linalg::rng::seeded_rng;
use abft_linalg::{GradientBatch, Vector};
use abft_telemetry::{Phase, Telemetry, TelemetryConfig, TelemetryReport};
use rand::rngs::StdRng;
use std::borrow::Cow;
use std::cell::Cell;

/// A trainable model exposing flat parameter/gradient vectors, so gradient
/// filters can treat learning exactly like the paper's DGD: aggregation of
/// `d`-dimensional vectors.
///
/// A gradient has one entry point, [`Model::loss_and_gradient_into`], which
/// writes into a caller-owned slot (a batch row in training). There is no
/// allocating twin; a caller that wants a fresh vector zeroes one of
/// [`Model::param_dim`] and passes its slice.
pub trait Model {
    /// Total number of parameters `d`.
    fn param_dim(&self) -> usize;

    /// The feature width a sample must have.
    fn input_dim(&self) -> usize;

    /// The number of classes: a label must lie below it.
    fn classes(&self) -> usize;

    /// The current parameters, flattened.
    fn params(&self) -> Vector;

    /// Replaces the parameters.
    ///
    /// # Panics
    ///
    /// Implementations may panic when the length differs from
    /// [`Model::param_dim`].
    fn set_params(&mut self, params: &Vector);

    /// Writes the flat gradient over the given sample indices of `data`
    /// into `out`, overwriting every slot, and returns the mean loss — the
    /// only way a model produces a gradient: the D-SGD loop fills
    /// `GradientBatch` rows through it.
    ///
    /// A sample of another width than [`Model::input_dim`], or a label
    /// not below [`Model::classes`], gives an unspecified loss and
    /// gradient; [`train_distributed_observed`] rejects such a dataset
    /// before its first round.
    ///
    /// # Panics
    ///
    /// Implementations may panic on an empty batch or when
    /// `out.len() != self.param_dim()`.
    fn loss_and_gradient_into(&self, data: &Dataset, batch: &[usize], out: &mut [f64]) -> f64;

    /// Classification accuracy on a dataset.
    fn accuracy(&self, data: &Dataset) -> f64;
}

/// [`Model::set_params`]'s documented input check: panics unless `params`
/// has `param_dim` entries.
// LINT-ALLOW(panic-reach): D-SGD never trips it, as
// `train_distributed_observed` starts its engine at `model.params()`.
#[track_caller]
pub(crate) fn check_params(params: &Vector, param_dim: usize) {
    assert_eq!(params.dim(), param_dim, "parameter vector length");
}

/// [`Model::loss_and_gradient_into`]'s documented input checks: panics on
/// an empty `batch`, or unless `out` has `param_dim` entries.
// LINT-ALLOW(panic-reach): D-SGD never trips them, as
// `train_distributed_observed` rejects a zero `batch_size` and sizes every
// row to `model.params()`.
#[track_caller]
pub(crate) fn check_gradient_call(batch: &[usize], out: &[f64], param_dim: usize) {
    assert!(!batch.is_empty(), "empty mini-batch");
    assert_eq!(out.len(), param_dim, "gradient buffer length");
}

/// The fault behaviour of the Byzantine agents in a D-SGD run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MlFault {
    /// No fault (used for the fault-free baseline).
    None,
    /// **LF**: the faulty agents' shard labels are remapped `y → 9 − y`
    /// before training (a data-poisoning fault; the agent then follows the
    /// protocol on poisoned data).
    LabelFlip,
    /// **GR**: the faulty agent computes its true stochastic gradient `s`
    /// and reports `−s`.
    GradientReverse,
}

/// Hyperparameters of one D-SGD run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsgdConfig {
    /// Mini-batch size per agent (paper: 128).
    pub batch_size: usize,
    /// Learning-rate numerator (paper: constant 0.01).
    pub learning_rate_milli: usize,
    /// Iterations to run (paper: 1000).
    pub iterations: usize,
    /// Evaluate accuracy/loss every this many iterations (records are also
    /// taken at iteration 0 and the final iteration).
    pub eval_every: usize,
    /// RNG seed for batch sampling.
    pub seed: u64,
    /// Worker threads for sharded gradient aggregation (1 = serial).
    /// Parallel aggregation is bit-identical to serial (fixed tile
    /// schedule), so this is pure throughput for large `param_dim`.
    pub aggregation_threads: usize,
    /// Instrumentation switch (default off; `ABFT_TELEMETRY` overrides in
    /// [`DsgdConfig::paper`]). Observational only: enabling it never
    /// changes the trained model or the evaluation series.
    pub telemetry: TelemetryConfig,
}

impl DsgdConfig {
    /// The paper's configuration: `b = 128`, `η = 0.01`, 1000 iterations.
    pub fn paper(seed: u64) -> Self {
        DsgdConfig {
            batch_size: 128,
            learning_rate_milli: 10,
            iterations: 1000,
            eval_every: 50,
            seed,
            aggregation_threads: abft_linalg::pool::env_aggregation_threads(1),
            telemetry: TelemetryConfig::from_env(),
        }
    }

    /// The learning rate as a float.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate_milli as f64 / 1000.0
    }
}

/// The fault plan of a D-SGD run: which agents misbehave, and how.
#[derive(Debug, Clone, Copy)]
pub struct DsgdFaults<'a> {
    /// Indices of the faulty agents (distinct, in range).
    pub agents: &'a [usize],
    /// What the faulty agents do.
    pub fault: MlFault,
}

impl<'a> DsgdFaults<'a> {
    /// `agents` misbehave per `fault`.
    pub fn new(agents: &'a [usize], fault: MlFault) -> Self {
        DsgdFaults { agents, fault }
    }

    /// The fault-free plan.
    pub fn none() -> Self {
        DsgdFaults {
            agents: &[],
            fault: MlFault::None,
        }
    }
}

/// The result of an observed D-SGD run: the evaluation series plus the
/// always-present [`RunSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct DsgdOutcome {
    /// Evaluation records every `eval_every` iterations plus the final one.
    pub records: Vec<DsgdRecord>,
    /// Final record, rounds observed (`iterations + 1` when training ran
    /// its full budget), and halt reason. See
    /// [`train_distributed_observed`] for how the DGD metric vocabulary
    /// maps onto training.
    pub summary: RunSummary,
    /// Phase timings and counters, present when the config enabled
    /// telemetry.
    pub telemetry: Option<TelemetryReport>,
}

/// What a D-SGD run's records measure. Training has no reference point
/// `x_H`, so the DGD metric vocabulary maps as: `loss` is the honest
/// agents' mean mini-batch loss (a by-product of the gradient pass, which
/// the driver sets after each fill), `distance` — like `grad_norm` — is
/// the filtered update direction's norm (so
/// [`abft_core::observe::ConvergenceHalt`] performs gradient-norm early
/// stopping), and `φ`, defined only relative to a reference, is reported
/// as `0`.
struct DsgdMetrics<'a>(&'a Cell<f64>);

impl RoundMetrics for DsgdMetrics<'_> {
    fn loss(&self, _x: &Vector) -> f64 {
        self.0.get()
    }

    fn distance(&self, _x: &Vector, g: &Vector) -> f64 {
        g.norm()
    }

    fn phi(&self, _x: &Vector, _g: &Vector) -> f64 {
        0.0
    }
}

/// One evaluation record of a D-SGD run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsgdRecord {
    /// Iteration index.
    pub iteration: usize,
    /// Mean training loss over the honest agents' batches at this iteration.
    pub loss: f64,
    /// Test accuracy of the global model at this iteration.
    pub accuracy: f64,
}

/// Runs Byzantine-robust D-SGD and returns the evaluation series.
///
/// `shards[i]` is agent `i`'s local data; agents in `faulty` misbehave per
/// `fault`. The model is updated in place.
///
/// # Errors
///
/// Returns [`MlError::Shape`] / [`MlError::InvalidConfig`] for structural
/// problems — among them a shard or a test set whose samples are not
/// [`Model::input_dim`] wide, or that has more classes than
/// [`Model::classes`] —, [`MlError::Filter`] when the filter rejects a
/// round, and [`MlError::Diverged`] when the filtered direction or the parameters are
/// non-finite on a round that would update.
pub fn train_distributed<M: Model>(
    model: &mut M,
    shards: &[Dataset],
    faulty: &[usize],
    fault: MlFault,
    filter: &dyn GradientFilter,
    test: &Dataset,
    config: &DsgdConfig,
) -> Result<Vec<DsgdRecord>, MlError> {
    train_distributed_observed(
        model,
        shards,
        DsgdFaults::new(faulty, fault),
        filter,
        test,
        config,
        &mut NullObserver,
    )
    .map(|outcome| outcome.records)
}

/// [`train_distributed`] with a caller-supplied [`RunObserver`] — the
/// same streaming hook the DGD drivers expose, on the training loop.
///
/// The observer sees one lazy round view per SGD iteration — *after*
/// aggregation, *before* the parameter update — plus the final record
/// round at the parameters training ends with (never applied), exactly
/// like the DGD drivers: `iterations + 1` rounds in total. Training has no
/// reference point `x_H`, so the DGD metric vocabulary maps as: `loss`
/// is the honest agents' mean mini-batch loss, `distance` **and**
/// `grad_norm` are the filtered direction's norm (making
/// `ConvergenceHalt` gradient-norm early stopping), and `φ` is reported
/// as `0`. Returning
/// [`abft_core::observe::ControlFlow::Halt`] stops training with the
/// current parameters; the final evaluation record is still appended, so
/// [`DsgdOutcome::records`] always ends with a measured accuracy.
///
/// # Errors
///
/// See [`train_distributed`].
pub fn train_distributed_observed<M: Model>(
    model: &mut M,
    shards: &[Dataset],
    faults: DsgdFaults<'_>,
    filter: &dyn GradientFilter,
    test: &Dataset,
    config: &DsgdConfig,
    observer: &mut dyn RunObserver,
) -> Result<DsgdOutcome, MlError> {
    let DsgdFaults {
        agents: faulty,
        fault,
    } = faults;
    let n = shards.len();
    if n == 0 {
        return Err(MlError::InvalidConfig {
            reason: "no shards supplied".into(),
        });
    }
    if config.batch_size == 0 || config.iterations == 0 || config.eval_every == 0 {
        return Err(MlError::InvalidConfig {
            reason: "batch size, iterations and eval interval must be positive".into(),
        });
    }
    // The shared fault-assignment rules (in-range, no duplicates) with the
    // budget set by the workload itself: every listed agent is faulty.
    let mut budget = abft_core::validate::FaultBudget::with_limits(n, faulty.len());
    for &i in faulty {
        budget.assign(i).map_err(|e| MlError::Shape {
            expected: format!("distinct faulty indices < {n}"),
            actual: e.to_string(),
        })?;
    }
    for (i, shard) in shards.iter().enumerate() {
        check_shape(&*model, shard, &format!("shard {i}"))?;
    }
    check_shape(&*model, test, "the test set")?;
    let f = faulty.len();
    let is_faulty: Vec<bool> = (0..n).map(|agent| faulty.contains(&agent)).collect();

    // Label-flip poisons the faulty shards' data once, up front; every
    // other shard is the caller's, borrowed.
    let effective_shards: Vec<Cow<'_, Dataset>> = shards
        .iter()
        .zip(&is_faulty)
        .map(|(shard, &faulty)| {
            if faulty && fault == MlFault::LabelFlip {
                Cow::Owned(shard.with_flipped_labels())
            } else {
                Cow::Borrowed(shard)
            }
        })
        .collect();

    // D-SGD as a configuration of the DGD server step: start at the
    // model's parameters, a constant rate, and `W = ℝ^d` — a clamp that is
    // the identity on every value. Training has no reference point.
    let options = RunOptions {
        x0: model.params(),
        iterations: config.iterations,
        schedule: StepSchedule::Constant(config.learning_rate()),
        projection: ProjectionSet::Box {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        },
        reference: Vector::zeros(0),
        aggregation_threads: config.aggregation_threads,
        fleet_workers: 1,
        telemetry: config.telemetry,
        staleness_ns: None,
    };
    let honest_loss = Cell::new(0.0);
    let metrics = DsgdMetrics(&honest_loss);
    // Observational only: disabled handles never touch the clock, so the
    // training loop is bit-identical with telemetry off.
    let telemetry = Telemetry::wall(config.telemetry);
    let mut engine = RoundEngine::with_metrics(metrics, filter, &options, observer, telemetry);
    let mut source = MiniBatch {
        // One row per agent, refilled in place every iteration.
        round: engine.round_batch(n),
        model,
        shards: effective_shards,
        is_faulty,
        fault,
        rng: seeded_rng(config.seed),
        batch: Vec::with_capacity(config.batch_size),
        config,
        honest_loss: &honest_loss,
        test,
        records: Vec::new(),
    };
    // Like the DGD drivers, the loop runs a *final record round* at
    // `t = iterations`: one more gradient pass + aggregation at the final
    // parameters, observed but never applied, so the observer sees
    // `iterations + 1` rounds and the summary's final record describes
    // the parameters training actually ends with. Every agent replies, so
    // the budget is the full `f`.
    source.serve(n, f, &mut engine)?;
    // Final evaluation record at the (never again updated) parameters of
    // the halt round — unless the eval schedule already recorded it.
    let halt = engine.counters.rounds.saturating_sub(1);
    if source.records.last().is_none_or(|r| r.iteration != halt) {
        let record = source.evaluate(halt);
        source.records.push(record);
    }

    engine.absorb(&mut source.round);
    let run = engine.finish(Default::default())?.run;
    Ok(DsgdOutcome {
        records: source.records,
        summary: run.summary,
        telemetry: run.telemetry,
    })
}

/// Rejects a dataset `model` cannot read: samples of another width than
/// [`Model::input_dim`], or more classes than [`Model::classes`].
fn check_shape<M: Model>(model: &M, data: &Dataset, what: &str) -> Result<(), MlError> {
    if !data.is_empty() && data.dim() != model.input_dim() {
        return Err(MlError::Shape {
            expected: format!("samples of width {}", model.input_dim()),
            actual: format!("{what} of width {}", data.dim()),
        });
    }
    if data.classes() > model.classes() {
        return Err(MlError::Shape {
            expected: format!("at most {} classes", model.classes()),
            actual: format!("{what} of {} classes", data.classes()),
        });
    }
    Ok(())
}

/// D-SGD's row source: every round, each agent's stochastic gradient of
/// the current global model over a fresh mini-batch of its shard, written
/// straight into its row — negated for a gradient-reversing agent — plus
/// the honest agents' mean loss and the scheduled evaluation records.
struct MiniBatch<'a, M> {
    model: &'a mut M,
    /// The agents' shards, the label-flipped ones poisoned.
    shards: Vec<Cow<'a, Dataset>>,
    is_faulty: Vec<bool>,
    fault: MlFault,
    rng: StdRng,
    /// One agent's mini-batch indices, resampled in place.
    batch: Vec<usize>,
    config: &'a DsgdConfig,
    /// The round's honest mean loss, which the engine's records read.
    honest_loss: &'a Cell<f64>,
    test: &'a Dataset,
    records: Vec<DsgdRecord>,
    round: GradientBatch,
}

impl<M: Model> MiniBatch<'_, M> {
    /// The evaluation record of iteration `t`: the model's test accuracy
    /// and the round's honest mean loss.
    fn evaluate(&self, t: usize) -> DsgdRecord {
        DsgdRecord {
            iteration: t,
            loss: self.honest_loss.get(),
            accuracy: self.model.accuracy(self.test),
        }
    }
}

impl<M: Model> RowSource for MiniBatch<'_, M> {
    type Error = MlError;

    fn round_rows(
        &mut self,
        t: usize,
        engine: &mut RoundEngine<'_>,
    ) -> Result<&GradientBatch, MlError> {
        self.model.set_params(engine.x());
        // Per-agent stochastic gradients of the current global model,
        // written straight into the batch rows.
        let fill_span = engine.telemetry.begin(Phase::GradientFill);
        let n = self.shards.len();
        self.round.reset_rows(n);
        let mut honest_loss_sum = 0.0;
        let mut honest_count = 0usize;
        let agents = self.shards.iter().zip(&self.is_faulty).enumerate();
        for (i, (shard, &faulty)) in agents {
            shard.sample_batch_into(&mut self.rng, self.config.batch_size, &mut self.batch);
            let row = self.round.row_mut(i);
            let loss = self.model.loss_and_gradient_into(shard, &self.batch, row);
            if faulty && self.fault == MlFault::GradientReverse {
                for slot in row.iter_mut() {
                    *slot = -*slot;
                }
            } else if !faulty {
                honest_loss_sum += loss;
                honest_count += 1;
            }
        }
        self.honest_loss.set(honest_loss_sum / honest_count as f64);
        engine.telemetry.end(fill_span);
        engine.counters.replies_received += n;

        if t < self.config.iterations && t.is_multiple_of(self.config.eval_every) {
            let record = self.evaluate(t);
            self.records.push(record);
        }
        Ok(&self.round)
    }
}

/// Mean loss and flat gradient of `model` over `batch`, the gradient in a
/// fresh vector — the unit tests' shorthand for one
/// [`Model::loss_and_gradient_into`] call.
#[cfg(test)]
pub(crate) fn loss_and_gradient_of(
    model: &dyn Model,
    data: &Dataset,
    batch: &[usize],
) -> (f64, Vector) {
    let mut grad = Vector::zeros(model.param_dim());
    let loss = model.loss_and_gradient_into(data, batch, grad.as_mut_slice());
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use crate::net::Mlp;
    use crate::svm::LinearSvm;
    use abft_filters::{Cge, Cwtm, Mean};

    /// A fast setup: tiny dataset, 5 agents, 1 faulty.
    fn setup() -> (Vec<Dataset>, Dataset) {
        let (train, test) = DatasetSpec::tiny().generate(13);
        let shards = train.shard(5, 1).unwrap();
        (shards, test)
    }

    fn quick_config() -> DsgdConfig {
        DsgdConfig {
            batch_size: 32,
            learning_rate_milli: 200,
            iterations: 600,
            eval_every: 100,
            seed: 5,
            ..DsgdConfig::paper(5)
        }
    }

    #[test]
    fn validates_inputs() {
        let (shards, test) = setup();
        let mut model = Mlp::new(&[16, 8, 10], 1).unwrap();
        let mut cfg = quick_config();
        cfg.batch_size = 0;
        assert!(train_distributed(
            &mut model,
            &shards,
            &[],
            MlFault::None,
            &Mean::new(),
            &test,
            &cfg
        )
        .is_err());
        assert!(train_distributed(
            &mut model,
            &shards,
            &[9],
            MlFault::GradientReverse,
            &Mean::new(),
            &test,
            &quick_config()
        )
        .is_err());
        assert!(train_distributed(
            &mut model,
            &[],
            &[],
            MlFault::None,
            &Mean::new(),
            &test,
            &quick_config()
        )
        .is_err());
    }

    /// A dataset the model cannot read is a typed error before any round
    /// runs, for both model families: samples one wider than the model's
    /// input, or labels past its logits — in a shard or in the test set.
    #[test]
    fn a_wrong_shaped_dataset_is_a_shape_error() {
        fn outcome<M: Model>(
            mut model: M,
            shards: &[Dataset],
            test: &Dataset,
        ) -> Result<(), MlError> {
            let config = DsgdConfig {
                iterations: 2,
                eval_every: 1,
                ..quick_config()
            };
            let run = train_distributed(
                &mut model,
                shards,
                &[],
                MlFault::None,
                &Mean::new(),
                test,
                &config,
            );
            run.map(drop)
        }
        let is_shape = |run: Result<(), MlError>| matches!(run, Err(MlError::Shape { .. }));
        let (shards, test) = setup();
        let (dim, classes) = (shards[0].dim(), shards[0].classes());
        let (_, wide_test) = DatasetSpec {
            dim: dim + 1,
            ..DatasetSpec::tiny()
        }
        .generate(13);

        let mlp = |input, classes| Mlp::new(&[input, 8, classes], 1).unwrap();
        assert!(outcome(mlp(dim, classes), &shards, &test).is_ok());
        for (model, test) in [
            (mlp(dim + 1, classes), &test),
            (mlp(dim, 3), &test),
            (mlp(dim, classes), &wide_test),
        ] {
            assert!(is_shape(outcome(model, &shards, test)));
        }
        let svm = |input, classes| LinearSvm::new(input, classes, 0.0).unwrap();
        assert!(outcome(svm(dim, classes), &shards, &test).is_ok());
        for (model, test) in [
            (svm(dim + 1, classes), &test),
            (svm(dim, 3), &test),
            (svm(dim, classes), &wide_test),
        ] {
            assert!(is_shape(outcome(model, &shards, test)));
        }
    }

    #[test]
    fn a_non_finite_direction_is_an_error_not_a_nan_model() {
        /// Lets a forgery through: every coordinate of the aggregate is NaN.
        struct NanFilter;
        impl GradientFilter for NanFilter {
            fn aggregate_into(
                &self,
                batch: &GradientBatch,
                _f: usize,
                out: &mut Vector,
            ) -> Result<(), abft_filters::FilterError> {
                *out = Vector::from(vec![f64::NAN; batch.dim()]);
                Ok(())
            }
            fn name(&self) -> &'static str {
                "nan"
            }
        }

        let (shards, test) = setup();
        let mut model = Mlp::new(&[16, 8, 10], 1).unwrap();
        let before = model.params();
        let result = train_distributed(
            &mut model,
            &shards,
            &[],
            MlFault::None,
            &NanFilter,
            &test,
            &quick_config(),
        );
        assert_eq!(result, Err(MlError::Diverged { iteration: 0 }));
        // The poisoned update was never applied.
        assert!(model.params().approx_eq(&before, 0.0));
    }

    #[test]
    fn a_filter_rejection_is_a_filter_error_and_leaves_the_model_alone() {
        // CWTM needs n > 2f; three faulty agents of five break it.
        let (shards, test) = setup();
        let mut model = Mlp::new(&[16, 8, 10], 1).unwrap();
        let before = model.params();
        let result = train_distributed(
            &mut model,
            &shards,
            &[0, 1, 2],
            MlFault::GradientReverse,
            &Cwtm::new(),
            &test,
            &quick_config(),
        );
        assert!(matches!(result, Err(MlError::Filter(_))), "{result:?}");
        assert!(model.params().approx_eq(&before, 0.0));
    }

    #[test]
    fn fault_free_training_learns() {
        let (shards, test) = setup();
        let mut model = Mlp::new(&[16, 8, 10], 1).unwrap();
        let records = train_distributed(
            &mut model,
            &shards,
            &[],
            MlFault::None,
            &Mean::new(),
            &test,
            &quick_config(),
        )
        .unwrap();
        let first = records.first().unwrap();
        let last = records.last().unwrap();
        assert!(last.accuracy > 0.8, "accuracy = {}", last.accuracy);
        assert!(last.loss < first.loss);
        assert_eq!(last.iteration, 600);
    }

    #[test]
    fn cwtm_survives_gradient_reverse() {
        let (shards, test) = setup();
        let mut model = Mlp::new(&[16, 8, 10], 1).unwrap();
        let records = train_distributed(
            &mut model,
            &shards,
            &[0],
            MlFault::GradientReverse,
            &Cwtm::new(),
            &test,
            &quick_config(),
        )
        .unwrap();
        assert!(
            records.last().unwrap().accuracy > 0.75,
            "accuracy = {}",
            records.last().unwrap().accuracy
        );
    }

    #[test]
    fn cge_averaged_survives_label_flip() {
        let (shards, test) = setup();
        let mut model = Mlp::new(&[16, 8, 10], 1).unwrap();
        let records = train_distributed(
            &mut model,
            &shards,
            &[2],
            MlFault::LabelFlip,
            &Cge::averaged(),
            &test,
            &quick_config(),
        )
        .unwrap();
        assert!(
            records.last().unwrap().accuracy > 0.75,
            "accuracy = {}",
            records.last().unwrap().accuracy
        );
    }

    #[test]
    fn plain_mean_degrades_under_gradient_reverse() {
        // With 2/7 agents reversing, the average keeps only a 3/7-scaled
        // descent direction (honest minus reversed), so learning is markedly
        // slower than CWTM's, which trims the reversed reports away.
        let (train, test) = DatasetSpec::tiny().generate(17);
        let shards = train.shard(7, 2).unwrap();
        let mut cfg = quick_config();
        cfg.iterations = 800;

        let mut mean_model = Mlp::new(&[16, 8, 10], 1).unwrap();
        let mean_records = train_distributed(
            &mut mean_model,
            &shards,
            &[0, 1],
            MlFault::GradientReverse,
            &Mean::new(),
            &test,
            &cfg,
        )
        .unwrap();

        let mut robust_model = Mlp::new(&[16, 8, 10], 1).unwrap();
        let robust_records = train_distributed(
            &mut robust_model,
            &shards,
            &[0, 1],
            MlFault::GradientReverse,
            &Cwtm::new(),
            &test,
            &cfg,
        )
        .unwrap();

        let mean_acc = mean_records.last().unwrap().accuracy;
        let robust_acc = robust_records.last().unwrap().accuracy;
        assert!(
            robust_acc > mean_acc + 0.15,
            "robust {robust_acc} vs mean {mean_acc}"
        );
    }

    #[test]
    fn records_are_spaced_by_eval_interval() {
        let (shards, test) = setup();
        let mut model = Mlp::new(&[16, 8, 10], 1).unwrap();
        let records = train_distributed(
            &mut model,
            &shards,
            &[],
            MlFault::None,
            &Mean::new(),
            &test,
            &quick_config(),
        )
        .unwrap();
        // Iterations 0, 100, ..., 500 plus the final record at 600.
        let iters: Vec<usize> = records.iter().map(|r| r.iteration).collect();
        assert_eq!(iters, vec![0, 100, 200, 300, 400, 500, 600]);
    }

    #[test]
    fn completed_observed_training_honours_the_summary_contract() {
        use abft_core::observe::{HaltReason, NullObserver};
        let (shards, test) = setup();
        let mut model = Mlp::new(&[16, 8, 10], 1).unwrap();
        let outcome = train_distributed_observed(
            &mut model,
            &shards,
            DsgdFaults::none(),
            &Mean::new(),
            &test,
            &quick_config(),
            &mut NullObserver,
        )
        .unwrap();
        // `rounds = iterations + 1`: the observer saw the final record
        // round at the final parameters, like every DGD driver.
        assert_eq!(outcome.summary.rounds, 601);
        assert_eq!(outcome.summary.halt, HaltReason::Completed);
        assert_eq!(outcome.summary.final_record.iteration, 600);
    }

    #[test]
    fn halting_on_an_eval_iteration_does_not_duplicate_records() {
        use abft_core::observe::{ControlFlow, HaltReason, RoundView, RunObserver};

        /// Halts at a fixed iteration without reading any metric.
        struct HaltAt(usize);
        impl RunObserver for HaltAt {
            fn observe(&mut self, view: &RoundView<'_>) -> ControlFlow {
                if view.iteration() >= self.0 {
                    ControlFlow::Halt
                } else {
                    ControlFlow::Continue
                }
            }
        }

        let (shards, test) = setup();
        let mut model = Mlp::new(&[16, 8, 10], 1).unwrap();
        // eval_every = 100 and a halt exactly at t = 100: the scheduled
        // eval record doubles as the final record instead of appearing
        // twice with contradictory values.
        let outcome = train_distributed_observed(
            &mut model,
            &shards,
            DsgdFaults::none(),
            &Mean::new(),
            &test,
            &quick_config(),
            &mut HaltAt(100),
        )
        .unwrap();
        let iters: Vec<usize> = outcome.records.iter().map(|r| r.iteration).collect();
        assert_eq!(iters, vec![0, 100]);
        assert_eq!(
            outcome.summary.halt,
            HaltReason::Observer { at_iteration: 100 }
        );
        assert_eq!(outcome.summary.rounds, 101);
        assert_eq!(outcome.summary.final_record.iteration, 100);
    }

    #[test]
    fn observed_training_can_stop_on_gradient_norm() {
        use abft_core::observe::{ConvergenceHalt, HaltReason};

        let (shards, test) = setup();
        // Reference run, full horizon.
        let mut reference_model = Mlp::new(&[16, 8, 10], 1).unwrap();
        let reference = train_distributed(
            &mut reference_model,
            &shards,
            &[],
            MlFault::None,
            &Mean::new(),
            &test,
            &quick_config(),
        )
        .unwrap();

        // D-SGD maps `distance` to the filtered direction's norm, so
        // ConvergenceHalt implements gradient-norm early stopping. The
        // fault-free run starts with direction norms well above 0 and
        // this generous threshold fires quickly.
        let mut model = Mlp::new(&[16, 8, 10], 1).unwrap();
        let mut halt = ConvergenceHalt::new(10.0, 0.0, 5);
        let outcome = train_distributed_observed(
            &mut model,
            &shards,
            DsgdFaults::none(),
            &Mean::new(),
            &test,
            &quick_config(),
            &mut halt,
        )
        .unwrap();
        let HaltReason::Observer { at_iteration } = outcome.summary.halt else {
            panic!("run must halt early");
        };
        assert!(at_iteration < 600);
        assert_eq!(outcome.summary.rounds, at_iteration + 1);
        assert_eq!(
            outcome.records.last().unwrap().iteration,
            at_iteration,
            "the final evaluation record is taken at the halt iteration"
        );
        assert_eq!(
            outcome.summary.final_record.grad_norm,
            outcome.summary.final_record.distance
        );
        // Observation did not perturb training up to the halt: the
        // eval records before the halt match the reference run's.
        let shared = outcome
            .records
            .iter()
            .zip(&reference)
            .take_while(|(a, b)| a.iteration == b.iteration && a.iteration < at_iteration);
        for (a, b) in shared {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let (shards, test) = setup();
        let run = || {
            let mut model = Mlp::new(&[16, 8, 10], 1).unwrap();
            train_distributed(
                &mut model,
                &shards,
                &[0],
                MlFault::GradientReverse,
                &Cwtm::new(),
                &test,
                &quick_config(),
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }
}
