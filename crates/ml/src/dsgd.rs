//! Byzantine-robust distributed SGD (the Appendix-K training loop).
//!
//! Each iteration: every agent samples a mini-batch from its local shard
//! and computes a stochastic gradient of the *current global model*; faulty
//! agents corrupt their report (label-flip corrupts the shard itself,
//! gradient-reverse negates the report); the server aggregates with a
//! gradient filter and takes a fixed-step update (`b = 128`, `η = 0.01` in
//! the paper).
//!
//! That server step is the DGD one fed stochastic gradients, so it is
//! [`abft_dgd::RoundEngine::step`] (constant schedule, `W = ℝ^d`); this
//! file is D-SGD's step S1 — how the agents' rows are sampled and filled
//! — and the evaluation series.

use crate::dataset::Dataset;
use crate::error::MlError;
use abft_core::observe::{NullObserver, RunObserver, RunSummary};
use abft_dgd::{ProjectionSet, RoundEngine, RoundMetrics, RunOptions, StepSchedule};
use abft_filters::GradientFilter;
use abft_linalg::rng::seeded_rng;
use abft_linalg::{GradientBatch, Vector};
use abft_telemetry::{Phase, Telemetry, TelemetryConfig, TelemetryReport};
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
    /// # Panics
    ///
    /// Implementations may panic on an empty batch or when
    /// `out.len() != self.param_dim()`.
    fn loss_and_gradient_into(&self, data: &Dataset, batch: &[usize], out: &mut [f64]) -> f64;

    /// Classification accuracy on a dataset.
    fn accuracy(&self, data: &Dataset) -> f64;
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
/// problems, [`MlError::Filter`] when the filter rejects a round, and
/// [`MlError::Diverged`] when the filtered direction or the parameters are
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
    let f = faulty.len();
    let is_faulty = {
        let mut mask = vec![false; n];
        for &i in faulty {
            mask[i] = true;
        }
        mask
    };

    // Label-flip poisons the faulty shards' data once, up front; every
    // other shard is the caller's, borrowed.
    let effective_shards: Vec<Cow<'_, Dataset>> = shards
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            if is_faulty[i] && fault == MlFault::LabelFlip {
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
    // One row per agent, refilled in place every iteration.
    let mut round: GradientBatch = engine.round_batch(n);

    let mut rng = seeded_rng(config.seed);
    // One agent's mini-batch indices, resampled in place.
    let mut batch = Vec::with_capacity(config.batch_size);
    let mut records = Vec::new();
    let evaluate = |model: &M, iteration: usize, loss: f64| DsgdRecord {
        iteration,
        loss,
        accuracy: model.accuracy(test),
    };

    // Like the DGD drivers, the loop runs a *final record round* at
    // `t = iterations`: one more gradient pass + aggregation at the final
    // parameters, observed but never applied, so the observer sees
    // `iterations + 1` rounds and the summary's final record describes
    // the parameters training actually ends with.
    for t in 0..=config.iterations {
        model.set_params(engine.x());
        // Per-agent stochastic gradients of the current global model,
        // written straight into the batch rows.
        let fill_span = engine.telemetry.begin(Phase::GradientFill);
        round.reset_rows(n);
        let mut honest_loss_sum = 0.0;
        let mut honest_count = 0usize;
        for (i, shard) in effective_shards.iter().enumerate() {
            shard.sample_batch_into(&mut rng, config.batch_size, &mut batch);
            let row = round.row_mut(i);
            let loss = model.loss_and_gradient_into(shard, &batch, row);
            if is_faulty[i] && fault == MlFault::GradientReverse {
                for slot in row.iter_mut() {
                    *slot = -*slot;
                }
            } else if !is_faulty[i] {
                honest_loss_sum += loss;
                honest_count += 1;
            }
        }
        let mean_loss = honest_loss_sum / honest_count as f64;
        honest_loss.set(mean_loss);
        engine.telemetry.end(fill_span);
        engine.counters.replies_received += n;

        if t < config.iterations && t.is_multiple_of(config.eval_every) {
            records.push(evaluate(model, t, mean_loss));
        }
        if engine.step(t, &round, f)?.is_halt() {
            // Final evaluation record at the (never again updated)
            // parameters — unless the eval schedule already recorded this
            // exact iteration a few lines up.
            if records.last().is_none_or(|r| r.iteration != t) {
                records.push(evaluate(model, t, mean_loss));
            }
            break;
        }
    }

    engine.absorb(&mut round);
    let run = engine.finish(Default::default())?.run;
    Ok(DsgdOutcome {
        records,
        summary: run.summary,
        telemetry: run.telemetry,
    })
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
        use abft_core::observe::{ControlFlow, HaltReason, Probe, RoundView, RunObserver};

        /// Halts at a fixed iteration without reading any metric.
        struct HaltAt(usize);
        impl RunObserver for HaltAt {
            fn probe(&self) -> Probe {
                Probe::NONE
            }
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
