//! # approx-bft
//!
//! A complete Rust reproduction of *Approximate Byzantine Fault-Tolerance
//! in Distributed Optimization* (Liu, Gupta, Vaidya — PODC 2021,
//! arXiv:2101.09337).
//!
//! `n` agents each hold a local cost `Q_i : ℝᵈ → ℝ`; up to `f` of them are
//! Byzantine. The paper defines `(f, ε)`-resilience — outputting a point
//! within `ε` of the minimizer of *every* `(n−f)`-honest-subset aggregate —
//! and proves it is achievable exactly when the costs satisfy
//! `(2f, ε)`-redundancy (necessity: Theorem 1; sufficiency with `2ε`:
//! Theorem 2). For differentiable costs it analyzes distributed gradient
//! descent with robust gradient aggregation (CGE and CWTM filters,
//! Theorems 3–6).
//!
//! This facade re-exports the workspace crates:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`core`] | `(n, f)` configuration, traces, subsets, and [`core::observe`] — the streaming `RunObserver` sink API (lazy per-round views, trace recorders, convergence-triggered halting, constant-memory CSV streaming) every driver reports through |
//! | [`linalg`] | vectors, matrices, solvers, eigenvalues (from scratch), [`linalg::GradientBatch`] — the contiguous `n × d` arena the whole aggregation path runs on — and [`linalg::WorkerPool`], the deterministic pool that shards aggregation bit-identically across threads |
//! | [`problems`] | cost functions with in-place `gradient_into`, the paper's regression dataset, µ/γ analysis |
//! | [`filters`] | 14 filters registered by name: the paper's CGE and CWTM, plain averaging, a CGE-average ablation and ten baseline robust aggregators; `GradientFilter::aggregate_into` over a `GradientBatch` is the one entry point (a caller holding `&[Vector]` builds the batch with `batch_of`) |
//! | [`attacks`] | gradient-reverse, random (σ=200), ALIE, … — forging directly into batch rows via `corrupt_into` |
//! | [`redundancy`] | ε measurement, Theorem-2 exact algorithm, bounds, necessity witness |
//! | [`dgd`] | the Section-4 DGD step — [`dgd::RoundEngine`], the one server step every driver calls (the five DGD drivers, every honest agent of the peer-to-peer simulation, and robust D-SGD; what a run's records measure is its [`dgd::RoundMetrics`]) — with [`dgd::AgentCell`] (what one agent reports), projection and schedules, and [`dgd::RoundWorkspace`], the synchronous server's round loop: one batch + scratch reused across all `T` iterations (zero per-iteration gradient allocations). It holds the steps, not a launcher — see [`runtime`] |
//! | [`net`] | deterministic discrete-event network simulator: the `MessageBus` abstraction, seeded per-link delay/drop/reorder models, scheduled partitions, network-level Byzantine faults |
//! | [`runtime`] | the one launch value, `DgdTask`: the lockstep server in process (`Launch::InProcess`) or as an event-loop runtime (the same round loop, [`dgd::RoundWorkspace::run_rounds`], with the agent cells' fill sharded over a persistent worker pool) + EIG Byzantine broadcast over the shared `MessageBus`, aggregating off the wire into reused batches, one [`dgd::RoundEngine`] per honest agent; `DgdTask::run(Launch::…)` launches one task on any of them, `Launch::Simulated` on faulty links |
//! | [`ml`] | MLP/SVM substrate + synthetic datasets + robust D-SGD: its own mini-batch fill, stepped by [`dgd::RoundEngine`] under a constant rate on `W = ℝ^d` |
//! | [`scenario`] | **the public entry point**: declarative [`scenario::Scenario`] specs that run unmodified on the in-process, threaded, peer-to-peer, and simulated-network backends — with per-scenario [`scenario::Recording`] / [`scenario::HaltRule`] observation plans — plus [`scenario::ScenarioSuite`] grids fanned across worker threads |
//! | [`telemetry`] | low-overhead phase spans, counters, and log₂ latency histograms behind a [`telemetry::Telemetry`] handle that no-ops when disabled (`ABFT_TELEMETRY=on` to enable); every backend reports a [`telemetry::TelemetryReport`] with JSON and Chrome-trace exporters, in deterministic virtual time on the simulated backends |
//!
//! The gradient data path — who produces into and who consumes out of a
//! `GradientBatch` — is documented in `ROADMAP.md` §“Architecture: the
//! gradient data path”; how fast each layer of it runs is measured by
//! `perfbench/` (see `BENCHMARK.json`).
//!
//! Aggregation is serial by default; set
//! [`dgd::RunOptions::aggregation_threads`] (or
//! `ABFT_AGGREGATION_THREADS` in the environment, which flips the
//! default) to shard each round's filter across a worker pool. The
//! pool's fixed tile schedule makes parallel output **bit-identical** to
//! serial, so every trace, equivalence guarantee, and test holds
//! unchanged at any thread count — the knob is pure wall-clock for large
//! `d`.
//!
//! Observation is a sink, not a return value: runs report through
//! [`core::observe::RunObserver`]s (dense or subsampled trace recording,
//! convergence-triggered early stop, constant-memory CSV streaming, or
//! nothing at all), every report carries an always-present
//! [`core::observe::RunSummary`], and
//! `Scenario::builder().record(..).halt(..)` selects the plan
//! declaratively. Recording modes never perturb the trajectory, and halt
//! rules fire at the identical round on every backend — see `ROADMAP.md`
//! §“The observation layer”.
//!
//! # Quickstart
//!
//! One declarative [`scenario::Scenario`] describes the whole experiment —
//! problem, faults, attack, filter, run options — and runs unmodified on
//! any backend:
//!
//! ```
//! use approx_bft::dgd::RunOptions;
//! use approx_bft::problems::RegressionProblem;
//! use approx_bft::scenario::{Backend, InProcess, Scenario};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Appendix-J instance: n = 6 agents, f = 1 Byzantine.
//! let problem = RegressionProblem::paper_instance();
//! let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5])?;
//!
//! // Agent 0 reverses its gradients; the server filters with CGE.
//! let scenario = Scenario::builder()
//!     .problem(&problem)
//!     .faults(1)
//!     .attack(0, "gradient-reverse")
//!     .filter("cge")
//!     .options(RunOptions::paper_defaults(x_h.clone()))
//!     .build()?;
//! let report = InProcess.run(&scenario)?; // or Threaded / PeerToPeer
//!
//! // Table 1: the output lands within the measured redundancy ε = 0.0890.
//! assert!(report.final_estimate.dist(&x_h) < 0.0890);
//! # Ok(())
//! # }
//! ```

pub use abft_attacks as attacks;
pub use abft_core as core;
pub use abft_dgd as dgd;
pub use abft_filters as filters;
pub use abft_linalg as linalg;
pub use abft_ml as ml;
pub use abft_net as net;
pub use abft_problems as problems;
pub use abft_redundancy as redundancy;
pub use abft_runtime as runtime;
pub use abft_scenario as scenario;
pub use abft_telemetry as telemetry;

/// One-stop prelude for downstream users.
pub mod prelude {
    pub use abft_attacks::{
        attack_by_name, AttackContext, ByzantineStrategy, GradientReverse, RandomGaussian,
    };
    pub use abft_core::prelude::*;
    pub use abft_dgd::prelude::*;
    pub use abft_filters::{all_filters, by_name, Cge, Cwtm, GradientFilter, Mean};
    pub use abft_linalg::prelude::*;
    pub use abft_ml::prelude::*;
    pub use abft_net::prelude::*;
    pub use abft_problems::prelude::*;
    pub use abft_redundancy::prelude::*;
    pub use abft_runtime::prelude::*;
    pub use abft_scenario::prelude::*;
    pub use abft_telemetry::{Telemetry, TelemetryConfig, TelemetryReport};
}
