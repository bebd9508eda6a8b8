//! The whole-stack benchmark behind the repository's `BENCHMARK.json`.
//!
//! Six workloads drive the system through its public APIs only
//! (`abft_scenario`, `abft_ml::train_distributed`, and — for the per-layer
//! replays of a traced run — `CostFunction::gradient_into`,
//! `ByzantineStrategy::corrupt_into`, `GradientFilter::aggregate_into`,
//! `WorkerPool::run`, `eig_broadcast`). See `README.md` for the metric and
//! workload definitions; the `benchmark` binary's entry point is `main.rs`.

pub mod compare;
pub mod cost;
pub mod json;
pub mod layers;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
