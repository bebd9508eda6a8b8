//! Tier-1 golden digests: what the stack computes, pinned as bits.
//!
//! The equivalence suites compare current code paths *to each other*, so
//! a change that moves every path at once — a different summation order
//! in a shared kernel, a toolchain whose library picks another algorithm
//! — passes them all. This table compares against committed history
//! instead: one FNV-1a digest of the final estimate's bits (and, on the
//! simulated backends, the network's event-schedule digest) per cell of
//! `golden_digests.tsv`.
//!
//! **A "declared digest change" is a reviewed diff of that file.** A
//! failing run prints every row that moved — label, expected, got — in
//! the table's own format, so re-pinning is pasting the printed rows.
//!
//! The DGD cells use only arithmetic that IEEE 754 rounds one way —
//! `+ − × ÷` and `sqrt` — so they are green on every machine: the paper's
//! regression instance (literal constants), the deterministic attacks
//! (`gradient-reverse`, `scaled-reverse`, `zero`), no logistic cost, no
//! Gaussian draw. One in-process cell per registered filter; the
//! order-statistics filters again at `n = 40`, where the order a trimmed
//! mean sums its kept values in reaches the bits; then `cwtm` and `cge` on
//! each of the other five backends.
//!
//! The last row is robust D-SGD: the final parameters of a small
//! `train_distributed` run (MLP `[16, 8, 10]`, five shards, CWTM, one
//! gradient reverser). Its data, initialisation and softmax call `ln`,
//! `cos` and `exp`, which lower to the platform libm, so that row is
//! pinned on this toolchain and target, not on every machine.

use approx_bft::core::SystemConfig;
use approx_bft::dgd::RunOptions;
use approx_bft::filters::filter_names;
use approx_bft::linalg::{Matrix, Vector};
use approx_bft::ml::{train_distributed, DatasetSpec, DsgdConfig, MlFault, Mlp, Model};
use approx_bft::problems::RegressionProblem;
use approx_bft::scenario::{
    AsyncConfig, Backend, InProcess, LinkModel, NetworkModel, PeerToPeer, Scenario, Simulated,
    Threaded,
};
use approx_bft::telemetry::TelemetryConfig;
use std::fmt::Write;

const TABLE: &str = include_str!("golden_digests.tsv");
const ITERATIONS: usize = 120;

/// FNV-1a over the little-endian bytes of every value's bit pattern.
fn fnv1a(values: &[f64]) -> u64 {
    let bytes = values.iter().flat_map(|v| v.to_bits().to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The paper's Appendix-J instance extended to `n = 9` (Bulyan needs
/// `n ≥ 4f + 3`): the same six agents and three more written out the same
/// way, `B = A·(1,1)ᵀ` plus a fixed noise.
fn nine_agents() -> RegressionProblem {
    let a = Matrix::from_rows(&[
        &[1.0, 0.0],
        &[0.8, 0.5],
        &[0.5, 0.8],
        &[0.0, 1.0],
        &[-0.5, 0.8],
        &[-0.8, 0.5],
        &[0.9, 0.3],
        &[0.3, 0.9],
        &[-0.3, 0.9],
    ])
    .expect("rectangular");
    let b = Vector::from(vec![
        0.9108, 1.3349, 1.3376, 1.0033, 0.2142, -0.3615, 1.2071, 1.1894, 0.6127,
    ]);
    RegressionProblem::new(SystemConfig::new(9, 1).expect("valid"), a, b).expect("well-formed")
}

/// Forty agents, `f = 4`, `d = 16`: wide enough that a trimmed mean keeps
/// 32 values per coordinate, so the *order* they are summed in shows in
/// the bits. Rows and noise are small integer hashes of `(agent,
/// coordinate)` scaled into `[-1, 1]`; `B = A·(1,…,1)ᵀ` plus the noise.
fn forty_agents() -> RegressionProblem {
    let entry = |i: usize, k: usize| (((i + 1) * (k + 3) * 7 + i * i) % 23) as f64 / 11.0 - 1.0;
    let rows: Vec<Vec<f64>> = (0..40)
        .map(|i| (0..16).map(|k| entry(i, k)).collect())
        .collect();
    let b: Vec<f64> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| row.iter().sum::<f64>() + entry(i, 40) / 50.0)
        .collect();
    let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let a = Matrix::from_rows(&rows).expect("rectangular");
    RegressionProblem::new(SystemConfig::new(40, 4).expect("valid"), a, Vector::from(b))
        .expect("well-formed")
}

/// One cell: agents `0..f` Byzantine under `attack`, the rest honest.
fn scenario(problem: &RegressionProblem, filter: &str, attack: &str) -> Scenario {
    let (n, f) = (problem.config().n(), problem.config().f());
    let honest: Vec<usize> = (f..n).collect();
    let x_h = problem.subset_minimizer(&honest).expect("full rank");
    let mut options = RunOptions::paper_defaults_with_iterations(x_h, ITERATIONS);
    if problem.dim() != options.x0.dim() {
        options.x0 = Vector::zeros(problem.dim());
    }
    let mut cell = Scenario::builder().problem(problem).faults(f);
    for agent in 0..f {
        cell = cell.attack(agent, attack);
    }
    cell.filter(filter)
        .options(options)
        .build()
        .expect("cell builds")
}

/// A lossy, reordering network: the simulated rows' schedules are not the
/// ideal ones, so their digests pin the simulator as well.
fn lossy(seed: u64) -> NetworkModel {
    let link = LinkModel::ideal().with_drop(0.05).with_reorder_ns(1_500);
    NetworkModel::seeded(seed).with_default_link(link)
}

/// One table row: `label`, estimate digest, schedule digest (`-` off the
/// simulator), tab-separated.
fn row(
    backend_name: &str,
    backend: &dyn Backend,
    problem: &RegressionProblem,
    filter: &str,
    attack: &str,
) -> String {
    let label = format!("{backend_name}/n{}/{filter}/{attack}", problem.config().n());
    let report = backend
        .run(&scenario(problem, filter, attack))
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let estimate = fnv1a(report.final_estimate.as_slice());
    let schedule = match backend_name.starts_with("simulated") {
        true => format!("{:016x}", report.metrics.net.schedule_digest),
        false => "-".to_string(),
    };
    format!("{label}\t{estimate:016x}\t{schedule}")
}

/// Every cell's row, in table order.
fn rows() -> Vec<String> {
    let (paper, nine, forty) = (
        RegressionProblem::paper_instance(),
        nine_agents(),
        forty_agents(),
    );
    let mut rows = Vec::new();
    for &filter in filter_names() {
        let problem = if filter == "bulyan" { &nine } else { &paper };
        let in_process = row(
            "in-process",
            &InProcess,
            problem,
            filter,
            "gradient-reverse",
        );
        rows.push(in_process);
    }
    for filter in ["cwtm", "cwmed", "bulyan"] {
        rows.push(row(
            "in-process",
            &InProcess,
            &forty,
            filter,
            "scaled-reverse",
        ));
    }
    let jittered = AsyncConfig::new()
        .with_compute_jitter_ns(300_000)
        .with_clock_seed(9);
    let backends: [(&str, Box<dyn Backend>); 5] = [
        ("threaded", Box::new(Threaded)),
        ("peer-to-peer", Box::new(PeerToPeer::default())),
        ("simulated-server", Box::new(Simulated::server(lossy(11)))),
        (
            "simulated-p2p",
            Box::new(Simulated::peer_to_peer(lossy(12))),
        ),
        (
            "simulated-async",
            Box::new(Simulated::async_server(lossy(13), jittered)),
        ),
    ];
    for (name, backend) in &backends {
        rows.push(row(
            name,
            backend.as_ref(),
            &paper,
            "cwtm",
            "scaled-reverse",
        ));
        rows.push(row(name, backend.as_ref(), &paper, "cge", "zero"));
    }
    rows.push(dsgd_row());
    rows
}

/// The D-SGD row: agent 0 of five reverses its gradient, CWTM filters,
/// and the digest is of the parameters training ends with.
fn dsgd_row() -> String {
    let (train, test) = DatasetSpec::tiny().generate(13);
    let shards = train.shard(5, 1).expect("shardable");
    let mut model = Mlp::new(&[16, 8, 10], 1).expect("valid sizes");
    let config = DsgdConfig {
        batch_size: 32,
        learning_rate_milli: 200,
        iterations: ITERATIONS,
        eval_every: 40,
        seed: 5,
        aggregation_threads: 1,
        telemetry: TelemetryConfig::Off,
    };
    let filter = approx_bft::filters::Cwtm::new();
    let fault = MlFault::GradientReverse;
    train_distributed(&mut model, &shards, &[0], fault, &filter, &test, &config)
        .expect("D-SGD trains");
    let estimate = fnv1a(model.params().as_slice());
    format!("dsgd/n5/cwtm/gradient-reverse\t{estimate:016x}\t-")
}

#[test]
fn every_cell_matches_its_committed_digest() {
    let expected: Vec<&str> = TABLE
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .collect();
    let got = rows();
    let mut moved = String::new();
    for (want, got) in expected.iter().zip(&got) {
        if want != got {
            writeln!(moved, "  expected  {want}\n  got       {got}").expect("string write");
        }
    }
    assert!(
        moved.is_empty() && expected.len() == got.len(),
        "golden digests moved ({} rows committed, {} computed). If this PR declares the \
         change, replace the rows in tests/golden_digests.tsv:\n{moved}\nfull table:\n{}",
        expected.len(),
        got.len(),
        got.join("\n")
    );
}
