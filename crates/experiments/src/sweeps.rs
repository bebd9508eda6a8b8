//! Extension experiments: the filter×attack grid, fault-fraction and
//! redundancy sweeps, and the design-choice ablations (CGE's sum against
//! its mean, harmonic against constant step sizes).
//!
//! All of these are scenario grids now: each cell is a declarative
//! [`Scenario`], and the big grid fans out across worker threads via
//! [`ScenarioSuite`].

use abft_attacks::{attack_names, ScaledReverse};
use abft_core::csv::CsvTable;
use abft_core::SystemConfig;
use abft_dgd::{ProjectionSet, RunOptions, StepSchedule};
use abft_filters::filter_names;
use abft_linalg::Vector;
use abft_problems::analysis::convexity_constants;
use abft_problems::RegressionProblem;
use abft_redundancy::{cge_alpha, measure_redundancy, RegressionOracle};
use abft_scenario::{Backend, InProcess, Scenario, ScenarioSuite};
use std::error::Error;
use std::path::Path;

/// A paper-like fan instance big enough for every filter (Bulyan needs
/// n ≥ 4f + 3 = 7; Krum needs n ≥ 2f + 3).
fn grid_instance() -> Result<(RegressionProblem, Vector), Box<dyn Error>> {
    let config = SystemConfig::new(9, 1)?;
    let problem = RegressionProblem::fan(config, 160.0, 0.02, 424242)?;
    let honest: Vec<usize> = (1..9).collect();
    let x_h = problem.subset_minimizer(&honest)?;
    Ok((problem, x_h))
}

/// Every registered filter × every registered attack on one redundant
/// instance: the final error landscape, computed as one parallel
/// [`ScenarioSuite`] over all 84 cells.
pub fn grid(out_dir: &Path) -> Result<(), Box<dyn Error>> {
    let (problem, x_h) = grid_instance()?;
    let eps = measure_redundancy(&RegressionOracle::new(&problem), *problem.config())?.epsilon;

    let mut options = RunOptions::paper_defaults(x_h.clone());
    options.x0 = Vector::zeros(2);
    options.iterations = 1000;
    let template = Scenario::builder()
        .problem(&problem)
        .faults(1)
        .options(options);

    // Filter-major grid: the collected outcomes chunk into one table row
    // per filter. `run_parallel_collect` keeps a failing cell ("n/a") from
    // aborting the remaining 83.
    let suite = ScenarioSuite::grid_seeded(&template, 0, filter_names(), attack_names(), 7)?;
    let workers = ScenarioSuite::auto_workers();
    let outcome = suite.run_parallel_collect(&InProcess, workers);

    let mut header = vec!["filter".to_string()];
    header.extend(attack_names().iter().map(|s| s.to_string()));
    let mut table = CsvTable::new(header);
    for (filter_name, cells) in filter_names()
        .iter()
        .zip(outcome.outcomes.chunks(attack_names().len()))
    {
        let mut row = vec![filter_name.to_string()];
        row.extend(cells.iter().map(|cell| match cell {
            Ok(report) => format!("{:.4}", report.final_distance()),
            Err(_) => "n/a".into(),
        }));
        table.push_row(row)?;
    }

    println!("=== Filter × attack grid (fan instance, n = 9, f = 1, eps = {eps:.4}) ===");
    println!(
        "final ‖x_1000 − x_H‖ per cell ({} scenarios on {workers} workers, {:.0} ms):\n",
        suite.len(),
        outcome.elapsed.as_secs_f64() * 1e3
    );
    print!("{}", table.to_aligned_string());
    println!(
        "\nreading guide: 'mean' has no Byzantine guarantee (large under scaled attacks);\n\
         order-statistic filters hold an O(eps)-to-O(1) floor set by gradient\n\
         heterogeneity; Krum selects a single gradient, paying its variance."
    );
    table.write_to_path(out_dir.join("grid.csv"))?;
    Ok(())
}

/// Final CGE error as the fault fraction grows, against the Theorem-4
/// admissibility threshold `α > 0`.
pub fn sweep_f(out_dir: &Path) -> Result<(), Box<dyn Error>> {
    let n = 12usize;
    let mut table = CsvTable::new(vec![
        "f".into(),
        "f/n".into(),
        "alpha (Thm 4)".into(),
        "measured eps".into(),
        "final distance".into(),
    ]);

    println!(
        "=== CGE error vs fault fraction (n = {n}, fan instance, scaled-reverse attackers) ===\n"
    );
    for f in 0..=4 {
        let config = SystemConfig::new(n, f)?;
        let problem = RegressionProblem::fan(config, 160.0, 0.02, 99)?;
        let honest: Vec<usize> = (f..n).collect();
        let x_h = problem.subset_minimizer(&honest)?;
        let eps = measure_redundancy(&RegressionOracle::new(&problem), config)?.epsilon;
        let constants = convexity_constants(&problem)?;
        let alpha = cge_alpha(n, f, constants.mu, constants.gamma);

        let mut options = RunOptions::paper_defaults(x_h.clone());
        options.x0 = Vector::zeros(2);
        options.iterations = 800;
        let mut builder = Scenario::builder()
            .problem(&problem)
            .faults(f)
            .filter("cge")
            .options(options);
        for agent in 0..f {
            // A low-norm reversal survives CGE's norm sort — the filter's
            // worst case, unlike the full reversal it eliminates outright.
            builder = builder.attack_with(agent, "scaled-reverse-0.5", || {
                Box::new(ScaledReverse::new(0.5))
            });
        }
        let result = InProcess.run(&builder.build()?)?;

        table.push_row(vec![
            f.to_string(),
            format!("{:.3}", config.fault_fraction()),
            format!("{alpha:.3}"),
            format!("{eps:.4}"),
            format!("{:.4}", result.final_distance()),
        ])?;
    }
    print!("{}", table.to_aligned_string());
    println!(
        "\nthe error stays O(eps) while alpha > 0 and grows once the Theorem-4 margin closes."
    );
    table.write_to_path(out_dir.join("sweep_f.csv"))?;
    Ok(())
}

/// Measured redundancy ε and the final CGE error as observation noise grows —
/// the empirical shape of the `error ≤ D·ε` prediction.
///
/// The attacker here is a *stealth* one: agent 0 behaves perfectly honestly
/// for a fabricated cost (its observation shifted by a few noise standard
/// deviations). Indistinguishability from a legitimate agent is exactly what
/// makes ε the information-theoretic limit (Theorem 1), so this attack's
/// damage tracks ε where norm-based attacks get filtered outright.
pub fn sweep_eps(out_dir: &Path) -> Result<(), Box<dyn Error>> {
    let config = SystemConfig::new(6, 1)?;
    let mut table = CsvTable::new(vec![
        "noise std".into(),
        "measured eps".into(),
        "dist to x_H".into(),
        "worst-case resilience error".into(),
        "worst / eps".into(),
    ]);

    println!("=== Redundancy vs error (n = 6, f = 1, stealth fabricated-data attacker) ===\n");
    for &noise in &[0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4] {
        let problem = RegressionProblem::fan(config, 150.0, noise, 77)?;
        let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5])?;
        let eps = measure_redundancy(&RegressionOracle::new(&problem), config)?.epsilon;

        // Agent 0 submits honest-looking gradients for a fabricated
        // observation B0 + 1.5σ — plausible at the instance's own noise
        // level, hence indistinguishable from a legitimate agent. The
        // scenario is structurally fault-free: the corruption lives in the
        // submitted data, not in the gradient protocol.
        let mut fake_obs = problem.observations().clone();
        fake_obs[0] += 1.5 * noise.max(0.01);
        let submitted = RegressionProblem::new(config, problem.matrix().clone(), fake_obs)?;

        let mut options = RunOptions::paper_defaults(x_h.clone());
        options.x0 = Vector::zeros(2);
        options.iterations = 800;
        let scenario = Scenario::builder()
            .problem(&submitted)
            .faults(1)
            .filter("cge")
            .options(options)
            .label(format!("stealth-noise-{noise}"))
            .build()?;
        let result = InProcess.run(&scenario)?;
        let d_known = result.final_distance();

        // Definition 2's actual requirement: the server cannot know WHICH
        // (n−f)-subset is honest, so the resilience error is the worst
        // distance over every plausible honest subset of the submission.
        let worst = abft_core::subsets::KSubsets::new(6, 5)
            .map(|s| {
                submitted
                    .subset_minimizer(&s)
                    .map(|x_s| result.final_estimate.dist(&x_s))
                    .unwrap_or(f64::INFINITY)
            })
            .fold(0.0f64, f64::max);

        table.push_row(vec![
            format!("{noise:.2}"),
            format!("{eps:.4}"),
            format!("{d_known:.4}"),
            format!("{worst:.4}"),
            if eps > 1e-12 {
                format!("{:.2}", worst / eps)
            } else {
                format!("{worst:.1e} (exact redundancy)")
            },
        ])?;
    }
    print!("{}", table.to_aligned_string());
    println!(
        "\nthe worst-case resilience error (over all plausible honest subsets — the\n\
         quantity Definition 2 bounds) scales linearly with the redundancy gap eps,\n\
         vanishing in the noiseless 2f-redundant limit: the paper's central\n\
         correlation between redundancy and resilience."
    );
    table.write_to_path(out_dir.join("sweep_eps.csv"))?;
    Ok(())
}

/// Gradient-diversity sweep: how the fan spread moves the CWTM constant λ
/// against Theorem 6's threshold γ/(µ√d), alongside CWTM's observed error.
///
/// Narrow fans have similar gradients (small λ) but poorly conditioned
/// stacks (small γ); wide fans the reverse — the sweep exposes the
/// trade-off the paper's Assumption 5 encodes.
pub fn sweep_lambda(out_dir: &Path) -> Result<(), Box<dyn Error>> {
    use abft_problems::analysis::gradient_diversity;
    use abft_redundancy::cwtm_lambda_threshold;

    let config = SystemConfig::new(6, 1)?;
    let mut table = CsvTable::new(vec![
        "fan spread (deg)".into(),
        "lambda (measured)".into(),
        "threshold gamma/(mu*sqrt(d))".into(),
        "Thm 6 certifiable".into(),
        "CWTM final distance".into(),
    ]);

    println!("=== CWTM diversity sweep (n = 6, f = 1, gradient-reverse) ===\n");
    for &spread in &[20.0f64, 40.0, 60.0, 90.0, 120.0, 150.0, 170.0] {
        let problem = RegressionProblem::fan(config, spread, 0.02, 31)?;
        let honest = [1usize, 2, 3, 4, 5];
        let x_h = problem.subset_minimizer(&honest)?;
        let constants = convexity_constants(&problem)?;
        let lambda = gradient_diversity(&problem, &honest, 10.0);
        let threshold = cwtm_lambda_threshold(2, constants.mu, constants.gamma);

        let mut options = RunOptions::paper_defaults(x_h.clone());
        options.x0 = Vector::zeros(2);
        options.iterations = 800;
        let scenario = Scenario::builder()
            .problem(&problem)
            .faults(1)
            .attack(0, "gradient-reverse")
            .filter("cwtm")
            .options(options)
            .build()?;
        let result = InProcess.run(&scenario)?;

        table.push_row(vec![
            format!("{spread:.0}"),
            format!("{lambda:.3}"),
            format!("{threshold:.3}"),
            (lambda < threshold).to_string(),
            format!("{:.4}", result.final_distance()),
        ])?;
    }
    print!("{}", table.to_aligned_string());
    println!(
        "\nCWTM's empirical error stays small across the sweep even where Theorem 6's\n\
         worst-case condition is violated — the certificate is conservative, as the\n\
         paper's own instance (lambda = 1.9 >> threshold 0.25) already shows."
    );
    table.write_to_path(out_dir.join("sweep_lambda.csv"))?;
    Ok(())
}

/// The design-choice ablations: CGE sum-vs-mean semantics and step schedules.
pub fn ablation(out_dir: &Path) -> Result<(), Box<dyn Error>> {
    let problem = RegressionProblem::paper_instance();
    let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5])?;

    // Ablation 1: CGE's paper semantics (sum of n−f gradients) vs averaged
    // (both registered: `cge` and `cge-avg`).
    let mut table = CsvTable::new(vec![
        "variant".into(),
        "schedule".into(),
        "final distance".into(),
    ]);
    let schedules: [(&str, StepSchedule); 3] = [
        ("harmonic 1.5/(t+1)", StepSchedule::paper()),
        ("constant 0.05", StepSchedule::Constant(0.05)),
        (
            "inv-sqrt 0.5/sqrt(t+1)",
            StepSchedule::InverseSqrt { numerator: 0.5 },
        ),
    ];
    for (cge_label, filter_name) in [("CGE (sum)", "cge"), ("CGE (mean)", "cge-avg")] {
        for (sched_label, schedule) in &schedules {
            // A low-variance random fault (σ = 0.1, the honest gradient
            // scale near the optimum) survives the norm sort and injects
            // per-round noise — exactly the regime where Theorem 3's
            // square-summable-step requirement separates the schedules.
            let options = RunOptions {
                x0: Vector::from(vec![-0.0085, -0.5643]),
                iterations: 500,
                schedule: *schedule,
                projection: ProjectionSet::paper(),
                reference: x_h.clone(),
                aggregation_threads: RunOptions::default_aggregation_threads(),
                fleet_workers: RunOptions::default_fleet_workers(),
                telemetry: Default::default(),
                staleness_ns: None,
            };
            let scenario = Scenario::builder()
                .problem(&problem)
                .faults(1)
                .attack_with(0, "random-sigma-0.1", || {
                    Box::new(abft_attacks::RandomGaussian::new(0.1, 7))
                })
                .filter(filter_name)
                .options(options)
                .build()?;
            let result = InProcess.run(&scenario)?;
            table.push_row(vec![
                cge_label.to_string(),
                sched_label.to_string(),
                format!("{:.4}", result.final_distance()),
            ])?;
        }
    }

    println!("=== Ablations: CGE sum-vs-mean × step schedule (low-variance random fault) ===\n");
    print!("{}", table.to_aligned_string());
    println!(
        "\nsum semantics effectively multiplies the step by n−f = {}, so the mean\n\
         variant converges slower at a fixed iteration budget; only the harmonic\n\
         schedule is square-summable (Theorem 3), so the constant and inv-sqrt\n\
         schedules plateau at a noise floor under the random fault.",
        problem.config().honest_quorum()
    );
    table.write_to_path(out_dir.join("ablation.csv"))?;
    Ok(())
}

/// Convergence under link-level faults: the `Simulated` backend sweeps
/// drop probability on both topologies (plus one mid-run partition row),
/// reporting final error and the network counters. Deterministic for a
/// fixed network seed.
pub fn lossy(out_dir: &Path) -> Result<(), Box<dyn Error>> {
    use abft_scenario::{LinkModel, NetworkModel, Partition, Simulated};

    let problem = RegressionProblem::paper_instance();
    let x_h = problem.subset_minimizer(&[1, 2, 3, 4, 5])?;
    let mut options = RunOptions::paper_defaults(x_h);
    options.iterations = 300;
    let scenario = Scenario::builder()
        .problem(&problem)
        .faults(1)
        .attack(0, "gradient-reverse")
        .filter("cge")
        .options(options)
        .label("cge+gradient-reverse@0")
        .build()?;

    let mut table = CsvTable::new(vec![
        "network".into(),
        "topology".into(),
        "final distance".into(),
        "delivered".into(),
        "dropped".into(),
        "late".into(),
        "virtual ms".into(),
    ]);
    let mut push =
        |name: &str, topology: &str, backend: &Simulated| -> Result<(), Box<dyn Error>> {
            let report = backend.run(&scenario)?;
            let net = report.metrics.net;
            table.push_row(vec![
                name.to_string(),
                topology.to_string(),
                format!("{:.5}", report.final_distance()),
                net.delivered.to_string(),
                net.dropped.to_string(),
                net.late.to_string(),
                format!("{:.2}", net.virtual_ns as f64 / 1e6),
            ])?;
            Ok(())
        };

    for drop in [0.0, 0.05, 0.1, 0.2] {
        let model = NetworkModel::seeded(2021)
            .with_default_link(LinkModel::ideal().with_drop(drop).with_reorder_ns(2_000));
        let name = format!("drop={drop:.2}");
        push(
            &name,
            "peer-to-peer",
            &Simulated::peer_to_peer(model.clone()),
        )?;
        push(&name, "server", &Simulated::server(model))?;
    }
    let partitioned =
        NetworkModel::seeded(2021).with_partition(Partition::isolate(vec![1, 2], 50, 100));
    push(
        "partition {1,2} t∈[50,100)",
        "peer-to-peer",
        &Simulated::peer_to_peer(partitioned.clone()),
    )?;
    push(
        "partition {1,2} t∈[50,100)",
        "server",
        &Simulated::server(partitioned),
    )?;

    println!("=== Convergence under link faults (paper instance, CGE vs gradient-reverse) ===\n");
    print!("{}", table.to_aligned_string());
    println!(
        "\nreading guide: the server topology tolerates moderate loss (a missing\n\
         gradient is a per-round crash under the S1 rule); the peer-to-peer\n\
         topology is more sensitive — lost EIG relays resolve to the zero\n\
         default and, with enough loss, honest agents drift out of lockstep."
    );
    table.write_to_path(out_dir.join("lossy.csv"))?;
    Ok(())
}
