//! Figures 4–5: Byzantine-robust distributed learning on the synthetic
//! dataset substitutes.

use abft_core::csv::CsvTable;
use abft_filters::{Cge, Cwtm, GradientFilter, Mean};
use abft_ml::{train_distributed, DatasetSpec, DsgdConfig, MlFault, Mlp};
use std::error::Error;
use std::path::Path;

/// Which figure to regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Figure 4's workload (MNIST substitute).
    SyntheticMnist,
    /// Figure 5's workload (Fashion-MNIST substitute).
    SyntheticFashion,
}

impl Task {
    fn spec(self) -> DatasetSpec {
        match self {
            Task::SyntheticMnist => DatasetSpec::synthetic_mnist(),
            Task::SyntheticFashion => DatasetSpec::synthetic_fashion(),
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Task::SyntheticMnist => "fig4_synthetic_mnist",
            Task::SyntheticFashion => "fig5_synthetic_fashion",
        }
    }
}

/// Reproduces the Figure 4 / Figure 5 series: cross-entropy loss and test
/// accuracy vs iteration for fault-free D-SGD and {CWTM, CGE} × {LF, GR},
/// with n = 10, f = 3 as in the paper.
pub fn figure4or5(out_dir: &Path, task: Task) -> Result<(), Box<dyn Error>> {
    let spec = task.spec();
    let (train, test) = spec.generate(2024);
    let shards = train.shard(10, 7)?;
    let faulty = [0usize, 4, 7]; // f = 3 of n = 10, fixed like the paper's seed
                                 // η scaled up for the small MLP that stands in for LeNet; batch 128 as the paper.
    let config = DsgdConfig {
        iterations: 1000,
        eval_every: 50,
        learning_rate_milli: 500,
        ..DsgdConfig::paper(11)
    };

    println!(
        "=== {}: n = 10, f = 3, MLP {}-32-10, b = {} ===\n",
        task.tag(),
        spec.dim,
        config.batch_size
    );

    // The paper's five curves: fault-free + {CWTM, CGE} × {LF, GR}.
    type Curve<'a> = (&'a str, MlFault, &'a [usize], Box<dyn GradientFilter>);
    let runs: [Curve<'_>; 6] = [
        ("fault-free", MlFault::None, &[], Box::new(Mean::new())),
        (
            "CWTM-LF",
            MlFault::LabelFlip,
            &faulty,
            Box::new(Cwtm::new()),
        ),
        (
            "CWTM-GR",
            MlFault::GradientReverse,
            &faulty,
            Box::new(Cwtm::new()),
        ),
        (
            "CGE-LF",
            MlFault::LabelFlip,
            &faulty,
            Box::new(Cge::averaged()),
        ),
        (
            "CGE-GR",
            MlFault::GradientReverse,
            &faulty,
            Box::new(Cge::averaged()),
        ),
        // Extra baseline the paper describes in prose: plain averaging fails.
        (
            "mean-GR",
            MlFault::GradientReverse,
            &faulty,
            Box::new(Mean::new()),
        ),
    ];

    let mut series = CsvTable::new(vec![
        "iteration".into(),
        "run".into(),
        "loss".into(),
        "accuracy".into(),
    ]);
    let mut summary = CsvTable::new(vec![
        "run".into(),
        "final loss".into(),
        "final accuracy".into(),
    ]);

    for (label, fault, faulty_set, filter) in &runs {
        let mut model = Mlp::new(&[spec.dim, 32, spec.classes], 3)?;
        let records = train_distributed(
            &mut model,
            &shards,
            faulty_set,
            *fault,
            filter.as_ref(),
            &test,
            &config,
        )?;
        for r in &records {
            series.push_row(vec![
                r.iteration.to_string(),
                label.to_string(),
                format!("{:.6}", r.loss),
                format!("{:.4}", r.accuracy),
            ])?;
        }
        let last = records.last().expect("at least one record");
        summary.push_row(vec![
            label.to_string(),
            format!("{:.4}", last.loss),
            format!("{:.4}", last.accuracy),
        ])?;
        println!(
            "{label:<12} final: loss = {:.4}, accuracy = {:.4}",
            last.loss, last.accuracy
        );
    }

    let path = out_dir.join(format!("{}.csv", task.tag()));
    series.write_to_path(&path)?;
    summary.write_to_path(out_dir.join(format!("{}_summary.csv", task.tag())))?;
    println!("\nwrote {}", path.display());
    println!("\nsummary:\n{}", summary.to_aligned_string());
    Ok(())
}
