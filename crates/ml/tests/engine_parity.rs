//! D-SGD on the shared server step must train exactly the model the
//! hand-written loop trained: `train_distributed` is compared **bit for
//! bit** — final parameters and every evaluation record — against an
//! obviously-correct reference loop (sample in shard order from one seeded
//! stream, backprop into the row, negate a reverser's row, filter,
//! `x ← x − η·g`) that knows nothing of `abft_dgd::RoundEngine`.

use abft_filters::by_name;
use abft_linalg::rng::seeded_rng;
use abft_linalg::{GradientBatch, Vector};
use abft_ml::{
    train_distributed, Dataset, DatasetSpec, DsgdConfig, DsgdRecord, MlFault, Mlp, Model,
};

fn model() -> Mlp {
    Mlp::new(&[16, 8, 10], 1).expect("valid layers")
}

fn config() -> DsgdConfig {
    DsgdConfig {
        batch_size: 16,
        learning_rate_milli: 200,
        iterations: 40,
        eval_every: 10,
        ..DsgdConfig::paper(9)
    }
}

/// The Appendix-K loop, written out: records at every `eval_every`-th
/// iteration and at the final parameters.
fn reference_run(
    shards: &[Dataset],
    faulty: &[usize],
    fault: MlFault,
    filter_name: &str,
    test: &Dataset,
) -> (Vector, Vec<DsgdRecord>) {
    let config = config();
    let filter = by_name(filter_name).expect("registered");
    let mut model = model();
    let shards: Vec<Dataset> = (shards.iter().enumerate())
        .map(|(i, shard)| match fault {
            MlFault::LabelFlip if faulty.contains(&i) => shard.with_flipped_labels(),
            _ => shard.clone(),
        })
        .collect();
    let mut rng = seeded_rng(config.seed);
    let mut records = Vec::new();
    for t in 0..=config.iterations {
        let mut round = GradientBatch::with_capacity(shards.len(), model.param_dim());
        round.reset_rows(shards.len());
        let (mut loss_sum, mut honest) = (0.0, 0usize);
        for (i, shard) in shards.iter().enumerate() {
            let batch = shard.sample_batch(&mut rng, config.batch_size);
            let loss = model.loss_and_gradient_into(shard, &batch, round.row_mut(i));
            if !faulty.contains(&i) {
                loss_sum += loss;
                honest += 1;
            } else if fault == MlFault::GradientReverse {
                round.row_mut(i).iter_mut().for_each(|g| *g = -*g);
            }
        }
        if t == config.iterations || t % config.eval_every == 0 {
            records.push(DsgdRecord {
                iteration: t,
                loss: loss_sum / honest as f64,
                accuracy: model.accuracy(test),
            });
        }
        if t == config.iterations {
            break;
        }
        let mut direction = Vector::zeros(model.param_dim());
        filter
            .aggregate_into(&round, faulty.len(), &mut direction)
            .expect("finite rows");
        let mut params = model.params();
        params.axpy(-config.learning_rate(), &direction);
        model.set_params(&params);
    }
    (model.params(), records)
}

#[test]
fn engine_driven_training_reproduces_the_reference_loop_bit_for_bit() {
    let (train, test) = DatasetSpec::tiny().generate(13);
    let shards = train.shard(5, 1).expect("shardable");
    let faults: [(&[usize], MlFault); 3] = [
        (&[], MlFault::None),
        (&[1], MlFault::LabelFlip),
        (&[1], MlFault::GradientReverse),
    ];
    for filter_name in ["mean", "cge", "cwtm"] {
        for (faulty, fault) in faults {
            let label = format!("{filter_name} under {fault:?}");
            let (expected_params, expected_records) =
                reference_run(&shards, faulty, fault, filter_name, &test);

            let mut model = model();
            let filter = by_name(filter_name).expect("registered");
            let records = train_distributed(
                &mut model,
                &shards,
                faulty,
                fault,
                filter.as_ref(),
                &test,
                &config(),
            )
            .expect("trains");

            assert_eq!(records, expected_records, "{label}: records");
            let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&model.params()),
                bits(&expected_params),
                "{label}: final parameters"
            );
        }
    }
}
