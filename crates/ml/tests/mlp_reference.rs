//! The models' blocked kernels against the obviously-correct per-sample
//! code they replaced, **bit for bit**.
//!
//! The reference below is the MLP as it was written before the panels: a
//! `Matrix::matvec` forward per sample, an allocating softmax, and
//! `Matrix::matvec_t` for `δ_prev` — and the SVM's `matvec` scores. It
//! knows nothing of `Mlp`'s or `LinearSvm`'s internals: it rebuilds the
//! layers from `params()`. Every loss, gradient slot, prediction and
//! accuracy must have the reference's exact bits.
//!
//! The parameters are drawn with many exact `±0.0` entries, so dead ReLU
//! units, zero-skipped `δ·scale` slots and tied logits (where `predict`'s
//! `total_cmp` tells `−0.0` from `+0.0`) all occur; some cases scale the
//! parameters until activations overflow. A NaN equals any NaN here: the
//! compiler may commute a `+` or `×`, which is free to move a NaN's
//! payload, and no contract pins it.

use abft_linalg::rng::seeded_rng;
use abft_linalg::{Matrix, Vector};
use abft_ml::{Dataset, DatasetSpec, LinearSvm, Mlp, Model};
use proptest::prelude::*;
use rand::Rng;

/// Layer widths off the kernel's four-wide block.
const WIDTHS: [usize; 4] = [1, 3, 5, 33];

/// One dense layer `z = W·a + b`, rebuilt from the flat parameters.
struct Layer {
    weights: Matrix, // out × in
    biases: Vector,  // out
}

/// The layers in `params()` order: each `[weights, row-major | biases]`.
fn layers(sizes: &[usize], params: &Vector) -> Vec<Layer> {
    let mut rest = params.as_slice();
    let layers = sizes
        .windows(2)
        .map(|w| {
            let (weights, tail) = rest.split_at(w[0] * w[1]);
            let (biases, tail) = tail.split_at(w[1]);
            rest = tail;
            Layer {
                weights: Matrix::from_fn(w[1], w[0], |i, j| weights[i * w[0] + j]),
                biases: Vector::from(biases),
            }
        })
        .collect();
    assert!(rest.is_empty(), "parameter count");
    layers
}

/// Every layer's post-activation output, `activations[0]` the input.
fn forward(layers: &[Layer], x: &Vector) -> Vec<Vector> {
    let mut activations = vec![x.clone()];
    for (l, layer) in layers.iter().enumerate() {
        let mut z = layer
            .weights
            .matvec(activations.last().expect("non-empty"))
            .expect("layer shapes are consistent");
        z += &layer.biases;
        if l + 1 < layers.len() {
            for v in z.as_mut_slice() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        activations.push(z);
    }
    activations
}

fn softmax(logits: &Vector) -> Vector {
    let max = logits.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
    let exps: Vec<f64> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    Vector::from(exps.into_iter().map(|e| e / sum).collect::<Vec<_>>())
}

/// Per-sample backprop: forward, softmax, then `dW += δ ⊗ a` and
/// `δ_prev = Wᵀδ` gated by the ReLU, layer by layer backwards.
fn loss_and_gradient(layers: &[Layer], data: &Dataset, batch: &[usize]) -> (f64, Vec<f64>) {
    let dim: usize = layers
        .iter()
        .map(|l| l.weights.rows() * l.weights.cols() + l.biases.dim())
        .sum();
    let mut out = vec![0.0; dim];
    let scale = 1.0 / batch.len() as f64;
    let mut total_loss = 0.0;
    for &idx in batch {
        let activations = forward(layers, data.feature(idx));
        let y = data.label(idx);
        let probs = softmax(activations.last().expect("non-empty"));
        total_loss += -(probs[y].max(1e-300)).ln();
        let mut delta = probs;
        delta[y] -= 1.0;
        let mut block_end = out.len();
        for l in (0..layers.len()).rev() {
            let input = &activations[l];
            let count =
                layers[l].weights.rows() * layers[l].weights.cols() + layers[l].biases.dim();
            let block_start = block_end - count;
            let (grad_w, grad_b) =
                out[block_start..block_end].split_at_mut(delta.dim() * input.dim());
            block_end = block_start;
            let rows = grad_w.chunks_exact_mut(input.dim());
            for ((row, bias), &delta_r) in rows.zip(grad_b.iter_mut()).zip(delta.iter()) {
                let d = delta_r * scale;
                if d != 0.0 {
                    for (g, a) in row.iter_mut().zip(input.iter()) {
                        *g += d * a;
                    }
                }
                *bias += d;
            }
            if l > 0 {
                let mut prev = layers[l].weights.matvec_t(&delta).expect("shapes");
                for c in 0..prev.dim() {
                    if activations[l][c] <= 0.0 {
                        prev[c] = 0.0;
                    }
                }
                delta = prev;
            }
        }
    }
    (total_loss * scale, out)
}

/// The last index of the largest logit under `total_cmp`.
fn argmax(scores: &Vector) -> usize {
    (0..scores.dim())
        .max_by(|&i, &j| scores[i].total_cmp(&scores[j]))
        .expect("at least one class")
}

fn predict(layers: &[Layer], x: &Vector) -> usize {
    argmax(forward(layers, x).last().expect("non-empty"))
}

fn accuracy(data: &Dataset, predict: impl Fn(&Vector) -> usize) -> f64 {
    let correct = (0..data.len())
        .filter(|&i| predict(data.feature(i)) == data.label(i))
        .count();
    correct as f64 / data.len() as f64
}

/// The SVM's hinge loss and gradient with `matvec` scores per sample.
fn svm_loss_and_gradient(
    weights: &Matrix,
    reg: f64,
    data: &Dataset,
    batch: &[usize],
) -> (f64, Vec<f64>) {
    let (classes, dim) = (weights.rows(), weights.cols());
    let scale = 1.0 / batch.len() as f64;
    let mut loss = 0.0;
    let mut out = vec![0.0; classes * dim];
    for &idx in batch {
        let x = data.feature(idx);
        let y = data.label(idx);
        let scores = weights.matvec(x).expect("dimension checked");
        for j in 0..classes {
            if j == y {
                continue;
            }
            let margin = 1.0 + scores[j] - scores[y];
            if margin > 0.0 {
                loss += margin * scale;
                for (g, xc) in out[j * dim..(j + 1) * dim].iter_mut().zip(x.iter()) {
                    *g += scale * xc;
                }
                for (g, xc) in out[y * dim..(y + 1) * dim].iter_mut().zip(x.iter()) {
                    *g -= scale * xc;
                }
            }
        }
    }
    let flat = weights.as_slice();
    loss += 0.5 * reg * flat.iter().map(|w| w * w).sum::<f64>();
    for (g, w) in out.iter_mut().zip(flat) {
        *g += w * reg;
    }
    (loss, out)
}

/// How a case draws its parameters.
#[derive(Clone, Copy)]
enum Draw {
    /// Many exact zeros of both signs; the rest uniform in `±1.3`.
    Mixed,
    /// Only `±0.0` and `±1`: sums of signed zeros and exact ties are
    /// common, so the sign a pre-activation sum starts from reaches
    /// `predict`.
    Signs,
    /// `Mixed` times `10¹⁶⁰`: activations overflow.
    Huge,
}

fn parameters(dim: usize, seed: u64, draw: Draw) -> Vector {
    let mut rng = seeded_rng(seed);
    Vector::from_fn(dim, |_| {
        let u = rng.gen::<f64>();
        match draw {
            Draw::Signs => [-0.0, 0.0, -1.0, 1.0][(u * 4.0) as usize],
            _ if u < 0.2 => -0.0,
            _ if u < 0.35 => 0.0,
            Draw::Mixed => (u - 0.675) * 4.0,
            Draw::Huge => (u - 0.675) * 4e160,
        }
    })
}

/// A small dataset of `classes` classes in `dim` dimensions. The test set
/// ends with a sample at the origin, where every first-layer sum is a sum
/// of signed zeros.
fn data(classes: usize, dim: usize, seed: u64) -> (Dataset, Dataset) {
    let (train, test) = DatasetSpec {
        classes,
        dim,
        train: 40,
        test: 24,
        noise: 0.5,
        separation: 1.0,
        correlation: 0.0,
    }
    .generate(seed);
    let mut features: Vec<Vector> = (0..test.len()).map(|i| test.feature(i).clone()).collect();
    let mut labels: Vec<usize> = (0..test.len()).map(|i| test.label(i)).collect();
    features.push(Vector::zeros(dim));
    labels.push(0);
    let test = Dataset::new(features, labels, classes).expect("well-formed");
    (train, test)
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(same_bits(*g, *w), "{what}[{k}]: {g:e} vs reference {w:e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Loss, every gradient slot, `predict` and `accuracy` of the MLP carry
    /// the per-sample reference's exact bits.
    #[test]
    fn mlp_matches_the_per_sample_reference(
        widths in prop::collection::vec(0usize..4, 4),
        hidden in 1usize..=2,
        batch in prop::collection::vec(0usize..40, 1..=37),
        seed in 0u64..1_000,
        draw in 0usize..6,
    ) {
        let mut sizes: Vec<usize> = widths.iter().map(|&w| WIDTHS[w]).collect();
        sizes.truncate(hidden + 2);
        let classes = *sizes.last().expect("non-empty");
        let (train, test) = data(classes, sizes[0], seed);
        let mut net = Mlp::new(&sizes, seed).expect("valid sizes");
        let draw = match draw {
            0 => Draw::Huge,
            1 | 2 => Draw::Signs,
            _ => Draw::Mixed,
        };
        net.set_params(&parameters(net.param_dim(), seed, draw));
        let reference = layers(&sizes, &net.params());

        let mut grad = vec![f64::NAN; net.param_dim()];
        let loss = net.loss_and_gradient_into(&train, &batch, &mut grad);
        let (want_loss, want_grad) = loss_and_gradient(&reference, &train, &batch);
        prop_assert!(same_bits(loss, want_loss), "loss {loss:e} vs reference {want_loss:e}");
        assert_same_bits(&grad, &want_grad, "gradient");

        for i in 0..test.len() {
            prop_assert_eq!(net.predict(test.feature(i)), predict(&reference, test.feature(i)));
        }
        let want = accuracy(&test, |x| predict(&reference, x));
        prop_assert!(same_bits(net.accuracy(&test), want));
    }

    /// The SVM's loss and gradient carry the `matvec` reference's bits.
    #[test]
    fn svm_matches_the_per_sample_reference(
        shape in (0usize..4, 0usize..4),
        batch in prop::collection::vec(0usize..40, 1..=37),
        seed in 0u64..1_000,
        regularised in 0usize..2,
        signs in 0usize..2,
    ) {
        let (dim, classes) = (WIDTHS[shape.0], WIDTHS[shape.1]);
        let reg = if regularised == 1 { 0.01 } else { 0.0 };
        let (train, test) = data(classes, dim, seed);
        let mut svm = LinearSvm::new(dim, classes, reg).expect("valid shape");
        let draw = if signs == 1 { Draw::Signs } else { Draw::Mixed };
        svm.set_params(&parameters(svm.param_dim(), seed, draw));
        let params = svm.params();
        let weights = Matrix::from_fn(classes, dim, |j, k| params[j * dim + k]);

        let mut grad = vec![f64::NAN; svm.param_dim()];
        let loss = svm.loss_and_gradient_into(&train, &batch, &mut grad);
        let (want_loss, want_grad) = svm_loss_and_gradient(&weights, reg, &train, &batch);
        prop_assert!(same_bits(loss, want_loss), "loss {loss:e} vs reference {want_loss:e}");
        assert_same_bits(&grad, &want_grad, "gradient");

        let reference = |x: &Vector| argmax(&weights.matvec(x).expect("dimension"));
        for i in 0..test.len() {
            prop_assert_eq!(svm.predict(test.feature(i)), reference(test.feature(i)));
        }
        prop_assert!(same_bits(svm.accuracy(&test), accuracy(&test, reference)));
    }
}
