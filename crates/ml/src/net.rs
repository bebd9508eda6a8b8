//! A from-scratch multilayer perceptron with reverse-mode backprop.
//!
//! Dense layers with ReLU activations and a softmax cross-entropy head —
//! the documented substitution for the paper's LeNet (`DESIGN.md` §4):
//! gradient filters only see parameter-gradient vectors, and the MLP
//! preserves non-convexity, softmax loss, and mini-batch stochasticity at a
//! size that trains on a laptop.
//!
//! # The kernel
//!
//! The parameters are one flat vector in the [`Model::params`] layout —
//! each layer's `[weights (out × in, row-major) | biases]` in turn — and a
//! layer is a set of offset views into it. A mini-batch crosses each layer
//! as one `b × in` panel: the forward pass runs four samples × four
//! outputs at a time over a transposed copy of the weights, so sixteen
//! independent add chains are in flight. Softmax, the loss and the logits'
//! δ then run per sample, and the backward pass per layer and, within it,
//! per sample: `dW`, then `δ_prev = Wᵀδ` through the same weight rows. The
//! activation panels and δ rows live in one scratch vector the model owns;
//! once it has grown to the largest batch, a call allocates nothing.
//!
//! **Order contract** — what keeps every bit equal to the per-sample
//! reference in `tests/mlp_reference.rs`:
//! - a pre-activation is `(((−0.0 + w·a₀) + w·a₁) + …)` in input order —
//!   the `Iterator::sum` fold, whose neutral element is `−0.0` — then
//!   `+ b`, then ReLU as `< 0.0 → 0.0`;
//! - softmax folds the max from `−∞`, takes `exp(v − max)`, sums from
//!   `−0.0` and divides; the loss sums `−ln max(p_y, 10⁻³⁰⁰)` in batch
//!   order;
//! - every `dW`/`db` slot accumulates the samples in batch order from
//!   `+0.0`; a `δ·scale` that is exactly zero is skipped for `dW` (so a
//!   non-finite activation cannot turn it into NaN) but still added to
//!   `db`;
//! - `δ_prev[j]` is `0.0 + Σᵢ W[i][j]·δ[i]` in `i` order, then zeroed
//!   where the layer's input is `≤ 0.0`;
//! - [`Mlp::predict`] is a panel of one; of equal logits it picks the last
//!   under `total_cmp`.

use crate::dataset::Dataset;
use crate::dsgd::{check_gradient_call, check_params, Model};
use crate::error::MlError;
use abft_linalg::rng::{seeded_rng, standard_normal};
use abft_linalg::Vector;
use std::cell::Cell;
use std::fmt;

/// Samples per forward block, and outputs per packed weight panel.
const BLOCK: usize = 4;
/// Test samples `accuracy` runs through the layers at once.
const EVAL_PANEL: usize = 64;

/// A multilayer perceptron classifier.
///
/// # Example
///
/// ```
/// use abft_ml::{Mlp, Model};
///
/// # fn main() -> Result<(), abft_ml::MlError> {
/// let net = Mlp::new(&[16, 8, 10], 42)?;
/// assert_eq!(net.param_dim(), 16 * 8 + 8 + 8 * 10 + 10);
/// # Ok(())
/// # }
/// ```
pub struct Mlp {
    sizes: Vec<usize>,
    /// Each layer's `[weights (out × in, row-major) | biases]` in turn:
    /// the [`Model::params`] layout.
    params: Vec<f64>,
    /// Each layer's `Wᵀ` cut into panels of [`BLOCK`] outputs: panel `p`
    /// holds, input by input, the weights of outputs `4p … 4p + 3` (zero
    /// past the last output).
    packed: Vec<f64>,
    /// Where each layer starts in `params` and in `packed`.
    offsets: Vec<(usize, usize)>,
    /// Activation panels and δ rows: taken for a call and put back, so a
    /// re-entrant call allocates its own instead of failing.
    scratch: Cell<Vec<f64>>,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes (`[input, hidden…,
    /// classes]`), deterministically initialized from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidConfig`] for fewer than two sizes or any
    /// zero size.
    pub fn new(sizes: &[usize], seed: u64) -> Result<Self, MlError> {
        if sizes.len() < 2 {
            return Err(MlError::InvalidConfig {
                reason: "an MLP needs at least input and output sizes".into(),
            });
        }
        if sizes.contains(&0) {
            return Err(MlError::InvalidConfig {
                reason: "layer sizes must be positive".into(),
            });
        }
        // He-style initialization, layer by layer: weights row-major, zero
        // biases.
        let mut rng = seeded_rng(seed);
        let mut params = Vec::new();
        let (mut packed, mut offsets) = (0, Vec::new());
        for (&inputs, &outputs) in sizes.iter().zip(sizes.iter().skip(1)) {
            offsets.push((params.len(), packed));
            let scale = (2.0 / inputs as f64).sqrt();
            params.extend((0..inputs * outputs).map(|_| scale * standard_normal(&mut rng)));
            params.extend(std::iter::repeat_n(0.0, outputs));
            packed += packed_len(inputs, outputs);
        }
        let mut net = Mlp {
            sizes: sizes.to_vec(),
            params,
            packed: vec![0.0; packed],
            offsets,
            scratch: Cell::default(),
        };
        net.pack();
        Ok(net)
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.sizes.first().copied().unwrap_or_default()
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.sizes.last().copied().unwrap_or_default()
    }

    /// Predicted class for one sample.
    pub fn predict(&self, x: &Vector) -> usize {
        let mut scratch = self.scratch.take();
        let (acts, _) = self.panels(&mut scratch, BLOCK, 0);
        self.forward(std::iter::once(x), acts, BLOCK);
        let class = self.logits(acts, BLOCK).next().map_or(0, argmax);
        self.scratch.set(scratch);
        class
    }

    /// The layers front to back; `.rev()` walks them back to front.
    fn layers(&self) -> impl DoubleEndedIterator<Item = Layer<'_>> {
        let shapes = self.sizes.iter().zip(self.sizes.iter().skip(1));
        let layers = shapes.zip(&self.offsets);
        layers.map(|((&inputs, &outputs), &(at, packed_at))| {
            let (weights, biases) = self.params.split_at(at).1.split_at(inputs * outputs);
            let packed = self.packed.split_at(packed_at).1;
            Layer {
                inputs,
                outputs,
                weights,
                biases: biases.split_at(outputs).0,
                packed: packed.split_at(packed_len(inputs, outputs)).0,
            }
        })
    }

    /// Rebuilds [`Mlp::packed`] from the parameters.
    fn pack(&mut self) {
        let mut params = self.params.as_slice();
        let mut packed = self.packed.as_mut_slice();
        for (&inputs, &outputs) in self.sizes.iter().zip(self.sizes.iter().skip(1)) {
            let (weights, rest) = params.split_at(inputs * outputs);
            params = rest.split_at(outputs).1;
            let (panels, rest) =
                std::mem::take(&mut packed).split_at_mut(packed_len(inputs, outputs));
            packed = rest;
            let blocks = panels
                .chunks_exact_mut(BLOCK * inputs)
                .zip(weights.chunks(BLOCK * inputs));
            for (panel, rows) in blocks {
                panel.fill(0.0);
                for (lane, row) in rows.chunks_exact(inputs).enumerate() {
                    let slots = panel.iter_mut().skip(lane).step_by(BLOCK);
                    for (slot, &w) in slots.zip(row) {
                        *slot = w;
                    }
                }
            }
        }
    }

    /// Grows `scratch` and carves it: the activation panels for `rows`
    /// samples — one per layer boundary, `rows × sizes[l]`, row-major —
    /// then at least `extra` more values.
    fn panels<'s>(
        &self,
        scratch: &'s mut Vec<f64>,
        rows: usize,
        extra: usize,
    ) -> (&'s mut [f64], &'s mut [f64]) {
        let acts = rows * self.sizes.iter().sum::<usize>();
        if scratch.len() < acts + extra {
            scratch.resize(acts + extra, 0.0);
        }
        scratch.split_at_mut(acts)
    }

    /// Stages `inputs` in the first of the activation panels `acts` (zero
    /// rows pad it to `rows`, a multiple of [`BLOCK`]) and runs every layer
    /// over them, block by block.
    fn forward<'x>(&self, inputs: impl Iterator<Item = &'x Vector>, acts: &mut [f64], rows: usize) {
        let (input, mut rest) = acts.split_at_mut(rows * self.input_dim());
        let mut slots = input.chunks_exact_mut(self.input_dim());
        for (slot, x) in slots.by_ref().zip(inputs) {
            slot.copy_from_slice(x.as_slice());
        }
        slots.for_each(|slot| slot.fill(0.0));

        let hidden = self.sizes.len() - 2;
        let mut input: &[f64] = input;
        for (l, layer) in self.layers().enumerate() {
            let (output, tail) = std::mem::take(&mut rest).split_at_mut(rows * layer.outputs);
            let blocks = (input.chunks_exact(BLOCK * layer.inputs))
                .zip(output.chunks_exact_mut(BLOCK * layer.outputs));
            for (src, dst) in blocks {
                layer.forward_block(src, dst, l < hidden);
            }
            (input, rest) = (output, tail);
        }
    }

    /// The logits rows of the activation panels `acts` for `rows` samples.
    fn logits<'a>(&self, acts: &'a [f64], rows: usize) -> std::slice::ChunksExact<'a, f64> {
        let classes = self.classes();
        acts.split_at(acts.len() - rows * classes)
            .1
            .chunks_exact(classes)
    }
}

impl Clone for Mlp {
    /// Clones the parameters; the clone starts with an empty scratch.
    fn clone(&self) -> Self {
        Mlp {
            sizes: self.sizes.clone(),
            params: self.params.clone(),
            packed: self.packed.clone(),
            offsets: self.offsets.clone(),
            scratch: Cell::default(),
        }
    }
}

impl fmt::Debug for Mlp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mlp")
            .field("sizes", &self.sizes)
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

/// One dense layer `z = W·a + b` as views into the flat vectors.
struct Layer<'a> {
    inputs: usize,
    outputs: usize,
    /// `outputs × inputs`, row-major.
    weights: &'a [f64],
    biases: &'a [f64],
    /// This layer's share of [`Mlp::packed`].
    packed: &'a [f64],
}

/// The length of one layer's share of [`Mlp::packed`].
fn packed_len(inputs: usize, outputs: usize) -> usize {
    outputs.div_ceil(BLOCK) * BLOCK * inputs
}

impl Layer<'_> {
    /// Runs one block of [`BLOCK`] samples through the layer: `src` holds
    /// their inputs (`4 × inputs`), `dst` receives their outputs
    /// (`4 × outputs`), ReLU'd when `relu`.
    fn forward_block(&self, src: &[f64], dst: &mut [f64], relu: bool) {
        let mut src = src.chunks_exact(self.inputs);
        let x = [(); BLOCK].map(|()| src.next().unwrap_or_default());
        let mut dst = dst.chunks_exact_mut(self.outputs);
        let [z0, z1, z2, z3] = [(); BLOCK].map(|()| dst.next().unwrap_or_default());
        let lanes = (z0.chunks_mut(BLOCK).zip(z1.chunks_mut(BLOCK)))
            .zip(z2.chunks_mut(BLOCK).zip(z3.chunks_mut(BLOCK)));
        let panels = (self.packed.chunks_exact(BLOCK * self.inputs)).zip(self.biases.chunks(BLOCK));
        for ((panel, bias), ((z0, z1), (z2, z3))) in panels.zip(lanes) {
            for (z, sums) in [z0, z1, z2, z3].into_iter().zip(dot_block(x, panel)) {
                for ((z, sum), b) in z.iter_mut().zip(sums).zip(bias) {
                    let v = sum + b;
                    *z = if relu && v < 0.0 { 0.0 } else { v };
                }
            }
        }
    }

    /// Adds this layer's gradient over the samples to `grad` (its
    /// `[dW | db]` block) and, given `prevs`, writes each sample's
    /// `δ_prev` there. `inputs` holds the samples' inputs to the layer and
    /// `deltas` their δ at its outputs, one row per sample.
    fn backward(
        &self,
        grad: &mut [f64],
        inputs: &[f64],
        deltas: &[f64],
        prevs: Option<&mut [f64]>,
        scale: f64,
    ) {
        let (grad_w, grad_b) = grad.split_at_mut(self.weights.len());
        let mut prevs = prevs.map(|p| p.chunks_exact_mut(self.inputs));
        let samples = deltas
            .chunks_exact(self.outputs)
            .zip(inputs.chunks_exact(self.inputs));
        for (delta, a) in samples {
            let mut prev = prevs.as_mut().and_then(Iterator::next);
            if let Some(prev) = prev.as_deref_mut() {
                prev.fill(0.0);
            }
            let rows = (self.weights.chunks_exact(self.inputs))
                .zip(grad_w.chunks_exact_mut(self.inputs))
                .zip(grad_b.iter_mut());
            for (((w, g), b), &delta_i) in rows.zip(delta) {
                let d = delta_i * scale;
                if d != 0.0 {
                    for (g, a) in g.iter_mut().zip(a) {
                        *g += d * a;
                    }
                }
                *b += d;
                if let Some(prev) = prev.as_deref_mut() {
                    for (p, w) in prev.iter_mut().zip(w) {
                        *p += w * delta_i;
                    }
                }
            }
            // The ReLU gate: no gradient flows into an inactive input.
            if let Some(prev) = prev {
                for (p, a) in prev.iter_mut().zip(a) {
                    if *a <= 0.0 {
                        *p = 0.0;
                    }
                }
            }
        }
    }
}

/// `Σₖ w[k][o]·x_s[k]` for four samples `s` × the four outputs `o` of one
/// packed panel: sixteen independent add chains, each `−0.0`-started and
/// in `k` order — the fold `Iterator::sum` runs.
fn dot_block(x: [&[f64]; BLOCK], panel: &[f64]) -> [[f64; BLOCK]; BLOCK] {
    let [x0, x1, x2, x3] = x;
    let (panel, _) = panel.as_chunks::<BLOCK>();
    let mut sums = [[-0.0; BLOCK]; BLOCK];
    for ((((a0, a1), a2), a3), w) in x0.iter().zip(x1).zip(x2).zip(x3).zip(panel) {
        for (sum, a) in sums.iter_mut().zip([a0, a1, a2, a3]) {
            for (s, w) in sum.iter_mut().zip(w) {
                *s += w * a;
            }
        }
    }
    sums
}

/// Numerically stable softmax of `logits` into `probs`.
fn softmax_into(logits: &[f64], probs: &mut [f64]) {
    let max = logits.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
    for (p, &v) in probs.iter_mut().zip(logits) {
        *p = (v - max).exp();
    }
    let sum: f64 = probs.iter().sum();
    for p in probs.iter_mut() {
        *p /= sum;
    }
}

/// The index of the largest score; of equal ones the last, as
/// `Iterator::max_by` picks.
pub(crate) fn argmax(scores: &[f64]) -> usize {
    let best = scores
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.total_cmp(b));
    best.map_or(0, |(class, _)| class)
}

impl Model for Mlp {
    fn param_dim(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> Vector {
        Vector::from(self.params.as_slice())
    }

    fn set_params(&mut self, params: &Vector) {
        check_params(params, self.param_dim());
        self.params.copy_from_slice(params.as_slice());
        self.pack();
    }

    fn loss_and_gradient_into(&self, data: &Dataset, batch: &[usize], out: &mut [f64]) -> f64 {
        check_gradient_call(batch, out, self.param_dim());
        debug_assert!(data.classes() <= self.classes(), "labels past the logits");
        let scale = 1.0 / batch.len() as f64;
        out.fill(0.0);

        let (samples, classes) = (batch.len(), self.classes());
        let rows = samples.next_multiple_of(BLOCK);
        // δ rows: a layer's outputs, or the inputs of a layer past the first.
        let widest = self.sizes.iter().skip(1).copied().max().unwrap_or_default();
        let mut scratch = self.scratch.take();
        let (acts, deltas) = self.panels(&mut scratch, rows, 2 * samples * widest);
        self.forward(batch.iter().map(|&i| data.feature(i)), acts, rows);
        let (mut delta, mut prev) = deltas.split_at_mut(samples * widest);

        // Softmax, loss and δ at the logits, sample by sample.
        let mut total_loss = 0.0;
        let logits = self.logits(acts, rows);
        for ((z, p), &i) in logits.zip(delta.chunks_exact_mut(classes)).zip(batch) {
            softmax_into(z, p);
            if let Some(p_y) = p.get_mut(data.label(i)) {
                total_loss += -(p_y.max(1e-300)).ln();
                *p_y -= 1.0;
            }
        }

        // Backwards through the layers, and so backwards through `out`
        // and the activation panels below the logits.
        let mut below = acts.split_at(acts.len() - rows * classes).0;
        let mut grad_below = out;
        for layer in self.layers().rev() {
            let (rest, inputs) = below.split_at(below.len() - rows * layer.inputs);
            let at = grad_below.len() - layer.weights.len() - layer.outputs;
            let (grad_rest, grad) = std::mem::take(&mut grad_below).split_at_mut(at);
            let deltas = delta.split_at(samples * layer.outputs).0;
            // The first layer (nothing below it) passes no δ back.
            let prevs = (!rest.is_empty()).then(|| prev.split_at_mut(samples * layer.inputs).0);
            layer.backward(grad, inputs, deltas, prevs, scale);
            (below, grad_below) = (rest, grad_rest);
            std::mem::swap(&mut delta, &mut prev);
        }
        self.scratch.set(scratch);
        total_loss * scale
    }

    fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut scratch = self.scratch.take();
        let mut correct = 0;
        for start in (0..data.len()).step_by(EVAL_PANEL) {
            let samples = start..data.len().min(start + EVAL_PANEL);
            let rows = samples.len().next_multiple_of(BLOCK);
            let (acts, _) = self.panels(&mut scratch, rows, 0);
            self.forward(samples.clone().map(|i| data.feature(i)), acts, rows);
            let hits =
                (self.logits(acts, rows).zip(samples)).filter(|&(z, i)| argmax(z) == data.label(i));
            correct += hits.count();
        }
        self.scratch.set(scratch);
        correct as f64 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use crate::dsgd::loss_and_gradient_of;

    #[test]
    fn construction_validates() {
        assert!(Mlp::new(&[4], 0).is_err());
        assert!(Mlp::new(&[4, 0, 2], 0).is_err());
        let net = Mlp::new(&[4, 3, 2], 0).unwrap();
        assert_eq!(net.param_dim(), 4 * 3 + 3 + 3 * 2 + 2);
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.classes(), 2);
    }

    #[test]
    fn params_round_trip() {
        let mut net = Mlp::new(&[4, 3, 2], 1).unwrap();
        let p = net.params();
        let doubled = p.scale(2.0);
        net.set_params(&doubled);
        assert!(net.params().approx_eq(&doubled, 0.0));
    }

    #[test]
    fn initialization_is_seeded() {
        let a = Mlp::new(&[8, 4, 2], 7).unwrap();
        let b = Mlp::new(&[8, 4, 2], 7).unwrap();
        let c = Mlp::new(&[8, 4, 2], 8).unwrap();
        assert!(a.params().approx_eq(&b.params(), 0.0));
        assert!(!a.params().approx_eq(&c.params(), 1e-9));
    }

    #[test]
    fn softmax_is_a_distribution() {
        let mut s = [0.0; 3];
        softmax_into(&[1.0, 2.0, 3.0], &mut s);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s.iter().all(|&p| p > 0.0));
        assert!(s[2] > s[1] && s[1] > s[0]);
        // Stability at extreme logits.
        let mut s = [0.0; 2];
        softmax_into(&[1000.0, 0.0], &mut s);
        assert!((s[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let (train, _) = DatasetSpec::tiny().generate(3);
        let net = Mlp::new(&[16, 6, 10], 5).unwrap();
        let batch: Vec<usize> = (0..4).collect();
        let (loss0, grad) = loss_and_gradient_of(&net, &train, &batch);
        assert!(loss0 > 0.0);

        // Probe a scattering of coordinates with central differences.
        let p0 = net.params();
        let h = 1e-5;
        for &k in &[0usize, 7, 40, 100, net.param_dim() - 1] {
            let mut plus = net.clone();
            let mut pp = p0.clone();
            pp[k] += h;
            plus.set_params(&pp);
            let mut minus = net.clone();
            let mut pm = p0.clone();
            pm[k] -= h;
            minus.set_params(&pm);
            let (lp, _) = loss_and_gradient_of(&plus, &train, &batch);
            let (lm, _) = loss_and_gradient_of(&minus, &train, &batch);
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - grad[k]).abs() < 1e-5 * (1.0 + fd.abs()),
                "coordinate {k}: fd {fd} vs analytic {}",
                grad[k]
            );
        }
    }

    #[test]
    fn sgd_learns_the_tiny_task() {
        let (train, test) = DatasetSpec::tiny().generate(9);
        let mut net = Mlp::new(&[16, 12, 10], 2).unwrap();
        let mut rng = abft_linalg::rng::seeded_rng(4);
        let before = net.accuracy(&test);
        for _ in 0..450 {
            let batch = train.sample_batch(&mut rng, 32);
            let (_, grad) = loss_and_gradient_of(&net, &train, &batch);
            let params = &net.params() - &grad.scale(0.5);
            net.set_params(&params);
        }
        let after = net.accuracy(&test);
        assert!(
            after > 0.85 && after > before,
            "accuracy went {before} -> {after}"
        );
    }

    #[test]
    fn accuracy_of_empty_dataset_is_zero() {
        let net = Mlp::new(&[2, 2], 0).unwrap();
        let empty = Dataset::new(vec![], vec![], 2).unwrap();
        assert_eq!(net.accuracy(&empty), 0.0);
    }
}
