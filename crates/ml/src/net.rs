//! A from-scratch multilayer perceptron with reverse-mode backprop.
//!
//! Dense layers with ReLU activations and a softmax cross-entropy head —
//! the substitution for the paper's LeNet: gradient filters only see
//! parameter-gradient vectors, and the MLP preserves non-convexity,
//! softmax loss, and mini-batch stochasticity at a size that trains on a
//! laptop.
//!
//! # The kernel
//!
//! The parameters are one flat vector in the [`Model::params`] layout —
//! each layer's `[weights (out × in, row-major) | biases]` in turn — and a
//! layer is a set of offset views into it, plus one packed copy of its
//! `Wᵀ` in panels of 16 outputs. A `loss_and_gradient_into`,
//! `accuracy` or `predict` call is one [`simd::Kernel`], run once per call
//! at the widest vector width the CPU reports ([`simd::widest`]); the
//! width only picks how many values each register block holds, so every
//! width gives the SSE2 baseline's bits.
//!
//! - **Forward.** A mini-batch crosses each layer as one `b × in` panel,
//!   four samples × one slice of a weight panel at a time: 4 outputs
//!   at SSE2, 8 at AVX2, all 16 at AVX-512 — eight vector accumulators at
//!   every width, each lane its own add chain.
//! - **Backward**, layer by layer: each `dW` row is cut into chunks of up
//!   to eight vectors (16, 32 or 64 columns) that stay in registers across
//!   the batch's samples, in batch order, and are stored once; each
//!   sample's `δ_prev = Wᵀδ` is cut the same way, a chunk staying in
//!   registers across the layer's outputs, in output order, through the
//!   row-major weights.
//!
//! Softmax, the loss and the logits' δ run per sample in between. The
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
//!   `db` — the register chunks skip it by multiplying zeros instead of
//!   the activations, which adds `±0.0` to a sum that, started at `+0.0`,
//!   is never `−0.0`: the same bits;
//! - `δ_prev[j]` is `0.0 + Σᵢ W[i][j]·δ[i]` in `i` order, then zeroed
//!   where the layer's input is `≤ 0.0`;
//! - [`Mlp::predict`] is a panel of one; of equal logits it picks the last
//!   under `total_cmp`.

use crate::dataset::Dataset;
use crate::dsgd::{check_gradient_call, check_params, Model};
use crate::error::MlError;
use abft_linalg::rng::{seeded_rng, standard_normal};
use abft_linalg::simd::{self, Kernel, Width};
use abft_linalg::Vector;
use std::cell::Cell;
use std::fmt;
use std::hint::select_unpredictable;

/// Samples per forward block: the activation panels hold a multiple of it
/// (zero rows pad the last block), and each block crosses a layer with
/// four broadcasts per input.
const BLOCK: usize = 4;
/// Outputs per packed weight panel: the AVX-512 forward slice, which the
/// narrower widths walk in slices of 4 (SSE2) or 8 (AVX2). One layout
/// serves every width, so it does not depend on the CPU: a panel as wide
/// as the slice measured within 2 % of this one at AVX2 and at SSE2.
const PANEL: usize = 16;
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
    /// Each layer's `Wᵀ` cut into panels of [`PANEL`] outputs: panel `p`
    /// holds, input by input, the weights of outputs `16p … 16p + 15`
    /// (zero past the last output).
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

    /// Predicted class for one sample.
    pub fn predict(&self, x: &Vector) -> usize {
        self.pass(Predict { x })
    }

    /// Runs `job` at the widest vector width the CPU reports, in the
    /// scratch the model owns.
    fn pass<J: Job>(&self, job: J) -> J::Output {
        let mut scratch = self.scratch.take();
        let output = simd::widest(Pass {
            net: self,
            width: Width::detected(),
            scratch: &mut scratch,
            job,
        });
        self.scratch.set(scratch);
        output
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
                .chunks_exact_mut(PANEL * inputs)
                .zip(weights.chunks(PANEL * inputs));
            for (panel, rows) in blocks {
                panel.fill(0.0);
                for (lane, row) in rows.chunks_exact(inputs).enumerate() {
                    let slots = panel.iter_mut().skip(lane).step_by(PANEL);
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
    /// over them at `width`, block by block. A sample of the wrong width
    /// is cut or zero-padded to [`Model::input_dim`].
    #[inline(always)]
    fn forward<'x>(
        &self,
        inputs: impl Iterator<Item = &'x Vector>,
        acts: &mut [f64],
        rows: usize,
        width: Width,
    ) {
        let (input, mut rest) = acts.split_at_mut(rows * self.input_dim());
        let mut slots = input.chunks_exact_mut(self.input_dim());
        for (slot, x) in slots.by_ref().zip(inputs) {
            let (head, tail) = slot.split_at_mut(x.dim().min(slot.len()));
            for (s, &v) in head.iter_mut().zip(x.as_slice()) {
                *s = v;
            }
            tail.fill(0.0);
        }
        slots.for_each(|slot| slot.fill(0.0));

        let hidden = self.sizes.len() - 2;
        let mut input: &[f64] = input;
        for (l, layer) in self.layers().enumerate() {
            let (output, tail) = std::mem::take(&mut rest).split_at_mut(rows * layer.outputs);
            let blocks = (input.chunks_exact(BLOCK * layer.inputs))
                .zip(output.chunks_exact_mut(BLOCK * layer.outputs));
            for (src, dst) in blocks {
                layer.forward_block(src, dst, l < hidden, width);
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

/// One call's arithmetic — [`Job`] — through `net`, compiled at every
/// [`Width`]: the kernel [`Mlp::pass`] hands [`simd::widest`]. `width` is
/// the width it runs at, which sizes the register blocks.
struct Pass<'a, J> {
    net: &'a Mlp,
    width: Width,
    scratch: &'a mut Vec<f64>,
    job: J,
}

impl<J: Job> Kernel for Pass<'_, J> {
    type Output = J::Output;

    #[inline(always)]
    fn compute(self) -> J::Output {
        let Pass {
            net,
            width,
            scratch,
            job,
        } = self;
        job.run_through(net, width, scratch)
    }
}

/// What a [`Pass`] computes: the body of one public call, inlined into
/// each width's copy of [`Pass::compute`].
trait Job {
    /// What the call returns.
    type Output;

    /// Runs the call's arithmetic at `width`, in `scratch`.
    fn run_through(self, net: &Mlp, width: Width, scratch: &mut Vec<f64>) -> Self::Output;
}

/// [`Model::loss_and_gradient_into`]: the mean loss of `batch`, its
/// gradient written into `out`.
struct Gradient<'a> {
    data: &'a Dataset,
    batch: &'a [usize],
    out: &'a mut [f64],
}

impl Job for Gradient<'_> {
    type Output = f64;

    #[inline(always)]
    fn run_through(self, net: &Mlp, width: Width, scratch: &mut Vec<f64>) -> f64 {
        let Gradient { data, batch, out } = self;
        let scale = 1.0 / batch.len() as f64;
        out.fill(0.0);

        let (samples, classes) = (batch.len(), net.classes());
        let rows = samples.next_multiple_of(BLOCK);
        // δ rows: a layer's outputs, or the inputs of a layer past the first.
        let widest = net.sizes.iter().skip(1).copied().max().unwrap_or_default();
        let (acts, deltas) = net.panels(scratch, rows, 2 * samples * widest);
        net.forward(batch.iter().map(|&i| data.feature(i)), acts, rows, width);
        let (mut delta, mut prev) = deltas.split_at_mut(samples * widest);

        // Softmax, loss and δ at the logits, sample by sample.
        let mut total_loss = 0.0;
        let logits = net.logits(acts, rows);
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
        for layer in net.layers().rev() {
            let (rest, inputs) = below.split_at(below.len() - rows * layer.inputs);
            let at = grad_below.len() - layer.weights.len() - layer.outputs;
            let (grad_rest, grad) = std::mem::take(&mut grad_below).split_at_mut(at);
            let deltas = delta.split_at(samples * layer.outputs).0;
            // The first layer (nothing below it) passes no δ back.
            let prevs = (!rest.is_empty()).then(|| prev.split_at_mut(samples * layer.inputs).0);
            layer.backward(grad, inputs, deltas, prevs, scale, width);
            (below, grad_below) = (rest, grad_rest);
            std::mem::swap(&mut delta, &mut prev);
        }
        total_loss * scale
    }
}

/// [`Model::accuracy`]'s count: how many samples of `data` the network
/// classifies right, [`EVAL_PANEL`] at a time.
struct Hits<'a> {
    data: &'a Dataset,
}

impl Job for Hits<'_> {
    type Output = usize;

    #[inline(always)]
    fn run_through(self, net: &Mlp, width: Width, scratch: &mut Vec<f64>) -> usize {
        let data = self.data;
        let mut correct = 0;
        for start in (0..data.len()).step_by(EVAL_PANEL) {
            let samples = start..data.len().min(start + EVAL_PANEL);
            let rows = samples.len().next_multiple_of(BLOCK);
            let (acts, _) = net.panels(scratch, rows, 0);
            net.forward(samples.clone().map(|i| data.feature(i)), acts, rows, width);
            let hits =
                (net.logits(acts, rows).zip(samples)).filter(|&(z, i)| argmax(z) == data.label(i));
            correct += hits.count();
        }
        correct
    }
}

/// [`Mlp::predict`]: the class of `x`, as a panel of one.
struct Predict<'a> {
    x: &'a Vector,
}

impl Job for Predict<'_> {
    type Output = usize;

    #[inline(always)]
    fn run_through(self, net: &Mlp, width: Width, scratch: &mut Vec<f64>) -> usize {
        let (acts, _) = net.panels(scratch, BLOCK, 0);
        net.forward(std::iter::once(self.x), acts, BLOCK, width);
        net.logits(acts, BLOCK).next().map_or(0, argmax)
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
    outputs.div_ceil(PANEL) * PANEL * inputs
}

impl Layer<'_> {
    /// Runs one block of [`BLOCK`] samples through the layer: `src` holds
    /// their inputs (`4 × inputs`), `dst` receives their outputs
    /// (`4 × outputs`), ReLU'd when `relu` — in panel slices of 4, 8 or 16
    /// outputs at the baseline, AVX2 or AVX-512 `width`: eight vector
    /// accumulators at each.
    #[inline(always)]
    fn forward_block(&self, src: &[f64], dst: &mut [f64], relu: bool, width: Width) {
        match width {
            Width::Baseline => self.forward_baseline(src, dst, relu),
            Width::Avx2 => self.forward_slices::<8>(src, dst, relu),
            Width::Avx512 => self.forward_slices::<16>(src, dst, relu),
        }
    }

    /// The baseline's [`Layer::forward_slices`], compiled as a function
    /// of its own: inlined into the whole pass, LLVM packs two samples
    /// per SSE2 register and spends a shuffle per weight, about a fifth
    /// slower than the one-sample-per-register code it gets here.
    #[inline(never)]
    fn forward_baseline(&self, src: &[f64], dst: &mut [f64], relu: bool) {
        self.forward_slices::<4>(src, dst, relu);
    }

    /// [`Layer::forward_block`] in slices of `S` outputs: every slice of
    /// every panel that holds an output, its 4 × `S` sums in registers.
    #[inline(always)]
    fn forward_slices<const S: usize>(&self, src: &[f64], dst: &mut [f64], relu: bool) {
        let mut src = src.chunks_exact(self.inputs);
        let x = [(); BLOCK].map(|()| src.next().unwrap_or_default());
        let mut dst = dst.chunks_exact_mut(self.outputs);
        let mut z = [(); BLOCK].map(|()| dst.next().unwrap_or_default());
        let panels = self.packed.chunks_exact(PANEL * self.inputs);
        for (p, panel) in panels.enumerate() {
            for q in 0..PANEL / S {
                let first = p * PANEL + q * S;
                if first >= self.outputs {
                    break;
                }
                let bias = self.biases.get(first..).unwrap_or_default();
                for (z, sums) in z.iter_mut().zip(dot_slice::<S>(x, panel, q)) {
                    let z = z.get_mut(first..).unwrap_or_default();
                    for ((z, sum), b) in z.iter_mut().zip(sums).zip(bias) {
                        let v = sum + b;
                        *z = if relu && v < 0.0 { 0.0 } else { v };
                    }
                }
            }
        }
    }

    /// Adds this layer's gradient over the samples to `grad` (its
    /// `[dW | db]` block) and, given `prevs`, writes each sample's
    /// `δ_prev` there. `inputs` holds the samples' inputs to the layer and
    /// `deltas` their δ at its outputs, one row per sample. Both are
    /// filled in chunks of eight of `width`'s vector registers
    /// ([`fill_chunks`]).
    #[inline(always)]
    fn backward(
        &self,
        grad: &mut [f64],
        inputs: &[f64],
        deltas: &[f64],
        prevs: Option<&mut [f64]>,
        scale: f64,
        width: Width,
    ) {
        let widest = match width {
            Width::Baseline => 16,
            Width::Avx2 => 32,
            Width::Avx512 => CHUNK,
        };
        let (grad_w, grad_b) = grad.split_at_mut(self.weights.len());
        for delta in deltas.chunks_exact(self.outputs) {
            for (b, &delta_i) in grad_b.iter_mut().zip(delta) {
                *b += delta_i * scale;
            }
        }
        for (i, row) in grad_w.chunks_exact_mut(self.inputs).enumerate() {
            let sums = WeightRow {
                i,
                inputs,
                deltas,
                shape: (self.inputs, self.outputs),
                scale,
            };
            fill_chunks(sums, row, widest);
        }
        let Some(prevs) = prevs else {
            return;
        };
        let samples = (prevs.chunks_exact_mut(self.inputs))
            .zip(deltas.chunks_exact(self.outputs))
            .zip(inputs.chunks_exact(self.inputs));
        for ((prev, delta), a) in samples {
            let sums = PrevRow {
                weights: self.weights,
                inputs: self.inputs,
                delta,
                a,
            };
            fill_chunks(sums, prev, widest);
        }
    }
}

/// `Σₖ w[k][o]·x_s[k]` for four samples `s` × the `S` outputs `o` of
/// slice `q` of one packed panel: 4·`S` independent add chains, each
/// `−0.0`-started and in `k` order — the fold `Iterator::sum` runs.
#[inline(always)]
fn dot_slice<const S: usize>(x: [&[f64]; BLOCK], panel: &[f64], q: usize) -> [[f64; S]; BLOCK] {
    let [x0, x1, x2, x3] = x;
    let (rows, _) = panel.as_chunks::<PANEL>();
    let mut sums = [[-0.0; S]; BLOCK];
    for ((((a0, a1), a2), a3), row) in x0.iter().zip(x1).zip(x2).zip(x3).zip(rows) {
        let Some(w) = row.as_chunks::<S>().0.get(q) else {
            continue;
        };
        for (sum, a) in sums.iter_mut().zip([a0, a1, a2, a3]) {
            for (s, w) in sum.iter_mut().zip(w) {
                *s += w * a;
            }
        }
    }
    sums
}

/// Most columns a backward chunk holds: eight AVX-512 vectors.
const CHUNK: usize = 64;
/// The lanes a zero `δ·scale` multiplies instead of the activations.
const ZEROS: [f64; CHUNK] = [0.0; CHUNK];

/// One row of backward sums, computed a register chunk at a time.
trait Chunked: Copy {
    /// Columns `at .. at + N` of the row into `out`, their `N` sums in
    /// registers until the one store. Returns `N`.
    fn sum_lanes<const N: usize>(self, out: &mut [f64], at: usize) -> usize;
}

/// Fills `out` with the row `sums`: chunks of 64, 32, 16 or 8 columns, none
/// wider than `widest`, then the last `< 8` columns one at a time.
#[inline(always)]
fn fill_chunks<C: Chunked>(sums: C, out: &mut [f64], widest: usize) {
    let mut at = 0;
    while let Some(left) = out.len().checked_sub(at).filter(|&left| left > 0) {
        at += match left.min(widest) {
            CHUNK.. => sums.sum_lanes::<CHUNK>(out, at),
            32.. => sums.sum_lanes::<32>(out, at),
            16.. => sums.sum_lanes::<16>(out, at),
            8.. => sums.sum_lanes::<8>(out, at),
            _ => sums.sum_lanes::<1>(out, at),
        };
    }
}

/// Row `i` of a layer's `dW`: `dW[i][j] = Σ_s δ_s[i]·scale · a_s[j]`
/// over the samples in batch order from `+0.0`, a zero `δ·scale` skipped.
#[derive(Clone, Copy)]
struct WeightRow<'a> {
    i: usize,
    /// The samples' inputs to the layer, one row of `inputs` each.
    inputs: &'a [f64],
    /// The samples' δ at the layer's outputs, one row of `outputs` each.
    deltas: &'a [f64],
    /// `(inputs, outputs)`.
    shape: (usize, usize),
    scale: f64,
}

impl Chunked for WeightRow<'_> {
    /// A zero `δ·scale` multiplies [`ZEROS`] instead of the sample's
    /// activations, picked without a branch: the skip's bits, as
    /// `sum + ±0.0` is `sum` for a sum that starts at `+0.0` (and so is
    /// never `−0.0`), and no non-finite activation is touched. Half the
    /// hidden δs are zero, in no order a branch predictor learns.
    #[inline(always)]
    fn sum_lanes<const N: usize>(self, out: &mut [f64], at: usize) -> usize {
        let (inputs, outputs) = self.shape;
        let mut sums = [0.0; N];
        let zeros = ZEROS.first_chunk::<N>();
        let deltas = self.deltas.chunks_exact(outputs);
        for (delta, a) in deltas.zip(self.inputs.chunks_exact(inputs)) {
            let d = delta
                .get(self.i)
                .map_or(0.0, |&delta_i| delta_i * self.scale);
            let a = a.get(at..).and_then(<[f64]>::first_chunk::<N>);
            let (Some(a), Some(zeros)) = (a, zeros) else {
                continue;
            };
            let a = select_unpredictable(d != 0.0, a, zeros);
            for (s, a) in sums.iter_mut().zip(a) {
                *s += d * a;
            }
        }
        store(out, at, &sums);
        N
    }
}

/// One sample's `δ_prev = Wᵀδ`, gated by the ReLU of its input `a`:
/// `δ_prev[j] = 0.0 + Σᵢ W[i][j]·δ[i]` in output order, then zero where
/// `a[j] ≤ 0.0`.
#[derive(Clone, Copy)]
struct PrevRow<'a> {
    /// The layer's weights, `outputs × inputs`, row-major.
    weights: &'a [f64],
    inputs: usize,
    /// The sample's δ at the layer's outputs.
    delta: &'a [f64],
    /// The sample's input to the layer.
    a: &'a [f64],
}

impl Chunked for PrevRow<'_> {
    #[inline(always)]
    fn sum_lanes<const N: usize>(self, out: &mut [f64], at: usize) -> usize {
        let mut sums = [0.0; N];
        for (w, &delta_i) in self.weights.chunks_exact(self.inputs).zip(self.delta) {
            let Some(w) = w.get(at..).and_then(<[f64]>::first_chunk::<N>) else {
                continue;
            };
            for (s, w) in sums.iter_mut().zip(w) {
                *s += w * delta_i;
            }
        }
        if let Some(a) = self.a.get(at..).and_then(<[f64]>::first_chunk::<N>) {
            for (s, &a) in sums.iter_mut().zip(a) {
                *s = gate(*s, a);
            }
        }
        store(out, at, &sums);
        N
    }
}

/// The ReLU gate: no gradient flows into an inactive input.
#[inline(always)]
fn gate(sum: f64, a: f64) -> f64 {
    if a <= 0.0 {
        0.0
    } else {
        sum
    }
}

/// Writes `sums` into `out[at..at + N]`.
#[inline(always)]
fn store<const N: usize>(out: &mut [f64], at: usize, sums: &[f64; N]) {
    if let Some(out) = out.get_mut(at..).and_then(<[f64]>::first_chunk_mut::<N>) {
        *out = *sums;
    }
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

    fn input_dim(&self) -> usize {
        self.sizes.first().copied().unwrap_or_default()
    }

    fn classes(&self) -> usize {
        self.sizes.last().copied().unwrap_or_default()
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
        self.pass(Gradient { data, batch, out })
    }

    fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        self.pass(Hits { data }) as f64 / data.len() as f64
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

    /// `job` through `net` at `width`, or `None` when the CPU lacks it.
    fn at<J: Job>(width: Width, net: &Mlp, job: J) -> Option<J::Output> {
        let mut scratch = Vec::new();
        let pass = Pass {
            net,
            width,
            scratch: &mut scratch,
            job,
        };
        width.call(pass).ok()
    }

    /// Every width this CPU runs, narrowest (the baseline) first.
    fn widths() -> impl Iterator<Item = Width> {
        Width::ALL.into_iter().filter(|w| w.is_supported())
    }

    /// The per-sample reference: every layer boundary's activations of
    /// `x`, each output a weight row's `Iterator::sum` with `x`, `+ b`,
    /// ReLU'd below the logits.
    fn matvec_activations(net: &Mlp, x: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = vec![x.to_vec()];
        let hidden = net.sizes.len() - 2;
        for (l, layer) in net.layers().enumerate() {
            let a = acts.last().unwrap();
            let rows = layer.weights.chunks_exact(layer.inputs);
            let z = rows.zip(layer.biases).map(|(w, b)| {
                let v = w.iter().zip(a).map(|(w, a)| w * a).sum::<f64>() + b;
                if l < hidden && v < 0.0 {
                    0.0
                } else {
                    v
                }
            });
            acts.push(z.collect());
        }
        acts
    }

    /// The per-sample reference's loss and gradient of `batch`: forward,
    /// softmax, then `dW += δ ⊗ a` and `δ_prev = Wᵀδ` layer by layer.
    fn matvec_gradient(net: &Mlp, data: &Dataset, batch: &[usize]) -> (f64, Vec<f64>) {
        let mut out = vec![0.0; net.param_dim()];
        let scale = 1.0 / batch.len() as f64;
        let mut loss = 0.0;
        for &i in batch {
            let acts = matvec_activations(net, data.feature(i).as_slice());
            let mut delta = vec![0.0; net.classes()];
            softmax_into(acts.last().unwrap(), &mut delta);
            let y = data.label(i);
            loss += -(delta[y].max(1e-300)).ln();
            delta[y] -= 1.0;
            let layers: Vec<Layer<'_>> = net.layers().collect();
            for (l, layer) in layers.iter().enumerate().rev() {
                let (at, _) = net.offsets[l];
                let block = &mut out[at..at + layer.weights.len() + layer.outputs];
                let (grad_w, grad_b) = block.split_at_mut(layer.weights.len());
                let rows = grad_w.chunks_exact_mut(layer.inputs).zip(grad_b);
                for ((g, b), &delta_i) in rows.zip(&delta) {
                    let d = delta_i * scale;
                    if d != 0.0 {
                        for (g, a) in g.iter_mut().zip(&acts[l]) {
                            *g += d * a;
                        }
                    }
                    *b += d;
                }
                let mut prev = vec![0.0; layer.inputs];
                for (w, &delta_i) in layer.weights.chunks_exact(layer.inputs).zip(&delta) {
                    for (p, w) in prev.iter_mut().zip(w) {
                        *p += w * delta_i;
                    }
                }
                for (p, &a) in prev.iter_mut().zip(&acts[l]) {
                    if a <= 0.0 {
                        *p = 0.0;
                    }
                }
                delta = prev;
            }
        }
        (loss * scale, out)
    }

    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(same_bits(*g, *w), "{what}[{k}]: {g:e} vs {w:e}");
        }
    }

    /// How [`draw`] picks the parameters.
    #[derive(Clone, Copy, Debug)]
    enum Draw {
        /// He initialisation: [`Mlp::new`]'s own.
        He,
        /// About a third exact `±0.0`, the rest in `(−2.7, 1.3)`.
        Mixed,
        /// Only `−0.0`, `0.0`, `−1.0` and `1.0`: dead units, zero-skipped
        /// `δ·scale` slots and logits that tie at a signed zero.
        Signs,
        /// `Mixed` times `10¹⁶⁰`: the activations overflow.
        Huge,
    }

    /// Sets `net`'s parameters per `how`, drawn from `seed`.
    fn draw(net: &mut Mlp, seed: u64, how: Draw) {
        use rand::Rng;
        let mut rng = seeded_rng(seed);
        let scale = match how {
            Draw::He => return,
            Draw::Huge => 1e160,
            Draw::Mixed | Draw::Signs => 1.0,
        };
        let params = (0..net.param_dim()).map(|_| {
            let u = rng.gen::<f64>();
            match how {
                Draw::Signs => [-0.0, 0.0, -1.0, 1.0][(u * 4.0) as usize],
                _ if u < 0.2 => -0.0,
                _ if u < 0.35 => 0.0,
                _ => (u - 0.675) * 4.0 * scale,
            }
        });
        net.set_params(&Vector::from(params.collect::<Vec<_>>().as_slice()));
    }

    /// A dataset of `classes` classes in `dim` dimensions whose last
    /// sample is the origin, where every first-layer sum is a sum of
    /// signed zeros.
    fn data_with_origin(classes: usize, dim: usize, seed: u64) -> Dataset {
        let spec = DatasetSpec {
            classes,
            dim,
            train: 24,
            test: 1,
            noise: 0.5,
            separation: 1.0,
            correlation: 0.0,
        };
        let (train, _) = spec.generate(seed);
        let mut features: Vec<Vector> =
            (0..train.len()).map(|i| train.feature(i).clone()).collect();
        let mut labels: Vec<usize> = (0..train.len()).map(|i| train.label(i)).collect();
        features.push(Vector::zeros(dim));
        labels.push(classes - 1);
        Dataset::new(features, labels, classes).unwrap()
    }

    /// Every width gives the baseline's bits, and both give the per-sample
    /// reference's: outputs on and off the 16-wide panels (32, 16 and
    /// 10), odd input widths, batches of 1 to 25 samples (the origin
    /// among them), signed-zero weights and overflowing ones.
    #[test]
    fn every_width_matches_the_baseline_and_the_per_sample_matvec() {
        let shapes: [&[usize]; 4] = [&[17, 32, 16, 10], &[9, 10, 3], &[64, 32, 10], &[3, 16]];
        for (case, sizes) in shapes.into_iter().enumerate() {
            let classes = *sizes.last().unwrap();
            let data = data_with_origin(classes, sizes[0], case as u64);
            for (seed, how) in [
                (1, Draw::He),
                (2, Draw::Mixed),
                (3, Draw::Signs),
                (4, Draw::Huge),
            ] {
                let mut net = Mlp::new(sizes, seed).unwrap();
                draw(&mut net, seed, how);
                for samples in [1, 3, 5, 7, 13, 25] {
                    let batch: Vec<usize> = (0..data.len()).rev().take(samples).collect();
                    let (loss, grad) = matvec_gradient(&net, &data, &batch);
                    for width in widths() {
                        let what = format!("{sizes:?} {how:?}, {samples} samples, {width:?}");
                        let mut out = vec![f64::NAN; net.param_dim()];
                        let job = Gradient {
                            data: &data,
                            batch: &batch,
                            out: &mut out,
                        };
                        let got = at(width, &net, job).unwrap();
                        assert!(same_bits(got, loss), "{what}: loss {got:e} vs {loss:e}");
                        assert_same_bits(&out, &grad, &what);
                    }
                }
                let want: Vec<usize> = (0..data.len())
                    .map(|i| {
                        argmax(
                            matvec_activations(&net, data.feature(i).as_slice())
                                .last()
                                .unwrap(),
                        )
                    })
                    .collect();
                let hits = want
                    .iter()
                    .enumerate()
                    .filter(|&(i, &c)| c == data.label(i))
                    .count();
                for width in widths() {
                    for (i, &class) in want.iter().enumerate() {
                        let x = data.feature(i);
                        assert_eq!(at(width, &net, Predict { x }), Some(class), "{width:?}");
                    }
                    assert_eq!(
                        at(width, &net, Hits { data: &data }),
                        Some(hits),
                        "{width:?}"
                    );
                }
            }
        }
    }

    /// A zero `δ·scale` never multiplies a non-finite input: an input of
    /// `+∞` that every first-layer weight turns into a dead unit gates
    /// the whole δ to zero, and the first layer's `dW` stays `+0.0` at
    /// every width and every chunk size (64, 32, 16, 8 and the tail).
    #[test]
    fn a_zero_delta_never_meets_a_non_finite_input() {
        let mut net = Mlp::new(&[81, 16, 10], 3).unwrap();
        let mut params = net.params();
        params.as_mut_slice()[..81 * 16].fill(-1.0);
        net.set_params(&params);
        let x: Vec<f64> = (0..81)
            .map(|k| if k % 20 == 0 { f64::INFINITY } else { 1.0 })
            .collect();
        let data = Dataset::new(vec![Vector::from(x.as_slice())], vec![4], 10).unwrap();
        let (loss, want) = matvec_gradient(&net, &data, &[0]);
        assert!(loss.is_finite());
        assert!(want[..81 * 16 + 16].iter().all(|&g| g.to_bits() == 0));
        for width in widths() {
            let mut out = vec![f64::NAN; net.param_dim()];
            let job = Gradient {
                data: &data,
                batch: &[0],
                out: &mut out,
            };
            assert!(same_bits(at(width, &net, job).unwrap(), loss), "{width:?}");
            assert_same_bits(&out, &want, &format!("{width:?}"));
        }
    }
}
