//! A from-scratch multilayer perceptron with reverse-mode backprop.
//!
//! Dense layers with ReLU activations and a softmax cross-entropy head —
//! the documented substitution for the paper's LeNet (`DESIGN.md` §4):
//! gradient filters only see parameter-gradient vectors, and the MLP
//! preserves non-convexity, softmax loss, and mini-batch stochasticity at a
//! size that trains on a laptop.

use crate::dataset::Dataset;
use crate::dsgd::Model;
use crate::error::MlError;
use abft_linalg::rng::{seeded_rng, standard_normal};
use abft_linalg::{Matrix, Vector};

/// One dense layer `z = W·a + b`.
#[derive(Debug, Clone)]
struct DenseLayer {
    weights: Matrix, // out × in
    biases: Vector,  // out
}

impl DenseLayer {
    /// He-style initialization.
    fn new(input: usize, output: usize, rng: &mut rand::rngs::StdRng) -> Self {
        let scale = (2.0 / input as f64).sqrt();
        DenseLayer {
            weights: Matrix::from_fn(output, input, |_, _| scale * standard_normal(rng)),
            biases: Vector::zeros(output),
        }
    }

    fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.biases.dim()
    }
}

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
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
    sizes: Vec<usize>,
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
        let mut rng = seeded_rng(seed);
        let layers = sizes
            .windows(2)
            .map(|w| DenseLayer::new(w[0], w[1], &mut rng))
            .collect();
        Ok(Mlp {
            layers,
            sizes: sizes.to_vec(),
        })
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        *self.sizes.last().expect("at least two sizes")
    }

    /// Forward pass returning every layer's post-activation output
    /// (`activations[0]` is the input itself; the final entry is the
    /// pre-softmax logits).
    fn forward(&self, x: &Vector) -> Vec<Vector> {
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(x.clone());
        for (l, layer) in self.layers.iter().enumerate() {
            let mut z = layer
                .weights
                .matvec(activations.last().expect("non-empty"))
                .expect("layer shapes are consistent");
            z += &layer.biases;
            // ReLU on hidden layers; logits stay linear.
            if l + 1 < self.layers.len() {
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

    /// Numerically stable softmax.
    fn softmax(logits: &Vector) -> Vector {
        let max = logits.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let exps: Vec<f64> = logits.iter().map(|&v| (v - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        Vector::from(exps.into_iter().map(|e| e / sum).collect::<Vec<_>>())
    }

    /// Predicted class for one sample.
    pub fn predict(&self, x: &Vector) -> usize {
        let activations = self.forward(x);
        let logits = activations.last().expect("non-empty");
        (0..logits.dim())
            .max_by(|&i, &j| logits[i].total_cmp(&logits[j]))
            .expect("at least one class")
    }
}

impl Model for Mlp {
    fn param_dim(&self) -> usize {
        self.layers.iter().map(DenseLayer::param_count).sum()
    }

    fn params(&self) -> Vector {
        let mut flat = Vec::with_capacity(self.param_dim());
        for layer in &self.layers {
            flat.extend_from_slice(layer.weights.as_slice());
            flat.extend_from_slice(layer.biases.as_slice());
        }
        Vector::from(flat)
    }

    fn set_params(&mut self, params: &Vector) {
        assert_eq!(params.dim(), self.param_dim(), "parameter vector length");
        let mut rest = params.as_slice();
        for layer in &mut self.layers {
            let (weights, tail) = rest.split_at(layer.weights.as_slice().len());
            let (biases, tail) = tail.split_at(layer.biases.dim());
            layer.weights.as_mut_slice().copy_from_slice(weights);
            layer.biases.as_mut_slice().copy_from_slice(biases);
            rest = tail;
        }
    }

    fn loss_and_gradient_into(&self, data: &Dataset, batch: &[usize], out: &mut [f64]) -> f64 {
        assert!(!batch.is_empty(), "empty mini-batch");
        assert_eq!(out.len(), self.param_dim(), "gradient buffer length");
        let scale = 1.0 / batch.len() as f64;
        let mut total_loss = 0.0;
        out.fill(0.0);

        for &idx in batch {
            let x = data.feature(idx);
            let y = data.label(idx);
            let activations = self.forward(x);
            let logits = activations.last().expect("non-empty");
            let probs = Self::softmax(logits);
            total_loss += -(probs[y].max(1e-300)).ln();

            // δ at the logits: softmax cross-entropy gradient.
            let mut delta = probs;
            delta[y] -= 1.0;

            // Backwards through the layers, and so backwards through
            // `out`: layer l's block is `[weights, row-major | biases]`,
            // the params() layout.
            let mut block_end = out.len();
            for l in (0..self.layers.len()).rev() {
                let input = &activations[l];
                let block_start = block_end - self.layers[l].param_count();
                let (grad_w, grad_b) =
                    out[block_start..block_end].split_at_mut(delta.dim() * input.dim());
                block_end = block_start;
                // dW += δ ⊗ input, db += δ.
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
                    // Propagate: δ_prev = Wᵀ δ, gated by ReLU (input > 0).
                    let mut prev = self.layers[l]
                        .weights
                        .matvec_t(&delta)
                        .expect("consistent shapes");
                    for c in 0..prev.dim() {
                        if activations[l][c] <= 0.0 {
                            prev[c] = 0.0;
                        }
                    }
                    delta = prev;
                }
            }
        }
        total_loss * scale
    }

    fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = (0..data.len())
            .filter(|&i| self.predict(data.feature(i)) == data.label(i))
            .count();
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
        let s = Mlp::softmax(&Vector::from(vec![1.0, 2.0, 3.0]));
        assert!((s.sum() - 1.0).abs() < 1e-12);
        assert!(s.iter().all(|&p| p > 0.0));
        assert!(s[2] > s[1] && s[1] > s[0]);
        // Stability at extreme logits.
        let s = Mlp::softmax(&Vector::from(vec![1000.0, 0.0]));
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
