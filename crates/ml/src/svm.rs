//! Linear multiclass SVM (one-vs-rest hinge loss).
//!
//! The second model family of the paper's learning experiments (Section 5
//! mentions distributed SVM training). Convex — unlike the MLP — so it also
//! serves as a differentiable-but-non-quadratic sanity check for the
//! filters.

use crate::dataset::Dataset;
use crate::dsgd::{check_gradient_call, check_params, Model};
use crate::error::MlError;
use crate::net::argmax;
use abft_linalg::{rowops, Matrix, Vector};
use std::cell::Cell;
use std::fmt;

/// A linear classifier with per-class weight rows, trained with the
/// multiclass hinge loss
///
/// `L = (1/m)·Σ_k Σ_{j≠y_k} max(0, 1 + w_j·x_k − w_{y_k}·x_k) + (reg/2)·‖W‖²`.
pub struct LinearSvm {
    weights: Matrix, // classes × dim
    reg: f64,
    /// One sample's class scores: taken for a call and put back.
    scores: Cell<Vec<f64>>,
}

impl LinearSvm {
    /// Creates a zero-initialized SVM.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidConfig`] for zero classes/dimension or
    /// negative regularization.
    pub fn new(dim: usize, classes: usize, reg: f64) -> Result<Self, MlError> {
        if dim == 0 || classes == 0 {
            return Err(MlError::InvalidConfig {
                reason: "dimension and class count must be positive".into(),
            });
        }
        if reg < 0.0 {
            return Err(MlError::InvalidConfig {
                reason: format!("regularization must be non-negative, got {reg}"),
            });
        }
        Ok(LinearSvm {
            weights: Matrix::zeros(classes, dim),
            reg,
            scores: Cell::default(),
        })
    }

    /// Predicted class: `argmax_j w_j·x`.
    pub fn predict(&self, x: &Vector) -> usize {
        let mut scores = self.take_scores();
        self.scores_into(x, &mut scores);
        let class = argmax(&scores);
        self.scores.set(scores);
        class
    }

    /// The scores scratch, one slot per class.
    fn take_scores(&self) -> Vec<f64> {
        let mut scores = self.scores.take();
        scores.resize(self.classes(), 0.0);
        scores
    }

    /// `w_j·x` for every class `j`, each summed from `−0.0` in feature
    /// order (the `Iterator::sum` fold).
    fn scores_into(&self, x: &Vector, scores: &mut [f64]) {
        let rows = self.weights.as_slice().chunks_exact(self.input_dim());
        for (score, row) in scores.iter_mut().zip(rows) {
            *score = row.iter().zip(x.iter()).map(|(w, x)| w * x).sum();
        }
    }
}

impl Clone for LinearSvm {
    /// Clones the parameters; the clone starts with an empty scratch.
    fn clone(&self) -> Self {
        LinearSvm {
            weights: self.weights.clone(),
            reg: self.reg,
            scores: Cell::default(),
        }
    }
}

impl fmt::Debug for LinearSvm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LinearSvm")
            .field("weights", &self.weights)
            .field("reg", &self.reg)
            .finish_non_exhaustive()
    }
}

impl Model for LinearSvm {
    fn param_dim(&self) -> usize {
        self.weights.rows() * self.weights.cols()
    }

    fn input_dim(&self) -> usize {
        self.weights.cols()
    }

    fn classes(&self) -> usize {
        self.weights.rows()
    }

    fn params(&self) -> Vector {
        Vector::from(self.weights.as_slice())
    }

    fn set_params(&mut self, params: &Vector) {
        check_params(params, self.param_dim());
        self.weights
            .as_mut_slice()
            .copy_from_slice(params.as_slice());
    }

    fn loss_and_gradient_into(&self, data: &Dataset, batch: &[usize], out: &mut [f64]) -> f64 {
        check_gradient_call(batch, out, self.param_dim());
        debug_assert!(data.classes() <= self.classes(), "labels past the scores");
        let dim = self.input_dim();
        let scale = 1.0 / batch.len() as f64;
        let mut loss = 0.0;
        out.fill(0.0);

        let mut scores = self.take_scores();
        for &idx in batch {
            let x = data.feature(idx);
            let y = data.label(idx);
            self.scores_into(x, &mut scores);
            let Some(&score_y) = scores.get(y) else {
                continue;
            };
            // ∂/∂w_j += x for every violated margin j, and ∂/∂w_y −= x once
            // per violation — rows are disjoint, so the y row's
            // subtractions may follow the others in the same order.
            let mut violations = 0usize;
            let rows = out.chunks_exact_mut(dim).zip(&scores).enumerate();
            for (_, (row, &score_j)) in rows.filter(|&(j, _)| j != y) {
                let margin = 1.0 + score_j - score_y;
                if margin > 0.0 {
                    loss += margin * scale;
                    violations += 1;
                    for (g, xc) in row.iter_mut().zip(x.iter()) {
                        *g += scale * xc;
                    }
                }
            }
            if let Some(row) = out.get_mut(y * dim..(y + 1) * dim) {
                for _ in 0..violations {
                    for (g, xc) in row.iter_mut().zip(x.iter()) {
                        *g -= scale * xc;
                    }
                }
            }
        }
        self.scores.set(scores);

        // Regularization.
        let weights = self.weights.as_slice();
        loss += 0.5 * self.reg * rowops::norm_sq(weights);
        for (g, w) in out.iter_mut().zip(weights) {
            *g += w * self.reg;
        }
        loss
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
        assert!(LinearSvm::new(0, 2, 0.0).is_err());
        assert!(LinearSvm::new(2, 0, 0.0).is_err());
        assert!(LinearSvm::new(2, 3, -0.1).is_err());
        let svm = LinearSvm::new(4, 3, 0.01).unwrap();
        assert_eq!(svm.param_dim(), 12);
        assert_eq!(svm.classes(), 3);
        assert_eq!(svm.input_dim(), 4);
    }

    #[test]
    fn params_round_trip() {
        let mut svm = LinearSvm::new(3, 2, 0.0).unwrap();
        let p = Vector::from(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        svm.set_params(&p);
        assert!(svm.params().approx_eq(&p, 0.0));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let (train, _) = DatasetSpec::tiny().generate(8);
        let mut svm = LinearSvm::new(16, 10, 0.05).unwrap();
        // Non-zero parameters so hinges are active on both sides.
        let p0 = Vector::from_fn(svm.param_dim(), |k| ((k % 7) as f64 - 3.0) * 0.05);
        svm.set_params(&p0);
        let batch: Vec<usize> = (0..6).collect();
        let (_, grad) = loss_and_gradient_of(&svm, &train, &batch);
        let h = 1e-6;
        for &k in &[0usize, 31, 64, 120, 159] {
            let mut pp = p0.clone();
            pp[k] += h;
            let mut plus = svm.clone();
            plus.set_params(&pp);
            let mut pm = p0.clone();
            pm[k] -= h;
            let mut minus = svm.clone();
            minus.set_params(&pm);
            let (lp, _) = loss_and_gradient_of(&plus, &train, &batch);
            let (lm, _) = loss_and_gradient_of(&minus, &train, &batch);
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - grad[k]).abs() < 1e-4 * (1.0 + fd.abs()),
                "coordinate {k}: fd {fd} vs analytic {}",
                grad[k]
            );
        }
    }

    #[test]
    fn zero_classifier_loss_is_hinge_at_margin_one() {
        let (train, _) = DatasetSpec::tiny().generate(2);
        let svm = LinearSvm::new(16, 10, 0.0).unwrap();
        let batch: Vec<usize> = (0..10).collect();
        let (loss, _) = loss_and_gradient_of(&svm, &train, &batch);
        // All scores zero ⇒ every one of the 9 wrong classes contributes 1.
        assert!((loss - 9.0).abs() < 1e-12);
    }

    #[test]
    fn sgd_learns_the_tiny_task() {
        let (train, test) = DatasetSpec::tiny().generate(6);
        let mut svm = LinearSvm::new(16, 10, 0.001).unwrap();
        let mut rng = abft_linalg::rng::seeded_rng(3);
        for _ in 0..400 {
            let batch = train.sample_batch(&mut rng, 32);
            let (_, grad) = loss_and_gradient_of(&svm, &train, &batch);
            let params = &svm.params() - &grad.scale(0.1);
            svm.set_params(&params);
        }
        let acc = svm.accuracy(&test);
        assert!(acc > 0.85, "svm accuracy {acc}");
    }
}
