//! Deterministic synthetic image-classification datasets.
//!
//! The offline stand-in for MNIST / Fashion-MNIST: each class
//! `y` has a prototype vector `p_y`, and samples are `x = p_y + N(0, σ²·I)`.
//! Class separability — the property that distinguishes MNIST-like (easy)
//! from Fashion-MNIST-like (hard) workloads for the paper's purposes — is
//! controlled by the prototype geometry and the noise level:
//!
//! * `synthetic-mnist`: orthonormal-ish random prototypes, moderate noise;
//! * `synthetic-fashion`: prototypes linearly mixed with their neighbours
//!   (correlated classes) plus higher noise.

use crate::error::MlError;
use abft_linalg::rng::{gaussian_vector, random_unit_vector, seeded_rng};
use abft_linalg::Vector;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// A labelled dataset of feature vectors.
#[derive(Debug, Clone)]
pub struct Dataset {
    features: Vec<Vector>,
    labels: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Creates a dataset from parallel feature/label vectors.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::Shape`] when the lengths disagree, a label is out
    /// of range, or feature dimensions are inconsistent.
    pub fn new(features: Vec<Vector>, labels: Vec<usize>, classes: usize) -> Result<Self, MlError> {
        if features.len() != labels.len() {
            return Err(MlError::Shape {
                expected: format!("{} labels", features.len()),
                actual: format!("{} labels", labels.len()),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&y| y >= classes) {
            return Err(MlError::Shape {
                expected: format!("labels < {classes}"),
                actual: format!("label {bad}"),
            });
        }
        if let Some(first) = features.first() {
            let dim = first.dim();
            if features.iter().any(|x| x.dim() != dim) {
                return Err(MlError::Shape {
                    expected: format!("all features of dim {dim}"),
                    actual: "mixed dimensions".to_string(),
                });
            }
        }
        Ok(Dataset {
            features,
            labels,
            classes,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// `true` when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Feature dimension (0 for an empty dataset).
    pub fn dim(&self) -> usize {
        self.features.first().map_or(0, |x| x.dim())
    }

    /// The `i`-th feature vector.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    // LINT-ALLOW(panic-reach): documented panic contract for caller bugs —
    // callers iterate `0..len()` or sample below `len()`.
    pub fn feature(&self, i: usize) -> &Vector {
        &self.features[i]
    }

    /// The `i`-th label.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    // LINT-ALLOW(panic-reach): documented panic contract for caller bugs —
    // callers iterate `0..len()`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Samples a mini-batch of `size` indices with replacement.
    pub fn sample_batch(&self, rng: &mut StdRng, size: usize) -> Vec<usize> {
        let mut batch = Vec::with_capacity(size);
        self.sample_batch_into(rng, size, &mut batch);
        batch
    }

    /// [`Dataset::sample_batch`] into a reused vector: the same draws from
    /// `rng`, replacing `batch`'s contents.
    pub(crate) fn sample_batch_into(&self, rng: &mut StdRng, size: usize, batch: &mut Vec<usize>) {
        batch.clear();
        batch.extend((0..size).map(|_| rng.gen_range(0..self.len())));
    }

    /// Randomly and evenly splits the dataset into `shards` parts (the
    /// paper's per-agent data division).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidConfig`] when `shards` is zero or exceeds
    /// the sample count.
    pub fn shard(&self, shards: usize, seed: u64) -> Result<Vec<Dataset>, MlError> {
        if shards == 0 || shards > self.len() {
            return Err(MlError::InvalidConfig {
                reason: format!("cannot split {} samples into {shards} shards", self.len()),
            });
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(&mut seeded_rng(seed));
        let mut out = Vec::with_capacity(shards);
        let base = self.len() / shards;
        let extra = self.len() % shards;
        let mut cursor = 0usize;
        for s in 0..shards {
            let take = base + usize::from(s < extra);
            let idx = &order[cursor..cursor + take];
            cursor += take;
            out.push(Dataset {
                features: idx.iter().map(|&i| self.features[i].clone()).collect(),
                labels: idx.iter().map(|&i| self.labels[i]).collect(),
                classes: self.classes,
            });
        }
        Ok(out)
    }

    /// The paper's label-flip fault: every label `y` becomes
    /// `classes − 1 − y` (i.e. `9 − y` for ten classes).
    pub fn with_flipped_labels(&self) -> Dataset {
        Dataset {
            features: self.features.clone(),
            labels: self.labels.iter().map(|&y| self.classes - 1 - y).collect(),
            classes: self.classes,
        }
    }

    /// Per-class sample counts.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.classes];
        for &y in &self.labels {
            h[y] += 1;
        }
        h
    }
}

/// Specification of a synthetic dataset family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Number of classes (the paper's tasks have 10).
    pub classes: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Training samples to generate.
    pub train: usize,
    /// Test samples to generate.
    pub test: usize,
    /// Noise standard deviation around the class prototype.
    pub noise: f64,
    /// Scale of the prototypes (larger ⇒ more separable).
    pub separation: f64,
    /// Fraction of each prototype mixed from its neighbour (0 = independent
    /// classes, larger ⇒ correlated, harder).
    pub correlation: f64,
}

impl DatasetSpec {
    /// The MNIST substitute: well-separated independent prototypes.
    pub fn synthetic_mnist() -> Self {
        DatasetSpec {
            classes: 10,
            dim: 64,
            train: 4000,
            test: 1000,
            noise: 0.30,
            separation: 1.0,
            correlation: 0.0,
        }
    }

    /// The Fashion-MNIST substitute: correlated prototypes + more noise,
    /// yielding the lower accuracy ceiling the paper observes.
    pub fn synthetic_fashion() -> Self {
        DatasetSpec {
            classes: 10,
            dim: 64,
            train: 4000,
            test: 1000,
            noise: 0.40,
            separation: 1.0,
            correlation: 0.22,
        }
    }

    /// A tiny spec for fast unit tests.
    pub fn tiny() -> Self {
        DatasetSpec {
            classes: 10,
            dim: 16,
            train: 300,
            test: 100,
            noise: 0.3,
            separation: 1.0,
            correlation: 0.0,
        }
    }

    /// Generates `(train, test)` deterministically from a seed.
    ///
    /// # Panics
    ///
    /// Panics when the spec is degenerate (zero classes, dimension, or
    /// sample counts).
    pub fn generate(&self, seed: u64) -> (Dataset, Dataset) {
        assert!(self.classes > 0 && self.dim > 0, "degenerate dataset spec");
        assert!(self.train > 0 && self.test > 0, "empty dataset spec");
        let mut rng = seeded_rng(seed);

        // Class prototypes.
        let mut prototypes: Vec<Vector> = (0..self.classes)
            .map(|_| random_unit_vector(&mut rng, self.dim).scale(self.separation))
            .collect();
        if self.correlation > 0.0 {
            let originals = prototypes.clone();
            for y in 0..self.classes {
                let neighbour = &originals[(y + 1) % self.classes];
                let mixed = &originals[y].scale(1.0 - self.correlation)
                    + &neighbour.scale(self.correlation);
                prototypes[y] = mixed;
            }
        }

        let draw = |count: usize, rng: &mut StdRng| {
            let mut features = Vec::with_capacity(count);
            let mut labels = Vec::with_capacity(count);
            for i in 0..count {
                let y = i % self.classes; // balanced classes
                let noise = gaussian_vector(rng, self.dim, 0.0, self.noise);
                features.push(&prototypes[y] + &noise);
                labels.push(y);
            }
            Dataset {
                features,
                labels,
                classes: self.classes,
            }
        };
        let train = draw(self.train, &mut rng);
        let test = draw(self.test, &mut rng);
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        let xs = vec![Vector::zeros(2), Vector::zeros(2)];
        assert!(Dataset::new(xs.clone(), vec![0], 2).is_err()); // length mismatch
        assert!(Dataset::new(xs.clone(), vec![0, 5], 2).is_err()); // label range
        let ragged = vec![Vector::zeros(2), Vector::zeros(3)];
        assert!(Dataset::new(ragged, vec![0, 1], 2).is_err());
        assert!(Dataset::new(xs, vec![0, 1], 2).is_ok());
    }

    #[test]
    fn generation_is_deterministic_and_balanced() {
        let spec = DatasetSpec::tiny();
        let (a, _) = spec.generate(42);
        let (b, _) = spec.generate(42);
        assert!(a.feature(0).approx_eq(b.feature(0), 0.0));
        assert_eq!(a.label(17), b.label(17));
        let hist = a.class_histogram();
        assert_eq!(hist.len(), 10);
        let max = *hist.iter().max().unwrap();
        let min = *hist.iter().min().unwrap();
        assert!(max - min <= 1, "classes unbalanced: {hist:?}");
    }

    #[test]
    fn different_seeds_differ() {
        let spec = DatasetSpec::tiny();
        let (a, _) = spec.generate(1);
        let (b, _) = spec.generate(2);
        assert!(!a.feature(0).approx_eq(b.feature(0), 1e-9));
    }

    #[test]
    fn sharding_partitions_evenly() {
        let (train, _) = DatasetSpec::tiny().generate(3);
        let shards = train.shard(7, 9).unwrap();
        assert_eq!(shards.len(), 7);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, train.len());
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "uneven shards: {sizes:?}");
        assert!(train.shard(0, 0).is_err());
        assert!(train.shard(10_000, 0).is_err());
    }

    #[test]
    fn label_flip_maps_y_to_nine_minus_y() {
        let (train, _) = DatasetSpec::tiny().generate(4);
        let flipped = train.with_flipped_labels();
        for i in 0..train.len() {
            assert_eq!(flipped.label(i), 9 - train.label(i));
            assert!(flipped.feature(i).approx_eq(train.feature(i), 0.0));
        }
    }

    #[test]
    fn fashion_prototypes_are_closer_than_mnist() {
        // The class-correlation knob must actually make classes closer.
        let m = DatasetSpec::synthetic_mnist();
        let f = DatasetSpec::synthetic_fashion();
        let min_pairwise = |spec: DatasetSpec| {
            // Re-derive the prototypes exactly as generate() does.
            let mut rng = seeded_rng(11);
            let mut prototypes: Vec<Vector> = (0..spec.classes)
                .map(|_| random_unit_vector(&mut rng, spec.dim).scale(spec.separation))
                .collect();
            if spec.correlation > 0.0 {
                let originals = prototypes.clone();
                for y in 0..spec.classes {
                    let neighbour = &originals[(y + 1) % spec.classes];
                    prototypes[y] = &originals[y].scale(1.0 - spec.correlation)
                        + &neighbour.scale(spec.correlation);
                }
            }
            let mut min = f64::INFINITY;
            for i in 0..prototypes.len() {
                for j in (i + 1)..prototypes.len() {
                    min = min.min(prototypes[i].dist(&prototypes[j]));
                }
            }
            min
        };
        assert!(min_pairwise(f) < min_pairwise(m));
    }

    #[test]
    fn batches_index_valid_samples() {
        let (train, _) = DatasetSpec::tiny().generate(5);
        let mut rng = seeded_rng(1);
        let batch = train.sample_batch(&mut rng, 32);
        assert_eq!(batch.len(), 32);
        assert!(batch.iter().all(|&i| i < train.len()));
    }
}
