//! Seeded randomness helpers.
//!
//! Every stochastic component in the workspace (random Byzantine vectors,
//! dataset generation, mini-batch sampling) derives from an explicitly
//! seeded [`rand::rngs::StdRng`] so that all experiments are reproducible
//! bit-for-bit across runs.

use crate::vector::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a 64-bit seed.
///
/// ```
/// use abft_linalg::rng::{seeded_rng, standard_normal};
///
/// let mut a = seeded_rng(42);
/// let mut b = seeded_rng(42);
/// assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples a standard normal variate via the Box–Muller transform.
///
/// `rand` alone (without `rand_distr`, which is outside the sanctioned
/// dependency set) provides only uniform variates, so the Gaussian transform
/// is implemented here.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    // Box–Muller: u1 ∈ (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples a vector of i.i.d. `N(mean, std²)` entries — the shape of the
/// paper's *random* Byzantine fault (zero mean, isotropic covariance,
/// σ = 200).
pub fn gaussian_vector(rng: &mut impl Rng, dim: usize, mean: f64, std: f64) -> Vector {
    Vector::from_fn(dim, |_| mean + std * standard_normal(rng))
}

/// Fills `out` with i.i.d. `N(mean, std²)` entries in place — the
/// allocation-free twin of [`gaussian_vector`] used when forging directly
/// into a [`crate::GradientBatch`] row. Draws the same stream as
/// `gaussian_vector` for the same RNG state.
pub fn fill_gaussian(rng: &mut impl Rng, out: &mut [f64], mean: f64, std: f64) {
    for slot in out {
        *slot = mean + std * standard_normal(rng);
    }
}

/// Samples a uniformly random unit vector (Gaussian direction, normalized).
pub fn random_unit_vector(rng: &mut impl Rng, dim: usize) -> Vector {
    assert!(dim > 0, "random_unit_vector requires dim > 0");
    loop {
        let v = gaussian_vector(rng, dim, 0.0, 1.0);
        if let Ok(u) = v.normalized() {
            return u;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(7);
        let mut b = seeded_rng(7);
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let xs: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded_rng(42);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "sample mean {mean} too far from 0");
        assert!(
            (var - 1.0).abs() < 0.02,
            "sample variance {var} too far from 1"
        );
    }

    #[test]
    fn gaussian_vector_shape_and_scale() {
        let mut rng = seeded_rng(3);
        let v = gaussian_vector(&mut rng, 10_000, 5.0, 200.0);
        assert_eq!(v.dim(), 10_000);
        let mean = v.mean();
        assert!((mean - 5.0).abs() < 10.0, "mean {mean} too far from 5");
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.dim() as f64;
        assert!(
            (var.sqrt() - 200.0).abs() < 10.0,
            "std {} too far from 200",
            var.sqrt()
        );
    }

    #[test]
    fn unit_vector_has_unit_norm() {
        let mut rng = seeded_rng(6);
        for dim in [1, 2, 10] {
            let u = random_unit_vector(&mut rng, dim);
            assert!((u.norm() - 1.0).abs() < 1e-12);
        }
    }
}
