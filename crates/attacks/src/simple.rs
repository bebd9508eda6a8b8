//! Non-omniscient fault behaviours, including the paper's two.

use crate::context::AttackContext;
use crate::ByzantineStrategy;
use abft_linalg::rng::{fill_gaussian, seeded_rng};
use abft_linalg::Vector;
use rand::rngs::StdRng;

/// The paper's **gradient-reverse** fault: the faulty agent computes its true
/// gradient `s_i^t` and sends `g_i^t = −s_i^t` (Section 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct GradientReverse;

impl GradientReverse {
    /// Creates the strategy.
    pub fn new() -> Self {
        GradientReverse
    }
}

impl ByzantineStrategy for GradientReverse {
    fn corrupt_into(&mut self, ctx: &AttackContext<'_>, out: &mut [f64]) {
        debug_assert_eq!(out.len(), ctx.dim(), "reverse attack dimension");
        for (slot, g) in out.iter_mut().zip(ctx.true_gradient.iter()) {
            *slot = -g;
        }
    }

    fn name(&self) -> &'static str {
        "gradient-reverse"
    }
}

/// The paper's **random** fault: an i.i.d. Gaussian vector with mean 0 and
/// isotropic covariance of standard deviation 200 (Section 5), freshly drawn
/// every iteration from a seeded RNG.
#[derive(Debug)]
pub struct RandomGaussian {
    std: f64,
    rng: StdRng,
}

impl RandomGaussian {
    /// The paper's configuration: σ = 200.
    pub fn paper(seed: u64) -> Self {
        Self::new(200.0, seed)
    }

    /// Creates the strategy with an arbitrary standard deviation.
    ///
    /// # Panics
    ///
    /// Panics when `std` is negative or non-finite.
    // LINT-ALLOW(panic-reach): constructor-time parameter validation —
    // runs while the scenario is built, before any round executes.
    pub fn new(std: f64, seed: u64) -> Self {
        assert!(
            std >= 0.0 && std.is_finite(),
            "standard deviation must be non-negative and finite"
        );
        RandomGaussian {
            std,
            rng: seeded_rng(seed),
        }
    }
}

impl ByzantineStrategy for RandomGaussian {
    fn corrupt_into(&mut self, ctx: &AttackContext<'_>, out: &mut [f64]) {
        debug_assert_eq!(out.len(), ctx.dim(), "random attack dimension");
        fill_gaussian(&mut self.rng, out, 0.0, self.std);
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Scaled reverse: sends `−factor · s_i^t`. `factor = 1` is
/// [`GradientReverse`]; large factors emulate the "large negative gradient"
/// attacks in the literature.
#[derive(Debug, Clone, Copy)]
pub struct ScaledReverse {
    factor: f64,
}

impl ScaledReverse {
    /// Creates the strategy with the given amplification factor.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is non-finite.
    // LINT-ALLOW(panic-reach): constructor-time parameter validation —
    // runs while the scenario is built, before any round executes.
    pub fn new(factor: f64) -> Self {
        assert!(factor.is_finite(), "factor must be finite");
        ScaledReverse { factor }
    }
}

impl ByzantineStrategy for ScaledReverse {
    fn corrupt_into(&mut self, ctx: &AttackContext<'_>, out: &mut [f64]) {
        debug_assert_eq!(out.len(), ctx.dim(), "scaled-reverse attack dimension");
        for (slot, g) in out.iter_mut().zip(ctx.true_gradient.iter()) {
            *slot = g * -self.factor;
        }
    }

    fn name(&self) -> &'static str {
        "scaled-reverse"
    }
}

/// Free-rider fault: always sends the zero vector.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroGradient;

impl ZeroGradient {
    /// Creates the strategy.
    pub fn new() -> Self {
        ZeroGradient
    }
}

impl ByzantineStrategy for ZeroGradient {
    fn corrupt_into(&mut self, ctx: &AttackContext<'_>, out: &mut [f64]) {
        debug_assert_eq!(out.len(), ctx.dim(), "zero attack dimension");
        out.fill(0.0);
    }

    fn name(&self) -> &'static str {
        "zero"
    }
}

/// Sends a fixed vector every iteration, regardless of the estimate.
#[derive(Debug, Clone)]
pub struct ConstantVector {
    value: Vector,
}

impl ConstantVector {
    /// Creates the strategy sending `value` each round.
    pub fn new(value: Vector) -> Self {
        ConstantVector { value }
    }
}

impl ByzantineStrategy for ConstantVector {
    fn corrupt_into(&mut self, ctx: &AttackContext<'_>, out: &mut [f64]) {
        debug_assert_eq!(self.value.dim(), ctx.dim(), "constant attack dimension");
        out.copy_from_slice(self.value.as_slice());
    }

    fn name(&self) -> &'static str {
        "constant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forged;

    fn ctx<'a>(g: &'a Vector, x: &'a Vector) -> AttackContext<'a> {
        AttackContext::new(3, g, x)
    }

    #[test]
    fn gradient_reverse_negates() {
        let g = Vector::from(vec![2.0, -3.0]);
        let x = Vector::zeros(2);
        let sent = forged(&mut GradientReverse::new(), &ctx(&g, &x));
        assert_eq!(sent.as_slice(), &[-2.0, 3.0]);
    }

    #[test]
    fn random_gaussian_is_seeded_and_scaled() {
        let g = Vector::zeros(1000);
        let x = Vector::zeros(1000);
        let mut a = RandomGaussian::paper(5);
        let mut b = RandomGaussian::paper(5);
        let va = forged(&mut a, &ctx(&g, &x));
        let vb = forged(&mut b, &ctx(&g, &x));
        assert!(va.approx_eq(&vb, 0.0), "same seed must give same vector");
        // Magnitude sanity: ‖N(0, 200²·I₁₀₀₀)‖ ≈ 200·√1000 ≈ 6325.
        assert!(va.norm() > 3000.0 && va.norm() < 10_000.0);
        // Successive draws differ.
        let va2 = forged(&mut a, &ctx(&g, &x));
        assert!(!va.approx_eq(&va2, 1e-9));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn random_gaussian_rejects_negative_std() {
        let _ = RandomGaussian::new(-1.0, 0);
    }

    #[test]
    fn scaled_reverse_amplifies() {
        let g = Vector::from(vec![1.0]);
        let x = Vector::zeros(1);
        let sent = forged(&mut ScaledReverse::new(10.0), &ctx(&g, &x));
        assert_eq!(sent[0], -10.0);
    }

    #[test]
    fn zero_and_constant() {
        let g = Vector::from(vec![5.0, 5.0]);
        let x = Vector::zeros(2);
        assert_eq!(
            forged(&mut ZeroGradient::new(), &ctx(&g, &x)).as_slice(),
            &[0.0, 0.0]
        );
        let c = Vector::from(vec![7.0, -7.0]);
        let sent = forged(&mut ConstantVector::new(c.clone()), &ctx(&g, &x));
        assert!(sent.approx_eq(&c, 0.0));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(GradientReverse::new().name(), "gradient-reverse");
        assert_eq!(RandomGaussian::paper(0).name(), "random");
        assert_eq!(ScaledReverse::new(2.0).name(), "scaled-reverse");
        assert_eq!(ZeroGradient::new().name(), "zero");
        assert_eq!(ConstantVector::new(Vector::zeros(1)).name(), "constant");
    }

    #[test]
    fn none_are_omniscient() {
        assert!(!GradientReverse::new().is_omniscient());
        assert!(!RandomGaussian::paper(0).is_omniscient());
        assert!(!ZeroGradient::new().is_omniscient());
    }
}
