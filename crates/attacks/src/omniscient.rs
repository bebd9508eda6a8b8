//! Omniscient attacks: colluding Byzantine agents that can inspect the
//! honest gradients before forging their own.

use crate::context::{AttackContext, HonestGradients};
use crate::ByzantineStrategy;

/// "A little is enough" (ALIE, Baruch et al. 2019).
///
/// Colluding attackers estimate the per-coordinate mean `µ_k` and standard
/// deviation `σ_k` of the honest gradients and send `µ_k − z·σ_k`: a vector
/// *inside* the honest spread (hence hard to filter by magnitude) but
/// consistently biased. Moderate `z` (≈ 1) evades norm- and
/// order-statistic-based filters far better than gross outliers.
#[derive(Debug, Clone, Copy)]
pub struct LittleIsEnough {
    z: f64,
}

impl LittleIsEnough {
    /// Creates the attack with deviation multiplier `z`.
    ///
    /// # Panics
    ///
    /// Panics when `z` is non-finite.
    // LINT-ALLOW(panic-reach): constructor-time parameter validation —
    // runs while the scenario is built, before any round executes.
    pub fn new(z: f64) -> Self {
        assert!(z.is_finite(), "z must be finite");
        LittleIsEnough { z }
    }
}

impl ByzantineStrategy for LittleIsEnough {
    // LINT-ALLOW(panic-reach): every honest row shares the run's validated
    // dimension with `out`, and `k` enumerates `out`.
    fn corrupt_into(&mut self, ctx: &AttackContext<'_>, out: &mut [f64]) {
        debug_assert_eq!(out.len(), ctx.dim(), "little-is-enough dimension");
        let honest = &ctx.honest;
        if matches!(honest, HonestGradients::Hidden) || honest.is_empty() {
            // Without omniscience, degrade to reversing the own gradient.
            for (slot, g) in out.iter_mut().zip(ctx.true_gradient.iter()) {
                *slot = -g;
            }
            return;
        }
        // Per coordinate: mean and population std of the honest reports,
        // forged value mean − z·std — computed column-wise so nothing is
        // allocated and batch rows are never copied.
        let m = honest.len() as f64;
        for (k, slot) in out.iter_mut().enumerate() {
            let mean = honest.iter().map(|g| g[k]).sum::<f64>() / m;
            let var = honest
                .iter()
                .map(|g| (g[k] - mean) * (g[k] - mean))
                .sum::<f64>()
                / m;
            *slot = mean - var.sqrt() * self.z;
        }
    }

    fn name(&self) -> &'static str {
        "little-is-enough"
    }

    fn is_omniscient(&self) -> bool {
        true
    }
}

/// Inner-product manipulation (Xie et al.): sends `−scale · mean(honest)`,
/// aiming to make the aggregate's inner product with the true descent
/// direction negative — exactly the quantity `φ_t` that Theorem 3's
/// convergence condition bounds from below.
#[derive(Debug, Clone, Copy)]
pub struct InnerProductManipulation {
    scale: f64,
}

impl InnerProductManipulation {
    /// Creates the attack with the given amplification.
    ///
    /// # Panics
    ///
    /// Panics when `scale` is non-finite.
    // LINT-ALLOW(panic-reach): constructor-time parameter validation —
    // runs while the scenario is built, before any round executes.
    pub fn new(scale: f64) -> Self {
        assert!(scale.is_finite(), "scale must be finite");
        InnerProductManipulation { scale }
    }
}

impl ByzantineStrategy for InnerProductManipulation {
    fn corrupt_into(&mut self, ctx: &AttackContext<'_>, out: &mut [f64]) {
        debug_assert_eq!(out.len(), ctx.dim(), "inner-product dimension");
        let honest = &ctx.honest;
        if matches!(honest, HonestGradients::Hidden) || honest.is_empty() {
            for (slot, g) in out.iter_mut().zip(ctx.true_gradient.iter()) {
                *slot = g * -self.scale;
            }
            return;
        }
        // −scale · mean(honest), accumulated directly into the output row
        // (two scaling passes keep the arithmetic identical to
        // `mean(honest)` followed by `· −scale`).
        out.fill(0.0);
        for row in honest.iter() {
            for (slot, g) in out.iter_mut().zip(row) {
                *slot += g;
            }
        }
        let inv_m = 1.0 / honest.len() as f64;
        for slot in out.iter_mut() {
            *slot = (*slot * inv_m) * -self.scale;
        }
    }

    fn name(&self) -> &'static str {
        "inner-product"
    }

    fn is_omniscient(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forged;
    use abft_linalg::Vector;

    #[test]
    fn alie_stays_inside_honest_spread() {
        let honest = vec![
            Vector::from(vec![1.0, 10.0]),
            Vector::from(vec![2.0, 11.0]),
            Vector::from(vec![3.0, 12.0]),
        ];
        let own = Vector::from(vec![2.0, 11.0]);
        let x = Vector::zeros(2);
        let ctx = AttackContext::omniscient(0, &own, &x, &honest);
        let sent = forged(&mut LittleIsEnough::new(1.0), &ctx);
        // mean = (2, 11), population std = (√(2/3), √(2/3)).
        let s = (2.0f64 / 3.0).sqrt();
        assert!(sent.approx_eq(&Vector::from(vec![2.0 - s, 11.0 - s]), 1e-9));
        // The forged vector is well within the honest hull — that is the point.
        assert!(sent[0] > 1.0 && sent[0] < 3.0);
    }

    #[test]
    fn alie_degrades_to_reverse_without_omniscience() {
        let own = Vector::from(vec![4.0]);
        let x = Vector::zeros(1);
        let ctx = AttackContext::new(0, &own, &x);
        let sent = forged(&mut LittleIsEnough::new(1.5), &ctx);
        assert_eq!(sent[0], -4.0);
    }

    #[test]
    fn inner_product_opposes_honest_mean() {
        let honest = vec![Vector::from(vec![1.0, 0.0]), Vector::from(vec![3.0, 0.0])];
        let own = Vector::from(vec![2.0, 0.0]);
        let x = Vector::zeros(2);
        let ctx = AttackContext::omniscient(0, &own, &x, &honest);
        let sent = forged(&mut InnerProductManipulation::new(2.0), &ctx);
        assert!(sent.approx_eq(&Vector::from(vec![-4.0, 0.0]), 1e-12));
        // Negative inner product with the honest mean.
        assert!(sent.dot(&Vector::from(vec![2.0, 0.0])) < 0.0);
    }

    #[test]
    fn both_declare_omniscience() {
        assert!(LittleIsEnough::new(1.0).is_omniscient());
        assert!(InnerProductManipulation::new(1.0).is_omniscient());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(LittleIsEnough::new(1.0).name(), "little-is-enough");
        assert_eq!(InnerProductManipulation::new(1.0).name(), "inner-product");
    }
}
