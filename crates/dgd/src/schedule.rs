//! Step-size schedules.
//!
//! Theorem 3 requires *diminishing* step sizes: `Σ η_t = ∞` and
//! `Σ η_t² < ∞`. The paper's experiments use `η_t = 1.5/(t+1)`, which
//! satisfies both (the squared sum is `1.5²·π²/6`).

/// A step-size schedule `t ↦ η_t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepSchedule {
    /// Constant `η_t = c`. Violates `Σ η_t² < ∞` — kept for the step-size
    /// ablation, which shows constant steps plateau at a noise floor.
    Constant(f64),
    /// Harmonic decay `η_t = c/(t+1)` — the paper's choice with `c = 1.5`.
    Harmonic {
        /// The numerator `c`.
        numerator: f64,
    },
    /// Square-root decay `η_t = c/√(t+1)`. Satisfies `Σ η_t = ∞` but not
    /// `Σ η_t² < ∞`; a second ablation point between the other two.
    InverseSqrt {
        /// The numerator `c`.
        numerator: f64,
    },
}

impl StepSchedule {
    /// The paper's schedule: `η_t = 1.5/(t+1)` (Appendix J).
    pub fn paper() -> Self {
        StepSchedule::Harmonic { numerator: 1.5 }
    }

    /// The step size at iteration `t`.
    ///
    /// # Panics
    ///
    /// Never panics for the provided variants.
    pub fn eta(&self, t: usize) -> f64 {
        match *self {
            StepSchedule::Constant(c) => c,
            StepSchedule::Harmonic { numerator } => numerator / (t as f64 + 1.0),
            StepSchedule::InverseSqrt { numerator } => numerator / (t as f64 + 1.0).sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schedule_values() {
        let s = StepSchedule::paper();
        assert_eq!(s.eta(0), 1.5);
        assert_eq!(s.eta(2), 0.5);
    }

    #[test]
    fn constant_is_flat_and_inadmissible() {
        let s = StepSchedule::Constant(0.1);
        assert_eq!(s.eta(0), 0.1);
        assert_eq!(s.eta(1000), 0.1);
    }

    #[test]
    fn inverse_sqrt_decays_slower_than_harmonic() {
        let h = StepSchedule::Harmonic { numerator: 1.0 };
        let r = StepSchedule::InverseSqrt { numerator: 1.0 };
        assert!(r.eta(99) > h.eta(99));
    }

    #[test]
    fn harmonic_partial_sums_diverge_squared_sums_converge() {
        let s = StepSchedule::paper();
        let sum: f64 = (0..100_000).map(|t| s.eta(t)).sum();
        let sq_sum: f64 = (0..100_000).map(|t| s.eta(t).powi(2)).sum();
        assert!(sum > 15.0, "harmonic sum grows without bound (log t)");
        // 1.5²·π²/6 ≈ 3.7011 — the paper quotes 3π²/8 for c = 1.5.
        assert!((sq_sum - 2.25 * std::f64::consts::PI.powi(2) / 6.0).abs() < 1e-3);
    }
}
