//! Resilience-bound calculators for Theorems 4, 5 and 6.
//!
//! These closed-form factors convert a measured redundancy `ε` into the
//! asymptotic approximation radius of DGD with each filter:
//!
//! * **Theorem 4 (CGE)**: `lim ‖x_t − x_H‖ ≤ D·ε` with `D = 4µf/(αγ)` and
//!   `α = 1 − (f/n)(1 + 2µ/γ)`, requiring `α > 0`.
//! * **Theorem 5 (CGE, sharper)**: `D = (1+2f)(n−2f)µ/(αnγ)` with
//!   `α = 1 − (f/n)(1 + µ/γ)`, requiring `f ≤ n/3` and `α > 0`.
//! * **Theorem 6 (CWTM)**: `D′ = 2√d·nµλ/(γ − √d·µλ)`, requiring
//!   `λ < γ/(µ√d)`.

/// The CGE admissibility margin `α = 1 − (f/n)(1 + 2µ/γ)` of Theorem 4.
///
/// DGD + CGE is guaranteed resilient only when this is positive, i.e.
/// `f/n < 1/(1 + 2µ/γ)`.
///
/// # Panics
///
/// Panics when `n == 0` or `µ`/`γ` are non-positive.
pub fn cge_alpha(n: usize, f: usize, mu: f64, gamma: f64) -> f64 {
    assert!(n > 0, "n must be positive");
    assert!(mu > 0.0 && gamma > 0.0, "mu and gamma must be positive");
    1.0 - (f as f64 / n as f64) * (1.0 + 2.0 * mu / gamma)
}

/// The Theorem 4 resilience factor `D = 4µf/(αγ)`: the asymptotic error is
/// at most `D·ε`. Returns `None` when `α ≤ 0` (guarantee vacuous).
///
/// Note: for the paper's own instance (n = 6, f = 1, µ = 2, γ = 0.712) the
/// margin is `α ≈ −0.10 < 0`, so Theorem 4 certifies nothing there — use the
/// sharper [`cge_v2_resilience_factor`] (Theorem 5), whose margin is
/// positive: Theorem 5 is the bound that applies to the paper's instance.
///
/// # Example
///
/// ```
/// // A well-conditioned system: n = 10, f = 1, µ = γ = 1 ⇒ α = 0.7.
/// let d = abft_redundancy::cge_resilience_factor(10, 1, 1.0, 1.0).expect("alpha > 0");
/// assert!((d - 4.0 / 0.7).abs() < 1e-12);
/// // The paper instance violates Theorem 4's condition:
/// assert!(abft_redundancy::cge_resilience_factor(6, 1, 2.0, 0.712).is_none());
/// ```
pub fn cge_resilience_factor(n: usize, f: usize, mu: f64, gamma: f64) -> Option<f64> {
    let alpha = cge_alpha(n, f, mu, gamma);
    if alpha <= 0.0 {
        return None;
    }
    if f == 0 {
        // D = 0: exact convergence in the fault-free case (the paper notes
        // D = 0 when f = 0).
        return Some(0.0);
    }
    Some(4.0 * mu * f as f64 / (alpha * gamma))
}

/// The Theorem 5 admissibility margin `α = 1 − (f/n)(1 + µ/γ)` — weaker
/// requirement than Theorem 4's (the factor on µ/γ drops from 2 to 1).
///
/// # Panics
///
/// Panics when `n == 0` or `µ`/`γ` are non-positive.
pub fn cge_v2_alpha(n: usize, f: usize, mu: f64, gamma: f64) -> f64 {
    assert!(n > 0, "n must be positive");
    assert!(mu > 0.0 && gamma > 0.0, "mu and gamma must be positive");
    1.0 - (f as f64 / n as f64) * (1.0 + mu / gamma)
}

/// The Theorem 5 resilience factor `D = (1 + 2f)(n − 2f)µ/(αnγ)`.
///
/// Returns `None` when `f > n/3` or `α ≤ 0`.
pub fn cge_v2_resilience_factor(n: usize, f: usize, mu: f64, gamma: f64) -> Option<f64> {
    if 3 * f > n {
        return None;
    }
    let alpha = cge_v2_alpha(n, f, mu, gamma);
    if alpha <= 0.0 {
        return None;
    }
    if f == 0 {
        // The (1 + 2f) factor does not vanish at f = 0, but Theorem 5's bound
        // is only about tolerating faults; with none present the DGD method
        // converges exactly (Theorem 4's D = 0 case applies).
        return Some(0.0);
    }
    Some((1.0 + 2.0 * f as f64) * (n as f64 - 2.0 * f as f64) * mu / (alpha * n as f64 * gamma))
}

/// Theorem 6's admissibility threshold for the gradient-diversity constant:
/// CWTM requires `λ < γ/(µ√d)`.
///
/// # Panics
///
/// Panics when `d == 0` or `µ`/`γ` are non-positive.
pub fn cwtm_lambda_threshold(d: usize, mu: f64, gamma: f64) -> f64 {
    assert!(d > 0, "dimension must be positive");
    assert!(mu > 0.0 && gamma > 0.0, "mu and gamma must be positive");
    gamma / (mu * (d as f64).sqrt())
}

/// The Theorem 6 resilience factor `D′ = 2√d·nµλ/(γ − √d·µλ)`: the
/// asymptotic error of DGD + CWTM is at most `D′·ε`. Returns `None` when
/// `λ ≥ γ/(µ√d)` (guarantee vacuous).
///
/// Note `D′` does not depend on `f` (as the paper remarks), only on the
/// gradient-diversity `λ` and the dimension `d`.
pub fn cwtm_resilience_factor(n: usize, d: usize, mu: f64, gamma: f64, lambda: f64) -> Option<f64> {
    assert!(lambda >= 0.0, "lambda must be non-negative");
    let sqrt_d = (d as f64).sqrt();
    let denom = gamma - sqrt_d * mu * lambda;
    if denom <= 0.0 {
        return None;
    }
    Some(2.0 * sqrt_d * n as f64 * mu * lambda / denom)
}

/// The largest `f` for which Theorem 4's CGE guarantee is non-vacuous at
/// the given `(n, µ, γ)`: the largest `f` with `α > 0`, i.e.
/// `f < n/(1 + 2µ/γ)`.
pub fn max_tolerable_f_cge(n: usize, mu: f64, gamma: f64) -> usize {
    (0..=n / 2)
        .take_while(|&f| cge_alpha(n, f, mu, gamma) > 0.0)
        .last()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper instance's constants (Section 5 convention).
    const MU: f64 = 2.0;
    const GAMMA: f64 = 0.712;

    #[test]
    fn paper_instance_alpha_is_positive() {
        // f/n = 1/6 and 1/(1 + 2µ/γ) = 1/(1 + 5.618) ≈ 0.151. 1/6 ≈ 0.167
        // exceeds it, so Theorem 4's α is NEGATIVE for the paper instance —
        // the empirical success of CGE there goes beyond what Theorem 4
        // certifies. Theorem 5's weaker requirement does hold.
        let a4 = cge_alpha(6, 1, MU, GAMMA);
        assert!(a4 < 0.0, "alpha4 = {a4}");
        let a5 = cge_v2_alpha(6, 1, MU, GAMMA);
        assert!(a5 > 0.0, "alpha5 = {a5}");
    }

    #[test]
    fn theorem_4_factor_behaviour() {
        // A well-conditioned instance: µ = γ = 1 ⇒ α = 1 − 3f/n.
        assert!(cge_resilience_factor(10, 1, 1.0, 1.0).is_some());
        assert!(cge_resilience_factor(10, 3, 1.0, 1.0).is_some()); // α = 0.1
        assert!(cge_resilience_factor(10, 4, 1.0, 1.0).is_none()); // α < 0
        assert_eq!(cge_resilience_factor(10, 0, 1.0, 1.0), Some(0.0));
        // D grows with f.
        let d1 = cge_resilience_factor(10, 1, 1.0, 1.0).unwrap();
        let d2 = cge_resilience_factor(10, 2, 1.0, 1.0).unwrap();
        assert!(d2 > d1);
    }

    #[test]
    fn theorem_5_is_defined_where_4_fails_on_paper_instance() {
        assert!(cge_resilience_factor(6, 1, MU, GAMMA).is_none());
        let d5 = cge_v2_resilience_factor(6, 1, MU, GAMMA).unwrap();
        assert!(d5 > 0.0);
        // Plug in ε = 0.0890: the certified radius.
        let radius = d5 * 0.0890;
        assert!(radius > 0.0 && radius < 10.0, "radius = {radius}");
    }

    #[test]
    fn theorem_5_requires_f_at_most_n_over_3() {
        assert!(cge_v2_resilience_factor(9, 4, 1.0, 1.0).is_none());
        assert!(cge_v2_resilience_factor(9, 3, 1.0, 1.0).is_some());
        assert_eq!(cge_v2_resilience_factor(9, 0, 1.0, 1.0), Some(0.0));
    }

    #[test]
    fn cwtm_threshold_shrinks_with_dimension() {
        let t1 = cwtm_lambda_threshold(1, MU, GAMMA);
        let t4 = cwtm_lambda_threshold(4, MU, GAMMA);
        assert!((t4 - t1 / 2.0).abs() < 1e-12); // √4 = 2
    }

    #[test]
    fn cwtm_factor_behaviour() {
        let threshold = cwtm_lambda_threshold(2, MU, GAMMA);
        assert!(cwtm_resilience_factor(6, 2, MU, GAMMA, threshold).is_none());
        assert!(cwtm_resilience_factor(6, 2, MU, GAMMA, threshold * 1.5).is_none());
        let d = cwtm_resilience_factor(6, 2, MU, GAMMA, threshold * 0.5).unwrap();
        assert!(d > 0.0);
        // λ → 0 gives a vanishing radius.
        let tiny = cwtm_resilience_factor(6, 2, MU, GAMMA, 1e-9).unwrap();
        assert!(tiny < 1e-5);
        // D′ is f-independent by construction (no f parameter at all) and
        // increases with λ.
        let d_hi = cwtm_resilience_factor(6, 2, MU, GAMMA, threshold * 0.9).unwrap();
        assert!(d_hi > d);
    }

    #[test]
    fn max_tolerable_f_matches_alpha_sign() {
        let fmax = max_tolerable_f_cge(10, 1.0, 1.0); // α = 1 − 3f/10 > 0 ⇔ f ≤ 3
        assert_eq!(fmax, 3);
        for f in 0..=fmax {
            assert!(cge_alpha(10, f, 1.0, 1.0) > 0.0);
        }
        assert!(cge_alpha(10, fmax + 1, 1.0, 1.0) <= 0.0);
        // Badly conditioned: no faults tolerable.
        assert_eq!(max_tolerable_f_cge(4, 100.0, 1.0), 0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn alpha_rejects_bad_constants() {
        let _ = cge_alpha(5, 1, 0.0, 1.0);
    }
}
