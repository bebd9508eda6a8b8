//! The Theorem 1 counterexample generator — an executable impossibility
//! witness.
//!
//! Theorem 1's proof constructs, for any violation of `(2f, ε)`-redundancy,
//! two indistinguishable scenarios whose honest minimizers are `2(ε + δ)`
//! apart, so no deterministic algorithm can be `(f, ε)`-resilient in both.
//! [`NecessityScenario`] builds that construction concretely with scalar
//! quadratic costs `Q_i(x) = (x − c_i)²`, letting the test suite *run* an
//! algorithm against both scenarios and verify it must fail one.

use crate::error::RedundancyError;
use crate::measure::MinimizerOracle;
use crate::minset::MinimizerSet;
use abft_core::SystemConfig;
use abft_linalg::Vector;

/// The two-scenario construction from the proof of Theorem 1.
///
/// All `n` agents submit scalar quadratic costs with centers
/// [`NecessityScenario::centers`]. The same submission is consistent with
/// two possible worlds:
///
/// * scenario (i): the honest set is `S = Ŝ ∪ left` — the core and the
///   next `f` agents — whose aggregate minimizes at
///   [`NecessityScenario::x_s`];
/// * scenario (ii): the honest set is `B ∪ Ŝ = Ŝ ∪ right` — the core and
///   the last `f` agents — whose aggregate minimizes at
///   [`NecessityScenario::x_bs`].
///
/// The construction places `|x_s − x_bs| = 2(ε + δ)`, so any single output
/// is at distance `> ε` from at least one of them.
#[derive(Debug, Clone)]
pub struct NecessityScenario {
    config: SystemConfig,
    centers: Vec<f64>,
    core: Vec<usize>,
    x_s: f64,
    x_bs: f64,
    epsilon: f64,
    delta: f64,
}

impl NecessityScenario {
    /// Builds the counterexample for a given `(n, f)` and target gap
    /// `ε + δ`.
    ///
    /// The core `Ŝ` consists of the first `n − 2f` agents, all centred at
    /// `0`; the "left" group of `f` agents pulls the aggregate of
    /// `S = Ŝ ∪ left` to `x_S = −(ε + δ)`; the "right" group mirrors it to
    /// `x_{B∪Ŝ} = +(ε + δ)`.
    ///
    /// # Errors
    ///
    /// Returns [`RedundancyError::InvalidInput`] when `f == 0` (no
    /// counterexample exists — exact optimization is possible) or when
    /// `ε` or `δ` are not positive and finite.
    // LINT-ALLOW(panic-reach): every index written below comes from a
    // range bounded by `n = config.n()`, the length of `centers`.
    pub fn build(config: SystemConfig, epsilon: f64, delta: f64) -> Result<Self, RedundancyError> {
        if config.f() == 0 {
            return Err(RedundancyError::InvalidInput {
                reason: "necessity construction requires f >= 1".to_string(),
            });
        }
        if !(epsilon > 0.0 && epsilon.is_finite() && delta > 0.0 && delta.is_finite()) {
            return Err(RedundancyError::InvalidInput {
                reason: format!("epsilon = {epsilon} and delta = {delta} must be positive"),
            });
        }
        let n = config.n();
        let f = config.f();
        let core_size = config.redundancy_quorum();
        let gap = epsilon + delta;

        // Mean of (n − f) centers: core at 0, f pulled agents at c.
        // mean = f·c/(n − f) = ±gap  ⇒  c = ±gap(n − f)/f.
        let pull = gap * (n - f) as f64 / f as f64;

        let mut centers = vec![0.0; n];
        let core: Vec<usize> = (0..core_size).collect();
        centers[core_size..core_size + f].fill(-pull);
        centers[core_size + f..].fill(pull);

        Ok(NecessityScenario {
            config,
            centers,
            core,
            x_s: -gap,
            x_bs: gap,
            epsilon,
            delta,
        })
    }

    /// The submitted cost centers (`Q_i(x) = (x − c_i)²`).
    pub fn centers(&self) -> &[f64] {
        &self.centers
    }

    /// The shared core `Ŝ` (size `n − 2f`).
    pub fn core(&self) -> &[usize] {
        &self.core
    }

    /// The honest minimizer of scenario (i).
    pub fn x_s(&self) -> f64 {
        self.x_s
    }

    /// The honest minimizer of scenario (ii).
    pub fn x_bs(&self) -> f64 {
        self.x_bs
    }

    /// The resilience target `ε` the construction defeats.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The strict-violation margin `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The configuration used.
    pub fn config(&self) -> SystemConfig {
        self.config
    }

    /// Evaluates any candidate output against both scenarios: returns the
    /// distances `(|x − x_S|, |x − x_{B∪Ŝ}|)`. By construction their max
    /// exceeds `ε` for every `x` — the impossibility.
    pub fn judge(&self, output: f64) -> (f64, f64) {
        ((output - self.x_s).abs(), (output - self.x_bs).abs())
    }
}

impl MinimizerOracle for NecessityScenario {
    fn n(&self) -> usize {
        self.config.n()
    }

    fn dim(&self) -> usize {
        1
    }

    fn argmin(&self, subset: &[usize]) -> Result<MinimizerSet, RedundancyError> {
        if subset.is_empty() {
            return Err(RedundancyError::EmptyFamily {
                what: "subset for necessity oracle".to_string(),
            });
        }
        // argmin Σ (x − c_i)² is the mean of the centers.
        let mean = subset.iter().map(|&i| self.centers[i]).sum::<f64>() / subset.len() as f64;
        Ok(MinimizerSet::Point(Vector::from(vec![mean])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_resilient_output;

    fn scenario() -> NecessityScenario {
        let config = SystemConfig::new(5, 1).unwrap();
        NecessityScenario::build(config, 0.5, 0.1).unwrap()
    }

    #[test]
    fn construction_places_minimizers_symmetrically() {
        let s = scenario();
        assert_eq!(s.x_s(), -0.6);
        assert_eq!(s.x_bs(), 0.6);
        // Verify through the oracle: the mean of each scenario's honest
        // centers — core {0, 1, 2} plus the left agent 3, or the right 4.
        let m1 = s.argmin(&[0, 1, 2, 3]).unwrap().representative();
        assert!((m1[0] - s.x_s()).abs() < 1e-12);
        let m2 = s.argmin(&[0, 1, 2, 4]).unwrap().representative();
        assert!((m2[0] - s.x_bs()).abs() < 1e-12);
    }

    #[test]
    fn every_output_fails_one_scenario() {
        let s = scenario();
        for probe in [-10.0, -0.6, -0.1, 0.0, 0.1, 0.6, 10.0] {
            let (d1, d2) = s.judge(probe);
            assert!(
                d1 > s.epsilon() || d2 > s.epsilon(),
                "output {probe} is epsilon-close to both minimizers"
            );
        }
    }

    #[test]
    fn gap_exceeds_two_epsilon() {
        let s = scenario();
        assert!((s.x_bs() - s.x_s()) > 2.0 * s.epsilon());
        assert!(((s.x_bs() - s.x_s()) - 2.0 * (s.epsilon() + s.delta())).abs() < 1e-12);
    }

    #[test]
    fn even_the_exact_algorithm_is_defeated() {
        // Theorem 2's algorithm is (f, 2ε′)-resilient only under redundancy;
        // the construction violates (2f, ε)-redundancy, so the algorithm's
        // single deterministic output must be > ε from one honest minimizer.
        let s = scenario();
        let out = exact_resilient_output(&s, s.config()).unwrap();
        let (d1, d2) = s.judge(out.output[0]);
        assert!(
            d1 > s.epsilon() || d2 > s.epsilon(),
            "exact algorithm escaped the impossibility: d1 = {d1}, d2 = {d2}"
        );
    }

    #[test]
    fn construction_validates_inputs() {
        let config = SystemConfig::new(5, 1).unwrap();
        assert!(NecessityScenario::build(config, 0.0, 0.1).is_err());
        assert!(NecessityScenario::build(config, 0.5, 0.0).is_err());
        assert!(NecessityScenario::build(config, f64::INFINITY, 0.1).is_err());
        let fault_free = SystemConfig::new(5, 0).unwrap();
        assert!(NecessityScenario::build(fault_free, 0.5, 0.1).is_err());
    }

    #[test]
    fn larger_f_scales_the_pull() {
        let config = SystemConfig::new(7, 2).unwrap();
        let s = NecessityScenario::build(config, 1.0, 0.5).unwrap();
        // pull = gap(n−f)/f = 1.5·5/2 = 3.75: the left pair at −, the
        // right pair at +.
        assert_eq!(s.centers()[3..], [-3.75, -3.75, 3.75, 3.75]);
        assert_eq!(s.core().len(), 3);
    }
}
