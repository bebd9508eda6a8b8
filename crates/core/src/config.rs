//! System configuration `(n, f)` and its admissibility rules.

use crate::error::CoreError;

/// The `(n, f)` parameters of a Byzantine fault-tolerant optimization system.
///
/// `n` is the total number of agents and `f` the maximum number of Byzantine
/// faulty agents the system must tolerate. Construction enforces the paper's
/// Lemma 1: for `f ≥ n/2` no deterministic `(f, ε)`-resilient algorithm
/// exists for any `ε ≥ 0`, so such configurations are rejected outright.
///
/// # Example
///
/// ```
/// use abft_core::SystemConfig;
///
/// # fn main() -> Result<(), abft_core::CoreError> {
/// let cfg = SystemConfig::new(6, 1)?;
/// assert_eq!(cfg.n(), 6);
/// assert_eq!(cfg.f(), 1);
/// // n − f = 5 agents are guaranteed honest,
/// // any two (n−f)-subsets intersect in ≥ n − 2f = 4 agents.
/// assert_eq!(cfg.honest_quorum(), 5);
/// assert_eq!(cfg.redundancy_quorum(), 4);
/// # Ok(())
/// # }
/// ```
///
/// Lemma 1 violations are rejected:
///
/// ```
/// use abft_core::SystemConfig;
/// assert!(SystemConfig::new(4, 2).is_err()); // f ≥ n/2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    n: usize,
    f: usize,
}

impl SystemConfig {
    /// Creates a configuration with `n` agents tolerating up to `f` faults.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `n == 0` or if `2f ≥ n`
    /// (Lemma 1: resilience is impossible when half or more of the agents
    /// may be faulty).
    pub fn new(n: usize, f: usize) -> Result<Self, CoreError> {
        if n == 0 {
            return Err(CoreError::InvalidConfig {
                n,
                f,
                reason: "system must contain at least one agent".to_string(),
            });
        }
        if 2 * f >= n {
            return Err(CoreError::InvalidConfig {
                n,
                f,
                reason: format!(
                    "f = {f} >= n/2 = {}/2: no deterministic (f, eps)-resilient \
                     algorithm exists (Lemma 1)",
                    n
                ),
            });
        }
        Ok(SystemConfig { n, f })
    }

    /// Creates a configuration suitable for the peer-to-peer architecture.
    ///
    /// The paper's Section 1.4 requires `f < n/3` so that the server-based
    /// algorithm can be simulated with Byzantine broadcast.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `3f ≥ n` (in addition to the
    /// checks performed by [`SystemConfig::new`]).
    pub fn new_peer_to_peer(n: usize, f: usize) -> Result<Self, CoreError> {
        let cfg = Self::new(n, f)?;
        if !cfg.supports_peer_to_peer() {
            return Err(CoreError::InvalidConfig {
                n,
                f,
                reason: format!(
                    "f = {f} >= n/3 = {n}/3: Byzantine broadcast (and hence the \
                     peer-to-peer simulation of the server architecture) requires 3f < n"
                ),
            });
        }
        Ok(cfg)
    }

    /// A fault-free configuration (`f = 0`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `n == 0`.
    pub fn fault_free(n: usize) -> Result<Self, CoreError> {
        Self::new(n, 0)
    }

    /// Total number of agents `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum number of Byzantine agents `f`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Dimension-independent honest quorum `n − f`: the number of agents
    /// guaranteed to be honest, and the subset size quantified over in the
    /// definition of `(f, ε)`-resilience (Definition 2).
    pub fn honest_quorum(&self) -> usize {
        self.n - self.f
    }

    /// The redundancy quorum `n − 2f`: the guaranteed overlap between any two
    /// `(n − f)`-subsets, and the inner subset size in the definition of
    /// `(2f, ε)`-redundancy (Definition 3).
    pub fn redundancy_quorum(&self) -> usize {
        self.n - 2 * self.f
    }

    /// Returns `true` when `3f < n`, i.e. the peer-to-peer architecture of
    /// Figure 1 can simulate the server-based one via Byzantine broadcast.
    pub fn supports_peer_to_peer(&self) -> bool {
        3 * self.f < self.n
    }

    /// The fraction `f / n` of potentially faulty agents.
    pub fn fault_fraction(&self) -> f64 {
        self.f as f64 / self.n as f64
    }
}

impl std::fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(n = {}, f = {})", self.n, self.f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_paper_configuration() {
        let cfg = SystemConfig::new(6, 1).unwrap();
        assert_eq!(cfg.n(), 6);
        assert_eq!(cfg.f(), 1);
        assert_eq!(cfg.honest_quorum(), 5);
        assert_eq!(cfg.redundancy_quorum(), 4);
        assert!(cfg.supports_peer_to_peer());
    }

    #[test]
    fn rejects_lemma_1_violations() {
        // f >= n/2 is impossible per Lemma 1.
        assert!(SystemConfig::new(2, 1).is_err());
        assert!(SystemConfig::new(4, 2).is_err());
        assert!(SystemConfig::new(5, 3).is_err());
        // Boundary: 2f = n - 1 < n is fine.
        assert!(SystemConfig::new(5, 2).is_ok());
    }

    #[test]
    fn rejects_empty_system() {
        assert!(SystemConfig::new(0, 0).is_err());
    }

    #[test]
    fn peer_to_peer_requires_three_f_below_n() {
        assert!(SystemConfig::new_peer_to_peer(10, 3).is_ok());
        assert!(SystemConfig::new_peer_to_peer(9, 3).is_err());
        assert!(SystemConfig::new_peer_to_peer(3, 1).is_err());
        // n = 7, f = 2: 3f = 6 < 7.
        assert!(SystemConfig::new_peer_to_peer(7, 2).is_ok());
    }

    #[test]
    fn fault_free_has_zero_faults() {
        let cfg = SystemConfig::fault_free(5).unwrap();
        assert_eq!(cfg.f(), 0);
        assert_eq!(cfg.honest_quorum(), 5);
        assert_eq!(cfg.redundancy_quorum(), 5);
    }

    #[test]
    fn fault_fraction_matches() {
        let cfg = SystemConfig::new(10, 3).unwrap();
        assert!((cfg.fault_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        let cfg = SystemConfig::new(6, 1).unwrap();
        assert_eq!(cfg.to_string(), "(n = 6, f = 1)");
    }
}
