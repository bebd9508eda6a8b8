//! Name-based attack registry used by the experiment grid and the scenario
//! layer.

use crate::omniscient::{InnerProductManipulation, LittleIsEnough};
use crate::simple::{GradientReverse, RandomGaussian, ScaledReverse, ZeroGradient};
use crate::ByzantineStrategy;
use std::fmt;

/// The stable list of registered attack names.
pub const ATTACK_NAMES: [&str; 6] = [
    "gradient-reverse",
    "random",
    "scaled-reverse",
    "zero",
    "little-is-enough",
    "inner-product",
];

/// A registry lookup named an attack that is not registered. The error
/// carries the full list of valid names so callers (CLIs, scenario specs)
/// can report what *would* have worked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAttack {
    /// The name that failed to resolve (as supplied by the caller).
    pub name: String,
    /// Every registered name, in the registry's stable order.
    pub known: &'static [&'static str],
}

impl fmt::Display for UnknownAttack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown attack '{}'; registered attacks: {}",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownAttack {}

/// Looks an attack up by its stable name (case-insensitively), seeding any
/// internal randomness from `seed`.
///
/// Parameterized attacks use their canonical configurations: `random` is the
/// paper's σ = 200 fault; `scaled-reverse` uses factor 10;
/// `little-is-enough` uses z = 1; `inner-product` uses scale 2.
///
/// # Errors
///
/// Returns [`UnknownAttack`] — carrying the full list of registered names —
/// when `name` does not resolve.
///
/// # Example
///
/// ```
/// let attack = abft_attacks::attack_by_name("gradient-reverse", 0).expect("registered");
/// assert_eq!(attack.name(), "gradient-reverse");
/// // Lookups are case-insensitive…
/// assert!(abft_attacks::attack_by_name("Random", 0).is_ok());
/// // …and a miss names the valid alternatives instead of a bare `None`.
/// let err = abft_attacks::attack_by_name("nonsense", 0).err().expect("unknown");
/// assert!(err.to_string().contains("gradient-reverse"));
/// ```
pub fn attack_by_name(name: &str, seed: u64) -> Result<Box<dyn ByzantineStrategy>, UnknownAttack> {
    match name.to_ascii_lowercase().as_str() {
        "gradient-reverse" => Ok(Box::new(GradientReverse::new())),
        "random" => Ok(Box::new(RandomGaussian::paper(seed))),
        "scaled-reverse" => Ok(Box::new(ScaledReverse::new(10.0))),
        "zero" => Ok(Box::new(ZeroGradient::new())),
        "little-is-enough" => Ok(Box::new(LittleIsEnough::new(1.0))),
        "inner-product" => Ok(Box::new(InnerProductManipulation::new(2.0))),
        _ => Err(UnknownAttack {
            name: name.to_string(),
            known: &ATTACK_NAMES,
        }),
    }
}

/// Every registered attack name, in the registry's stable order — the one
/// list error messages, docs, and grid experiments should consult instead
/// of hand-maintaining their own.
///
/// ```
/// assert!(abft_attacks::attack_names().contains(&"gradient-reverse"));
/// for name in abft_attacks::attack_names() {
///     assert!(abft_attacks::attack_by_name(name, 0).is_ok());
/// }
/// ```
pub fn attack_names() -> &'static [&'static str] {
    &ATTACK_NAMES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_resolves() {
        for name in ATTACK_NAMES {
            let attack = attack_by_name(name, 7).unwrap_or_else(|e| panic!("{name} missing: {e}"));
            assert_eq!(attack.name(), name);
        }
    }

    #[test]
    fn lookups_are_case_insensitive() {
        for spelled in ["Random", "GRADIENT-REVERSE", "Little-Is-Enough"] {
            let attack = attack_by_name(spelled, 0).unwrap_or_else(|e| panic!("{spelled}: {e}"));
            assert_eq!(attack.name(), spelled.to_ascii_lowercase());
        }
    }

    #[test]
    fn unknown_names_list_the_valid_ones() {
        for bad in ["", "reverse-gradient"] {
            let err = match attack_by_name(bad, 0) {
                Err(err) => err,
                Ok(attack) => panic!("'{bad}' resolved to {}", attack.name()),
            };
            assert_eq!(err.name, bad);
            assert_eq!(err.known, &ATTACK_NAMES);
            let msg = err.to_string();
            assert!(msg.contains("zero"), "message lists names: {msg}");
            assert!(msg.contains("inner-product"), "message lists names: {msg}");
        }
    }

    #[test]
    fn all_attacks_matches_name_list() {
        for name in ATTACK_NAMES {
            assert_eq!(attack_by_name(name, 0).unwrap().name(), name);
        }
    }

    #[test]
    fn attacks_produce_correct_dimension() {
        use crate::context::AttackContext;
        use abft_linalg::Vector;
        let g = Vector::from(vec![1.0, 2.0, 3.0]);
        let x = Vector::zeros(3);
        let honest = vec![g.clone(), Vector::ones(3)];
        for name in ATTACK_NAMES {
            let mut attack = attack_by_name(name, 11).unwrap();
            let ctx = AttackContext::omniscient(0, &g, &x, &honest);
            let sent = crate::forged(attack.as_mut(), &ctx);
            assert_eq!(sent.dim(), 3, "{} output dim", attack.name());
            assert!(!sent.has_non_finite(), "{} produced NaN", attack.name());
        }
    }
}
