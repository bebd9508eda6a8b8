//! Property-based tests for the Byzantine strategies.

use abft_attacks::{
    attack_by_name, AttackContext, ByzantineStrategy, GradientReverse, InnerProductManipulation,
    LittleIsEnough, RandomGaussian, ScaledReverse, ATTACK_NAMES,
};
use abft_linalg::Vector;
use proptest::prelude::*;

fn vector(dim: usize) -> impl Strategy<Value = Vector> {
    prop::collection::vec(-100.0..100.0f64, dim).prop_map(Vector::from)
}

/// `strategy`'s forgery for `ctx`, written into a fresh vector.
fn forged(strategy: &mut dyn ByzantineStrategy, ctx: &AttackContext<'_>) -> Vector {
    let mut out = Vector::zeros(ctx.dim());
    strategy.corrupt_into(ctx, out.as_mut_slice());
    out
}

proptest! {
    /// Gradient reversal preserves the norm and inverts the direction.
    #[test]
    fn reverse_preserves_norm_and_flips(g in vector(4), x in vector(4)) {
        let ctx = AttackContext::new(0, &g, &x);
        let sent = forged(&mut GradientReverse::new(), &ctx);
        prop_assert!((sent.norm() - g.norm()).abs() < 1e-12);
        prop_assert!((sent.dot(&g) + g.norm_sq()).abs() < 1e-9);
    }

    /// Scaled reversal scales exactly.
    #[test]
    fn scaled_reverse_scales(g in vector(3), x in vector(3), factor in -10.0..10.0f64) {
        let ctx = AttackContext::new(0, &g, &x);
        let sent = forged(&mut ScaledReverse::new(factor), &ctx);
        prop_assert!(sent.approx_eq(&g.scale(-factor), 1e-12));
    }

    /// The seeded random fault replays identically and is iteration-
    /// independent of the context contents.
    #[test]
    fn random_fault_replays(seed in 0u64..1000, g in vector(5), x in vector(5)) {
        let mut a = RandomGaussian::paper(seed);
        let mut b = RandomGaussian::paper(seed);
        let ctx = AttackContext::new(3, &g, &x);
        prop_assert!(forged(&mut a, &ctx).approx_eq(&forged(&mut b, &ctx), 0.0));
    }

    /// ALIE's forged vector stays within the honest per-coordinate envelope
    /// mean ± z·std — the stealth property that defeats order statistics.
    #[test]
    fn alie_stays_within_the_honest_envelope(
        honest in prop::collection::vec(vector(3), 3..8),
        z in 0.0..2.0f64,
    ) {
        let own = honest[0].clone();
        let x = Vector::zeros(3);
        let ctx = AttackContext::omniscient(1, &own, &x, &honest);
        let sent = forged(&mut LittleIsEnough::new(z), &ctx);
        let m = honest.len() as f64;
        for k in 0..3 {
            let mean = honest.iter().map(|g| g[k]).sum::<f64>() / m;
            let std = (honest.iter().map(|g| (g[k] - mean) * (g[k] - mean)).sum::<f64>() / m)
                .sqrt();
            prop_assert!(
                (sent[k] - (mean - z * std)).abs() < 1e-9,
                "coordinate {k}: {} vs mean {mean} - z*std {}",
                sent[k],
                z * std
            );
        }
    }

    /// The inner-product attack opposes the honest mean whenever it is
    /// non-zero.
    #[test]
    fn inner_product_opposes_honest_mean(
        honest in prop::collection::vec(vector(3), 2..6),
        scale in 0.1..10.0f64,
    ) {
        let own = honest[0].clone();
        let x = Vector::zeros(3);
        let ctx = AttackContext::omniscient(0, &own, &x, &honest);
        let sent = forged(&mut InnerProductManipulation::new(scale), &ctx);
        let mean = Vector::mean_of(&honest).expect("non-empty");
        if mean.norm() > 1e-9 {
            prop_assert!(sent.dot(&mean) < 0.0);
        }
    }

    /// Every registered attack produces a finite vector of the right
    /// dimension under arbitrary contexts.
    #[test]
    fn registry_attacks_are_well_formed(
        g in vector(4),
        x in vector(4),
        honest in prop::collection::vec(vector(4), 2..5),
        seed in 0u64..100,
        iteration in 0usize..1000,
    ) {
        for name in ATTACK_NAMES {
            let mut attack = attack_by_name(name, seed).expect("registered");
            let ctx = AttackContext::omniscient(iteration, &g, &x, &honest);
            let sent = forged(attack.as_mut(), &ctx);
            prop_assert_eq!(sent.dim(), 4, "{} dimension", name);
            prop_assert!(!sent.has_non_finite(), "{} produced non-finite", name);
        }
    }
}
