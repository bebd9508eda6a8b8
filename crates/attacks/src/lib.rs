//! Byzantine behaviour substrate.
//!
//! A Byzantine agent "may send arbitrary incorrect and inconsistent
//! information" (Section 1). This crate models concrete fault behaviours as
//! [`ByzantineStrategy`] implementations:
//!
//! * the paper's two regression-experiment faults — **gradient-reverse**
//!   ([`GradientReverse`]) and **random** Gaussian vectors with σ = 200
//!   ([`RandomGaussian`]);
//! * the paper's ML fault **label-flip** is a *data* fault and lives in
//!   `abft-ml` (labels are remapped `y → 9 − y` before training);
//! * standard literature attacks for stress tests: scaled reverse, zero
//!   (free-rider), constant, "a little is enough" (ALIE), and inner-product
//!   manipulation — the latter two are *omniscient* (they inspect honest
//!   gradients).
//!
//! # Example
//!
//! ```
//! use abft_attacks::{AttackContext, ByzantineStrategy, GradientReverse};
//! use abft_linalg::Vector;
//!
//! let mut attack = GradientReverse::new();
//! let honest = Vector::from(vec![1.0, -2.0]);
//! let estimate = Vector::zeros(2);
//! let ctx = AttackContext::new(0, &honest, &estimate);
//! // The forgery lands in the slot the agent's row would occupy.
//! let mut sent = [0.0; 2];
//! attack.corrupt_into(&ctx, &mut sent);
//! assert_eq!(sent, [-1.0, 2.0]);
//! ```

pub mod context;
pub mod omniscient;
pub mod registry;
pub mod simple;

pub use context::{AttackContext, HonestGradients};
pub use omniscient::{InnerProductManipulation, LittleIsEnough};
pub use registry::{attack_by_name, attack_names, UnknownAttack, ATTACK_NAMES};
pub use simple::{ConstantVector, GradientReverse, RandomGaussian, ScaledReverse, ZeroGradient};

/// A Byzantine fault behaviour: given what the agent knows at this
/// iteration, produce the (arbitrary) vector it sends to the server.
///
/// Strategies take `&mut self` because stateful attacks (e.g. random ones)
/// advance an internal RNG; they must be `Send` so the threaded runtime can
/// move them into agent threads.
///
/// A strategy has one way to forge: [`ByzantineStrategy::corrupt_into`]
/// writes the forgery directly into a caller-supplied slot — a
/// `GradientBatch` row on the zero-copy driver path. There is no
/// allocating twin; a caller that wants a fresh vector zeroes one and
/// passes its slice.
pub trait ByzantineStrategy: Send {
    /// Writes the vector this faulty agent reports — instead of its true
    /// gradient — into `out` (a batch row on the hot path).
    ///
    /// # Panics
    ///
    /// Implementations may panic when `out.len() != ctx.dim()`.
    fn corrupt_into(&mut self, ctx: &AttackContext<'_>, out: &mut [f64]);

    /// A stable, lowercase identifier (used by the registry and reports).
    fn name(&self) -> &'static str;

    /// `true` when the strategy needs visibility of honest gradients
    /// (omniscient attacks). The simulation harness only provides them when
    /// this returns `true`.
    fn is_omniscient(&self) -> bool {
        false
    }
}

/// `strategy`'s forgery for `ctx` as a fresh vector — the unit tests'
/// shorthand for one [`ByzantineStrategy::corrupt_into`] call.
#[cfg(test)]
pub(crate) fn forged(
    strategy: &mut dyn ByzantineStrategy,
    ctx: &AttackContext<'_>,
) -> abft_linalg::Vector {
    let mut out = abft_linalg::Vector::zeros(ctx.dim());
    strategy.corrupt_into(ctx, out.as_mut_slice());
    out
}
