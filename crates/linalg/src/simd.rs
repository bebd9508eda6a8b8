//! The vector width a kernel runs at, chosen at run time.
//!
//! The workspace is compiled for its target's baseline — SSE2 on x86-64,
//! where an auto-vectorised loop handles two `f64` lanes per instruction.
//! A kernel written as a [`Kernel`] is compiled two more times from the
//! same source, inside `#[target_feature]` wrappers for AVX2 (four lanes)
//! and AVX-512F (eight), and [`widest`] runs the widest copy the CPU
//! reports. Only the instructions change: every copy performs the same
//! IEEE operations in the same order (Rust never reassociates or contracts
//! floating-point arithmetic), so every width produces the baseline's bits.
//!
//! This module is the workspace's second home of `unsafe`, beside
//! [`crate::pool`]. Calling a `#[target_feature]` function is sound only
//! on a CPU that has the feature, so the two calls into the wrappers are
//! `unsafe` blocks, each behind the `is_x86_feature_detected!` check of
//! the width it runs ([`Width::call`]). Other targets compile the
//! baseline alone.

/// A computation compiled at every [`Width`].
///
/// Only code inlined into a `#[target_feature]` wrapper is compiled for
/// that feature: an implementation marks `compute` — and every function on its
/// hot loop — `#[inline(always)]`, or the call runs baseline code at every
/// width. (A closure would not do: its body is a separate function that the
/// wrapper calls without inlining.)
pub trait Kernel {
    /// What the computation returns.
    type Output;

    /// Runs the computation at the width of the function it is inlined
    /// into.
    fn compute(self) -> Self::Output;
}

/// The vector widths a [`Kernel`] is compiled for, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Width {
    /// The target's baseline (SSE2 on x86-64): two `f64` lanes.
    Baseline,
    /// AVX2: four `f64` lanes.
    Avx2,
    /// AVX-512F: eight `f64` lanes.
    Avx512,
}

impl Width {
    /// Every width, narrowest first.
    pub const ALL: [Width; 3] = [Width::Baseline, Width::Avx2, Width::Avx512];

    /// Whether this CPU executes the width's instructions.
    pub fn is_supported(self) -> bool {
        match self {
            Width::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Width::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Width::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Width::Avx2 | Width::Avx512 => false,
        }
    }

    /// The widest width this CPU supports.
    pub fn detected() -> Width {
        let mut widest_first = Width::ALL.into_iter().rev();
        widest_first
            .find(|w| w.is_supported())
            .unwrap_or(Width::Baseline)
    }

    /// Runs `kernel` compiled at this width, or hands it back untouched
    /// when the CPU lacks the width.
    #[expect(
        unsafe_code,
        reason = "a `#[target_feature]` function may only be called once the CPU \
                  is known to have the feature"
    )]
    pub fn call<K: Kernel>(self, kernel: K) -> Result<K::Output, K> {
        match self {
            Width::Baseline => Ok(kernel.compute()),
            #[cfg(target_arch = "x86_64")]
            Width::Avx2 if self.is_supported() => {
                // SAFETY: the guard ran `is_x86_feature_detected!("avx2")`,
                // the one feature `run_avx2` is compiled for.
                Ok(unsafe { run_avx2(kernel) })
            }
            #[cfg(target_arch = "x86_64")]
            Width::Avx512 if self.is_supported() => {
                // SAFETY: the guard ran `is_x86_feature_detected!("avx512f")`,
                // the one feature `run_avx512` is compiled for.
                Ok(unsafe { run_avx512(kernel) })
            }
            Width::Avx2 | Width::Avx512 => Err(kernel),
        }
    }
}

/// Runs `kernel` at the widest width this CPU supports.
pub fn widest<K: Kernel>(kernel: K) -> K::Output {
    match Width::detected().call(kernel) {
        Ok(output) => output,
        // The detected width is supported, so this is never taken.
        Err(kernel) => kernel.compute(),
    }
}

/// `kernel` compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.compute()
}

/// `kernel` compiled for AVX-512F.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<K: Kernel>(kernel: K) -> K::Output {
    kernel.compute()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A kernel that records that it ran.
    struct Mark<'a>(&'a Cell<bool>);

    impl Kernel for Mark<'_> {
        type Output = ();

        #[inline(always)]
        fn compute(self) {
            self.0.set(true);
        }
    }

    #[test]
    fn the_detected_width_is_supported_and_the_widest_one() {
        let detected = Width::detected();
        assert!(detected.is_supported());
        let wider = Width::ALL.into_iter().skip_while(|w| *w != detected);
        assert!(wider.skip(1).all(|w| !w.is_supported()), "{detected:?}");
        assert!(Width::Baseline.is_supported());
    }

    #[test]
    fn a_width_the_cpu_lacks_is_never_called() {
        for width in Width::ALL {
            let ran = Cell::new(false);
            let result = width.call(Mark(&ran));
            assert_eq!(result.is_ok(), width.is_supported(), "{width:?}");
            assert_eq!(ran.get(), width.is_supported(), "{width:?}");
        }
        let ran = Cell::new(false);
        widest(Mark(&ran));
        assert!(ran.get());
    }
}
