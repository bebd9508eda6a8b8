//! The workspace's single sanctioned wall-clock home.
//!
//! `clippy.toml` bans `Instant::now` everywhere, and only this file
//! expects the ban: timing must never feed control flow, so every
//! wall-clock read in the stack funnels through here, where it is visibly
//! metrics-only. Simulated runs do not use this module at
//! all — they stamp telemetry from the [`SimulatedNetwork`] virtual clock
//! instead, which is what keeps their profiles bit-reproducible.
//!
//! [`SimulatedNetwork`]: https://docs.rs/abft-net

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The process-wide clock origin: fixed at the first read, so every
/// `monotonic_ns` value across threads shares one time base.
#[expect(clippy::disallowed_methods, reason = "the sanctioned clock home")]
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds of monotonic wall time since the process-wide origin.
///
/// The first call in the process returns 0 and pins the origin; `u64`
/// nanoseconds overflow after ~584 years, far beyond any run.
pub fn monotonic_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// A started wall-clock stopwatch for elapsed-time metrics.
///
/// This is the migration target for the scenario layer's former
/// pragma-justified wall-clock sites: the duration it yields is
/// reporting-only and must never feed control flow.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[expect(clippy::disallowed_methods, reason = "the sanctioned clock home")]
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Wall time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_ns_is_nondecreasing() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }

    #[test]
    fn stopwatch_measures_something_nonnegative() {
        let sw = Stopwatch::start();
        let d = sw.elapsed();
        assert!(d <= sw.elapsed(), "elapsed never runs backwards");
    }
}
