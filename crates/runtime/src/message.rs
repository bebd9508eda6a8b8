//! The server ↔ agent wire value.
//!
//! [`ServerWire`] is what the *simulated* server topologies move over
//! their [`abft_net::MessageBus`]: the estimate going down, the gradient
//! coming back — the two messages of steps S1/S2, and nothing else. The
//! event-loop runtime ships no messages at all — agent cells stream
//! gradients straight into their loaned `GradientBatch` rows (see
//! [`abft_dgd::fleet`]).

use abft_linalg::Vector;

/// Either direction of server ↔ agent traffic, as carried by a single
/// [`abft_net::MessageBus`] in the simulated server topologies.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerWire {
    /// Server → agent, the step S1 broadcast: "here is `x_t`, send me your
    /// gradient".
    Estimate {
        /// Iteration index `t`.
        iteration: usize,
        /// The current estimate `x_t`.
        estimate: Vector,
    },
    /// Agent → server: the (claimed) gradient for the requested iteration.
    Gradient {
        /// Iteration the reply answers.
        iteration: usize,
        /// The reported vector — `∇Q_i(x_t)` for honest agents, arbitrary
        /// for Byzantine ones.
        gradient: Vector,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_wire_wraps_both_directions() {
        let down = ServerWire::Estimate {
            iteration: 0,
            estimate: Vector::zeros(2),
        };
        let up = ServerWire::Gradient {
            iteration: 0,
            gradient: Vector::zeros(2),
        };
        assert_eq!(down.clone(), down);
        assert_ne!(down, up);
    }

    #[test]
    fn messages_round_trip_clone_eq() {
        let m = ServerWire::Estimate {
            iteration: 3,
            estimate: Vector::ones(2),
        };
        assert_eq!(m.clone(), m);
        let r = ServerWire::Gradient {
            iteration: 3,
            gradient: Vector::zeros(2),
        };
        assert_eq!(r.clone(), r);
        assert_ne!(
            r,
            ServerWire::Gradient {
                iteration: 4,
                gradient: Vector::zeros(2),
            }
        );
    }
}
