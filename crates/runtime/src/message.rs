//! Serializable server ↔ agent message types.
//!
//! These are the wire values the *simulated* server topology moves over
//! its [`abft_net::MessageBus`]. The event-loop runtime ships no
//! messages at all — agent cells stream gradients straight into their
//! loaned `GradientBatch` rows (see [`abft_dgd::fleet`]).

use abft_linalg::Vector;

/// Messages from the server to an agent.
#[derive(Debug, Clone, PartialEq)]
pub enum ToAgent {
    /// Step S1 broadcast: "here is `x_t`, send me your gradient".
    Estimate {
        /// Iteration index `t`.
        iteration: usize,
        /// The current estimate `x_t`.
        estimate: Vector,
    },
    /// Graceful shutdown at the end of a run.
    Shutdown,
}

/// Messages from an agent back to the server.
#[derive(Debug, Clone, PartialEq)]
pub enum FromAgent {
    /// The (claimed) gradient for the requested iteration.
    Gradient {
        /// Iteration the reply answers.
        iteration: usize,
        /// The reported vector — `∇Q_i(x_t)` for honest agents, arbitrary
        /// for Byzantine ones.
        gradient: Vector,
    },
}

/// Either direction of server ↔ agent traffic, as carried by a single
/// [`abft_net::MessageBus`] in the simulated server topologies.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerWire {
    /// Server → agent.
    Command(ToAgent),
    /// Agent → server.
    Reply(FromAgent),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_wire_wraps_both_directions() {
        let cmd = ServerWire::Command(ToAgent::Shutdown);
        let reply = ServerWire::Reply(FromAgent::Gradient {
            iteration: 0,
            gradient: Vector::zeros(2),
        });
        assert_eq!(cmd.clone(), cmd);
        assert_ne!(cmd, reply);
    }

    #[test]
    fn messages_round_trip_clone_eq() {
        let m = ToAgent::Estimate {
            iteration: 3,
            estimate: Vector::ones(2),
        };
        assert_eq!(m.clone(), m);
        assert_ne!(m, ToAgent::Shutdown);
        let r = FromAgent::Gradient {
            iteration: 3,
            gradient: Vector::zeros(2),
        };
        assert_eq!(r.clone(), r);
    }
}
