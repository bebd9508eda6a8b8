//! The server ↔ agent wire value.
//!
//! [`ServerWire`] is what the *simulated* server topologies move over
//! their [`abft_net::MessageBus`]: the estimate going down, the gradient
//! coming back — the two messages of steps S1/S2, and nothing else. The
//! event-loop runtime ships no messages at all — agent cells stream
//! gradients straight into their loaned `GradientBatch` rows (see
//! [`abft_dgd::fleet`]).
//!
//! A payload is a counted handle to one row of a slab the run keeps, not
//! a row of its own: a broadcast writes `x_t` into the slab once and sends
//! every agent the same handle, and a reply is written into a row no
//! message holds any more. So a warmed-up run allocates nothing per
//! message.

use abft_linalg::Vector;
use std::rc::Rc;

/// Either direction of server ↔ agent traffic, as carried by a single
/// [`abft_net::MessageBus`] in the simulated server topologies.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerWire {
    /// Server → agent, the step S1 broadcast: "here is `x_t`, send me your
    /// gradient".
    Estimate {
        /// Iteration index `t`.
        iteration: usize,
        /// The current estimate `x_t`, one slab row shared by every agent
        /// the broadcast reaches.
        estimate: Rc<Vector>,
    },
    /// Agent → server: the (claimed) gradient for the requested iteration.
    Gradient {
        /// Iteration the reply answers.
        iteration: usize,
        /// The reported vector — `∇Q_i(x_t)` for honest agents, arbitrary
        /// for Byzantine ones.
        gradient: Rc<Vector>,
    },
}

/// The run's rows on the wire: every slot is a `d`-wide row the slab holds
/// one counted reference to, and each message carrying it holds another.
/// A slot whose count is back to one is held by no message — delivered and
/// consumed, dropped or discarded late alike — and is written again.
pub(crate) struct RowSlab {
    dim: usize,
    /// Slots no message holds.
    spare: Vec<Rc<Vector>>,
    /// Slots handed out since they were last found spare.
    lent: Vec<Rc<Vector>>,
}

impl RowSlab {
    /// A slab of `slots` spare `dim`-wide rows to start from.
    pub(crate) fn new(dim: usize, slots: usize) -> Self {
        RowSlab {
            dim,
            spare: (0..slots).map(|_| Rc::new(Vector::zeros(dim))).collect(),
            lent: Vec::with_capacity(slots),
        }
    }

    /// A spare slot with `write` run on its row, and a handle to it.
    /// The slab grows only while every slot is held.
    pub(crate) fn share(&mut self, write: impl FnOnce(&mut [f64])) -> Rc<Vector> {
        if self.spare.is_empty() {
            let spare = &mut self.spare;
            self.lent.retain(|slot| {
                let held = Rc::strong_count(slot) > 1;
                if !held {
                    spare.push(Rc::clone(slot));
                }
                held
            });
        }
        let mut slot = self
            .spare
            .pop()
            .unwrap_or_else(|| Rc::new(Vector::zeros(self.dim)));
        // A spare slot is the slab's alone, so this never copies.
        write(Rc::make_mut(&mut slot).as_mut_slice());
        self.lent.push(Rc::clone(&slot));
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_wire_wraps_both_directions() {
        let row = Rc::new(Vector::zeros(2));
        let down = ServerWire::Estimate {
            iteration: 0,
            estimate: Rc::clone(&row),
        };
        let up = ServerWire::Gradient {
            iteration: 0,
            gradient: row,
        };
        assert_eq!(down.clone(), down);
        assert_ne!(down, up);
    }

    #[test]
    fn messages_round_trip_clone_eq() {
        let m = ServerWire::Estimate {
            iteration: 3,
            estimate: Rc::new(Vector::ones(2)),
        };
        assert_eq!(m.clone(), m);
        let r = ServerWire::Gradient {
            iteration: 3,
            gradient: Rc::new(Vector::zeros(2)),
        };
        assert_eq!(r.clone(), r);
        assert_ne!(
            r,
            ServerWire::Gradient {
                iteration: 4,
                gradient: Rc::new(Vector::zeros(2)),
            }
        );
    }

    #[test]
    fn a_slot_is_written_again_only_once_no_message_holds_it() {
        let mut slab = RowSlab::new(2, 0);
        let first = slab.share(|row| row.fill(1.0));
        let second = slab.share(|row| row.fill(2.0));
        assert_ne!(Rc::as_ptr(&first), Rc::as_ptr(&second));
        let released = Rc::as_ptr(&second);
        drop(second);
        let third = slab.share(|row| row.fill(3.0));
        assert_eq!(Rc::as_ptr(&third), released, "the released slot comes back");
        assert_eq!(first.as_slice(), [1.0, 1.0], "a held row is never written");
        assert_eq!(third.as_slice(), [3.0, 3.0]);
        drop((first, third));
        let _rows = (slab.share(|_| {}), slab.share(|_| {}));
        assert_eq!(slab.spare.len() + slab.lent.len(), 2, "two slots in all");
    }
}
