//! The [`MessageBus`] abstraction and its reliable reference
//! implementation.

use crate::metrics::NetMetrics;

/// One message delivered by a bus: who sent it, who receives it, when (in
/// the bus's virtual clock), and the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<P> {
    /// Sending process.
    pub from: usize,
    /// Receiving process.
    pub to: usize,
    /// Virtual time the message was handed to the bus.
    pub sent_at: u64,
    /// Virtual time the message arrived.
    pub delivered_at: u64,
    /// The message body.
    pub payload: P,
}

/// A timestamped message path between `processes()` peers: the one
/// abstraction both the real runtimes and the network simulator implement,
/// so a protocol written against it runs unmodified on either.
///
/// The bus keeps a virtual clock and offers the same traffic through two
/// views of time:
///
/// * **Continuous** — [`advance_until`](MessageBus::advance_until) moves
///   the clock to a caller-chosen deadline and hands over exactly the
///   messages delivered by then, leaving later traffic in flight. Every
///   [`Delivery`] carries its `sent_at` stamp, so a receiver can compute
///   message staleness (`now − sent_at`) itself — the substrate of the
///   asynchronous bounded-staleness drivers.
/// * **Round-structured** — [`end_round`](MessageBus::end_round) mirrors
///   the paper's synchronous system model: a protocol round is "everyone
///   sends, then everyone receives what arrived in time". Callers
///   [`send`](MessageBus::send) any number of messages, then close the
///   round and collect the messages that made the round deadline, in a
///   deterministic order. Messages that miss the deadline are *discarded*,
///   not carried over — a synchronous protocol ignores stale-round
///   messages, so a late gradient looks exactly like a crashed sender for
///   that round.
///
/// Both views deliver into a buffer the caller keeps: its contents are
/// replaced by the call's deliveries, so a driver that reuses one buffer
/// across calls allocates nothing once it has grown to its largest round.
///
/// The two views compose: on buses with a continuous clock, `end_round` is
/// required to behave as the thin adapter "`advance_until(now +
/// round_timeout)`, then discard whatever is still in flight as late" —
/// which is exactly how [`SimulatedNetwork`](crate::SimulatedNetwork)
/// implements it. That adapter contract is what keeps every pre-existing
/// round-lockstep backend bit-identical while the asynchronous drivers
/// pull the very same event schedule one deadline at a time.
pub trait MessageBus<P> {
    /// Number of addressable processes (`0..processes()`).
    fn processes(&self) -> usize;

    /// Hands a message to the bus for delivery at the current virtual
    /// time.
    fn send(&mut self, from: usize, to: usize, payload: P);

    /// Closes the current round: advances the virtual clock to the round
    /// deadline and replaces `delivered`'s contents with every message that
    /// arrived by it, ordered by `(delivered_at, send sequence)` — fully
    /// deterministic. Messages still in flight at the deadline are
    /// discarded as late.
    fn end_round(&mut self, delivered: &mut Vec<Delivery<P>>);

    /// Continuous-time event pull: advances the virtual clock to
    /// `deadline` and replaces `delivered`'s contents with every message
    /// delivered by then, ordered by `(delivered_at, send sequence)`.
    /// Messages whose delivery time lies past `deadline` stay queued for a
    /// later call — nothing is discarded.
    ///
    /// Round-structured buses with no finer clock (the default) interpret
    /// any advance as closing the current round, so protocols written
    /// against the continuous view still run on them; only buses that keep
    /// a real event queue (see [`SimulatedNetwork`](crate::SimulatedNetwork))
    /// can honor the deadline exactly.
    fn advance_until(&mut self, deadline: u64, delivered: &mut Vec<Delivery<P>>) {
        let _ = deadline;
        self.end_round(delivered);
    }

    /// Virtual time of the earliest queued delivery, if the bus keeps a
    /// continuous event queue — the event-pull companion to
    /// [`advance_until`](MessageBus::advance_until): advancing to exactly
    /// this time yields the next batch of deliveries without skipping any.
    /// Buses with no such queue (the default) return `None`.
    fn next_event_at(&self) -> Option<u64> {
        None
    }

    /// Announces the start of protocol iteration `iteration`, so
    /// schedule-driven faults (partitions) can key on the driver's notion
    /// of progress. Reliable buses ignore it.
    fn begin_iteration(&mut self, iteration: usize) {
        let _ = iteration;
    }

    /// Counters accumulated so far.
    fn metrics(&self) -> NetMetrics;

    /// The bus's virtual clock in nanoseconds, when it keeps a meaningful
    /// one. Simulated buses report their schedule-driven time here so
    /// drivers can profile in virtual time (deterministic across runs);
    /// reliable buses return `None`, telling drivers to profile on the
    /// wall clock instead. The default is `None`.
    fn virtual_time(&self) -> Option<u64> {
        None
    }
}

/// The reliable reference bus: every message is delivered within its
/// round, in send order, with one virtual tick per round. The real
/// (non-simulated) runtimes speak to this, which is what makes them and
/// the simulator share one message path — and what the simulator's
/// ideal-link mode is tested bit-identical against.
#[derive(Debug, Clone)]
pub struct PerfectBus<P> {
    processes: usize,
    round: u64,
    pending: Vec<Delivery<P>>,
    metrics: NetMetrics,
}

impl<P> PerfectBus<P> {
    /// A reliable bus over `processes` peers.
    pub fn new(processes: usize) -> Self {
        PerfectBus {
            processes,
            round: 0,
            pending: Vec::new(),
            metrics: NetMetrics::default(),
        }
    }
}

impl<P> MessageBus<P> for PerfectBus<P> {
    fn processes(&self) -> usize {
        self.processes
    }

    // LINT-ALLOW(panic-reach): endpoint ids out of range are a harness
    // wiring bug, not a runtime condition — fail loudly at the boundary.
    fn send(&mut self, from: usize, to: usize, payload: P) {
        assert!(from < self.processes, "sender {from} out of range");
        assert!(to < self.processes, "recipient {to} out of range");
        self.metrics.record_send();
        self.pending.push(Delivery {
            from,
            to,
            sent_at: self.round,
            delivered_at: self.round,
            payload,
        });
    }

    /// Hands the round's pending buffer to the caller and keeps the
    /// caller's (emptied) one for the next round, so the two buffers
    /// alternate and neither is reallocated once both have grown.
    fn end_round(&mut self, delivered: &mut Vec<Delivery<P>>) {
        self.round += 1;
        self.metrics.virtual_ns = self.round;
        delivered.clear();
        std::mem::swap(&mut self.pending, delivered);
        for d in delivered.iter() {
            self.metrics
                .record_delivery(d.from, d.to, d.sent_at, d.delivered_at);
        }
    }

    fn metrics(&self) -> NetMetrics {
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_everything_in_send_order() {
        let mut bus = PerfectBus::new(3);
        bus.send(0, 1, "a");
        bus.send(2, 0, "b");
        bus.send(1, 1, "c");
        let mut round = Vec::new();
        bus.end_round(&mut round);
        let payloads: Vec<&str> = round.iter().map(|d| d.payload).collect();
        assert_eq!(payloads, vec!["a", "b", "c"]);
        bus.end_round(&mut round);
        assert!(round.is_empty(), "rounds do not carry over");
        let m = bus.metrics();
        assert_eq!(m.sent, 3);
        assert_eq!(m.delivered, 3);
        assert!(m.is_balanced());
        assert_eq!(m.virtual_ns, 2, "one tick per round");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_addresses() {
        let mut bus = PerfectBus::new(2);
        bus.send(0, 2, ());
    }

    #[test]
    fn identical_usage_gives_identical_digests() {
        let drive = || {
            let mut bus = PerfectBus::new(4);
            let mut round = Vec::new();
            bus.send(0, 1, 7u32);
            bus.send(3, 2, 9);
            bus.end_round(&mut round);
            bus.send(1, 0, 1);
            bus.end_round(&mut round);
            bus.metrics()
        };
        assert_eq!(drive(), drive());
    }
}
