//! The seeded discrete-event simulator behind the `Simulated` backend.

use crate::bus::{Delivery, MessageBus};
use crate::link::LinkModel;
use crate::metrics::NetMetrics;
use crate::model::NetworkModel;
use crate::rng::{mix, SplitMix64};
use std::vec::Drain;

/// One message in flight. `(delivered_at, seq)` is its place in the
/// delivery order; `seq` is the global send sequence number, which is
/// unique — so the order is total and independent of the payload.
struct InFlight<P> {
    delivered_at: u64,
    seq: u64,
    sent_at: u64,
    from: usize,
    to: usize,
    payload: P,
}

/// A deterministic discrete-event network simulator: virtual clock, an
/// event queue ordered by `(delivered_at, send sequence)`, per-link
/// [`LinkModel`]s (delay, loss, reordering) and scheduled [`Partition`]s,
/// all derived from one seed.
///
/// The queue is two lanes, each a `Vec` in send order. A loopback is
/// delivered the instant it is sent, ahead of every link message still in
/// flight, so loopbacks keep a lane of their own, which send order keeps
/// in `(delivered_at, seq)` order; delivery merges the two lanes by that
/// key. Link traffic on equal fixed delays arrives in send order too, so
/// the link lane is sorted only when a send lands ahead of the message
/// queued before it — a jittered or a faster link — and then once, just
/// before the next delivery. Fixed-delay links (every ideal link among
/// them) therefore never sort. The key is unique, so the order is exactly
/// a priority queue's, and the sort is in place: a warmed-up simulator
/// allocates nothing per message.
///
/// Determinism contract: the full event schedule — which messages are
/// dropped, when each survivor is delivered, and the order
/// [`end_round`](MessageBus::end_round) hands them over in — is a pure
/// function of the [`NetworkModel`] and the sequence of bus calls. Each
/// link's randomness stream is derived from `(seed, from, to)` and
/// advanced only by that link's own traffic, so one link's schedule never
/// depends on another's. A link that can neither lose nor jitter a
/// message skips its draws: their outcome is fixed, and nothing else reads
/// the stream.
///
/// With every link ideal (no loss, no jitter, delay within the deadline),
/// the simulator delivers exactly what a [`PerfectBus`](crate::PerfectBus)
/// delivers, in send order — the bridge the cross-backend equivalence
/// tests pin.
///
/// [`Partition`]: crate::Partition
pub struct SimulatedNetwork<P> {
    model: NetworkModel,
    processes: usize,
    now: u64,
    iteration: usize,
    seq: u64,
    /// Link messages in flight, in send order until `sorted` says
    /// otherwise.
    in_flight: Vec<InFlight<P>>,
    /// `in_flight` is in `(delivered_at, seq)` order.
    sorted: bool,
    /// Loopbacks in flight, in send order — which is `(delivered_at, seq)`
    /// order, since each is due the instant it is sent.
    loopbacks: Vec<InFlight<P>>,
    /// Every directed link's model and randomness stream, `from ·
    /// processes + to`, resolved once at construction.
    links: Vec<Link>,
    metrics: NetMetrics,
}

/// One directed link's state: its [`LinkModel`] and its own stream.
struct Link {
    model: LinkModel,
    stream: SplitMix64,
}

impl<P> SimulatedNetwork<P> {
    /// A fresh simulator over `processes` peers (normally via
    /// [`NetworkModel::build`]).
    pub fn new(model: NetworkModel, processes: usize) -> Self {
        let links = (0..processes * processes)
            .map(|link| {
                let (from, to) = (link / processes, link % processes);
                Link {
                    model: *model.link(from, to),
                    stream: SplitMix64::new(mix(model.seed, mix(from as u64, to as u64))),
                }
            })
            .collect();
        SimulatedNetwork {
            model,
            processes,
            now: 0,
            iteration: 0,
            seq: 0,
            in_flight: Vec::new(),
            sorted: true,
            loopbacks: Vec::new(),
            links,
            metrics: NetMetrics::default(),
        }
    }

    /// The model this simulator was built from.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// Current virtual time, in virtual nanoseconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Discards every message still in flight, counting each as late.
    /// [`end_round`](MessageBus::end_round) uses this to enforce the
    /// synchronous "stale messages look like crashes" rule; asynchronous
    /// drivers call it once at shutdown so messages abandoned mid-flight
    /// stay accounted (`NetMetrics::is_balanced` keeps holding).
    pub fn drain_in_flight(&mut self) {
        for _ in self.in_flight.drain(..).chain(self.loopbacks.drain(..)) {
            self.metrics.record_late();
        }
        self.sorted = true;
    }

    /// A message sent now for delivery at `delivered_at`, under the next
    /// send sequence number.
    fn stamp(&mut self, delivered_at: u64, from: usize, to: usize, payload: P) -> InFlight<P> {
        let event = InFlight {
            delivered_at,
            seq: self.seq,
            sent_at: self.now,
            from,
            to,
            payload,
        };
        self.seq += 1;
        event
    }
}

impl<P> InFlight<P> {
    /// The message's place in the delivery order.
    fn key(&self) -> (u64, u64) {
        (self.delivered_at, self.seq)
    }
}

/// Hands two lanes' due messages over in `(delivered_at, seq)` order, a
/// run at a time: the link messages due before the next loopback, then the
/// loopbacks due before the next link message, until one lane runs dry.
fn merge<P>(
    mut links: Drain<'_, InFlight<P>>,
    mut loopbacks: Drain<'_, InFlight<P>>,
    metrics: &mut NetMetrics,
    delivered: &mut Vec<Delivery<P>>,
) {
    // Hands over `lane`'s messages due before `next`, or all of them.
    let mut hand_over = |lane: &mut Drain<'_, InFlight<P>>, next: Option<(u64, u64)>| {
        let run = next.map_or(lane.len(), |next| {
            lane.as_slice().partition_point(|event| event.key() < next)
        });
        delivered.extend(lane.take(run).map(|event| deliver(metrics, event)));
    };
    let head = |lane: &Drain<'_, InFlight<P>>| lane.as_slice().first().map(InFlight::key);
    while let Some(next) = head(&loopbacks) {
        hand_over(&mut links, Some(next));
        let Some(next) = head(&links) else {
            break;
        };
        hand_over(&mut loopbacks, Some(next));
    }
    hand_over(&mut loopbacks, None);
    hand_over(&mut links, None);
}

/// Records `event` in the schedule and hands it over as a delivery.
fn deliver<P>(metrics: &mut NetMetrics, event: InFlight<P>) -> Delivery<P> {
    metrics.record_delivery(event.from, event.to, event.sent_at, event.delivered_at);
    Delivery {
        from: event.from,
        to: event.to,
        sent_at: event.sent_at,
        delivered_at: event.delivered_at,
        payload: event.payload,
    }
}

impl<P> MessageBus<P> for SimulatedNetwork<P> {
    fn processes(&self) -> usize {
        self.processes
    }

    // LINT-ALLOW(panic-reach): endpoint ids out of range are a harness
    // wiring bug, not a runtime condition — fail loudly at the boundary.
    fn send(&mut self, from: usize, to: usize, payload: P) {
        assert!(from < self.processes, "sender {from} out of range");
        assert!(to < self.processes, "recipient {to} out of range");
        self.metrics.record_send();
        if from == to {
            // Self-delivery is in-memory: no real deployment loses or
            // delays a process's message to itself, so loopbacks bypass
            // the link model entirely (partitions cannot sever them
            // either — a process is always on its own side of a cut).
            let event = self.stamp(self.now, from, to, payload);
            self.loopbacks.push(event);
            return;
        }
        if self.model.severed(from, to, self.iteration) {
            self.metrics.record_drop();
            return;
        }
        // In range: both endpoints were checked above.
        let Link { model, stream } = &mut self.links[from * self.processes + to];
        // One loss draw per message keeps each link's stream aligned with
        // its own traffic regardless of the configured probability. A
        // lossless, jitter-free link skips its draws: they could only come
        // out "keep, no jitter", and nothing else reads its stream.
        let jitter = if model.is_ideal_behaviour() {
            0
        } else {
            if stream.next_unit() < model.drop_probability {
                self.metrics.record_drop();
                return;
            }
            if model.reorder_ns > 0 {
                stream.next_below_inclusive(model.reorder_ns)
            } else {
                0
            }
        };
        let delivered_at = self.now + model.base_delay_ns + jitter;
        // A later `seq` never sorts first on a tie, so only an earlier
        // delivery time breaks the lane's order.
        if self
            .in_flight
            .last()
            .is_some_and(|last| last.delivered_at > delivered_at)
        {
            self.sorted = false;
        }
        let event = self.stamp(delivered_at, from, to, payload);
        self.in_flight.push(event);
    }

    /// The synchronous adapter over the continuous clock: advance to the
    /// round deadline, deliver what made it, and discard the rest as late.
    /// Deliveries leave in `(delivered_at, seq)` order, so every
    /// in-deadline event surfaces before any late one and the delivery
    /// schedule (and hence `schedule_digest`) is bit-identical to the
    /// historical round-lockstep implementation.
    fn end_round(&mut self, delivered: &mut Vec<Delivery<P>>) {
        let deadline = self.now + self.model.round_timeout_ns;
        self.advance_until(deadline, delivered);
        // Missed the synchronous deadline: the recipient proceeds without
        // it, exactly as if the sender had crashed for the round.
        self.drain_in_flight();
    }

    /// Continuous event pull: deliver everything due by `deadline` in
    /// `(delivered_at, seq)` order and advance the clock (monotonically) to
    /// `deadline`, leaving later traffic in flight.
    fn advance_until(&mut self, deadline: u64, delivered: &mut Vec<Delivery<P>>) {
        if !self.sorted {
            // The key is unique, so an unstable sort is exact — and it
            // sorts in place.
            self.in_flight.sort_unstable_by_key(InFlight::key);
            self.sorted = true;
        }
        let due = self
            .in_flight
            .partition_point(|event| event.delivered_at <= deadline);
        delivered.clear();
        let metrics = &mut self.metrics;
        if self.loopbacks.is_empty() {
            // One lane, as in every server topology: its due prefix as it
            // stands (a plain loop here measures faster than the merge).
            for event in self.in_flight.drain(..due) {
                delivered.push(deliver(metrics, event));
            }
        } else {
            let looped = self
                .loopbacks
                .partition_point(|event| event.delivered_at <= deadline);
            delivered.reserve(due + looped);
            let links = self.in_flight.drain(..due);
            merge(links, self.loopbacks.drain(..looped), metrics, delivered);
        }
        self.now = self.now.max(deadline);
        self.metrics.virtual_ns = self.now;
    }

    fn next_event_at(&self) -> Option<u64> {
        let link = if self.sorted {
            self.in_flight.first().map(|event| event.delivered_at)
        } else {
            self.in_flight.iter().map(|event| event.delivered_at).min()
        };
        // Loopbacks are due in send order, so the lane's first is its
        // earliest.
        match self.loopbacks.first() {
            None => link,
            Some(looped) => {
                Some(link.map_or(looped.delivered_at, |at| at.min(looped.delivered_at)))
            }
        }
    }

    fn begin_iteration(&mut self, iteration: usize) {
        self.iteration = iteration;
    }

    fn metrics(&self) -> NetMetrics {
        self.metrics
    }

    fn virtual_time(&self) -> Option<u64> {
        Some(self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkModel, Partition};

    /// One round's deliveries in a fresh buffer.
    fn end_round(net: &mut SimulatedNetwork<u32>) -> Vec<Delivery<u32>> {
        let mut delivered = Vec::new();
        net.end_round(&mut delivered);
        delivered
    }

    /// The deliveries due by `deadline`, in a fresh buffer.
    fn advance_until(net: &mut SimulatedNetwork<u32>, deadline: u64) -> Vec<Delivery<u32>> {
        let mut delivered = Vec::new();
        net.advance_until(deadline, &mut delivered);
        delivered
    }

    fn drive_all_pairs(net: &mut SimulatedNetwork<u32>, n: usize) -> Vec<Delivery<u32>> {
        for from in 0..n {
            for to in 0..n {
                net.send(from, to, (from * n + to) as u32);
            }
        }
        end_round(net)
    }

    #[test]
    fn ideal_network_delivers_everything_deterministically() {
        let mut net = NetworkModel::ideal().build::<u32>(3);
        let delivered = drive_all_pairs(&mut net, 3);
        assert_eq!(delivered.len(), 9);
        let payloads: Vec<u32> = delivered.iter().map(|d| d.payload).collect();
        // Instant loopbacks land first (send order), then the link
        // messages (send order, all sharing the ideal link delay).
        assert_eq!(payloads, vec![0, 4, 8, 1, 2, 3, 5, 6, 7]);
        let m = net.metrics();
        assert!(m.is_balanced());
        assert_eq!(m.delivered, 9);
        assert_eq!(m.virtual_ns, NetworkModel::DEFAULT_ROUND_TIMEOUT_NS);
    }

    #[test]
    fn certain_loss_drops_everything_except_loopbacks() {
        let model = NetworkModel::seeded(1).with_default_link(LinkModel::ideal().with_drop(1.0));
        let mut net = model.build::<u32>(3);
        let delivered = drive_all_pairs(&mut net, 3);
        // The three self-addressed messages are in-memory and untouchable
        // by the link model; the six real links drop everything.
        assert_eq!(delivered.len(), 3);
        assert!(delivered.iter().all(|d| d.from == d.to));
        let m = net.metrics();
        assert_eq!(m.dropped, 6);
        assert!(m.is_balanced());
    }

    #[test]
    fn loopbacks_bypass_delay_and_jitter_too() {
        let model = NetworkModel::ideal()
            .with_default_link(
                LinkModel::ideal()
                    .with_delay_ns(5_000_000)
                    .with_reorder_ns(999),
            )
            .with_round_timeout_ns(1_000);
        let mut net = model.build::<u32>(2);
        net.send(0, 0, 1);
        net.send(0, 1, 2);
        let delivered = end_round(&mut net);
        assert_eq!(delivered.len(), 1, "only the loopback makes the deadline");
        assert_eq!(delivered[0].to, 0);
        assert_eq!(net.metrics().late, 1);
    }

    #[test]
    fn partitions_sever_only_crossing_links_during_their_window() {
        let model = NetworkModel::ideal().with_partition(Partition::isolate(vec![0], 1, 2));
        let mut net = model.build::<u32>(3);
        net.begin_iteration(0);
        assert_eq!(drive_all_pairs(&mut net, 3).len(), 9, "before the window");
        net.begin_iteration(1);
        // 0↔1 and 0↔2 are cut (4 messages); 5 survive (including loopbacks).
        assert_eq!(drive_all_pairs(&mut net, 3).len(), 5, "during the window");
        net.begin_iteration(2);
        assert_eq!(drive_all_pairs(&mut net, 3).len(), 9, "healed");
    }

    #[test]
    fn delay_past_the_deadline_is_late_not_delivered() {
        let model = NetworkModel::ideal()
            .with_default_link(LinkModel::ideal().with_delay_ns(5_000))
            .with_round_timeout_ns(2_000);
        let mut net = model.build::<u32>(2);
        net.send(0, 1, 7);
        assert!(end_round(&mut net).is_empty());
        let m = net.metrics();
        assert_eq!(m.late, 1);
        assert!(m.is_balanced());
        // The next round starts from the advanced clock and behaves the same.
        net.send(1, 0, 8);
        assert!(end_round(&mut net).is_empty());
        assert_eq!(net.metrics().late, 2);
    }

    #[test]
    fn reorder_window_reorders_but_stays_deterministic() {
        let model =
            NetworkModel::seeded(11).with_default_link(LinkModel::ideal().with_reorder_ns(10_000));
        let run = || {
            let mut net = model.build::<u32>(2);
            for k in 0..20 {
                net.send(0, 1, k);
            }
            end_round(&mut net)
                .into_iter()
                .map(|d| d.payload)
                .collect::<Vec<u32>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same schedule");
        assert_ne!(
            a,
            (0..20).collect::<Vec<u32>>(),
            "the jitter window actually reorders this stream"
        );
    }

    #[test]
    fn schedules_are_seed_sensitive() {
        let schedule = |seed: u64| {
            let model = NetworkModel::seeded(seed)
                .with_default_link(LinkModel::ideal().with_drop(0.3).with_reorder_ns(1_000));
            let mut net = model.build::<u32>(4);
            let _ = drive_all_pairs(&mut net, 4);
            net.metrics()
        };
        assert_eq!(schedule(5), schedule(5));
        assert_ne!(schedule(5).schedule_digest, schedule(6).schedule_digest);
    }

    #[test]
    fn advance_until_leaves_later_traffic_in_flight() {
        let model = NetworkModel::ideal()
            .with_default_link(LinkModel::ideal().with_delay_ns(1_000))
            .with_round_timeout_ns(10_000);
        let mut net = model.build::<u32>(2);
        net.send(0, 1, 1);
        assert_eq!(net.next_event_at(), Some(1_000));
        // Advance short of the delivery: clock moves, nothing arrives.
        assert!(advance_until(&mut net, 500).is_empty());
        assert_eq!(net.now(), 500);
        assert_eq!(net.next_event_at(), Some(1_000), "message is still queued");
        // Advancing to the delivery instant pulls exactly that event.
        let delivered = advance_until(&mut net, 1_000);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].sent_at, 0);
        assert_eq!(delivered[0].delivered_at, 1_000);
        assert_eq!(net.next_event_at(), None);
        assert!(net.metrics().is_balanced());
    }

    #[test]
    fn advance_until_never_moves_the_clock_backwards() {
        let mut net = NetworkModel::ideal().build::<u32>(2);
        assert!(advance_until(&mut net, 5_000).is_empty());
        assert!(advance_until(&mut net, 1_000).is_empty());
        assert_eq!(net.now(), 5_000, "a stale deadline is a no-op");
    }

    #[test]
    fn end_round_equals_advance_until_plus_drain() {
        // Lossy, jittered, partly late traffic: the round view must be the
        // continuous view advanced to the round deadline with the
        // remainder drained as late — same deliveries, same order, same
        // digest.
        let model = NetworkModel::seeded(17).with_default_link(
            LinkModel::ideal()
                .with_drop(0.2)
                .with_delay_ns(800_000)
                .with_reorder_ns(400_000),
        );
        let drive = |net: &mut SimulatedNetwork<u32>| {
            for k in 0..30 {
                net.send(k % 4, (k + 1) % 4, k as u32);
            }
        };
        let mut round_view = model.build::<u32>(4);
        drive(&mut round_view);
        let by_round = end_round(&mut round_view);

        let mut continuous = model.build::<u32>(4);
        drive(&mut continuous);
        let deadline = continuous.now() + NetworkModel::DEFAULT_ROUND_TIMEOUT_NS;
        let by_advance = advance_until(&mut continuous, deadline);
        continuous.drain_in_flight();

        assert_eq!(by_round, by_advance);
        assert_eq!(round_view.metrics(), continuous.metrics());
        assert_eq!(round_view.now(), continuous.now());
    }

    #[test]
    fn piecewise_advance_matches_one_shot_advance() {
        let model =
            NetworkModel::seeded(23).with_default_link(LinkModel::ideal().with_reorder_ns(600_000));
        let drive = |net: &mut SimulatedNetwork<u32>| {
            for k in 0..24 {
                net.send(k % 3, (k + 2) % 3, k as u32);
            }
        };
        let mut one_shot = model.build::<u32>(3);
        drive(&mut one_shot);
        let all = advance_until(&mut one_shot, 2_000_000);

        let mut piecewise = model.build::<u32>(3);
        drive(&mut piecewise);
        let mut pulled = Vec::new();
        // Event-pull loop: hop deadline to deadline through the queue.
        while let Some(at) = piecewise.next_event_at() {
            if at > 2_000_000 {
                break;
            }
            pulled.extend(advance_until(&mut piecewise, at));
        }
        pulled.extend(advance_until(&mut piecewise, 2_000_000));

        assert_eq!(all, pulled);
        assert_eq!(one_shot.metrics(), piecewise.metrics());
    }

    #[test]
    fn each_link_draws_from_the_stream_its_endpoints_seed() {
        // Link 2 → 1's schedule is the SplitMix64 stream seeded with
        // `mix(seed, mix(2, 1))`: one loss draw per message, then one
        // jitter draw per survivor.
        let (seed, drop, reorder) = (13, 0.3, 700);
        let link = LinkModel::ideal().with_drop(drop).with_reorder_ns(reorder);
        let mut net = NetworkModel::seeded(seed)
            .with_default_link(link)
            .build::<u32>(3);
        for k in 0..40 {
            net.send(2, 1, k);
        }
        let delivered: Vec<(u64, u32)> = end_round(&mut net)
            .into_iter()
            .map(|d| (d.delivered_at, d.payload))
            .collect();
        let mut stream = SplitMix64::new(mix(seed, mix(2, 1)));
        let mut expected: Vec<(u64, u32)> = (0..40)
            .filter_map(|k| {
                let lost = stream.next_unit() < drop;
                let jitter = (!lost).then(|| stream.next_below_inclusive(reorder));
                jitter.map(|jitter| (link.base_delay_ns + jitter, k))
            })
            .collect();
        expected.sort_unstable();
        assert_eq!(delivered, expected);
    }

    #[test]
    fn link_streams_are_independent() {
        // Traffic on 0→1 must not change what happens on 2→3.
        let model = NetworkModel::seeded(9)
            .with_default_link(LinkModel::ideal().with_drop(0.5).with_reorder_ns(500));
        let mut quiet = model.build::<u32>(4);
        quiet.send(2, 3, 1);
        let quiet_round = end_round(&mut quiet);

        let mut busy = model.build::<u32>(4);
        for k in 0..50 {
            busy.send(0, 1, k);
        }
        busy.send(2, 3, 1);
        let busy_round: Vec<Delivery<u32>> = end_round(&mut busy)
            .into_iter()
            .filter(|d| d.from == 2)
            .collect();
        let quiet_round: Vec<Delivery<u32>> =
            quiet_round.into_iter().filter(|d| d.from == 2).collect();
        // Same fate and (relative to round start) same timing for 2→3.
        assert_eq!(
            quiet_round.len(),
            busy_round.len(),
            "loss on 2→3 is independent of 0→1 traffic"
        );
        for (a, b) in quiet_round.iter().zip(&busy_round) {
            assert_eq!(a.delivered_at, b.delivered_at);
            assert_eq!(a.payload, b.payload);
        }
    }
}
