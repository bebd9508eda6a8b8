//! Property tests for the simulator's determinism contract: the full event
//! schedule is a pure function of the network model and the call sequence.

use abft_net::rng::{mix, SplitMix64};
use abft_net::{Delivery, LinkModel, MessageBus, NetMetrics, NetworkModel, Partition};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A randomized but replayable usage trace: `iterations` protocol rounds,
/// each sending every `(from, to)` pair from a shuffled-ish subset.
fn drive(model: &NetworkModel, n: usize, sends: &[(usize, usize)], rounds: usize) -> DriveLog {
    let mut net = model.build::<u64>(n);
    let mut deliveries = Vec::new();
    let mut delivered = Vec::new();
    for round in 0..rounds {
        net.begin_iteration(round);
        for (k, &(from, to)) in sends.iter().enumerate() {
            net.send(from % n, to % n, (round * sends.len() + k) as u64);
        }
        net.end_round(&mut delivered);
        deliveries.append(&mut delivered);
    }
    DriveLog {
        deliveries,
        metrics: net.metrics(),
    }
}

struct DriveLog {
    deliveries: Vec<Delivery<u64>>,
    metrics: NetMetrics,
}

/// The simulator's queue as a `BinaryHeap` min-ordered by
/// `(delivered_at, seq)` — the reference the simulator's delivery order is
/// held to. Links, loss and jitter draws, partitions, loopbacks and the
/// counters follow the simulator's documented rules; only the queue is a
/// heap.
struct HeapNetwork {
    model: NetworkModel,
    processes: usize,
    now: u64,
    iteration: usize,
    seq: u64,
    in_flight: BinaryHeap<Reverse<Queued>>,
    streams: Vec<SplitMix64>,
    metrics: NetMetrics,
}

impl HeapNetwork {
    fn new(model: &NetworkModel, processes: usize) -> Self {
        let streams = (0..processes * processes)
            .map(|link| {
                let (from, to) = ((link / processes) as u64, (link % processes) as u64);
                SplitMix64::new(mix(model.seed, mix(from, to)))
            })
            .collect();
        HeapNetwork {
            model: model.clone(),
            processes,
            now: 0,
            iteration: 0,
            seq: 0,
            in_flight: BinaryHeap::new(),
            streams,
            metrics: NetMetrics::default(),
        }
    }

    fn push(&mut self, delivered_at: u64, from: usize, to: usize, payload: u64) {
        let entry = (delivered_at, self.seq, self.now, from, to, payload);
        self.in_flight.push(Reverse(entry));
        self.seq += 1;
    }

    fn send(&mut self, from: usize, to: usize, payload: u64) {
        self.metrics.sent += 1;
        if from == to {
            self.push(self.now, from, to, payload);
            return;
        }
        if self.model.severed(from, to, self.iteration) {
            self.metrics.dropped += 1;
            return;
        }
        let link = *self.model.link(from, to);
        let stream = &mut self.streams[from * self.processes + to];
        if stream.next_unit() < link.drop_probability {
            self.metrics.dropped += 1;
            return;
        }
        let jitter = if link.reorder_ns > 0 {
            stream.next_below_inclusive(link.reorder_ns)
        } else {
            0
        };
        self.push(self.now + link.base_delay_ns + jitter, from, to, payload);
    }

    fn advance_until(&mut self, deadline: u64) -> Vec<Delivery<u64>> {
        let mut delivered = Vec::new();
        while let Some(Reverse(head)) = self.in_flight.peek() {
            if head.0 > deadline {
                break;
            }
            let Some(Reverse((delivered_at, _, sent_at, from, to, payload))) = self.in_flight.pop()
            else {
                break;
            };
            self.metrics.delivered += 1;
            let event = mix(mix(from as u64, to as u64), mix(sent_at, delivered_at));
            self.metrics.schedule_digest = mix(self.metrics.schedule_digest, event);
            delivered.push(Delivery {
                from,
                to,
                sent_at,
                delivered_at,
                payload,
            });
        }
        self.now = self.now.max(deadline);
        self.metrics.virtual_ns = self.now;
        delivered
    }

    fn end_round(&mut self) -> Vec<Delivery<u64>> {
        let delivered = self.advance_until(self.now + self.model.round_timeout_ns);
        self.drain_in_flight();
        delivered
    }

    fn drain_in_flight(&mut self) {
        self.metrics.late += self.in_flight.len() as u64;
        self.in_flight.clear();
    }

    fn next_event_at(&self) -> Option<u64> {
        self.in_flight.peek().map(|Reverse(head)| head.0)
    }
}

/// A queued message, `(delivered_at, seq, sent_at, from, to, payload)`;
/// `seq` is unique, so the heap order never looks past it.
type Queued = (u64, u64, u64, usize, usize, u64);

/// One call on a bus, as the order proptest drives it.
#[derive(Debug, Clone)]
enum Call {
    Send(usize, usize),
    BeginIteration(usize),
    EndRound,
    /// `advance_until(now + ahead)`.
    Advance(u64),
    /// `advance_until(now − behind)`: a stale deadline.
    AdvanceStale(u64),
    /// `advance_until(next_event_at())`, the event-pull hop.
    NextEvent,
    DrainInFlight,
}

fn call_strategy() -> impl Strategy<Value = Call> {
    // Sends weigh most; the rest are spread so every call kind recurs.
    (0u32..18, 0usize..5, 0usize..5, 0u64..8_000).prop_map(|(kind, a, b, ns)| match kind {
        0..=7 => Call::Send(a, b),
        8 => Call::BeginIteration(a),
        9 | 10 => Call::EndRound,
        11 | 12 => Call::Advance(ns),
        13 => Call::AdvanceStale(ns % 3_000),
        14 | 15 => Call::NextEvent,
        _ => Call::DrainInFlight,
    })
}

/// Lossy, jittered, partitioned and sometimes deadline-missing models over
/// five processes, with up to three link overrides: an asymmetric slow
/// link; a zero-delay link, whose messages tie the loopbacks sent in the
/// same instant; and a lossless, jitter-free link, which draws nothing
/// from its stream while the lossy links beside it draw on every send.
fn order_model_strategy() -> impl Strategy<Value = NetworkModel> {
    (model_strategy(), 0u64..2, 0u64..2, 0u64..2, 0u64..2).prop_map(
        |(mut model, slow, instant, ideal, tight)| {
            if slow == 1 {
                let slow_link = LinkModel::ideal()
                    .with_delay_ns(2_500)
                    .with_reorder_ns(1_500);
                model = model.with_link(3, 1, slow_link);
            }
            if instant == 1 {
                model = model.with_link(2, 0, LinkModel::ideal().with_delay_ns(0));
            }
            if ideal == 1 {
                model = model.with_link(4, 3, LinkModel::ideal());
            }
            if tight == 1 {
                model = model.with_round_timeout_ns(3_000);
            }
            model
        },
    )
}

fn model_strategy() -> impl Strategy<Value = NetworkModel> {
    (
        0u64..1_000,
        0u64..3, // drop probability in {0, .25, .5}
        0u64..3, // reorder window in {0, 500, 5000}
        0u64..2, // partition or not
    )
        .prop_map(|(seed, drop_sel, reorder_sel, partitioned)| {
            let partitioned = partitioned == 1;
            let link = LinkModel::ideal()
                .with_drop([0.0, 0.25, 0.5][drop_sel as usize])
                .with_reorder_ns([0, 500, 5_000][reorder_sel as usize]);
            let mut model = NetworkModel::seeded(seed).with_default_link(link);
            if partitioned {
                model = model.with_partition(Partition::isolate(vec![0], 1, 3));
            }
            model
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Re-running the identical call sequence reproduces the identical
    /// event schedule, delivery for delivery — not just equal counters.
    #[test]
    fn same_model_same_calls_same_schedule(
        model in model_strategy(),
        sends in prop::collection::vec((0usize..8, 0usize..8), 1..40),
        rounds in 1usize..5,
    ) {
        let a = drive(&model, 4, &sends, rounds);
        let b = drive(&model, 4, &sends, rounds);
        prop_assert_eq!(a.deliveries.len(), b.deliveries.len());
        for (x, y) in a.deliveries.iter().zip(&b.deliveries) {
            prop_assert_eq!(x, y);
        }
        prop_assert_eq!(a.metrics, b.metrics);
    }

    /// Every message is accounted for exactly once, and deliveries come
    /// back in nondecreasing virtual-time order within each round.
    #[test]
    fn conservation_and_ordering(
        model in model_strategy(),
        sends in prop::collection::vec((0usize..8, 0usize..8), 1..40),
        rounds in 1usize..5,
    ) {
        let log = drive(&model, 4, &sends, rounds);
        prop_assert!(log.metrics.is_balanced());
        prop_assert_eq!(log.metrics.sent as usize, sends.len() * rounds);
        prop_assert_eq!(log.metrics.delivered as usize, log.deliveries.len());
        for pair in log.deliveries.windows(2) {
            // Across a round boundary the clock advances, so global
            // delivered_at order holds too.
            prop_assert!(pair[0].delivered_at <= pair[1].delivered_at);
        }
    }

    /// A fault-free model delivers everything regardless of seed — the
    /// regime the cross-backend equivalence tests rely on. Within a
    /// round, instant loopbacks land first and link messages follow, each
    /// class in send order.
    #[test]
    fn ideal_links_deliver_everything_in_class_order(
        seed in 0u64..1_000,
        sends in prop::collection::vec((0usize..8, 0usize..8), 1..40),
    ) {
        let model = NetworkModel::seeded(seed);
        prop_assert!(model.is_fault_free());
        let log = drive(&model, 4, &sends, 2);
        prop_assert_eq!(log.metrics.delivered, log.metrics.sent);
        let payloads: Vec<u64> = log.deliveries.iter().map(|d| d.payload).collect();
        let mut expected = Vec::new();
        for round in 0..2 {
            let payload = |k: usize| (round * sends.len() + k) as u64;
            let is_self = |&&(from, to): &&(usize, usize)| from % 4 == to % 4;
            expected.extend(
                sends.iter().enumerate().filter(|(_, s)| is_self(s)).map(|(k, _)| payload(k)),
            );
            expected.extend(
                sends.iter().enumerate().filter(|(_, s)| !is_self(s)).map(|(k, _)| payload(k)),
            );
        }
        prop_assert_eq!(payloads, expected);
    }

    /// The simulator's queue delivers in the order of a `BinaryHeap` over
    /// `(delivered_at, seq)`, under any interleaving of the bus calls:
    /// every call returns the same deliveries, and after every call the
    /// counters (schedule digest included), the clock and the next event
    /// time agree.
    #[test]
    fn delivery_order_is_the_heap_order(
        model in order_model_strategy(),
        calls in prop::collection::vec(call_strategy(), 1..120),
    ) {
        let mut net = model.build::<u64>(5);
        let mut reference = HeapNetwork::new(&model, 5);
        // One buffer across every call, as the drivers keep theirs.
        let mut got = Vec::new();
        for (payload, call) in calls.into_iter().enumerate() {
            got.clear();
            let want = match call {
                Call::Send(from, to) => {
                    net.send(from, to, payload as u64);
                    reference.send(from, to, payload as u64);
                    Vec::new()
                }
                Call::BeginIteration(iteration) => {
                    net.begin_iteration(iteration);
                    reference.iteration = iteration;
                    Vec::new()
                }
                Call::EndRound => {
                    net.end_round(&mut got);
                    reference.end_round()
                }
                Call::Advance(ahead) => {
                    let deadline = net.now() + ahead;
                    net.advance_until(deadline, &mut got);
                    reference.advance_until(deadline)
                }
                Call::AdvanceStale(behind) => {
                    let deadline = net.now().saturating_sub(behind);
                    net.advance_until(deadline, &mut got);
                    reference.advance_until(deadline)
                }
                Call::NextEvent => {
                    let deadline = net.next_event_at().unwrap_or(net.now());
                    net.advance_until(deadline, &mut got);
                    reference.advance_until(deadline)
                }
                Call::DrainInFlight => {
                    net.drain_in_flight();
                    reference.drain_in_flight();
                    Vec::new()
                }
            };
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(net.metrics(), reference.metrics);
            prop_assert_eq!(net.now(), reference.now);
            prop_assert_eq!(net.next_event_at(), reference.next_event_at());
        }
    }

    /// The round view is exactly the continuous view: `end_round` must
    /// equal "advance to the round deadline, then drain the remainder as
    /// late" — even when the continuous side pulls its deliveries one
    /// event deadline at a time. This is the adapter contract that lets
    /// the asynchronous drivers share the simulator with every
    /// round-lockstep backend bit-identically.
    #[test]
    fn end_round_is_the_continuous_view_round_adapter(
        model in model_strategy(),
        sends in prop::collection::vec((0usize..8, 0usize..8), 1..40),
        rounds in 1usize..5,
    ) {
        let by_round = drive(&model, 4, &sends, rounds);

        let mut net = model.build::<u64>(4);
        let mut deliveries = Vec::new();
        let mut delivered = Vec::new();
        for round in 0..rounds {
            net.begin_iteration(round);
            for (k, &(from, to)) in sends.iter().enumerate() {
                net.send(from % 4, to % 4, (round * sends.len() + k) as u64);
            }
            let deadline = net.now() + NetworkModel::DEFAULT_ROUND_TIMEOUT_NS;
            // Event-pull up to the deadline, one event time per hop.
            while let Some(at) = net.next_event_at() {
                if at > deadline {
                    break;
                }
                net.advance_until(at, &mut delivered);
                deliveries.append(&mut delivered);
            }
            net.advance_until(deadline, &mut delivered);
            deliveries.append(&mut delivered);
            net.drain_in_flight();
        }

        prop_assert_eq!(by_round.deliveries.len(), deliveries.len());
        for (x, y) in by_round.deliveries.iter().zip(&deliveries) {
            prop_assert_eq!(x, y);
        }
        prop_assert_eq!(by_round.metrics, net.metrics());
    }
}
