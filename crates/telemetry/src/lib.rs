//! `abft-telemetry`: deterministic-by-contract runtime instrumentation.
//!
//! Every backend answers "where does a round's time go?" through this
//! crate: scoped phase spans (round → gradient-fill / aggregate / observe
//! / net-delivery), monotonic counters, and fixed-bucket log₂ latency
//! histograms, recorded into preallocated ring buffers behind a
//! [`Telemetry`] handle.
//!
//! The contract has two halves:
//!
//! - **Off is free.** [`TelemetryConfig::Off`] (the default; override
//!   with `ABFT_TELEMETRY=on`) leaves the handle empty: every call is a
//!   branch on a `None`, with no clock read, no allocation, and no lock —
//!   disabled runs stay bit-identical and allocation-free, which
//!   `alloc_free.rs` and the equivalence tests pin.
//! - **On is deterministic where the clock is.** Wall-clock runs profile
//!   real time through [`clock`] (the lint's single sanctioned
//!   `Instant::now` home); simulated runs stamp spans from the
//!   `SimulatedNetwork` virtual clock instead, so two identically seeded
//!   simulated runs produce `==` [`TelemetryReport`]s.
//!
//! The hot path allocates nothing even when enabled: rings, histograms,
//! and counters are all preallocated at handle construction (once per
//! run), and recording is array arithmetic. Only the driver thread
//! records spans — pool workers are timed from the caller's side via
//! [`DispatchProfile`], which keeps worker hot loops free of even an
//! atomic ring write.

pub mod clock;
mod dispatch;
mod hist;
mod report;

pub use dispatch::{DispatchProfile, DispatchStats};
pub use hist::{Histogram, BUCKETS};
pub use report::{ClockDomain, PhaseStats, SpanRecord, TelemetryReport};

/// Spans each recording lane retains; beyond this the ring wraps,
/// overwriting the oldest (aggregate statistics still cover everything).
pub const SPAN_RING_CAPACITY: usize = 4096;

/// Whether instrumentation is recording. `Off` is the default and
/// compiles the whole layer down to `None` checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryConfig {
    /// No recording: every [`Telemetry`] call is a no-op.
    #[default]
    Off,
    /// Record phase spans, counters, and histograms.
    On,
}

impl TelemetryConfig {
    /// The `ABFT_TELEMETRY` environment override: `1`, `on`, or `true`
    /// (case-insensitive) enables recording; anything else — including
    /// the variable being unset — is [`TelemetryConfig::Off`].
    pub fn from_env() -> Self {
        match std::env::var("ABFT_TELEMETRY") {
            Ok(value) => match value.trim().to_ascii_lowercase().as_str() {
                "1" | "on" | "true" => TelemetryConfig::On,
                _ => TelemetryConfig::Off,
            },
            Err(_) => TelemetryConfig::Off,
        }
    }

    /// Whether this configuration records anything.
    pub fn is_enabled(self) -> bool {
        matches!(self, TelemetryConfig::On)
    }
}

/// The instrumented phases, shared by every backend so profiles compare
/// across execution models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One full protocol round (encloses the other phases).
    Round = 0,
    /// Computing gradients into the round's batch.
    GradientFill = 1,
    /// The robust aggregation filter.
    Aggregate = 2,
    /// Observer callbacks (`RunObserver`).
    Observe = 3,
    /// Message delivery: network rounds closing (virtual time advancing
    /// on simulated backends).
    NetDelivery = 4,
    /// Worker-pool dispatches, folded in from a [`DispatchProfile`].
    PoolDispatch = 5,
}

impl Phase {
    /// Number of phases (sizes the recorder's fixed arrays).
    pub const COUNT: usize = 6;

    /// Every phase, in index order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Round,
        Phase::GradientFill,
        Phase::Aggregate,
        Phase::Observe,
        Phase::NetDelivery,
        Phase::PoolDispatch,
    ];

    /// The stable span name used in reports and trace files.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Round => "round",
            Phase::GradientFill => "gradient-fill",
            Phase::Aggregate => "aggregate",
            Phase::Observe => "observe",
            Phase::NetDelivery => "net-delivery",
            Phase::PoolDispatch => "pool-dispatch",
        }
    }
}

/// The monotonic counters backends increment at shared names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Protocol rounds driven to completion.
    Rounds = 0,
    /// Parameter broadcasts (server → agents, or peer EIG roots).
    Broadcasts = 1,
    /// Gradient replies that reached the aggregator in time.
    Replies = 2,
    /// Agents eliminated as silent/faulty by the runtime.
    Eliminations = 3,
    /// Expected replies that missed their round deadline.
    Stragglers = 4,
    /// Messages handed to the network bus.
    NetSent = 5,
    /// Messages delivered within their round deadline.
    NetDelivered = 6,
    /// Messages dropped by loss or partition.
    NetDropped = 7,
    /// Messages whose delay pushed them past the deadline.
    NetLate = 8,
    /// Worker-pool dispatches (from [`DispatchProfile`]).
    PoolDispatches = 9,
    /// Gradient rows excluded by an async server because their age
    /// exceeded the staleness bound τ.
    StaleRows = 10,
    /// Asynchronous server aggregation steps driven to completion.
    AsyncSteps = 11,
}

impl Counter {
    /// Number of counters (sizes the recorder's fixed array).
    pub const COUNT: usize = 12;

    /// Every counter, in index order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Rounds,
        Counter::Broadcasts,
        Counter::Replies,
        Counter::Eliminations,
        Counter::Stragglers,
        Counter::NetSent,
        Counter::NetDelivered,
        Counter::NetDropped,
        Counter::NetLate,
        Counter::PoolDispatches,
        Counter::StaleRows,
        Counter::AsyncSteps,
    ];

    /// The stable counter name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Rounds => "rounds",
            Counter::Broadcasts => "broadcasts",
            Counter::Replies => "replies",
            Counter::Eliminations => "eliminations",
            Counter::Stragglers => "stragglers",
            Counter::NetSent => "net-sent",
            Counter::NetDelivered => "net-delivered",
            Counter::NetDropped => "net-dropped",
            Counter::NetLate => "net-late",
            Counter::PoolDispatches => "pool-dispatches",
            Counter::StaleRows => "stale-rows-dropped",
            Counter::AsyncSteps => "async-steps",
        }
    }
}

/// An open span: produced by [`Telemetry::begin`], closed by
/// [`Telemetry::end`]. Inert (and free) when telemetry is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "a span only measures anything if it is passed back to Telemetry::end"]
pub struct SpanToken {
    phase: Phase,
    start_ns: u64,
    live: bool,
}

/// One recorded span event.
#[derive(Debug, Clone, Copy)]
struct SpanEvent {
    phase: Phase,
    start_ns: u64,
    dur_ns: u64,
}

/// A preallocated fixed-capacity span ring: beyond capacity the oldest
/// events are overwritten and counted as dropped.
#[derive(Debug)]
struct Ring {
    events: Vec<SpanEvent>,
    next: usize,
    dropped: u64,
}

impl Ring {
    fn with_capacity(capacity: usize) -> Self {
        Ring {
            events: Vec::with_capacity(capacity.max(1)),
            next: 0,
            dropped: 0,
        }
    }

    // LINT-ALLOW(panic-reach): `next < capacity` is the ring invariant —
    // re-established by the modulo on every push — and the overwrite arm
    // only runs once `len == capacity`.
    fn push(&mut self, event: SpanEvent) {
        let capacity = self.events.capacity();
        if self.events.len() < capacity {
            self.events.push(event);
        } else {
            self.events[self.next] = event;
            self.dropped += 1;
        }
        self.next = (self.next + 1) % capacity;
    }

    /// The retained events, oldest first.
    // LINT-ALLOW(panic-reach): once events have been dropped the ring is
    // full, so `next <= len` and both range slices are in bounds.
    fn into_ordered(self) -> (Vec<SpanEvent>, u64) {
        if self.dropped == 0 {
            (self.events, self.dropped)
        } else {
            let mut ordered = Vec::with_capacity(self.events.len());
            ordered.extend_from_slice(&self.events[self.next..]);
            ordered.extend_from_slice(&self.events[..self.next]);
            (ordered, self.dropped)
        }
    }
}

/// Which clock stamps spans while recording.
#[derive(Debug)]
enum TimeBase {
    /// Real monotonic time via [`clock::monotonic_ns`].
    Wall,
    /// Virtual nanoseconds, advanced explicitly by the driver from the
    /// simulated network's clock.
    Virtual { now_ns: u64 },
}

/// The live recording state — only allocated when telemetry is on.
#[derive(Debug)]
struct Recorder {
    time: TimeBase,
    phases: [Histogram; Phase::COUNT],
    counters: [u64; Counter::COUNT],
    rings: Vec<Ring>,
}

impl Recorder {
    fn new(time: TimeBase) -> Self {
        Recorder {
            time,
            phases: [Histogram::new(); Phase::COUNT],
            counters: [0; Counter::COUNT],
            rings: vec![Ring::with_capacity(SPAN_RING_CAPACITY)],
        }
    }

    fn now_ns(&self) -> u64 {
        match self.time {
            TimeBase::Wall => clock::monotonic_ns(),
            TimeBase::Virtual { now_ns } => now_ns,
        }
    }
}

/// The per-run instrumentation handle drivers thread through their round
/// loop. Single-writer by design: only the driver thread records, so the
/// hot path is plain field arithmetic — no locks, no atomics, no
/// allocation (the ring and histograms are preallocated at construction).
#[derive(Debug, Default)]
pub struct Telemetry {
    recorder: Option<Box<Recorder>>,
}

impl Telemetry {
    /// A handle that records nothing (what every disabled config gets).
    pub fn disabled() -> Self {
        Telemetry { recorder: None }
    }

    /// A wall-clock handle: spans stamp real monotonic nanoseconds from
    /// [`clock`]. Empty when `config` is off.
    pub fn wall(config: TelemetryConfig) -> Self {
        Telemetry {
            recorder: config
                .is_enabled()
                .then(|| Box::new(Recorder::new(TimeBase::Wall))),
        }
    }

    /// A virtual-clock handle for simulated runs: spans stamp whatever
    /// the driver last fed to [`Telemetry::set_virtual_ns`], so the
    /// profile is a pure function of the simulation schedule. Empty when
    /// `config` is off.
    pub fn virtual_time(config: TelemetryConfig) -> Self {
        Telemetry {
            recorder: config
                .is_enabled()
                .then(|| Box::new(Recorder::new(TimeBase::Virtual { now_ns: 0 }))),
        }
    }

    /// A handle in a message bus's clock domain: virtual, starting at
    /// `now`, when the bus keeps a schedule-driven clock (`Some(now)` — a
    /// simulated network, whose profiles are then pure functions of the
    /// seed), wall-clock when it does not. Empty when `config` is off.
    pub fn for_bus(config: TelemetryConfig, virtual_now: Option<u64>) -> Self {
        match virtual_now {
            Some(now) => {
                let mut telemetry = Telemetry::virtual_time(config);
                telemetry.set_virtual_ns(now);
                telemetry
            }
            None => Telemetry::wall(config),
        }
    }

    /// Whether this handle is recording.
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Advances the virtual clock (no-op on wall handles and when off).
    /// Drivers call this after every simulated-network round closes.
    pub fn set_virtual_ns(&mut self, ns: u64) {
        if let Some(recorder) = self.recorder.as_deref_mut() {
            if let TimeBase::Virtual { now_ns } = &mut recorder.time {
                *now_ns = ns;
            }
        }
    }

    /// Opens a span for `phase`. Free (no clock read) when off.
    pub fn begin(&self, phase: Phase) -> SpanToken {
        match self.recorder.as_deref() {
            None => SpanToken {
                phase,
                start_ns: 0,
                live: false,
            },
            Some(recorder) => SpanToken {
                phase,
                start_ns: recorder.now_ns(),
                live: true,
            },
        }
    }

    /// Closes a span: records its duration into the phase histogram and
    /// the span ring. No-op for inert tokens.
    // LINT-ALLOW(panic-reach): `phases` and `rings` are fixed arrays
    // indexed by enum discriminants, which are in range by definition.
    pub fn end(&mut self, token: SpanToken) {
        if !token.live {
            return;
        }
        if let Some(recorder) = self.recorder.as_deref_mut() {
            let dur_ns = recorder.now_ns().saturating_sub(token.start_ns);
            recorder.phases[token.phase as usize].record(dur_ns);
            recorder.rings[0].push(SpanEvent {
                phase: token.phase,
                start_ns: token.start_ns,
                dur_ns,
            });
        }
    }

    /// Adds `amount` to a counter.
    // LINT-ALLOW(panic-reach): `counters` is a fixed array indexed by the
    // `Counter` discriminant, which is in range by definition.
    pub fn add(&mut self, counter: Counter, amount: u64) {
        if let Some(recorder) = self.recorder.as_deref_mut() {
            recorder.counters[counter as usize] += amount;
        }
    }

    /// A fresh [`DispatchProfile`] for the driver to install on its
    /// `GradientBatch` — `Some` only when recording on the wall clock
    /// (wall durations inside a virtual-time report would break its
    /// reproducibility).
    pub fn dispatch_profile(&self) -> Option<DispatchProfile> {
        match self.recorder.as_deref() {
            Some(Recorder {
                time: TimeBase::Wall,
                ..
            }) => Some(DispatchProfile::new()),
            _ => None,
        }
    }

    /// Folds a [`DispatchProfile`] snapshot into the report: its
    /// histogram becomes the `pool-dispatch` phase, its count the
    /// `pool-dispatches` counter.
    // LINT-ALLOW(panic-reach): fixed arrays indexed by enum discriminants.
    pub fn absorb_dispatch(&mut self, stats: &DispatchStats) {
        if let Some(recorder) = self.recorder.as_deref_mut() {
            recorder.phases[Phase::PoolDispatch as usize].merge(&stats.hist);
            recorder.counters[Counter::PoolDispatches as usize] += stats.dispatches;
        }
    }

    /// Adds a run's final counter values in one go — drivers count in
    /// plain integers while they run and copy them in here once, at run
    /// end.
    // LINT-ALLOW(panic-reach): fixed array indexed by enum discriminants.
    pub fn record(&mut self, values: &[(Counter, u64)]) {
        if let Some(recorder) = self.recorder.as_deref_mut() {
            for &(counter, amount) in values {
                recorder.counters[counter as usize] += amount;
            }
        }
    }

    /// Consumes the handle into its report — `None` when telemetry was
    /// off, so disabled runs carry no report at all.
    // LINT-ALLOW(panic-reach): fixed arrays indexed by enum discriminants.
    pub fn finish(self) -> Option<TelemetryReport> {
        let recorder = self.recorder?;
        let clock = match recorder.time {
            TimeBase::Wall => ClockDomain::Wall,
            TimeBase::Virtual { .. } => ClockDomain::Virtual,
        };
        let mut phases = std::collections::BTreeMap::new();
        for phase in Phase::ALL {
            let hist = recorder.phases[phase as usize];
            if hist.count() > 0 {
                phases.insert(phase.name(), PhaseStats { hist });
            }
        }
        let mut counters = std::collections::BTreeMap::new();
        for counter in Counter::ALL {
            let value = recorder.counters[counter as usize];
            if value > 0 {
                counters.insert(counter.name(), value);
            }
        }
        let mut spans = Vec::new();
        let mut dropped_spans = 0;
        for (lane, ring) in recorder.rings.into_iter().enumerate() {
            let (events, dropped) = ring.into_ordered();
            dropped_spans += dropped;
            spans.extend(events.into_iter().map(|event| SpanRecord {
                phase: event.phase.name(),
                lane: lane as u32,
                start_ns: event.start_ns,
                dur_ns: event.dur_ns,
            }));
        }
        Some(TelemetryReport {
            clock,
            phases,
            counters,
            spans,
            dropped_spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_reports_none() {
        let mut t = Telemetry::wall(TelemetryConfig::Off);
        assert!(!t.enabled());
        let token = t.begin(Phase::Round);
        t.end(token);
        t.add(Counter::Rounds, 1);
        t.record(&[(Counter::NetSent, 1), (Counter::NetDelivered, 1)]);
        assert!(t.dispatch_profile().is_none());
        assert!(t.finish().is_none());
    }

    #[test]
    fn virtual_spans_are_pure_functions_of_the_fed_clock() {
        let drive = || {
            let mut t = Telemetry::virtual_time(TelemetryConfig::On);
            let round = t.begin(Phase::Round);
            let net = t.begin(Phase::NetDelivery);
            t.set_virtual_ns(1_000);
            t.end(net);
            let agg = t.begin(Phase::Aggregate);
            t.end(agg);
            t.set_virtual_ns(2_000);
            t.end(round);
            t.add(Counter::Rounds, 1);
            t.finish().expect("enabled run yields a report")
        };
        let a = drive();
        let b = drive();
        assert_eq!(a, b, "identical feeds give identical reports");
        assert_eq!(a.clock, ClockDomain::Virtual);
        assert_eq!(a.phase_total_ns("net-delivery"), 1_000);
        assert_eq!(a.phase_total_ns("aggregate"), 0);
        assert_eq!(a.phase_total_ns("round"), 2_000);
        assert_eq!(a.counter("rounds"), 1);
        assert_eq!(a.spans.len(), 3);
        // Spans land in end order: net-delivery closes before aggregate.
        assert_eq!(a.spans[0].phase, "net-delivery");
        assert_eq!(a.spans[2].phase, "round");
    }

    #[test]
    fn wall_handle_measures_nonzero_round_time() {
        let mut t = Telemetry::wall(TelemetryConfig::On);
        assert!(t.enabled());
        let token = t.begin(Phase::Round);
        // Burn a little real time so the span is visibly nonzero.
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        assert!(acc > 0);
        t.end(token);
        let report = t.finish().expect("enabled");
        assert_eq!(report.clock, ClockDomain::Wall);
        assert_eq!(report.phase("round").map(|p| p.count()), Some(1));
    }

    #[test]
    fn ring_wraps_and_counts_dropped_spans() {
        let mut t = Telemetry::virtual_time(TelemetryConfig::On);
        let total = SPAN_RING_CAPACITY + 10;
        for i in 0..total {
            t.set_virtual_ns(i as u64);
            let token = t.begin(Phase::Aggregate);
            t.end(token);
        }
        let report = t.finish().expect("enabled");
        assert_eq!(report.spans.len(), SPAN_RING_CAPACITY);
        assert_eq!(report.dropped_spans, 10);
        // Oldest-first ordering survives the wrap.
        assert_eq!(report.spans[0].start_ns, 10);
        assert_eq!(
            report.phase("aggregate").map(|p| p.count()),
            Some(total as u64),
            "aggregates cover wrapped spans too"
        );
    }

    #[test]
    fn dispatch_profile_folds_into_pool_dispatch_phase() {
        let mut t = Telemetry::wall(TelemetryConfig::On);
        let profile = t.dispatch_profile().expect("wall + enabled");
        profile.record_since(profile.start());
        t.absorb_dispatch(&profile.snapshot());
        let report = t.finish().expect("enabled");
        assert_eq!(report.counter("pool-dispatches"), 1);
        assert_eq!(report.phase("pool-dispatch").map(|p| p.count()), Some(1));
        // Virtual handles refuse wall profiles.
        assert!(Telemetry::virtual_time(TelemetryConfig::On)
            .dispatch_profile()
            .is_none());
    }

    #[test]
    fn env_config_parses_expected_spellings() {
        assert!(TelemetryConfig::On.is_enabled());
        assert!(!TelemetryConfig::Off.is_enabled());
        assert_eq!(TelemetryConfig::default(), TelemetryConfig::Off);
    }

    #[test]
    fn merge_sums_phases_and_counters_and_drops_timelines() {
        let run = |ns: u64| {
            let mut t = Telemetry::virtual_time(TelemetryConfig::On);
            let token = t.begin(Phase::Round);
            t.set_virtual_ns(ns);
            t.end(token);
            t.add(Counter::Rounds, 1);
            t.finish().expect("enabled")
        };
        let mut merged = run(100);
        merged.merge(&run(300));
        assert_eq!(merged.phase_total_ns("round"), 400);
        assert_eq!(merged.counter("rounds"), 2);
        assert!(merged.spans.is_empty());
        assert_eq!(merged.dropped_spans, 2);
    }
}
