//! Pins what a round of message passing costs the allocator. EIG messages
//! are `Copy` pairs of numbers and the trees are rows of one flat table,
//! so a single broadcast allocates a fixed handful of tables per call —
//! however many messages it sends — plus the growth of its delivery
//! buffers. (The path-keyed implementation allocated a relay path, a value
//! clone and a map entry per message.) A peer-to-peer run builds its trees
//! and tables once, and a simulated server's payloads are handles into a
//! slab of rows the run keeps, so a warmed-up round — peer-to-peer,
//! simulated server or asynchronous step — allocates nothing at all.

use abft_attacks::GradientReverse;
use abft_core::observe::NullObserver;
use abft_core::SystemConfig;
use abft_dgd::RunOptions;
use abft_filters::Cge;
use abft_net::LinkModel;
use abft_net::{MessageBus, NetworkModel, PerfectBus};
use abft_problems::RegressionProblem;
use abft_runtime::eig::{eig_broadcast, EigMessage, EquivocationPlan};
use abft_runtime::{AsyncConfig, DgdTask, Launch, SimulatedRun};
use abft_telemetry::TelemetryConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

struct CountingAllocator;

thread_local! {
    /// Allocations made *by this thread*, so tests running on other
    /// harness threads never charge this one. Const-initialized and
    /// `Drop`-free, so touching it from the allocator never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation against the calling thread.
fn count_allocation() {
    // `try_with`: a thread's last frees may run after its locals are gone.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// The calling thread's allocation count so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[expect(
    unsafe_code,
    reason = "a counting global allocator implements the unsafe `GlobalAlloc` trait"
)]
// SAFETY: every method delegates to `System`, preserving its guarantees.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same contract as `System.alloc`, to which this forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: forwards the caller's layout contract to `System`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.dealloc`, to which this forwards.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards the caller's pointer and layout to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System.realloc`, to which this forwards.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: forwards the caller's pointer and layout to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn one_broadcast_allocates_a_constant_beside_the_bus_buffer() {
    let (n, f) = (10, 3);
    let config = SystemConfig::new_peer_to_peer(n, f).expect("3f < n");
    // Three of the five plan kinds at once, so the value table holds
    // forged values beside the sender's and the default.
    let faulty = BTreeMap::from([
        (0, EquivocationPlan::Consistent(7u64)),
        (
            4,
            EquivocationPlan::Split {
                low: 1,
                high: 2,
                boundary: 5,
            },
        ),
        (
            8,
            EquivocationPlan::Selective {
                victims: vec![1, 2],
            },
        ),
    ]);

    let before = allocations();
    let outcome = eig_broadcast(config, 1, 42u64, 0, &faulty).expect("valid configuration");
    let broadcast = allocations() - before;
    assert_eq!(outcome.messages, 5_860);

    // The bus alone, sent the broadcast's rounds: every process sends
    // once per node of the level, and the nodes of a level are the
    // previous level's times `n − depth`.
    let mut level = 1;
    let mut rounds = vec![n * level];
    for depth in 1..=f {
        level *= n - depth;
        rounds.push(n * level);
    }
    let before = allocations();
    let mut bus = PerfectBus::new(n);
    let mut delivered = Vec::new();
    for messages in rounds {
        for k in 0..messages {
            let message = EigMessage {
                node: 0,
                value: None,
            };
            bus.send(k % n, k % n, message);
        }
        bus.end_round(&mut delivered);
    }
    let bus_growth = allocations() - before;

    // The bus's pending buffer and the caller's swap at every round end,
    // so each round fills the buffer the round before last filled, which
    // doubles from 4 slots: 3 + 6 + 6 + 6 allocations for rounds of 10,
    // 90, 720 and 5 040 messages.
    assert_eq!(bus_growth, 21, "the delivery buffers' growth");
    // The broadcast's own: the level ranges and the path arena of its
    // tree, the value and relay tables, the heard-handle table, the
    // resolution scratch, the decided handles and the decisions.
    assert_eq!(
        broadcast - bus_growth,
        8,
        "one broadcast allocated {broadcast} times, {bus_growth} of them the buffers'"
    );
}

/// Allocations of one whole run over `iterations` rounds at the
/// benchmark's shape (`n = 9`, `f = 1`, agent 0 reversing its gradient,
/// CGE), unobserved, serial and with telemetry off, under the staleness
/// bound `staleness_ns` (only the asynchronous server takes one).
fn run_allocations(launch: Launch<'_>, iterations: usize, staleness_ns: Option<u64>) -> usize {
    let config = SystemConfig::new(9, 1).expect("valid (n, f)");
    let problem = RegressionProblem::fan(config, 160.0, 0.01, 7).expect("n - 2f >= 2");
    let honest: Vec<usize> = (1..9).collect();
    let x_h = problem.subset_minimizer(&honest).expect("full rank");
    let mut options = RunOptions::paper_defaults_with_iterations(x_h, iterations)
        .with_aggregation_threads(1)
        .with_telemetry(TelemetryConfig::Off);
    options.staleness_ns = staleness_ns;
    let task = DgdTask::new(config, problem.costs()).byzantine(0, Box::new(GradientReverse::new()));
    let before = allocations();
    task.run(launch, &Cge::new(), &options, &mut NullObserver)
        .expect("runs");
    allocations() - before
}

/// A run on `launch` allocates as much at `T = 110` as at `T = 10`.
fn assert_rounds_allocate_nothing<'a>(
    name: &str,
    staleness_ns: Option<u64>,
    launch: impl Fn() -> Launch<'a>,
) {
    let run = |iterations| run_allocations(launch(), iterations, staleness_ns);
    // Warm-up, so lazy process-level allocations don't count.
    let _ = run(5);
    let short = run(10);
    let long = run(110);
    assert_eq!(
        long, short,
        "{name}: a run allocates {short} times at T = 10 but {long} at T = 110"
    );
}

#[test]
fn a_peer_to_peer_round_allocates_nothing() {
    assert_rounds_allocate_nothing("peer-to-peer", None, || Launch::PeerToPeer {
        equivocate: false,
    });
    let sim = SimulatedRun::peer_to_peer(NetworkModel::ideal());
    assert_rounds_allocate_nothing("simulated peer-to-peer", None, || Launch::Simulated(&sim));
}

#[test]
fn a_simulated_server_round_allocates_nothing() {
    // The lossy link of perfbench's `message-passing` workload: 0.2 ms
    // delay, a 0.1 ms reorder window and 5 % drops under the default 1 ms
    // round deadline.
    let lossy = LinkModel::ideal()
        .with_delay_ns(200_000)
        .with_reorder_ns(100_000)
        .with_drop(0.05);
    let sim = SimulatedRun::server(NetworkModel::seeded(1).with_default_link(lossy));
    assert_rounds_allocate_nothing("lossy simulated server", None, || Launch::Simulated(&sim));
}

#[test]
fn an_asynchronous_step_allocates_nothing() {
    // The async cells of the same workload: 5 % drops, 0.2 ms of compute
    // jitter and τ = two step intervals.
    let network = NetworkModel::seeded(1).with_default_link(LinkModel::ideal().with_drop(0.05));
    let timing = AsyncConfig::new()
        .with_compute_jitter_ns(200_000)
        .with_clock_seed(1);
    let sim = SimulatedRun::async_server(network, timing);
    let tau = 2 * NetworkModel::DEFAULT_ROUND_TIMEOUT_NS;
    assert_rounds_allocate_nothing("asynchronous server", Some(tau), || Launch::Simulated(&sim));
}
