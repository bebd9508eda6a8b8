//! Pins what one EIG broadcast costs the allocator. Messages are `Copy`
//! pairs of numbers and the trees are rows of one flat table, so a
//! broadcast allocates a fixed handful of tables per call — however many
//! messages it sends — plus the growth of the bus's own delivery buffer.
//! (The path-keyed implementation allocated a relay path, a value clone
//! and a map entry per message.)

use abft_core::SystemConfig;
use abft_net::{MessageBus, PerfectBus};
use abft_runtime::eig::{eig_broadcast, EigMessage, EquivocationPlan};
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
    for messages in rounds {
        for k in 0..messages {
            let message = EigMessage {
                node: 0,
                value: None,
            };
            bus.send(k % n, k % n, message);
        }
        drop(bus.end_round());
    }
    let bus_growth = allocations() - before;

    // The delivery buffer restarts empty every round and doubles from 4
    // slots: 3 + 6 + 9 + 12 allocations for rounds of 10, 90, 720 and
    // 5 040 messages.
    assert_eq!(bus_growth, 30, "PerfectBus's buffer growth");
    // The broadcast's own: the level ranges, the path arena, the value and
    // relay tables, the heard-handle table, the resolution scratch and
    // the decisions.
    assert_eq!(
        broadcast - bus_growth,
        7,
        "one broadcast allocated {broadcast} times, {bus_growth} of them the bus's"
    );
}
