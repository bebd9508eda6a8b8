//! One D-SGD round allocates nothing: a counting global allocator
//! measures two training runs that differ only in `iterations`, and the
//! extra rounds must not add a single allocation — not the mini-batch
//! indices, not the MLP's activations or softmax buffers, not the
//! filter's scratch.

use abft_filters::by_name;
use abft_ml::{train_distributed, DatasetSpec, DsgdConfig, MlFault, Mlp};
use abft_telemetry::TelemetryConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made *by this thread*: the harness runs tests on
    /// parallel threads, and the measured runs stay on their own (serial
    /// aggregation). Const-initialized and `Drop`-free, so touching it
    /// from inside the allocator never allocates.
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

/// Allocations of one training run, set-up included: ten agents, three
/// of them faulty, `b = 32`, evaluated only at the first and final
/// rounds.
fn allocations_for_run(filter: &str, fault: MlFault, iterations: usize) -> usize {
    let (train, test) = DatasetSpec::tiny().generate(3);
    let shards = train.shard(10, 1).expect("shardable");
    let filter = by_name(filter).expect("registered");
    let config = DsgdConfig {
        batch_size: 32,
        learning_rate_milli: 100,
        iterations,
        eval_every: 1_000,
        seed: 7,
        // The serial, uninstrumented contract, whatever the environment.
        aggregation_threads: 1,
        telemetry: TelemetryConfig::Off,
    };
    let before = allocations();
    let mut model = Mlp::new(&[16, 8, 10], 1).expect("valid sizes");
    let records = train_distributed(
        &mut model,
        &shards,
        &[0, 1, 2],
        fault,
        filter.as_ref(),
        &test,
        &config,
    )
    .expect("trains");
    let after = allocations();
    assert_eq!(records.len(), 2, "sanity: the first and final records");
    after - before
}

#[test]
fn a_dsgd_round_allocates_nothing() {
    for filter in ["cge", "cwtm"] {
        for fault in [MlFault::LabelFlip, MlFault::GradientReverse] {
            // Warm-up run so lazy process-level allocations don't count.
            let _ = allocations_for_run(filter, fault, 2);
            let short = allocations_for_run(filter, fault, 5);
            let long = allocations_for_run(filter, fault, 25);
            assert_eq!(
                long,
                short,
                "{filter} under {fault:?}: 20 extra rounds allocated {} times",
                long.abs_diff(short)
            );
        }
    }
}
