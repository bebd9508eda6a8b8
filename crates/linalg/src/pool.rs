//! Deterministic worker pool for sharding batch aggregation.
//!
//! The aggregation hot path runs `n × T` times per experiment; past a few
//! thousand coordinates one core saturates long before the memory bus does.
//! [`WorkerPool`] shards that work across persistent OS threads fed through
//! bounded `std::sync::mpsc` channels, under one strict contract:
//!
//! * **Fixed schedule.** Work is a half-open range of *units* (column
//!   tiles, pairwise-distance rows, …) split into contiguous chunks by a
//!   pure function of `(units, workers)` — never of timing. Chunk `w`
//!   always covers the same units no matter how threads interleave.
//! * **Disjoint slots.** Every unit writes its own output slot
//!   (see [`SharedSlots`]); no unit reads another unit's output.
//!
//! Together these make parallel output **bit-identical** to serial output
//! at any thread count: each slot sees the same floating-point operations
//! in the same order, and only *where* they execute changes. The
//! registry-wide `parallel ≡ serial` test in `abft-filters` pins this for
//! every registered filter.
//!
//! The caller participates as worker 0 — a pool of `threads = 1` spawns no
//! threads at all and runs everything inline, which is why serial remains
//! the allocation-free default. Each spawned worker owns a reusable scratch
//! `Vec<f64>` that lives as long as the pool (the scratch-per-worker arena
//! the tiled kernels carve their gather buffers from), so steady-state
//! parallel rounds do not allocate in the workers either. Nor does the
//! dispatch itself: job queues are preallocated rings and a dispatch
//! collects its completions over a channel the pool keeps between
//! dispatches, so after its first dispatch a pool costs its caller no
//! allocation per run (pinned by `crates/dgd/tests/alloc_free.rs`).

use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Mutex, PoisonError};
use std::thread::JoinHandle;

/// A task executed over a unit range with a per-worker scratch buffer.
type Task<'a> = dyn Fn(&mut Vec<f64>, Range<usize>) + Sync + 'a;

/// A chunk's completion: `Ok` on success, the original panic payload
/// otherwise (so the caller can `resume_unwind` it, message intact).
type Completion = Result<(), Box<dyn std::any::Any + Send>>;

/// A dispatched chunk: a raw pointer to the borrowed task (kept alive by
/// [`WorkerPool::run_with_scratch`] until every completion is collected),
/// the unit range, and the completion channel.
struct Job {
    task: *const Task<'static>,
    range: Range<usize>,
    done: SyncSender<Completion>,
}

/// Both ends of one dispatch's completion channel.
type DoneChannel = (SyncSender<Completion>, Receiver<Completion>);

/// Jobs a worker's queue holds before a dispatching thread waits for room:
/// one per dispatch in flight, so only more than this many threads sharing
/// one pool ever wait — and a worker never waits on a caller, so they
/// cannot wait for ever.
const JOB_QUEUE: usize = 16;

// SAFETY: the task pointer is only dereferenced while `run_with_scratch`
// blocks on the completion channel, so the borrow it was created from is
// still live; `Task` itself is `Sync`.
unsafe impl Send for Job {}

/// One spawned worker: its job queue and join handle.
struct Worker {
    jobs: SyncSender<Job>,
    thread: JoinHandle<()>,
}

/// A deterministic pool of `threads` aggregation workers (the caller
/// counts as one; `threads − 1` OS threads back it).
///
/// Cheap to share (`Send + Sync`) **and cheap to hold**: worker threads
/// spawn lazily on the first dispatched run, so a runtime that creates a
/// pool "just in case" — e.g. for a grid whose rounds all land below the
/// kernels' sharding floor — pays nothing. Drivers create one per run —
/// or one per suite, shared by all suite workers — and hand it to the
/// round's [`GradientBatch`](crate::GradientBatch) via
/// [`set_worker_pool`](crate::GradientBatch::set_worker_pool) so filters
/// can shard their kernels without any signature change.
pub struct WorkerPool {
    threads: usize,
    workers: std::sync::OnceLock<Vec<Worker>>,
    /// Drained completion channels of finished dispatches. A dispatch takes
    /// one (making it when none is idle — threads sharing the pool, or a
    /// task that dispatches again, each hold their own) and puts it back.
    idle_done: Mutex<Vec<DoneChannel>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .field("spawned", &self.workers.get().is_some())
            .finish()
    }
}

impl WorkerPool {
    /// A pool of `threads` workers (clamped to at least 1). `threads = 1`
    /// executes every task inline on the caller; larger pools spawn their
    /// OS threads on first use.
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
            workers: std::sync::OnceLock::new(),
            idle_done: Mutex::new(Vec::new()),
        }
    }

    /// Total worker count, the caller included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The spawned workers, creating them on first dispatch.
    fn workers(&self) -> &[Worker] {
        self.workers.get_or_init(|| {
            (1..self.threads)
                .map(|w| {
                    let (tx, rx) = sync_channel::<Job>(JOB_QUEUE);
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the pool is the one thread home: its tile schedule is a pure function of the shape"
                    )]
                    #[expect(
                        clippy::expect_used,
                        reason = "spawn failure is resource exhaustion at pool creation, before any aggregation runs"
                    )]
                    let thread = std::thread::Builder::new()
                        .name(format!("abft-agg-{w}"))
                        .spawn(move || worker_loop(rx))
                        .expect("worker thread spawn");
                    Worker { jobs: tx, thread }
                })
                .collect()
        })
    }

    /// Executes `task` over `0..units` split into at most
    /// [`threads`](WorkerPool::threads) contiguous chunks with the fixed
    /// schedule, blocking until every chunk has completed. The caller runs
    /// chunk 0 with `caller_scratch`; spawned workers run the rest with
    /// their own persistent scratch buffers.
    ///
    /// # Panics
    ///
    /// Propagates a panic raised by `task` on any worker (after all other
    /// chunks have completed, so the borrow discipline holds even then).
    pub fn run_with_scratch(
        &self,
        units: usize,
        caller_scratch: &mut Vec<f64>,
        task: &(dyn Fn(&mut Vec<f64>, Range<usize>) + Sync),
    ) {
        if units == 0 {
            return;
        }
        let chunks = self.threads().min(units);
        if chunks == 1 {
            task(caller_scratch, 0..units);
            return;
        }

        // SAFETY: erasing the task's lifetime is sound because every
        // dispatched job completes (its `done` send) before this function
        // returns, and the pointer is never stored past that.
        let task_ptr: *const Task<'static> =
            unsafe { std::mem::transmute::<*const Task<'_>, *const Task<'static>>(task) };
        let workers = self.workers();
        // The list is whole at every step (a push or a pop), so a lock
        // poisoned by a panicking holder is still good to use.
        let idle = self
            .idle_done
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        // Room for every chunk's completion: no worker ever waits to report.
        let (done_tx, done_rx) = idle.unwrap_or_else(|| sync_channel(self.threads));
        for w in 1..chunks {
            // LINT-ALLOW(panic-reach): `chunks <= threads() == workers.len() + 1`,
            // so `w - 1` indexes in range.
            let sent = workers[w - 1].jobs.send(Job {
                task: task_ptr,
                range: chunk(units, chunks, w),
                done: done_tx.clone(),
            });
            // LINT-ALLOW(panic-reach): a send can only fail if a worker
            // thread died, which itself requires a panic already in flight;
            // this assert turns that corruption into a clean stop.
            assert!(sent.is_ok(), "pool workers outlive the pool");
        }
        let caller_outcome = catch_unwind(AssertUnwindSafe(|| {
            task(caller_scratch, chunk(units, chunks, 0))
        }));
        let mut worker_panic = None;
        for _ in 1..chunks {
            #[expect(
                clippy::expect_used,
                reason = "every dispatched job sends a completion even when the task panics \
                          (catch_unwind in the worker loop), so recv only fails on teardown bugs"
            )]
            if let Err(payload) = done_rx.recv().expect("worker completes its chunk") {
                worker_panic.get_or_insert(payload);
            }
        }
        // Every chunk has reported, so the channel goes back drained.
        self.idle_done
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((done_tx, done_rx));
        // Every loan is resolved at this point, so the borrow discipline
        // holds even on the unwind paths. The caller chunk's panic wins
        // (it is the one a serial run would have raised); otherwise the
        // first worker's original payload is re-raised, message intact.
        if let Err(payload) = caller_outcome {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// [`WorkerPool::run_with_scratch`] for tasks that need no scratch
    /// buffer.
    ///
    /// # Panics
    ///
    /// See [`WorkerPool::run_with_scratch`].
    pub fn run(&self, units: usize, task: &(dyn Fn(Range<usize>) + Sync)) {
        let mut unused = Vec::new();
        self.run_with_scratch(units, &mut unused, &|_scratch, range| task(range));
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Never dispatched: nothing was spawned.
        let workers = self.workers.take().unwrap_or_default();
        for Worker { jobs, thread } in workers {
            // Dropping the sender disconnects the queue; the worker's recv
            // fails and its loop exits.
            drop(jobs);
            let _ = thread.join();
        }
    }
}

/// The worker thread body: execute jobs with a persistent scratch buffer,
/// reporting completion — or the original panic payload — per job.
fn worker_loop(jobs: Receiver<Job>) {
    let mut scratch = Vec::new();
    while let Ok(job) = jobs.recv() {
        // SAFETY: see `Job` — the caller blocks until `done` is signalled.
        let task = unsafe { &*job.task };
        let outcome = catch_unwind(AssertUnwindSafe(|| task(&mut scratch, job.range)));
        let _ = job.done.send(outcome);
    }
}

/// The fixed schedule: chunk `w` of `units` across `chunks` workers —
/// contiguous, balanced (sizes differ by at most one), and a pure function
/// of its arguments.
fn chunk(units: usize, chunks: usize, w: usize) -> Range<usize> {
    let base = units / chunks;
    let extra = units % chunks;
    let start = w * base + w.min(extra);
    let len = base + usize::from(w < extra);
    start..start + len
}

/// The `ABFT_AGGREGATION_THREADS` environment override (values ≥ 1), or
/// `fallback` when unset or unparsable. This is how CI forces the whole
/// tier-1 suite through the parallel path without a feature flag.
pub fn env_aggregation_threads(fallback: usize) -> usize {
    std::env::var("ABFT_AGGREGATION_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(fallback)
}

/// A raw shared view of a mutable `f64` slice for disjoint-slot parallel
/// writes — the "slots" half of the pool contract.
///
/// Kernels wrap their output slice once, then each chunk writes only the
/// slot indices of its own units. The wrapper is `Sync` precisely because
/// the fixed schedule guarantees no two chunks touch the same index.
pub struct SharedSlots<'a> {
    ptr: *mut f64,
    len: usize,
    _marker: PhantomData<&'a mut [f64]>,
}

// SAFETY: all access goes through `unsafe` methods whose callers promise
// disjoint indices; the underlying storage outlives `'a`.
unsafe impl Send for SharedSlots<'_> {}
// SAFETY: see `Send` above — concurrent access is to disjoint indices.
unsafe impl Sync for SharedSlots<'_> {}

impl<'a> SharedSlots<'a> {
    /// Wraps `slice` for disjoint parallel writes.
    pub fn new(slice: &'a mut [f64]) -> Self {
        SharedSlots {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` into slot `i`.
    ///
    /// # Safety
    ///
    /// `i < len()`, and no other thread accesses slot `i` concurrently.
    pub unsafe fn write(&self, i: usize, value: f64) {
        debug_assert!(i < self.len);
        // SAFETY: `i < len` per the contract above, and the caller promises
        // no concurrent access to slot `i`.
        unsafe { *self.ptr.add(i) = value };
    }

    /// Mutably borrows the sub-slice `range`.
    ///
    /// # Safety
    ///
    /// `range` is in bounds and disjoint from every range other threads
    /// access concurrently.
    #[expect(
        clippy::mut_from_ref,
        reason = "callers promise disjoint ranges (see Safety)"
    )]
    pub unsafe fn slice(&self, range: Range<usize>) -> &mut [f64] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        // SAFETY: `range` is in bounds per the contract above, and the
        // caller promises it is disjoint from every concurrent access.
        unsafe {
            std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_balanced_and_total() {
        for units in [1usize, 2, 3, 7, 32, 100] {
            for chunks in 1..=4.min(units) {
                let mut covered = Vec::new();
                for w in 0..chunks {
                    let range = chunk(units, chunks, w);
                    assert!(range.len() >= units / chunks);
                    assert!(range.len() <= units / chunks + 1);
                    covered.extend(range);
                }
                assert_eq!(covered, (0..units).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut out = vec![0.0; 8];
        let slots = SharedSlots::new(&mut out);
        pool.run(8, &|range| {
            for i in range {
                // SAFETY: `i` comes from this chunk's disjoint range.
                unsafe { slots.write(i, i as f64) };
            }
        });
        assert_eq!(out, (0..8).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let fill = |pool: &WorkerPool, out: &mut [f64]| {
            let slots = SharedSlots::new(out);
            pool.run(slots.len(), &|range| {
                for i in range {
                    // A slot computation with nontrivial rounding.
                    let v = (0..40).fold(0.1 * i as f64, |acc, k| acc + 1.0 / (k as f64 + 1.1));
                    // SAFETY: `i` comes from this chunk's disjoint range.
                    unsafe { slots.write(i, v) };
                }
            });
        };
        let mut serial = vec![0.0; 101];
        fill(&WorkerPool::new(1), &mut serial);
        for threads in [2, 3, 4] {
            let pool = WorkerPool::new(threads);
            let mut parallel = vec![0.0; 101];
            fill(&pool, &mut parallel);
            assert!(
                serial
                    .iter()
                    .zip(&parallel)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{threads}-thread output diverged from serial"
            );
        }
    }

    #[test]
    fn pool_is_reusable_across_many_runs() {
        let pool = WorkerPool::new(3);
        let mut caller = Vec::new();
        for round in 0..50usize {
            let mut out = vec![0.0; 17];
            let slots = SharedSlots::new(&mut out);
            pool.run_with_scratch(17, &mut caller, &|scratch, range| {
                scratch.clear();
                scratch.resize(4, round as f64);
                for i in range {
                    // SAFETY: `i` comes from this chunk's disjoint range.
                    unsafe { slots.write(i, scratch[0] + i as f64) };
                }
            });
            assert!(out
                .iter()
                .enumerate()
                .all(|(i, &v)| v == round as f64 + i as f64));
        }
    }

    #[test]
    fn workers_spawn_lazily_on_first_dispatch() {
        let pool = WorkerPool::new(4);
        assert!(format!("{pool:?}").contains("spawned: false"));
        pool.run(1, &|_| {}); // a single chunk runs inline: still nothing
        assert!(format!("{pool:?}").contains("spawned: false"));
        pool.run(8, &|_| {});
        assert!(format!("{pool:?}").contains("spawned: true"));
    }

    #[test]
    fn fewer_units_than_threads_still_covers_everything() {
        let pool = WorkerPool::new(4);
        let mut out = vec![0.0; 2];
        let slots = SharedSlots::new(&mut out);
        pool.run(2, &|range| {
            for i in range {
                // SAFETY: `i` comes from this chunk's disjoint range.
                unsafe { slots.write(i, 1.0) };
            }
        });
        assert_eq!(out, vec![1.0, 1.0]);
        pool.run(0, &|_| panic!("zero units dispatch nothing"));
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|range| {
                if range.contains(&1) {
                    panic!("boom");
                }
            });
        }));
        // The worker's original payload is re-raised, message intact.
        let payload = result.expect_err("worker panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // The pool survives a panicked task.
        let mut out = vec![0.0; 2];
        let slots = SharedSlots::new(&mut out);
        pool.run(2, &|range| {
            for i in range {
                // SAFETY: `i` comes from this chunk's disjoint range.
                unsafe { slots.write(i, 2.0) };
            }
        });
        assert_eq!(out, vec![2.0, 2.0]);
    }

    #[test]
    fn env_override_parses_defensively() {
        // Not set in the test environment unless CI forces it; both of
        // those are legitimate, so only the invariants are asserted.
        let t = env_aggregation_threads(1);
        assert!(t >= 1);
        assert_eq!(
            env_aggregation_threads(3).max(t),
            env_aggregation_threads(3).max(t)
        );
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<WorkerPool>();
        assert_bounds::<SharedSlots<'_>>();
    }
}
