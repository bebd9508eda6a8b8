//! Deterministic worker pool for sharding batch aggregation.
//!
//! The aggregation hot path runs `n × T` times per experiment; past a few
//! thousand coordinates one core saturates long before the memory bus does.
//! [`WorkerPool`] shards that work across persistent OS threads fed through
//! bounded `std::sync::mpsc` channels, under one strict contract:
//!
//! * **Fixed schedule.** Work is a half-open range of *units* (column
//!   tiles, pairwise-distance pairs, agents, …) split into contiguous
//!   chunks by a pure function of `(units, workers)` — never of timing.
//!   Chunk `w` always covers the same units no matter how threads
//!   interleave.
//! * **Split output.** [`WorkerPool::run_split`] cuts the caller's output
//!   with `split_at_mut` at that schedule's own chunk edges and hands each
//!   chunk its piece as `&mut` — a slice, or a tuple of slices cut
//!   together ([`Split`]). No unit can write outside its chunk's piece,
//!   and the borrow checker, not a safety comment, says so.
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
//! dispatch itself: each chunk's piece waits for its worker in a frame on
//! the dispatching thread's stack, job queues are preallocated rings and a
//! dispatch collects its completions over a channel the pool keeps between
//! dispatches, so after its first dispatch a pool costs its caller no
//! allocation per run (pinned by `crates/dgd/tests/alloc_free.rs`).
//!
//! This module is one of the workspace's two homes of `unsafe` (the other
//! is [`crate::simd`]'s feature-checked dispatch; the workspace denies
//! `unsafe_code` everywhere else): a dispatched chunk reaches its
//! worker as a lifetime-erased pointer to a frame the dispatching thread
//! keeps alive until the chunk reports back.
#![expect(
    unsafe_code,
    reason = "persistent workers run chunks that borrow the dispatching thread's stack: \
              the job pointer's lifetime is erased, and every dispatch waits for its chunks"
)]

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Mutex, PoisonError};
use std::thread::JoinHandle;

/// Output that a dispatch cuts into one `&mut` piece per chunk: a mutable
/// slice, or a tuple of outputs cut together at once (a batch's rows with
/// the agent cells that fill them, say).
pub trait Split: Sized {
    /// Where a cut falls: a slot index into each slice.
    type Edge;

    /// The slots before `edge` and the slots from `edge` on, per slice.
    ///
    /// # Panics
    ///
    /// When `edge` lies past the end of a slice.
    fn split_at(self, edge: Self::Edge) -> (Self, Self);
}

impl<T> Split for &mut [T] {
    type Edge = usize;

    fn split_at(self, edge: usize) -> (Self, Self) {
        self.split_at_mut(edge)
    }
}

impl<A: Split, B: Split> Split for (A, B) {
    type Edge = (A::Edge, B::Edge);

    fn split_at(self, (a, b): Self::Edge) -> (Self, Self) {
        let (a_head, a_tail) = self.0.split_at(a);
        let (b_head, b_tail) = self.1.split_at(b);
        ((a_head, b_head), (a_tail, b_tail))
    }
}

/// A [`WorkerPool::run_split`] task: a scratch buffer, a chunk's units
/// and the chunk's piece of the output.
type SplitTask<'a, P> = dyn Fn(&mut Vec<f64>, Range<usize>, P) + Sync + 'a;

/// One chunk's work with its piece bound in, run with the executing
/// worker's scratch buffer.
type ChunkJob<'a> = dyn Fn(&mut Vec<f64>) + Sync + 'a;

/// A chunk's completion: `Ok` on success, the original panic payload
/// otherwise (so the caller can `resume_unwind` it, message intact).
type Completion = Result<(), Box<dyn std::any::Any + Send>>;

/// A dispatched chunk: a lifetime-erased pointer to its job (kept alive by
/// [`WorkerPool::run_split`] until every completion is collected) and the
/// completion channel.
struct Job {
    run: *const ChunkJob<'static>,
    done: SyncSender<Completion>,
}

/// Both ends of one dispatch's completion channel.
type DoneChannel = (SyncSender<Completion>, Receiver<Completion>);

/// Jobs a worker's queue holds before a dispatching thread waits for room:
/// one per dispatch in flight, so only more than this many threads sharing
/// one pool ever wait — and a worker never waits on a caller, so they
/// cannot wait for ever.
const JOB_QUEUE: usize = 16;

// SAFETY: the job pointer is only dereferenced while the dispatching
// thread blocks on the completion channel, so the frame it points into is
// still live; `ChunkJob` itself is `Sync`, and `done` is a `SyncSender`,
// which is `Send`.
unsafe impl Send for Job {}

/// One spawned worker: its job queue and join handle.
struct Worker {
    jobs: SyncSender<Job>,
    thread: JoinHandle<()>,
}

/// What every level of one [`WorkerPool::run_split`] dispatch shares.
struct Cut<'a, P: Split> {
    units: usize,
    chunks: usize,
    edge: &'a dyn Fn(usize) -> P::Edge,
    task: &'a SplitTask<'a, P>,
}

/// A chunk parked on the dispatching thread's stack until it is sent: the
/// worker it goes to, its job, and the chunks parked before it.
struct Parked<'a> {
    worker: usize,
    job: &'a ChunkJob<'a>,
    next: Option<&'a Parked<'a>>,
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
    /// schedule, handing each chunk its own piece of `out`, and blocks
    /// until every chunk has completed. The chunk over units `a..b` gets
    /// the slots from `edge(a)` to `edge(b)`, where `edge(0)` is the start
    /// of `out` and `edge(units)` its end: `edge` is asked only for the
    /// edges between chunks, and must not decrease. The caller runs chunk
    /// 0 with `scratch`; spawned workers run the rest with their own
    /// persistent scratch buffers. One chunk is `task(scratch, 0..units,
    /// out)` on the caller's thread, with nothing cut.
    ///
    /// # Panics
    ///
    /// When an edge lies past the end of `out` or before the edge of the
    /// next chunk (before any chunk runs). Propagates a panic raised by
    /// `task` on any worker, once every other chunk has completed.
    pub fn run_split<P: Split + Send>(
        &self,
        units: usize,
        out: P,
        edge: impl Fn(usize) -> P::Edge,
        scratch: &mut Vec<f64>,
        task: &SplitTask<'_, P>,
    ) {
        let chunks = self.threads.min(units);
        match chunks {
            0 => {}
            1 => task(scratch, 0..units, out),
            _ => {
                let edge = &edge;
                let cut = Cut {
                    units,
                    chunks,
                    edge,
                    task,
                };
                self.park(&cut, chunks - 1, out, scratch, None);
            }
        }
    }

    /// [`WorkerPool::run_split`] with nothing to split, for tasks that
    /// need no output piece and no scratch buffer.
    ///
    /// # Panics
    ///
    /// See [`WorkerPool::run_split`].
    pub fn run(&self, units: usize, task: &(dyn Fn(Range<usize>) + Sync)) {
        let nothing: &mut [()] = &mut [];
        self.run_split(units, nothing, |_| 0, &mut Vec::new(), &|_, range, _| {
            task(range);
        });
    }

    /// Cuts chunk `w`'s piece off the end of `rest` and parks the chunk in
    /// this frame, then recurses into chunk `w − 1`: one frame per chunk,
    /// no allocation. Chunk 0 dispatches every parked chunk, so every cut
    /// (and every `edge` call) is made before the first job is sent, and
    /// no frame returns before every job has reported back.
    fn park<P: Split + Send>(
        &self,
        cut: &Cut<'_, P>,
        w: usize,
        rest: P,
        scratch: &mut Vec<f64>,
        parked: Option<&Parked<'_>>,
    ) {
        let range = chunk(cut.units, cut.chunks, w);
        let task = cut.task;
        if w == 0 {
            self.dispatch(parked, || task(scratch, range, rest));
            return;
        }
        let (rest, piece) = rest.split_at((cut.edge)(range.start));
        // Never contended: the one worker the chunk goes to takes it once.
        let piece = Mutex::new(Some(piece));
        let job = |worker_scratch: &mut Vec<f64>| {
            let piece = piece.lock().unwrap_or_else(PoisonError::into_inner).take();
            if let Some(piece) = piece {
                task(worker_scratch, range.clone(), piece);
            }
        };
        let link = Parked {
            worker: w - 1,
            job: &job,
            next: parked,
        };
        self.park(cut, w - 1, rest, scratch, Some(&link));
    }

    /// Sends every parked chunk to its worker, runs the caller's own chunk
    /// and blocks until every sent chunk has reported back. Then it
    /// re-raises the first panic: the caller chunk's (the one a serial run
    /// would have raised), otherwise the first worker's original payload,
    /// message intact.
    fn dispatch(&self, parked: Option<&Parked<'_>>, caller_chunk: impl FnOnce()) {
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
        let (mut sent, mut lost) = (0, false);
        for link in std::iter::successors(parked, |link| link.next) {
            // SAFETY: erasing the job's lifetime is sound because the job
            // lives in a frame below the caller of this function, and this
            // function collects the completion of every job it sent before
            // it returns or unwinds; the pointer is never stored past that.
            let run = unsafe {
                std::mem::transmute::<*const ChunkJob<'_>, *const ChunkJob<'static>>(link.job)
            };
            let job = Job {
                run,
                done: done_tx.clone(),
            };
            match workers.get(link.worker).map(|worker| worker.jobs.send(job)) {
                Some(Ok(())) => sent += 1,
                _ => {
                    lost = true;
                    break;
                }
            }
        }
        let caller_outcome = catch_unwind(AssertUnwindSafe(caller_chunk));
        let mut worker_panic = None;
        for _ in 0..sent {
            #[expect(
                clippy::expect_used,
                reason = "every dispatched job sends a completion even when the task panics \
                          (catch_unwind in the worker loop), so recv only fails on teardown bugs"
            )]
            if let Err(payload) = done_rx.recv().expect("worker completes its chunk") {
                worker_panic.get_or_insert(payload);
            }
        }
        // Every sent chunk has reported, so the channel goes back drained.
        self.idle_done
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((done_tx, done_rx));
        // LINT-ALLOW(panic-reach): a job is only lost when a worker thread
        // died, which itself requires a panic already in flight; this
        // assert turns that corruption into a clean stop, raised once every
        // chunk that was sent has reported back.
        assert!(!lost, "pool workers outlive the pool");
        if let Err(payload) = caller_outcome {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
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
        // SAFETY: see `Job` — the dispatching thread blocks until `done`
        // is signalled.
        let run = unsafe { &*job.run };
        let outcome = catch_unwind(AssertUnwindSafe(|| run(&mut scratch)));
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

/// A worker-count override as an environment variable spells it: a count
/// of at least 1, blanks around it allowed; `None` when unset, zero or
/// unparsable. Both overrides, `ABFT_AGGREGATION_THREADS` and
/// `ABFT_FLEET_WORKERS`, read through it.
pub fn parse_worker_count(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
}

/// The `ABFT_AGGREGATION_THREADS` environment override (values ≥ 1), or
/// `fallback` when unset or unparsable. This is how CI forces the whole
/// tier-1 suite through the parallel path without a feature flag.
pub fn env_aggregation_threads(fallback: usize) -> usize {
    let raw = std::env::var("ABFT_AGGREGATION_THREADS").ok();
    parse_worker_count(raw.as_deref()).unwrap_or(fallback)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `out[i] = value(i)` for every slot, one piece per chunk.
    fn fill(pool: &WorkerPool, out: &mut [f64], value: &(dyn Fn(usize) -> f64 + Sync)) {
        pool.run_split(
            out.len(),
            out,
            |i| i,
            &mut Vec::new(),
            &|_, range, piece| {
                for (i, slot) in range.zip(piece) {
                    *slot = value(i);
                }
            },
        );
    }

    /// The pieces `threads` workers get over `units` units and `slots`
    /// slots cut at `edge`: each chunk's unit range and the slot indices
    /// of its piece, in schedule order.
    fn pieces(
        threads: usize,
        units: usize,
        slots: usize,
        edge: impl Fn(usize) -> usize,
    ) -> Vec<(Range<usize>, Vec<usize>)> {
        let mut ids: Vec<usize> = (0..slots).collect();
        let seen = Mutex::new(Vec::new());
        let pool = WorkerPool::new(threads);
        pool.run_split(
            units,
            ids.as_mut_slice(),
            edge,
            &mut Vec::new(),
            &|_, range, piece| {
                seen.lock().unwrap().push((range, piece.to_vec()));
            },
        );
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|(range, _)| range.start);
        seen
    }

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
        // The tile map: tile `t` owns columns `32·t..`, the last one partial.
        for dim in [33usize, 100, 130] {
            let tiles = dim.div_ceil(32);
            for threads in 1..=4 {
                let got = pieces(threads, tiles, dim, |t| (32 * t).min(dim));
                assert_eq!(got.len(), threads.min(tiles));
                let covered: Vec<usize> = got.iter().flat_map(|(_, ids)| ids.clone()).collect();
                assert_eq!(covered, (0..dim).collect::<Vec<_>>(), "dim {dim}");
                for (range, ids) in &got {
                    let columns = 32 * range.start..(32 * range.end).min(dim);
                    assert_eq!(*ids, columns.collect::<Vec<_>>(), "dim {dim}");
                }
            }
        }
        // A gapped cell map: unit `u` is active agent `active[u]`, and the
        // silent agents' cells sit inside some piece.
        let active = [1usize, 2, 4, 7, 8];
        for threads in 1..=4 {
            let got = pieces(threads, active.len(), 10, |u| active[u]);
            let covered: Vec<usize> = got.iter().flat_map(|(_, ids)| ids.clone()).collect();
            assert_eq!(covered, (0..10).collect::<Vec<_>>(), "{threads}t");
            for (range, ids) in &got {
                for u in range.clone() {
                    assert!(ids.contains(&active[u]), "{threads}t: unit {u} in {ids:?}");
                }
            }
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut out = vec![0.0; 8];
        fill(&pool, &mut out, &|i| i as f64);
        assert_eq!(out, (0..8).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        // A slot computation with nontrivial rounding.
        let value = |i: usize| (0..40).fold(0.1 * i as f64, |acc, k| acc + 1.0 / (k as f64 + 1.1));
        let mut serial = vec![0.0; 101];
        fill(&WorkerPool::new(1), &mut serial, &value);
        for threads in [2, 3, 4] {
            let pool = WorkerPool::new(threads);
            let mut parallel = vec![0.0; 101];
            fill(&pool, &mut parallel, &value);
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
            pool.run_split(
                17,
                out.as_mut_slice(),
                |i| i,
                &mut caller,
                &|scratch, range, piece| {
                    scratch.clear();
                    scratch.resize(4, round as f64);
                    for (i, slot) in range.zip(piece) {
                        *slot = scratch[0] + i as f64;
                    }
                },
            );
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
        fill(&pool, &mut out, &|_| 1.0);
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
        fill(&pool, &mut out, &|_| 2.0);
        assert_eq!(out, vec![2.0, 2.0]);
    }

    #[test]
    fn env_override_parses_defensively() {
        assert_eq!(parse_worker_count(None), None);
        assert_eq!(parse_worker_count(Some("0")), None);
        assert_eq!(parse_worker_count(Some(" 3 ")), Some(3));
        assert_eq!(parse_worker_count(Some("x")), None);
        assert_eq!(parse_worker_count(Some("2")), Some(2));
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        fn assert_piece<P: Split + Send>() {}
        assert_bounds::<WorkerPool>();
        assert_piece::<(&mut [f64], &mut [usize])>();
    }
}
