//! Zero-dependency data-parallel runtime for the DeepSTUQ workspace.
//!
//! The build environment is fully offline, so `rayon` cannot be vendored;
//! this crate supplies the small slice of rayon that the hot paths need — a
//! persistent pool of worker threads plus chunked fan-out primitives — on top
//! of `std` alone. The API is deliberately deterministic: work is split into
//! chunks whose *boundaries* never depend on the thread count, each chunk is
//! processed by exactly one worker with a fixed internal order, and ordered
//! reduction is left to the caller. A kernel built on these primitives
//! therefore produces bit-identical output whether it runs on one thread or
//! sixteen (see DESIGN.md "Threading & determinism").
//!
//! Thread count resolution, checked once at first use:
//! 1. `STUQ_THREADS` (the training/CI knob),
//! 2. `STUQ_NUM_THREADS` (this repo's original spelling, kept working),
//! 3. `RAYON_NUM_THREADS` (honoured for drop-in familiarity),
//! 4. [`std::thread::available_parallelism`].
//!
//! Nested calls never deadlock: a `par_*` call issued while another fan-out
//! is in flight (including from inside a worker) simply runs inline on the
//! calling thread.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, TryLockError};
use std::thread::JoinHandle;

/// A broadcast task handed to the workers.
///
/// The raw pointers reference stack data owned by the thread inside
/// [`Pool::run`]; they stay valid because `run` does not return until every
/// worker has reported completion of this generation.
#[derive(Clone, Copy)]
struct TaskRef {
    f: *const (dyn Fn(usize) + Sync),
    next: *const AtomicUsize,
    panicked: *const AtomicBool,
    n_chunks: usize,
}

// SAFETY: the pointers are only dereferenced while the submitting thread is
// blocked in `Pool::run`, which keeps the pointees alive; the pointee types
// themselves are Sync.
unsafe impl Send for TaskRef {}

struct Ctrl {
    generation: u64,
    task: Option<TaskRef>,
    /// Workers that have not yet finished the current generation.
    workers_left: usize,
    shutdown: bool,
}

struct Shared {
    ctrl: Mutex<Ctrl>,
    start: Condvar,
    done: Condvar,
}

/// A persistent pool of `threads - 1` workers; the submitting thread is the
/// remaining participant. `threads == 1` means every task runs inline.
pub struct Pool {
    shared: std::sync::Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serialises submitters; a failed `try_lock` means another fan-out is in
    /// flight and the caller should run inline instead of queueing.
    submit: Mutex<()>,
    threads: usize,
}

impl Pool {
    /// Creates a pool that runs tasks on `threads` threads in total.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = std::sync::Arc::new(Shared {
            ctrl: Mutex::new(Ctrl { generation: 0, task: None, workers_left: 0, shutdown: false }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads - 1)
            .map(|i| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("stuq-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn stuq-parallel worker")
            })
            .collect();
        Self { shared, handles, submit: Mutex::new(()), threads }
    }

    /// Total number of threads (workers + the submitting thread).
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0) … f(n_chunks - 1)` across the pool and returns when all
    /// chunks are done. Which thread runs which chunk is unspecified; callers
    /// must make chunks write disjoint data. Panics (once, on the submitting
    /// thread) if any chunk panicked.
    pub fn run(&self, n_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if n_chunks == 0 {
            return;
        }
        // Telemetry is observational only: counters/timing never influence
        // scheduling, so enabling it cannot perturb determinism.
        let telemetry = stuq_obs::summary_enabled();
        if telemetry {
            let m = stuq_obs::metrics();
            m.pool_fanouts.inc();
            m.pool_chunks.add(n_chunks as u64);
        }
        if self.handles.is_empty() || n_chunks == 1 || in_serial_region() {
            if telemetry {
                stuq_obs::metrics().pool_inline.inc();
            }
            run_inline(n_chunks, f);
            return;
        }
        // A held submit lock means a fan-out is already in flight (possibly
        // ours, transitively): degrade to inline execution, never deadlock.
        let guard = match self.submit.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                if telemetry {
                    stuq_obs::metrics().pool_inline.inc();
                }
                run_inline(n_chunks, f);
                return;
            }
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        };
        let t_start = stuq_obs::trace_enabled().then(std::time::Instant::now);

        let next = AtomicUsize::new(0);
        let panicked = AtomicBool::new(false);
        // SAFETY: erases the borrow's lifetime. Sound because `run` blocks
        // below until every worker has finished with the pointer.
        let f_erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let task = TaskRef {
            f: f_erased as *const _,
            next: &next as *const _,
            panicked: &panicked as *const _,
            n_chunks,
        };
        {
            let mut ctrl = lock(&self.shared.ctrl);
            ctrl.generation += 1;
            ctrl.task = Some(task);
            ctrl.workers_left = self.handles.len();
            self.shared.start.notify_all();
        }
        // The submitter works too.
        drain_chunks(f, &next, &panicked, n_chunks);
        {
            let mut ctrl = lock(&self.shared.ctrl);
            while ctrl.workers_left > 0 {
                ctrl =
                    self.shared.done.wait(ctrl).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            ctrl.task = None;
        }
        drop(guard);
        if let Some(t) = t_start {
            stuq_obs::metrics().pool_run_seconds.record(t.elapsed().as_secs_f64());
        }
        assert!(!panicked.load(Ordering::SeqCst), "stuq-parallel: a worker chunk panicked");
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut ctrl = lock(&self.shared.ctrl);
            ctrl.shutdown = true;
            self.shared.start.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn lock(m: &Mutex<Ctrl>) -> std::sync::MutexGuard<'_, Ctrl> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let task = {
            let mut ctrl = lock(&shared.ctrl);
            loop {
                if ctrl.shutdown {
                    return;
                }
                if ctrl.generation != seen {
                    seen = ctrl.generation;
                    break ctrl.task.expect("generation bumped without a task");
                }
                ctrl = shared.start.wait(ctrl).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // SAFETY: the submitter blocks in `Pool::run` until we decrement
        // `workers_left` below, so the pointees outlive this use.
        let (f, next, panicked) = unsafe { (&*task.f, &*task.next, &*task.panicked) };
        drain_chunks(f, next, panicked, task.n_chunks);
        let mut ctrl = lock(&shared.ctrl);
        ctrl.workers_left -= 1;
        if ctrl.workers_left == 0 {
            shared.done.notify_all();
        }
    }
}

fn drain_chunks(
    f: &(dyn Fn(usize) + Sync),
    next: &AtomicUsize,
    panicked: &AtomicBool,
    n_chunks: usize,
) {
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n_chunks {
            return;
        }
        if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
            panicked.store(true, Ordering::SeqCst);
        }
    }
}

fn run_inline(n_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    for i in 0..n_chunks {
        f(i);
    }
}

fn env_threads(var: &str) -> Option<usize> {
    std::env::var(var).ok()?.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// The configured global thread count (resolved once).
pub fn num_threads() -> usize {
    global().num_threads()
}

/// The process-wide pool used by [`par_for`] and friends.
pub fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let n = env_threads("STUQ_THREADS")
            .or_else(|| env_threads("STUQ_NUM_THREADS"))
            .or_else(|| env_threads("RAYON_NUM_THREADS"))
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
            });
        Pool::new(n)
    })
}

thread_local! {
    static SERIAL_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

fn in_serial_region() -> bool {
    SERIAL_DEPTH.with(std::cell::Cell::get) > 0
}

/// Runs `f` with all `par_*` calls on this thread forced inline.
///
/// Used by tests (and benches) to compare the one-thread and N-thread
/// executions of the same code path within a single process.
pub fn with_serial<R>(f: impl FnOnce() -> R) -> R {
    SERIAL_DEPTH.with(|d| d.set(d.get() + 1));
    let out = f();
    SERIAL_DEPTH.with(|d| d.set(d.get() - 1));
    out
}

/// Fans `f(0) … f(n_chunks - 1)` out over the global pool.
pub fn par_for(n_chunks: usize, f: impl Fn(usize) + Sync) {
    global().run(n_chunks, &f);
}

/// Splits `0..len` into fixed `chunk`-sized ranges and fans them out.
///
/// Chunk boundaries depend only on `len` and `chunk`, never on the thread
/// count — the cornerstone of the determinism contract.
pub fn par_ranges(len: usize, chunk: usize, f: impl Fn(Range<usize>) + Sync) {
    let chunk = chunk.max(1);
    let n_chunks = len.div_ceil(chunk);
    par_for(n_chunks, |c| {
        let start = c * chunk;
        f(start..(start + chunk).min(len));
    });
}

/// Computes `[f(0), …, f(n - 1)]` in parallel, returned in index order.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let slots = SendPtr::new(out.as_mut_ptr());
    par_for(n, |i| {
        // SAFETY: each index is written by exactly one chunk.
        unsafe { *slots.get().add(i) = Some(f(i)) };
    });
    out.into_iter().map(|s| s.expect("par_map chunk skipped")).collect()
}

/// A raw pointer that asserts cross-thread shareability.
///
/// For kernels whose chunks write *disjoint* regions of one buffer (e.g.
/// distinct output rows of a matmul): wrap the base pointer, hand it to
/// [`par_for`], and offset per chunk. The caller is responsible for
/// disjointness — that is the `unsafe` contract of [`SendPtr::get`].
pub struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Wraps a base pointer for use inside a parallel region.
    pub fn new(p: *mut T) -> Self {
        Self(p)
    }

    /// The wrapped pointer. Callers must ensure writes through it from
    /// different chunks never alias.
    ///
    /// # Safety contract
    /// Marked safe for call-site ergonomics; every dereference of the
    /// returned pointer is itself `unsafe` and must uphold disjointness.
    pub fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: SendPtr is a capability assertion made by the constructor's caller;
// see the type-level docs.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_every_chunk_exactly_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(1000, &|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn pool_is_reusable_across_generations() {
        let pool = Pool::new(3);
        for round in 0..50 {
            let sum = AtomicUsize::new(0);
            pool.run(round + 1, &|i| {
                sum.fetch_add(i + 1, Ordering::SeqCst);
            });
            let n = round + 1;
            assert_eq!(sum.load(Ordering::SeqCst), n * (n + 1) / 2);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let main_id = std::thread::current().id();
        pool.run(8, &|_| assert_eq!(std::thread::current().id(), main_id));
    }

    #[test]
    fn nested_par_for_degrades_to_inline_without_deadlock() {
        let pool = Pool::new(4);
        let total = AtomicUsize::new(0);
        pool.run(8, &|_| {
            // Inner fan-out while the outer one holds the submit lock.
            global().run(8, &|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn par_map_preserves_index_order() {
        let out = par_map(257, |i| i * i);
        assert_eq!(out.len(), 257);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
    }

    #[test]
    fn par_ranges_covers_len_with_fixed_boundaries() {
        let len = 1003;
        let mut seen = vec![false; len];
        let flags = SendPtr::new(seen.as_mut_ptr());
        par_ranges(len, 64, |r| {
            assert_eq!(r.start % 64, 0, "boundaries must sit on fixed multiples");
            for i in r {
                unsafe { *flags.get().add(i) = true };
            }
        });
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn with_serial_forces_inline_execution() {
        let pool = Pool::new(4);
        let main_id = std::thread::current().id();
        with_serial(|| {
            pool.run(16, &|_| assert_eq!(std::thread::current().id(), main_id));
        });
    }

    #[test]
    fn worker_panic_propagates_to_submitter() {
        let pool = Pool::new(2);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, &|i| assert!(i != 2, "boom"));
        }));
        assert!(res.is_err());
        // Pool stays usable after a panicked generation.
        let sum = AtomicUsize::new(0);
        pool.run(4, &|i| {
            sum.fetch_add(i, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 6);
    }
}
