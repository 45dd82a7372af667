//! The work-stealing thread pool behind the shim's parallel adapters.
//!
//! Architecture (a deliberately small cousin of rayon-core):
//!
//! - N worker threads (`WG_THREADS` > `RAYON_NUM_THREADS` >
//!   `available_parallelism()`), each owning a LIFO deque
//!   ([`crossbeam::deque::Worker`]) plus one global FIFO queue for jobs
//!   arriving from non-pool threads. The global queue is a mutex-guarded
//!   `VecDeque` rather than a segmented injector: root injections are rare
//!   (one per parallel op entered off-pool), and a `VecDeque` retains its
//!   capacity, so steady-state injection performs no heap allocation —
//!   which the wallclock harness's allocation gate relies on.
//! - [`join`] is the only fork primitive: it pushes the right half onto the
//!   caller's deque (stealable from the FIFO end by idle workers), runs the
//!   left half inline, then pops the right half back — or, if it was
//!   stolen, helps execute other tasks until the thief finishes
//!   ("steal until done"). All higher-level parallelism (the iterator
//!   adapters) reduces to trees of `join` calls.
//! - A thread outside the pool that starts a parallel op injects one root
//!   job and parks on its latch; the whole op then runs on workers.
//!
//! Determinism: the pool decides only *where* closures run, never *what*
//! they compute or in which order results are combined — the iterator layer
//! splits purely by input length. `join(a, b)` always returns `(a(), b())`
//! exactly as the sequential semantics dictate, so any algorithm built on
//! it is bit-identical at every thread count, including 1.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

use crossbeam::deque::{Steal, Stealer, Worker};

/// Environment variable naming the thread count (checked first).
pub const THREADS_ENV: &str = "WG_THREADS";
/// Rayon's own thread-count variable (checked second, for drop-in parity).
pub const RAYON_THREADS_ENV: &str = "RAYON_NUM_THREADS";

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// A type-erased pointer to a job living on some stack frame that is
/// guaranteed by its owner to outlive execution.
#[derive(Clone, Copy)]
struct JobRef {
    data: *const (),
    execute: unsafe fn(*const ()),
}

// SAFETY: a JobRef is only ever executed once, and the referent is kept
// alive by the thread that created it (it blocks until the job's latch is
// set).
unsafe impl Send for JobRef {}

impl JobRef {
    unsafe fn execute(self) {
        (self.execute)(self.data)
    }
}

/// Something a job can signal completion through.
trait Latch {
    fn set(&self);
}

/// Completion flag polled by a worker that waits by stealing.
struct SpinLatch {
    set: AtomicBool,
}

impl SpinLatch {
    fn new() -> Self {
        SpinLatch {
            set: AtomicBool::new(false),
        }
    }

    fn probe(&self) -> bool {
        self.set.load(Ordering::Acquire)
    }
}

impl Latch for SpinLatch {
    fn set(&self) {
        self.set.store(true, Ordering::Release);
    }
}

/// Completion flag a non-pool thread blocks on: the creating thread
/// parks until a worker sets the flag and unparks it.
struct ParkLatch {
    done: AtomicBool,
    /// The thread that created the latch and will wait on it.
    waiter: std::thread::Thread,
}

impl ParkLatch {
    fn new() -> Self {
        ParkLatch {
            done: AtomicBool::new(false),
            waiter: std::thread::current(),
        }
    }

    fn wait(&self) {
        // `park` may return spuriously (or on a token left by an unrelated
        // `unpark`), so the flag alone decides.
        while !self.done.load(Ordering::Acquire) {
            std::thread::park();
        }
    }
}

impl Latch for ParkLatch {
    fn set(&self) {
        // The latch lives in the waiter's stack frame, and the waiter
        // frees it as soon as it has seen `done` — which it may without
        // ever being unparked. The store must therefore be the last
        // touch of `self`: take the handle first and wake through the
        // copy.
        let waiter = self.waiter.clone();
        self.done.store(true, Ordering::Release);
        waiter.unpark();
    }
}

/// A `FnOnce` job embedded in its creator's stack frame, with a slot for
/// the (possibly panicked) result.
struct StackJob<F, R, L> {
    f: Cell<Option<F>>,
    result: Cell<Option<std::thread::Result<R>>>,
    latch: L,
}

// SAFETY: the thief only touches `f`/`result` through `execute_erased`,
// exactly once, strictly before the latch is set; the owner only touches
// them after observing the latch (Acquire). The Cells are never accessed
// concurrently.
unsafe impl<F: Send, R: Send, L: Sync> Sync for StackJob<F, R, L> {}

impl<F, R, L> StackJob<F, R, L>
where
    F: FnOnce() -> R + Send,
    R: Send,
    L: Latch + Sync,
{
    fn new(f: F, latch: L) -> Self {
        StackJob {
            f: Cell::new(Some(f)),
            result: Cell::new(None),
            latch,
        }
    }

    unsafe fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: self as *const Self as *const (),
            execute: Self::execute_erased,
        }
    }

    unsafe fn execute_erased(ptr: *const ()) {
        let this = &*(ptr as *const Self);
        let f = this.f.take().expect("job executed twice");
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        this.result.set(Some(result));
        this.latch.set();
    }

    /// Retrieve the result after the latch fired (or after inline
    /// execution).
    unsafe fn take_result(&self) -> std::thread::Result<R> {
        self.result
            .take()
            .expect("job result taken before execution")
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct Sleep {
    /// Bumped on every job push so sleepers re-scan; guarded by `gate`.
    epoch: Mutex<u64>,
    cv: Condvar,
    /// Number of workers inside the sleep protocol. Pushers skip the
    /// mutex+notify entirely while this is zero (the common case).
    sleepers: AtomicUsize,
}

/// Global FIFO for jobs injected from outside the pool. A `VecDeque` under
/// a mutex keeps its allocation across pushes (unlike a segmented
/// lock-free injector, which allocates blocks as entries flow through);
/// the atomic length lets idle workers skip the lock when it is empty.
struct GlobalQueue {
    len: AtomicUsize,
    jobs: Mutex<VecDeque<JobRef>>,
}

impl GlobalQueue {
    fn push(&self, job: JobRef) {
        let mut jobs = self.jobs.lock().unwrap();
        jobs.push_back(job);
        self.len.store(jobs.len(), Ordering::Release);
    }

    fn pop(&self) -> Option<JobRef> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut jobs = self.jobs.lock().unwrap();
        let job = jobs.pop_front();
        self.len.store(jobs.len(), Ordering::Release);
        job
    }
}

struct Registry {
    injector: GlobalQueue,
    stealers: Vec<Stealer<JobRef>>,
    n_threads: usize,
    sleep: Sleep,
}

struct WorkerLocal {
    index: usize,
    queue: Worker<JobRef>,
}

thread_local! {
    static WORKER: Cell<Option<&'static WorkerLocal>> = const { Cell::new(None) };
    static SEQUENTIAL: Cell<bool> = const { Cell::new(false) };
}

fn current_worker() -> Option<&'static WorkerLocal> {
    WORKER.with(Cell::get)
}

static REGISTRY: OnceLock<&'static Registry> = OnceLock::new();

/// Parse the raw value of thread-count variable `var`. Absent or blank
/// reads as unset; anything else must be a count, or startup panics
/// naming `var` (the `WG_SIMD` convention) — a typo'd `WG_THREADS=one`
/// must not silently run on every core.
fn parse_threads(var: &str, value: Option<&str>) -> Option<usize> {
    let value = value.map(str::trim).filter(|v| !v.is_empty())?;
    let n: usize = value
        .parse()
        .unwrap_or_else(|_| panic!("{var}: expected a thread count, got {value:?}"));
    Some(n.clamp(1, 512))
}

fn env_threads() -> Option<usize> {
    [THREADS_ENV, RAYON_THREADS_ENV]
        .into_iter()
        .find_map(|var| parse_threads(var, std::env::var(var).ok().as_deref()))
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn build_registry(n_threads: usize) -> &'static Registry {
    let workers: Vec<Worker<JobRef>> = (0..n_threads).map(|_| Worker::new_lifo()).collect();
    let stealers = workers.iter().map(Worker::stealer).collect();
    let reg: &'static Registry = Box::leak(Box::new(Registry {
        injector: GlobalQueue {
            len: AtomicUsize::new(0),
            jobs: Mutex::new(VecDeque::new()),
        },
        stealers,
        n_threads,
        sleep: Sleep {
            epoch: Mutex::new(0),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
        },
    }));
    for (index, queue) in workers.into_iter().enumerate() {
        std::thread::Builder::new()
            .name(format!("wg-rayon-{index}"))
            .spawn(move || worker_main(reg, index, queue))
            .expect("failed to spawn pool worker");
    }
    reg
}

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| build_registry(env_threads().unwrap_or_else(default_threads)))
}

/// Initialize the global pool with `requested` threads **unless** the
/// `WG_THREADS` / `RAYON_NUM_THREADS` environment variables override it or
/// the pool already started (first initialization wins, like rayon's
/// `build_global`). Returns the actual thread count. Tests use this to get
/// a truly parallel pool on small CI machines while still honoring an
/// explicit `WG_THREADS=1` sequential run.
pub fn init_threads(requested: usize) -> usize {
    REGISTRY
        .get_or_init(|| build_registry(env_threads().unwrap_or(requested.clamp(1, 512))))
        .n_threads
}

/// Number of threads the global pool runs (1 means fully sequential).
pub fn current_num_threads() -> usize {
    registry().n_threads
}

/// Run `f` with all parallel adapters forced inline on this thread.
///
/// The split/merge tree is *unchanged* — only the execution site differs —
/// so this is the reference single-threaded schedule the determinism tests
/// and the wall-clock harness compare the pool against.
pub fn run_sequential<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SEQUENTIAL.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(SEQUENTIAL.with(|c| c.replace(true)));
    f()
}

/// True while inside [`run_sequential`].
pub fn is_sequential() -> bool {
    SEQUENTIAL.with(Cell::get)
}

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

fn find_work(reg: &Registry, local: Option<&WorkerLocal>) -> Option<JobRef> {
    if let Some(local) = local {
        if let Some(job) = local.queue.pop() {
            return Some(job);
        }
    }
    if let Some(job) = reg.injector.pop() {
        return Some(job);
    }
    let n = reg.stealers.len();
    let start = local.map_or(0, |l| l.index + 1);
    for i in 0..n {
        let idx = (start + i) % n;
        if local.is_some_and(|l| l.index == idx) {
            continue;
        }
        if let Steal::Success(job) = reg.stealers[idx].steal() {
            return Some(job);
        }
    }
    None
}

/// Wake sleeping workers after pushing work. Cheap no-op while nobody
/// sleeps.
fn notify_work(reg: &Registry) {
    if reg.sleep.sleepers.load(Ordering::SeqCst) > 0 {
        let mut epoch = reg.sleep.epoch.lock().unwrap();
        *epoch += 1;
        reg.sleep.cv.notify_all();
    }
}

fn worker_main(reg: &'static Registry, index: usize, queue: Worker<JobRef>) {
    let local: &'static WorkerLocal = Box::leak(Box::new(WorkerLocal { index, queue }));
    WORKER.with(|w| w.set(Some(local)));
    loop {
        if let Some(job) = find_work(reg, Some(local)) {
            unsafe { job.execute() };
            continue;
        }
        // Sleep protocol: announce, re-scan (so a push racing with the
        // announcement is never lost), then wait for the epoch to move.
        reg.sleep.sleepers.fetch_add(1, Ordering::SeqCst);
        let epoch0 = *reg.sleep.epoch.lock().unwrap();
        if let Some(job) = find_work(reg, Some(local)) {
            reg.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
            unsafe { job.execute() };
            continue;
        }
        let mut epoch = reg.sleep.epoch.lock().unwrap();
        while *epoch == epoch0 {
            epoch = reg.sleep.cv.wait(epoch).unwrap();
        }
        drop(epoch);
        reg.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// join
// ---------------------------------------------------------------------------

/// Run `a` and `b`, potentially in parallel, returning `(a(), b())`.
///
/// Semantically identical to sequential execution (including panic
/// propagation: `a`'s panic wins if both panic), which is what makes every
/// adapter built on it schedule-independent.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let reg = registry();
    if reg.n_threads <= 1 || is_sequential() {
        return (a(), b());
    }
    if current_worker().is_some() {
        join_worker(reg, a, b)
    } else {
        // Migrate the whole join into the pool; this thread blocks.
        run_in_pool(reg, move || join_worker(reg, a, b))
    }
}

/// Inject `f` as a root job and block until a worker has run it.
fn run_in_pool<R: Send>(reg: &Registry, f: impl FnOnce() -> R + Send) -> R {
    let job = StackJob::new(f, ParkLatch::new());
    // SAFETY: we block on the latch below, so `job` outlives execution.
    let job_ref = unsafe { job.as_job_ref() };
    reg.injector.push(job_ref);
    notify_work(reg);
    // Also wake even if the sleeper count is racing from zero: a worker
    // that is mid-scan will find the injector entry on its re-check.
    job.latch.wait();
    match unsafe { job.take_result() } {
        Ok(r) => r,
        Err(payload) => panic::resume_unwind(payload),
    }
}

fn join_worker<A, B, RA, RB>(reg: &Registry, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let local = current_worker().expect("join_worker off the pool");
    let job_b = StackJob::new(b, SpinLatch::new());
    // SAFETY: this frame does not return until `job_b` has executed (inline
    // or on a thief) — see the completion handling below.
    let ref_b = unsafe { job_b.as_job_ref() };
    local.queue.push(ref_b);
    notify_work(reg);

    let result_a = panic::catch_unwind(AssertUnwindSafe(a));

    // Reclaim b: by LIFO discipline the top of our deque is `ref_b` unless
    // a thief took it from the FIFO end (possibly leaving an *older* job of
    // ours on top — executing that here is ordinary work-stealing).
    match local.queue.pop() {
        Some(job) if std::ptr::eq(job.data, ref_b.data) => unsafe { job.execute() },
        Some(job) => {
            unsafe { job.execute() };
            steal_until(reg, local, &job_b.latch);
        }
        None => steal_until(reg, local, &job_b.latch),
    }

    let result_b = unsafe { job_b.take_result() };
    match (result_a, result_b) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(p), _) => panic::resume_unwind(p),
        (_, Err(p)) => panic::resume_unwind(p),
    }
}

/// Help execute other tasks until `latch` fires.
fn steal_until(reg: &Registry, local: &WorkerLocal, latch: &SpinLatch) {
    let mut idle_spins = 0u32;
    while !latch.probe() {
        if let Some(job) = find_work(reg, Some(local)) {
            unsafe { job.execute() };
            idle_spins = 0;
        } else if idle_spins < 64 {
            idle_spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_env_parses_or_panics_naming_the_variable() {
        assert_eq!(parse_threads(THREADS_ENV, None), None);
        assert_eq!(parse_threads(THREADS_ENV, Some(" ")), None);
        assert_eq!(parse_threads(THREADS_ENV, Some(" 3 ")), Some(3));
        assert_eq!(parse_threads(RAYON_THREADS_ENV, Some("0")), Some(1));
        let err = panic::catch_unwind(|| parse_threads(THREADS_ENV, Some("one"))).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(msg.contains("WG_THREADS") && msg.contains("one"), "{msg}");
    }
}
