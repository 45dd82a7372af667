//! The work-stealing thread pool behind the shim's parallel adapters.
//!
//! Architecture (a deliberately small cousin of rayon-core):
//!
//! - N worker threads (`WG_THREADS`, else `available_parallelism()`),
//!   each owning a job deque (owner LIFO, thieves FIFO), plus one global
//!   FIFO queue for jobs arriving from non-pool threads. The global queue
//!   is a mutex-guarded `VecDeque` rather than a segmented injector: root
//!   injections are rare (one per parallel op entered off-pool), and a
//!   `VecDeque` retains its capacity, so steady-state injection performs
//!   no heap allocation — which the wallclock harness's allocation gate
//!   relies on.
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
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Environment variable naming the thread count.
pub const THREADS_ENV: &str = "WG_THREADS";

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

#[derive(Default)]
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
#[derive(Default)]
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

/// A worker's job deque. The owner pushes and pops at the back (LIFO, so
/// it keeps working on the most recently split — cache-hot — half of a
/// divide-and-conquer tree) while thieves pop at the front (FIFO, so they
/// take the oldest, i.e. largest, pending subtree). A mutex rather than a
/// lock-free Chase–Lev deque: the pool schedules coarse chunk tasks, so
/// lock hold times are tens of nanoseconds.
type Deque = Mutex<VecDeque<JobRef>>;

/// Lock a deque. A panicking job poisons nothing: the deque only holds
/// plain job handles, so keep going.
fn lock(deque: &Deque) -> MutexGuard<'_, VecDeque<JobRef>> {
    deque.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Registry {
    injector: GlobalQueue,
    /// One deque per worker, indexed by the worker's index.
    deques: Vec<Deque>,
    sleep: Sleep,
}

thread_local! {
    /// This thread's worker index, `None` off the pool.
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
    static SEQUENTIAL: Cell<bool> = const { Cell::new(false) };
}

fn current_worker() -> Option<usize> {
    WORKER.with(Cell::get)
}

static REGISTRY: OnceLock<&'static Registry> = OnceLock::new();

/// Parse the raw value of [`THREADS_ENV`]. Absent or blank reads as
/// unset; anything else must be a count, or startup panics naming the
/// variable (the `WG_SIMD` convention) — a typo'd `WG_THREADS=one` must
/// not silently run on every core.
fn parse_threads(value: Option<&str>) -> Option<usize> {
    let value = value.map(str::trim).filter(|v| !v.is_empty())?;
    let n: usize = value
        .parse()
        .unwrap_or_else(|_| panic!("{THREADS_ENV}: expected a thread count, got {value:?}"));
    Some(n.clamp(1, 512))
}

fn env_threads() -> Option<usize> {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref())
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl Registry {
    /// `n_threads` empty deques, an empty injector, nobody asleep.
    fn new(n_threads: usize) -> Self {
        Registry {
            injector: GlobalQueue::default(),
            deques: (0..n_threads).map(|_| Deque::default()).collect(),
            sleep: Sleep::default(),
        }
    }
}

fn build_registry(n_threads: usize) -> &'static Registry {
    let reg: &'static Registry = Box::leak(Box::new(Registry::new(n_threads)));
    for index in 0..n_threads {
        std::thread::Builder::new()
            .name(format!("wg-rayon-{index}"))
            .spawn(move || worker_main(reg, index))
            .expect("failed to spawn pool worker");
    }
    reg
}

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| build_registry(env_threads().unwrap_or_else(default_threads)))
}

/// Initialize the global pool with `requested` threads **unless** the
/// `WG_THREADS` environment variable overrides it or
/// the pool already started (first initialization wins, like rayon's
/// `build_global`). Returns the actual thread count. Tests use this to get
/// a truly parallel pool on small CI machines while still honoring an
/// explicit `WG_THREADS=1` sequential run.
pub fn init_threads(requested: usize) -> usize {
    REGISTRY
        .get_or_init(|| build_registry(env_threads().unwrap_or(requested.clamp(1, 512))))
        .deques
        .len()
}

/// Number of threads the global pool runs (1 means fully sequential).
pub fn current_num_threads() -> usize {
    registry().deques.len()
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

/// Worker `me`'s next job: its own newest, else the oldest injected,
/// else the oldest of the next worker round the ring that has one.
fn find_work(reg: &Registry, me: usize) -> Option<JobRef> {
    if let Some(job) = lock(&reg.deques[me]).pop_back() {
        return Some(job);
    }
    if let Some(job) = reg.injector.pop() {
        return Some(job);
    }
    let n = reg.deques.len();
    for i in 1..n {
        if let Some(job) = lock(&reg.deques[(me + i) % n]).pop_front() {
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

fn worker_main(reg: &'static Registry, index: usize) {
    WORKER.with(|w| w.set(Some(index)));
    loop {
        if let Some(job) = find_work(reg, index) {
            unsafe { job.execute() };
            continue;
        }
        // Sleep protocol: announce, re-scan (so a push racing with the
        // announcement is never lost), then wait for the epoch to move.
        reg.sleep.sleepers.fetch_add(1, Ordering::SeqCst);
        let epoch0 = *reg.sleep.epoch.lock().unwrap();
        if let Some(job) = find_work(reg, index) {
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
    if reg.deques.len() <= 1 || is_sequential() {
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
    let me = current_worker().expect("join_worker off the pool");
    let job_b = StackJob::new(b, SpinLatch::new());
    // SAFETY: this frame does not return until `job_b` has executed (inline
    // or on a thief) — see the completion handling below.
    let ref_b = unsafe { job_b.as_job_ref() };
    lock(&reg.deques[me]).push_back(ref_b);
    notify_work(reg);

    let result_a = panic::catch_unwind(AssertUnwindSafe(a));

    // Reclaim b: by LIFO discipline the top of our deque is `ref_b` unless
    // a thief took it from the FIFO end (possibly leaving an *older* job of
    // ours on top — executing that here is ordinary work-stealing).
    let top = lock(&reg.deques[me]).pop_back();
    match top {
        Some(job) if std::ptr::eq(job.data, ref_b.data) => unsafe { job.execute() },
        Some(job) => {
            unsafe { job.execute() };
            steal_until(reg, me, &job_b.latch);
        }
        None => steal_until(reg, me, &job_b.latch),
    }

    let result_b = unsafe { job_b.take_result() };
    match (result_a, result_b) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(p), _) => panic::resume_unwind(p),
        (_, Err(p)) => panic::resume_unwind(p),
    }
}

/// Help execute other tasks until `latch` fires.
fn steal_until(reg: &Registry, me: usize, latch: &SpinLatch) {
    let mut idle_spins = 0u32;
    while !latch.probe() {
        if let Some(job) = find_work(reg, me) {
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

    /// A job handle told apart by its data pointer; never executed.
    fn job(tag: usize) -> JobRef {
        unsafe fn never(_: *const ()) {
            unreachable!("test jobs are only queued")
        }
        JobRef {
            data: tag as *const (),
            execute: never,
        }
    }

    fn tag(job: Option<JobRef>) -> Option<usize> {
        job.map(|j| j.data as usize)
    }

    #[test]
    fn deque_owner_is_lifo_thieves_are_fifo() {
        let reg = Registry::new(3);
        for t in 1..=3 {
            lock(&reg.deques[0]).push_back(job(t));
        }
        reg.injector.push(job(9));
        // A thief takes the oldest job of the next worker round the ring
        // that has one, after the injector's…
        assert_eq!(tag(find_work(&reg, 2)), Some(9));
        assert_eq!(tag(find_work(&reg, 2)), Some(1));
        // …the owner takes its newest.
        assert_eq!(tag(find_work(&reg, 0)), Some(3));
        assert_eq!(tag(find_work(&reg, 0)), Some(2));
        assert_eq!(tag(find_work(&reg, 0)), None);
        assert_eq!(tag(find_work(&reg, 1)), None);
    }

    #[test]
    fn injector_is_concurrent_fifo() {
        let queue = GlobalQueue::default();
        for t in 0..100 {
            queue.push(job(t));
        }
        let mut all: Vec<usize> = std::thread::scope(|s| {
            let takers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        while let Some(t) = tag(queue.pop()) {
                            got.push(t);
                        }
                        // Each taker sees the queue's order.
                        assert!(got.windows(2).all(|w| w[0] < w[1]), "{got:?}");
                        got
                    })
                })
                .collect();
            takers.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
        assert_eq!(queue.len.load(Ordering::Acquire), 0);
    }

    #[test]
    fn thread_count_env_parses_or_panics_naming_the_variable() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some(" ")), None);
        assert_eq!(parse_threads(Some(" 3 ")), Some(3));
        assert_eq!(parse_threads(Some("0")), Some(1));
        assert_eq!(parse_threads(Some("9999")), Some(512));
        let err = panic::catch_unwind(|| parse_threads(Some("one"))).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(msg.contains("WG_THREADS") && msg.contains("one"), "{msg}");
    }
}
