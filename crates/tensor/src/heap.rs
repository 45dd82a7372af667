//! The counting allocator the allocation and peak-heap contracts are
//! checked under: the system allocator with counters in front. A binary
//! (a bench harness, a test target) installs it with one line,
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: wg_tensor::heap::CountingAlloc = wg_tensor::heap::CountingAlloc;
//! ```
//!
//! and reads two sets of counters:
//!
//! * the process's — [`allocs`], [`peak_bytes`] — summed over every
//!   thread, pool workers included, for a harness that times work spread
//!   over the pool;
//! * the calling thread's — [`thread_allocs`], [`thread_peak_bytes`] — for
//!   tests that share their process with other tests and measure work
//!   they run on their own thread.
//!
//! An allocation is a call to `alloc`, `alloc_zeroed` or `realloc`; live
//! bytes rise by the new size and fall by the old one. Without the line
//! above the counters stay at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed (negative when it
    /// frees another thread's), and their highest value since the last
    /// [`reset_thread_peak`].
    static THREAD_LIVE: Cell<isize> = const { Cell::new(0) };
    static THREAD_PEAK: Cell<isize> = const { Cell::new(0) };
}

fn on_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
    THREAD_ALLOCS.with(|a| a.set(a.get() + 1));
    let live = THREAD_LIVE.with(|l| {
        l.set(l.get() + bytes as isize);
        l.get()
    });
    THREAD_PEAK.with(|p| p.set(p.get().max(live)));
}

fn on_dealloc(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
    THREAD_LIVE.with(|l| l.set(l.get() - bytes as isize));
}

/// Heap allocations made by every thread so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// The process's highest live heap, in bytes, since the last
/// [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Restart the process's peak from its current live bytes.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Heap allocations made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// The calling thread's highest live heap, in bytes, since its last
/// [`reset_thread_peak`].
pub fn thread_peak_bytes() -> isize {
    THREAD_PEAK.with(Cell::get)
}

/// Restart the calling thread's peak from its current live bytes.
pub fn reset_thread_peak() {
    THREAD_PEAK.with(|p| p.set(THREAD_LIVE.with(Cell::get)));
}

/// [`System`] with the counters above in front.
pub struct CountingAlloc;

// SAFETY: every method passes its arguments to the same method of
// `System` and returns what it returns, so `System`'s guarantees are this
// allocator's. The counters are atomics and const-initialised
// thread-local `Cell`s with no destructor: updating them never allocates
// and works while a thread is torn down.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        // SAFETY: the caller passes a block this allocator — that is,
        // `System` — returned for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_dealloc(layout.size());
        on_alloc(new_size);
        // SAFETY: the caller passes a block `System` returned for
        // `layout`, and a valid `new_size` for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
