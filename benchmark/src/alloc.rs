//! Counting global allocator: live bytes, peak live bytes, allocation
//! count — the source of `peak_heap_mb` and `autograd.allocs_per_iter`.
//!
//! The counters live in a plain [`Counter`] so the arithmetic is unit
//! testable without touching process-global state; the allocator is a
//! thin shim over [`System`] that feeds the one static counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Live/peak/count bookkeeping. All counters are statistics that publish
/// no other data, so `Relaxed` is sufficient.
pub struct Counter {
    live: AtomicUsize,
    peak: AtomicUsize,
    allocs: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Counter {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            allocs: AtomicU64::new(0),
        }
    }

    pub fn on_alloc(&self, bytes: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    pub fn on_dealloc(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Bytes currently allocated.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Highest live byte count since the last [`reset_peak`](Self::reset_peak).
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Allocation calls (alloc, alloc_zeroed, realloc) since process start.
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Restart peak tracking from the current live size.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Ordering::Relaxed);
    }
}

/// The process-wide counter behind [`CountingAlloc`].
pub static HEAP: Counter = Counter::new();

/// [`System`] with [`HEAP`] in front of it.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates atomic counters besides, so `System`'s
// `GlobalAlloc` contract carries over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            HEAP.on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            HEAP.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        HEAP.on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            HEAP.on_dealloc(layout.size());
            HEAP.on_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_the_high_water_mark_and_resets_to_live() {
        let c = Counter::new();
        c.on_alloc(100);
        c.on_alloc(50);
        c.on_dealloc(100);
        c.on_alloc(20);
        assert_eq!(c.live(), 70);
        assert_eq!(c.peak(), 150);
        assert_eq!(c.allocs(), 3);
        c.reset_peak();
        assert_eq!(c.peak(), 70, "reset restarts from live, not from zero");
        c.on_alloc(10);
        assert_eq!(c.peak(), 80);
        c.on_dealloc(80);
        assert_eq!(c.live(), 0);
        assert_eq!(c.peak(), 80);
    }

    #[test]
    fn the_global_allocator_feeds_the_static_counter() {
        // Other tests allocate concurrently, so only lower bounds hold.
        const BIG: usize = 32 << 20;
        HEAP.reset_peak();
        let before = HEAP.allocs();
        let v = vec![1u8; BIG];
        assert!(HEAP.live() >= BIG);
        assert!(HEAP.peak() >= BIG);
        assert!(HEAP.allocs() > before);
        drop(std::hint::black_box(v));
        assert!(HEAP.peak() >= BIG, "peak survives the free");
    }
}
