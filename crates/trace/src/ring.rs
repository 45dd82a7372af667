//! Thread-local event ring buffers and the global drain.
//!
//! Each thread records into its own fixed-capacity ring of
//! `DEFAULT_CAPACITY` events, allocated once, on the thread's first
//! event. The buffer sits behind the thread's own `Mutex`, which is
//! uncontended on the record path — the only cross-thread touch is
//! [`drain`], which walks the registry of every buffer ever created.
//! When a ring fills, the oldest events are overwritten and counted in
//! [`ThreadTrace::dropped`] — recording never blocks and never grows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One recorded event. `Copy`, fixed-size, no heap — names are interned
/// `'static` strings supplied by the probe sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A completed span (start + duration, both in nanoseconds since the
    /// trace epoch).
    Span {
        /// Span label.
        name: &'static str,
        /// Start, ns since the trace epoch.
        start_ns: u64,
        /// Duration in ns.
        dur_ns: u64,
    },
    /// An instantaneous marker.
    Instant {
        /// Marker label.
        name: &'static str,
        /// Timestamp, ns since the trace epoch.
        t_ns: u64,
    },
}

/// Per-thread ring capacity (events). At 32 bytes per event this
/// is ~2 MiB per recording thread.
const DEFAULT_CAPACITY: usize = 1 << 16;

/// A fixed-capacity overwrite-oldest ring of events.
#[derive(Debug)]
pub(crate) struct RingVec {
    buf: Vec<Event>,
    /// Index of the oldest event when the ring has wrapped.
    head: usize,
    /// Live event count (≤ capacity).
    len: usize,
    /// Events overwritten since the last drain.
    dropped: u64,
}

impl RingVec {
    pub(crate) fn new(cap: usize) -> Self {
        RingVec {
            buf: Vec::with_capacity(cap),
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Append, overwriting the oldest event when full. Never reallocates.
    pub(crate) fn push(&mut self, ev: Event) {
        let cap = self.buf.capacity();
        if self.buf.len() < cap {
            self.buf.push(ev);
            self.len += 1;
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
        }
    }

    /// Move the events out in record order, emptying the ring (capacity
    /// is retained).
    pub(crate) fn take(&mut self) -> (Vec<Event>, u64) {
        let mut out = Vec::with_capacity(self.len);
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        self.buf.clear();
        self.head = 0;
        self.len = 0;
        (out, std::mem::take(&mut self.dropped))
    }
}

/// One thread's buffer as registered in the global registry.
struct ThreadBuf {
    id: usize,
    label: String,
    ring: Mutex<RingVec>,
}

/// Registry of every thread buffer ever created (buffers outlive their
/// threads so late drains still see their events).
static REGISTRY: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());
/// Monotone thread-track id source (0 is reserved for the main thread's
/// label aesthetics only; ids are whatever registration order yields).
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: Arc<ThreadBuf> = register_current_thread();
}

fn register_current_thread() -> Arc<ThreadBuf> {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed) as usize;
    let label = std::thread::current()
        .name()
        .map_or_else(|| format!("thread-{id}"), str::to_owned);
    let buf = Arc::new(ThreadBuf {
        id,
        label,
        ring: Mutex::new(RingVec::new(DEFAULT_CAPACITY)),
    });
    REGISTRY.lock().unwrap().push(Arc::clone(&buf));
    buf
}

/// Record an event on the current thread. Callers gate on
/// [`crate::spans_enabled`]; this function itself always records.
#[inline]
pub(crate) fn record(ev: Event) {
    LOCAL.with(|b| b.ring.lock().unwrap().push(ev));
}

/// Everything one thread recorded since the last drain.
#[derive(Debug)]
pub struct ThreadTrace {
    /// Stable per-thread track id (registration order).
    pub id: usize,
    /// Thread name, or `thread-<id>` for unnamed threads.
    pub label: String,
    /// Events in record order.
    pub events: Vec<Event>,
    /// Events lost to ring overwrites since the last drain.
    pub dropped: u64,
}

/// Collect and clear every thread's recorded events, in thread
/// registration order. Threads keep their (empty) buffers and ids.
pub fn drain() -> Vec<ThreadTrace> {
    let registry = REGISTRY.lock().unwrap();
    registry
        .iter()
        .map(|b| {
            let (events, dropped) = b.ring.lock().unwrap().take();
            ThreadTrace {
                id: b.id,
                label: b.label.clone(),
                events,
                dropped,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64) -> Event {
        Event::Span {
            name,
            start_ns,
            dur_ns: 1,
        }
    }

    #[test]
    fn ring_preserves_order_until_full_then_overwrites_oldest() {
        let mut r = RingVec::new(3);
        r.push(span("a", 0));
        r.push(span("b", 1));
        let (evs, dropped) = r.take();
        assert_eq!(dropped, 0);
        assert_eq!(evs, vec![span("a", 0), span("b", 1)]);

        for (i, name) in ["a", "b", "c", "d", "e"].into_iter().enumerate() {
            r.push(span(name, i as u64));
        }
        let (evs, dropped) = r.take();
        assert_eq!(dropped, 2, "a and b overwritten");
        assert_eq!(evs, vec![span("c", 2), span("d", 3), span("e", 4)]);
        // Capacity survives the take; the ring is reusable.
        r.push(span("f", 9));
        let (evs, dropped) = r.take();
        assert_eq!((evs.len(), dropped), (1, 0));
    }

    #[test]
    fn named_threads_register_with_their_name() {
        let _guard = crate::test_guard();
        std::thread::Builder::new()
            .name("ring-test-worker".into())
            .spawn(|| record(span("from-worker", 5)))
            .unwrap()
            .join()
            .unwrap();
        let traces = drain();
        let worker = traces
            .iter()
            .find(|t| t.label == "ring-test-worker")
            .expect("worker thread registered");
        assert!(worker.events.contains(&span("from-worker", 5)));
    }
}
