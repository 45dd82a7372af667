//! # wg-trace — workspace-wide observability
//!
//! A zero-dependency span/event tracer and metrics registry, designed for
//! hot paths that must stay allocation-free:
//!
//! * [`span!`] opens a scoped span recorded into a **thread-local ring
//!   buffer** (fixed capacity, preallocated on the thread's first event;
//!   oldest events are overwritten when full). Dropping the guard stamps
//!   the span's duration — no channels, no locks on the record path
//!   beyond the thread's own uncontended buffer mutex.
//! * [`counter!`] and [`histogram!`] feed the global
//!   [`metrics`] registry: lock-free atomic updates after the first use
//!   of a name interns its entry (warm-up traffic pays the one-time
//!   allocation; steady state allocates nothing).
//! * [`chrome::ChromeTrace`] serializes spans — and any simulated-device
//!   intervals the caller supplies — into Chrome trace-event JSON that
//!   `chrome://tracing` and Perfetto load directly.
//!
//! ## Enablement contract
//!
//! Everything is **off by default**. A disabled probe is one relaxed
//! atomic load and a predictable branch — no timestamps, no buffer
//! registration, no registry lookups — so the workspace's allocation
//! budgets and checksums are byte-identical with tracing compiled in.
//! Spans and metrics enable independently ([`enable_spans`],
//! [`enable_metrics`]; [`enable_all`] for both). Building this crate with
//! the `disabled` feature pins the enablement checks to `const false`,
//! compiling every probe out entirely.
//!
//! ```
//! wg_trace::enable_all();
//! {
//!     let _g = wg_trace::span!("demo.work");
//!     wg_trace::counter!("demo.bytes", 4096.0);
//! }
//! let events: usize = wg_trace::drain().iter().map(|t| t.events.len()).sum();
//! // One span; the `disabled` feature compiles even that out.
//! assert_eq!(events, if cfg!(feature = "disabled") { 0 } else { 1 });
//! wg_trace::disable_all();
//! ```

#![forbid(unsafe_code)]

pub mod chrome;
pub mod metrics;
pub mod ring;

pub use ring::{drain, Event, ThreadTrace};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Enablement bit for span recording.
const SPANS: u8 = 0b01;
/// Enablement bit for metric recording.
const METRICS: u8 = 0b10;

/// Global enablement state (both bits clear at startup).
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether span recording is live. With the `disabled` feature this is
/// `const false` and the compiler removes every probe behind it.
#[inline(always)]
pub fn spans_enabled() -> bool {
    if cfg!(feature = "disabled") {
        return false;
    }
    STATE.load(Ordering::Relaxed) & SPANS != 0
}

/// Whether metric recording is live.
#[inline(always)]
pub fn metrics_enabled() -> bool {
    if cfg!(feature = "disabled") {
        return false;
    }
    STATE.load(Ordering::Relaxed) & METRICS != 0
}

/// Turn span recording on.
pub fn enable_spans() {
    STATE.fetch_or(SPANS, Ordering::Relaxed);
}

/// Turn metric recording on.
pub fn enable_metrics() {
    STATE.fetch_or(METRICS, Ordering::Relaxed);
}

/// Turn both spans and metrics on.
pub fn enable_all() {
    STATE.fetch_or(SPANS | METRICS, Ordering::Relaxed);
}

/// Turn everything off (recorded data stays until drained/reset).
pub fn disable_all() {
    STATE.store(0, Ordering::Relaxed);
}

/// The process-wide trace epoch: all span timestamps are nanoseconds
/// since the first probe fired.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the trace epoch (monotonic).
#[inline]
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// A scoped span: created by [`span!`], records one [`Event`] into
/// the current thread's ring buffer when dropped. When spans are
/// disabled the guard is inert (no timestamp is ever taken).
pub struct SpanGuard {
    open: Option<(&'static str, u64)>,
}

impl SpanGuard {
    /// Open a span now (or an inert guard if spans are disabled).
    #[inline]
    pub fn begin(name: &'static str) -> SpanGuard {
        SpanGuard {
            open: spans_enabled().then(|| (name, now_ns())),
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some((name, start_ns)) = self.open.take() {
            ring::record(Event {
                name,
                start_ns,
                dur_ns: now_ns().saturating_sub(start_ns),
            });
        }
    }
}

/// Open a scoped span: `let _g = span!("pipeline.sample");`. The span
/// closes when the guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::begin($name)
    };
}

/// Add to a monotonically increasing counter:
/// `counter!("mem.gather.bus_bytes", bytes as f64);`
#[macro_export]
macro_rules! counter {
    ($name:expr, $value:expr) => {
        $crate::metrics::add($name, $value)
    };
}

/// Record an observation into a fixed-bucket histogram:
/// `histogram!("mem.gather.rows", &BUCKETS, rows as f64);`
/// The bucket bounds must be the same `'static` slice on every call.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $bounds:expr, $value:expr) => {
        $crate::metrics::observe($name, $bounds, $value)
    };
}

/// Serializes tests that touch the process-global enablement flags,
/// thread registry, or metrics registry.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Asserts recording, which the `disabled` feature compiles out.
    #[cfg(not(feature = "disabled"))]
    #[test]
    fn disabled_probes_are_inert_and_enabled_probes_record() {
        let _guard = test_guard();
        drain();
        metrics::reset();
        disable_all();
        {
            let _g = span!("off.span");
            counter!("off.counter", 1.0);
        }
        assert!(drain().iter().all(|t| t.events.is_empty()));
        assert!(metrics::snapshot().counters.is_empty());

        enable_all();
        assert!(spans_enabled() && metrics_enabled());
        {
            let _g = span!("on.span");
            counter!("on.counter", 2.5);
            histogram!("on.hist", &[1.0, 10.0], 3.0);
        }
        let events: usize = drain().iter().map(|t| t.events.len()).sum();
        assert_eq!(events, 1, "the span");
        let snap = metrics::snapshot();
        assert_eq!(snap.counters[0], ("on.counter".into(), 2.5));
        assert_eq!(snap.histograms[0].count, 1);

        disable_all();
        metrics::reset();
        assert!(!spans_enabled() && !metrics_enabled());
    }

    /// The `disabled` feature's contract: even after `enable_all()`, no
    /// probe kind records anything.
    #[cfg(feature = "disabled")]
    #[test]
    fn disabled_feature_records_nothing_even_when_enabled() {
        let _guard = test_guard();
        drain();
        metrics::reset();
        enable_all();
        assert!(!spans_enabled() && !metrics_enabled());
        {
            let _g = span!("off.span");
            counter!("off.counter", 1.0);
            histogram!("off.hist", &[1.0, 10.0], 3.0);
        }
        assert!(drain().iter().all(|t| t.events.is_empty()));
        assert!(metrics::snapshot().is_empty());
        disable_all();
    }

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
