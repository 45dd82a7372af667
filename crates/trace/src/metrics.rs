//! The global metrics registry: counters and fixed-bucket histograms.
//!
//! Every metric is named by a `&'static str` spelled at its probe site.
//! Values live in atomics and update lock-free; the registry itself is a
//! small mutex-guarded vector that is only locked to *intern* a name on
//! its first use (and to snapshot). Probe sites therefore allocate only
//! on the first observation of each metric — warm hot loops are
//! allocation-free, which is what lets the wallclock harness keep its
//! allocation budgets with metrics enabled.
//!
//! All recording is gated on [`crate::metrics_enabled`]: a disabled
//! probe is one atomic load.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An `f64` stored in an `AtomicU64` (by bit pattern).
#[derive(Debug, Default)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }
}

enum Kind {
    Counter(AtomicF64),
    Histogram {
        /// Upper bucket bounds (inclusive); an implicit `+inf` bucket
        /// follows. Must be the same `'static` slice on every call.
        bounds: &'static [f64],
        /// One count per bound, plus the overflow bucket.
        buckets: Box<[AtomicU64]>,
        count: AtomicU64,
        sum: AtomicF64,
    },
}

struct Entry {
    name: &'static str,
    kind: Kind,
}

/// Interned metrics, in first-use order. Entries are never removed, so
/// probe sites may cache nothing and still stay allocation-free after
/// the first touch.
static REGISTRY: Mutex<Vec<Arc<Entry>>> = Mutex::new(Vec::new());

fn intern(name: &'static str, make: impl FnOnce() -> Kind) -> Arc<Entry> {
    let mut reg = REGISTRY.lock().unwrap();
    if let Some(e) = reg.iter().find(|e| e.name == name) {
        return Arc::clone(e);
    }
    let entry = Arc::new(Entry { name, kind: make() });
    reg.push(Arc::clone(&entry));
    entry
}

/// Add `v` to the counter `name` (created on first use).
#[inline]
pub fn add(name: &'static str, v: f64) {
    if !crate::metrics_enabled() {
        return;
    }
    let e = intern(name, || Kind::Counter(AtomicF64::default()));
    match &e.kind {
        Kind::Counter(c) => c.add(v),
        _ => panic!("metric {name} is not a counter"),
    }
}

/// Record `v` into the fixed-bucket histogram `name`. `bounds` are the
/// inclusive upper bucket bounds (ascending); values above the last
/// bound land in an implicit overflow bucket.
#[inline]
pub fn observe(name: &'static str, bounds: &'static [f64], v: f64) {
    if !crate::metrics_enabled() {
        return;
    }
    let e = intern(name, || Kind::Histogram {
        bounds,
        buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
        count: AtomicU64::new(0),
        sum: AtomicF64::default(),
    });
    match &e.kind {
        Kind::Histogram {
            bounds: b,
            buckets,
            count,
            sum,
        } => {
            assert!(
                std::ptr::eq(*b, bounds),
                "histogram {name} re-registered with different bounds"
            );
            let idx = b.partition_point(|&bound| bound < v);
            buckets[idx].fetch_add(1, Ordering::Relaxed);
            count.fetch_add(1, Ordering::Relaxed);
            sum.add(v);
        }
        _ => panic!("metric {name} is not a histogram"),
    }
}

/// A histogram's frozen state.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Upper bucket bounds (an overflow bucket follows the last).
    pub bounds: Vec<f64>,
    /// Per-bucket counts, `bounds.len() + 1` long.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Estimate the `q`-th quantile (`0.0 ≤ q ≤ 1.0`) from the bucket
    /// counts, Prometheus-style: find the bucket holding the `q·count`-th
    /// observation (ranks are 1-based; `q = 0` reads as the first
    /// observation), then interpolate linearly between the bucket's lower
    /// and upper bound under a uniform-within-bucket assumption. The
    /// first bucket interpolates from 0; a quantile landing in the
    /// overflow bucket returns the last finite bound (the histogram
    /// cannot resolve beyond it). Returns `None` on an empty histogram.
    ///
    /// The estimate is deterministic — a pure function of the frozen
    /// bucket counts — so serving-latency p50/p99 reported from it are
    /// reproducible across runs with identical observations.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let prev = cum;
            cum += c;
            if (cum as f64) < rank {
                continue;
            }
            let upper = match self.bounds.get(i) {
                Some(&b) => b,
                // Overflow bucket: unbounded above, so the best the
                // fixed buckets can say is "at least the last bound".
                None => return Some(self.bounds.last().copied().unwrap_or(0.0)),
            };
            let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
            let frac = if c == 0 {
                1.0
            } else {
                (rank - prev as f64) / c as f64
            };
            return Some(lower + (upper - lower) * frac);
        }
        self.bounds.last().copied()
    }

    /// Median estimate — `quantile(0.5)`.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Tail-latency estimate — `quantile(0.99)`.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// A frozen copy of the whole registry, each section sorted by name.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter name → accumulated value.
    pub counters: Vec<(String, f64)>,
    /// Histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Render as a JSON object:
    /// `{"counters": {...}, "histograms": {...}}`.
    /// Histograms carry `count`, `sum`, `mean`, and per-bucket
    /// `{"le": bound, "count": n}` rows (the last bound is `"inf"`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", crate::chrome::escape(name), num(*v)));
        }
        out.push_str("}, \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let mean = if h.count > 0 {
                h.sum / h.count as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"buckets\": [",
                crate::chrome::escape(&h.name),
                h.count,
                num(h.sum),
                num(mean)
            ));
            for (j, &c) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let le = h
                    .bounds
                    .get(j)
                    .map_or_else(|| "\"inf\"".to_string(), |b| num(*b));
                out.push_str(&format!("{{\"le\": {le}, \"count\": {c}}}"));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// JSON-safe number formatting (no NaN/inf literals).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Freeze the current registry contents.
pub fn snapshot() -> Snapshot {
    let reg = REGISTRY.lock().unwrap();
    let mut snap = Snapshot::default();
    for e in reg.iter() {
        match &e.kind {
            Kind::Counter(c) => snap.counters.push((e.name.to_string(), c.get())),
            Kind::Histogram {
                bounds,
                buckets,
                count,
                sum,
            } => snap.histograms.push(HistogramSnapshot {
                name: e.name.to_string(),
                bounds: bounds.to_vec(),
                buckets: buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                count: count.load(Ordering::Relaxed),
                sum: sum.get(),
            }),
        }
    }
    snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    snap
}

/// Clear the registry (names un-intern; the next probe re-creates them).
pub fn reset() {
    REGISTRY.lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    static BOUNDS: [f64; 3] = [1.0, 10.0, 100.0];

    #[cfg(not(feature = "disabled"))]
    #[test]
    fn counters_and_histograms_accumulate_and_snapshot() {
        let _guard = crate::test_guard();
        crate::enable_metrics();
        reset();
        add("m.counter", 1.5);
        add("m.counter", 2.5);
        for v in [0.5, 1.0, 5.0, 50.0, 5000.0] {
            observe("m.hist", &BOUNDS, v);
        }
        let snap = snapshot();
        assert_eq!(snap.counters, vec![("m.counter".to_string(), 4.0)]);
        let h = &snap.histograms[0];
        // 0.5 and 1.0 land in the ≤1 bucket (inclusive bounds), then one
        // observation per remaining bucket including overflow.
        assert_eq!(h.buckets, vec![2, 1, 1, 1]);
        assert_eq!(h.count, 5);
        assert!((h.sum - 5056.5).abs() < 1e-9);
        let json = snap.to_json();
        assert!(json.contains("\"m.counter\": 4"));
        assert!(json.contains("{\"le\": \"inf\", \"count\": 1}"));
        assert!(json.starts_with("{\"counters\": {") && !json.contains("gauges"));
        crate::disable_all();
        reset();
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        // 10 observations ≤1, 80 in (1, 10], 10 in (10, 100]: the median
        // rank (50) sits 40/80 of the way through the middle bucket.
        let h = HistogramSnapshot {
            name: "q".into(),
            bounds: vec![1.0, 10.0, 100.0],
            buckets: vec![10, 80, 10, 0],
            count: 100,
            sum: 0.0,
        };
        assert!((h.p50().unwrap() - 5.5).abs() < 1e-9);
        // Rank 99 is the 89th observation past the first two buckets:
        // 9/10 of the way through (10, 100].
        assert!((h.p99().unwrap() - 91.0).abs() < 1e-9);
        // Rank 10 closes out the first bucket exactly.
        assert!((h.quantile(0.1).unwrap() - 1.0).abs() < 1e-9);
        // q=0 reads the first observation's bucket, interpolated from 0.
        assert!((h.quantile(0.0).unwrap() - 0.1).abs() < 1e-9);
        assert!((h.quantile(1.0).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        let empty = HistogramSnapshot {
            name: "e".into(),
            bounds: vec![1.0, 2.0],
            buckets: vec![0, 0, 0],
            count: 0,
            sum: 0.0,
        };
        assert_eq!(empty.p50(), None);
        // All mass in the overflow bucket: the histogram can only answer
        // "at least the last bound".
        let overflow = HistogramSnapshot {
            name: "o".into(),
            bounds: vec![1.0, 2.0],
            buckets: vec![0, 0, 7],
            count: 7,
            sum: 0.0,
        };
        assert_eq!(overflow.p50(), Some(2.0));
        assert_eq!(overflow.p99(), Some(2.0));
    }

    #[test]
    fn disabled_metrics_do_not_intern() {
        let _guard = crate::test_guard();
        crate::disable_all();
        reset();
        add("never.counter", 1.0);
        observe("never.hist", &BOUNDS, 1.0);
        assert!(snapshot().is_empty());
    }

    #[cfg(not(feature = "disabled"))]
    #[test]
    fn concurrent_counter_adds_do_not_lose_updates() {
        let _guard = crate::test_guard();
        crate::enable_metrics();
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        add("m.racy", 1.0);
                    }
                });
            }
        });
        assert_eq!(snapshot().counters[0].1, 4000.0);
        crate::disable_all();
        reset();
    }
}
