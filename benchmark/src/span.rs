//! The benchmark's own span recorder (traced pass only).
//!
//! Spans are opened and closed by the benchmark around calls into each
//! layer's public functions — nothing inside the library is touched. Each
//! span carries a name, start, end, the span that caused it, and the id
//! of the op it belongs to; they stay in memory until the run ends and
//! are then written as Chrome-trace JSON. A layer's *self* time is its
//! span minus the part of that interval its children cover.

use std::time::{Duration, Instant};

use crate::json::Value;

/// One recorded interval, in nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store with a stack of open spans.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start a new op: spans opened from now on share its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) -> Duration {
        let now = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = now;
        Duration::from_nanos(self.spans[id].dur_ns())
    }

    /// Lay already-measured consecutive phases into the open span `parent`
    /// as children, starting at the parent's start. Used for the three
    /// stage walls `run_iteration_timed` reports: the benchmark cannot
    /// open spans inside the library, but the library hands back exactly
    /// those durations.
    pub fn add_phases(&mut self, parent: usize, phases: &[(&'static str, Duration)]) {
        let mut at = self.spans[parent].start_ns;
        for &(name, d) in phases {
            let end = at + d.as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
                op: self.spans[parent].op,
            });
            at = end;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of span `id`: its duration minus the union of its direct
    /// children's intervals (clipped to the span, overlaps counted once).
    pub fn self_ns(&self, id: usize) -> u64 {
        self_ns(&self.spans, id)
    }

    /// Self times (ms) of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i) as f64 / 1e6)
            .collect()
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): complete events on one track, `args` carrying the op
    /// id, parent index and self time.
    pub fn chrome_trace(&self, process: &str) -> Value {
        let mut events = vec![Value::obj([
            ("name", Value::from("process_name")),
            ("ph", Value::from("M")),
            ("pid", Value::from(1.0)),
            ("args", Value::obj([("name", Value::from(process))])),
        ])];
        for (i, s) in self.spans.iter().enumerate() {
            events.push(Value::obj([
                ("name", Value::from(s.name)),
                ("ph", Value::from("X")),
                ("pid", Value::from(1.0)),
                ("tid", Value::from(1.0)),
                ("ts", Value::from(s.start_ns as f64 / 1e3)),
                ("dur", Value::from(s.dur_ns() as f64 / 1e3)),
                (
                    "args",
                    Value::obj([
                        ("op", Value::from(s.op as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::from(p as f64)),
                        ),
                        ("self_us", Value::from(self.self_ns(i) as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
        Value::obj([("traceEvents", Value::Arr(events))])
    }
}

fn self_ns(spans: &[Span], id: usize) -> u64 {
    let s = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|(lo, hi)| hi > lo)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = s.start_ns;
    for (lo, hi) in kids {
        let lo = lo.max(reach);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    s.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(30, 60, Some(0)),
            // Overlaps the previous sibling: [50, 70) adds only [60, 70).
            span(50, 70, Some(0)),
            // Sticks out past the parent: clipped to [90, 100).
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - (20 + 30 + 10 + 10));
        assert_eq!(self_ns(&spans, 1), 20, "a leaf is all self time");
    }

    #[test]
    fn self_time_counts_direct_children_only() {
        let spans = vec![
            span(0, 100, None),
            span(20, 80, Some(0)),
            // Grandchild: charged to span 1, not to span 0.
            span(30, 50, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 40);
        assert_eq!(self_ns(&spans, 1), 40);
        assert_eq!(self_ns(&spans, 2), 20);
    }

    #[test]
    fn recorder_nests_spans_and_tags_ops() {
        let mut r = Recorder::new();
        let op = r.next_op();
        let outer = r.begin("op");
        let inner = r.begin("inner");
        std::hint::black_box((0..1000).sum::<u64>());
        r.end(inner);
        r.end(outer);
        r.add_phases(
            outer,
            &[
                ("a", Duration::from_nanos(5)),
                ("b", Duration::from_nanos(7)),
            ],
        );
        let s = r.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(outer));
        assert!(s.iter().all(|x| x.op == op));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[2].start_ns, s[0].start_ns);
        assert_eq!(s[3].start_ns, s[2].end_ns);
        assert_eq!(s[3].dur_ns(), 7);
        assert_eq!(r.durations_ms("b"), vec![7e-6]);
        let doc = r.chrome_trace("test").to_string();
        assert!(doc.contains("\"traceEvents\""));
        assert!(crate::json::parse(&doc).is_ok());
    }
}
