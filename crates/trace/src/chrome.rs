//! Chrome trace-event JSON assembly.
//!
//! Produces the `{"traceEvents": [...]}` object format that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly. The builder is deliberately dumb — callers place events on
//! `(pid, tid)` tracks themselves — so host wall-clock spans (from the
//! thread rings) and *simulated* device intervals (from `wg-sim`
//! utilization traces) can sit side by side in one file, each process
//! labeled with its time base.

use crate::ring::ThreadTrace;

/// Escape a string for embedding in a JSON literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Incremental Chrome trace-event writer.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events added so far (metadata included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Label a process track (`"M"` metadata event).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
    }

    /// Label a thread track within a process.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
    }

    /// A complete span (`"X"` event). Times are microseconds; `cat` is
    /// the filterable category; `args` is a pre-serialized JSON object
    /// body (`""` for none), e.g. `"\"busy\":true"`.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        ts_us: f64,
        dur_us: f64,
        args: &str,
    ) {
        let args = if args.is_empty() {
            String::new()
        } else {
            format!(",\"args\":{{{args}}}")
        };
        self.events.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{}\",\"cat\":\"{}\",\
             \"ts\":{ts_us:.3},\"dur\":{dur_us:.3}{args}}}",
            escape(name),
            escape(cat)
        ));
    }

    /// Add one drained host thread's events under `pid`, using the
    /// thread's registry id as `tid` and labeling the track.
    pub fn add_host_thread(&mut self, pid: u32, trace: &ThreadTrace) {
        let tid = trace.id as u32;
        let label = if trace.dropped > 0 {
            format!("{} (dropped {})", trace.label, trace.dropped)
        } else {
            trace.label.clone()
        };
        self.thread_name(pid, tid, &label);
        for ev in &trace.events {
            self.complete(
                pid,
                tid,
                ev.name,
                "host",
                ev.start_ns as f64 / 1e3,
                ev.dur_ns as f64 / 1e3,
                "",
            );
        }
    }

    /// Serialize. The result is a single JSON object Perfetto loads
    /// as-is.
    pub fn finish(self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
        out.push_str(&self.events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Event;

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn builder_emits_loadable_event_stream() {
        let mut t = ChromeTrace::new();
        assert!(t.is_empty());
        t.process_name(1, "host");
        t.thread_name(1, 0, "main");
        t.complete(1, 0, "pipeline.sample", "host", 10.0, 5.5, "");
        t.complete(2, 3, "training", "sim", 0.0, 100.0, "\"busy\":true");
        assert_eq!(t.len(), 4);
        let json = t.finish();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"args\":{\"busy\":true}"));
        assert!(json.contains("\"process_name\""));
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn host_thread_spans_become_x_events() {
        let trace = ThreadTrace {
            id: 2,
            label: "worker-2".into(),
            events: vec![
                Event {
                    name: "s",
                    start_ns: 1_500,
                    dur_ns: 2_000,
                },
                Event {
                    name: "m",
                    start_ns: 4_000,
                    dur_ns: 0,
                },
            ],
            dropped: 1,
        };
        let mut t = ChromeTrace::new();
        t.add_host_thread(7, &trace);
        let json = t.finish();
        assert!(json.contains("worker-2 (dropped 1)"));
        assert!(json.contains("\"ts\":1.500,\"dur\":2.000"));
        assert!(json.contains("\"name\":\"m\",\"cat\":\"host\",\"ts\":4.000,\"dur\":0.000"));
        assert!(!json.contains("\"ph\":\"i\""));
    }
}
