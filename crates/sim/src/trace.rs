//! Busy/idle utilization traces.
//!
//! Figure 12 of the paper plots GPU utilization over wall-clock time for
//! PyG, DGL and WholeGraph: the host-memory frameworks oscillate between 0%
//! (GPU starving while the CPU samples/gathers) and bursts of activity,
//! while WholeGraph stays ≥95% busy. We reproduce this by recording, per
//! machine, the simulated interval every pipeline phase occupies, tagged
//! with whether the node's GPUs — which run each wave in lockstep — were
//! busy or idle-waiting.

use crate::time::SimTime;

/// Pipeline phase labels (also the legend of Figures 9 and 11).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Phase {
    /// One-time setup (memory allocation, IPC exchange, data load).
    Setup,
    /// Neighbor sampling + sub-graph construction.
    Sampling,
    /// Feature gathering (and, for host pipelines, the PCIe copy-in).
    Gather,
    /// Forward/backward/optimizer on the GPU.
    Training,
    /// Gradient AllReduce / other collective communication.
    Communication,
    /// The device is waiting on another device's work.
    Idle,
}

impl Phase {
    /// Every phase, in pipeline order (Setup first, Idle last).
    pub const ALL: [Phase; 6] = [
        Phase::Setup,
        Phase::Sampling,
        Phase::Gather,
        Phase::Training,
        Phase::Communication,
        Phase::Idle,
    ];

    /// Whether a GPU doing this phase counts as "utilized" for Figure 12.
    /// Host-side sampling/gather leave the GPU idle; GPU-side versions of
    /// the same phases are recorded by the pipelines as busy GPU intervals.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Sampling => "sampling",
            Phase::Gather => "gather",
            Phase::Training => "training",
            Phase::Communication => "comm",
            Phase::Idle => "idle",
        }
    }

    /// The `wg-trace` counter this phase's simulated busy time accrues
    /// under (seconds).
    pub fn metric_name(self) -> &'static str {
        match self {
            Phase::Setup => "sim.phase.setup_s",
            Phase::Sampling => "sim.phase.sampling_s",
            Phase::Gather => "sim.phase.gather_s",
            Phase::Training => "sim.phase.training_s",
            Phase::Communication => "sim.phase.comm_s",
            Phase::Idle => "sim.phase.idle_s",
        }
    }
}

/// One recorded interval on a machine's timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Interval start (simulated).
    pub start: SimTime,
    /// Interval end (simulated).
    pub end: SimTime,
    /// What the GPUs were doing.
    pub phase: Phase,
    /// Whether the GPUs were actively computing during the interval
    /// (`false` = stalled waiting for data — the utilization dips of
    /// Figure 12).
    pub busy: bool,
}

impl TraceEvent {
    /// Length of the interval.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// An append-only utilization trace for one machine.
#[derive(Clone, Debug, Default)]
pub struct UtilizationTrace {
    events: Vec<TraceEvent>,
}

impl UtilizationTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an interval. Intervals must be well-formed (`end >= start`).
    ///
    /// This is the chokepoint every simulated interval passes through
    /// (every [`crate::Machine::run`] lands here), so it also accrues the
    /// interval into the per-phase `sim.phase.*_s` counters when
    /// `wg-trace` metrics are enabled — one atomic-load probe otherwise.
    /// Each interval accrues once: the counters are machine seconds, not
    /// GPU-seconds summed over the node's GPUs.
    pub fn record(&mut self, ev: TraceEvent) {
        assert!(
            ev.end >= ev.start,
            "trace interval ends before it starts: {ev:?}"
        );
        wg_trace::counter!(ev.phase.metric_name(), ev.duration().as_secs());
        self.events.push(ev);
    }

    /// All recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Total busy time in `[from, to)`.
    ///
    /// Busy intervals are **unioned**, not summed: a trace may hold
    /// overlapping busy spans, and GPUs doing two things at once are
    /// still only busy once. The schedule records back-to-back spans, and
    /// the union merges each abutting run into one `end - start`, which
    /// can round differently in floating point from the sum of the
    /// run's span lengths — so union and sum need not agree to the bit
    /// even on the schedule's traces. Figure 12's percentages and the
    /// benchmark's `sim.gpu0_busy_share` are the union's.
    pub fn busy_time(&self, from: SimTime, to: SimTime) -> SimTime {
        let mut spans: Vec<(SimTime, SimTime)> = self
            .events
            .iter()
            .filter(|e| e.busy)
            .map(|e| (e.start.max(from), e.end.min(to)))
            .filter(|(s, e)| e > s)
            .collect();
        spans.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("non-finite trace time"));
        let mut total = SimTime::ZERO;
        let mut current: Option<(SimTime, SimTime)> = None;
        for (s, e) in spans {
            match current {
                Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    total += ce - cs;
                    current = Some((s, e));
                }
                None => current = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = current {
            total += ce - cs;
        }
        total
    }

    /// Utilization ratio (busy / span) over `[from, to)`.
    pub fn utilization(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to - from;
        if span.as_secs() <= 0.0 {
            return 0.0;
        }
        self.busy_time(from, to) / span
    }

    /// Utilization sampled over `bins` equal windows spanning the whole
    /// trace — the Figure 12 time series.
    pub fn utilization_series(&self, bins: usize) -> Vec<(SimTime, f64)> {
        let end = self
            .events
            .iter()
            .map(|e| e.end)
            .fold(SimTime::ZERO, SimTime::max);
        if bins == 0 || end.is_zero() {
            return Vec::new();
        }
        let w = end / bins as f64;
        (0..bins)
            .map(|i| {
                let from = w * i as f64;
                let to = w * (i + 1) as f64;
                (from, self.utilization(from, to))
            })
            .collect()
    }

    /// Append this machine's intervals to a Chrome trace as one `(pid,
    /// tid)` track, labeled `label`. Timestamps are **simulated** time
    /// mapped to trace microseconds; `busy` is carried as an event arg
    /// so Perfetto can color/filter the starvation dips of Figure 12.
    /// `Idle` intervals are emitted too — they are the dips.
    pub fn chrome_events(&self, out: &mut wg_trace::chrome::ChromeTrace, pid: u32, tid: u32) {
        for e in &self.events {
            out.complete(
                pid,
                tid,
                e.phase.name(),
                "sim",
                e.start.as_micros(),
                e.duration().as_micros(),
                &format!("\"busy\":{}", e.busy),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: f64, end: f64, phase: Phase, busy: bool) -> TraceEvent {
        TraceEvent {
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
            phase,
            busy,
        }
    }

    #[test]
    fn busy_time_and_utilization() {
        let mut t = UtilizationTrace::new();
        t.record(ev(0.0, 1.0, Phase::Idle, false));
        t.record(ev(1.0, 3.0, Phase::Training, true));
        t.record(ev(3.0, 4.0, Phase::Idle, false));
        let u = t.utilization(SimTime::ZERO, SimTime::from_secs(4.0));
        assert!((u - 0.5).abs() < 1e-12);
        assert_eq!(
            t.busy_time(SimTime::ZERO, SimTime::from_secs(4.0))
                .as_secs(),
            2.0
        );
    }

    #[test]
    fn overlapping_busy_intervals_count_once() {
        // Input and train spans busy over the same simulated time must
        // not push utilization past 100%.
        let mut t = UtilizationTrace::new();
        t.record(ev(0.0, 3.0, Phase::Training, true));
        t.record(ev(1.0, 4.0, Phase::Gather, true));
        t.record(ev(6.0, 7.0, Phase::Sampling, true));
        let busy = t.busy_time(SimTime::ZERO, SimTime::from_secs(8.0));
        assert!((busy.as_secs() - 5.0).abs() < 1e-12, "busy {busy}");
        let u = t.utilization(SimTime::ZERO, SimTime::from_secs(4.0));
        assert!((u - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_clips_to_window() {
        let mut t = UtilizationTrace::new();
        t.record(ev(0.0, 10.0, Phase::Training, true));
        let u = t.utilization(SimTime::from_secs(2.0), SimTime::from_secs(4.0));
        assert!((u - 1.0).abs() < 1e-12);
    }

    #[test]
    fn series_has_requested_bins() {
        let mut t = UtilizationTrace::new();
        t.record(ev(0.0, 2.0, Phase::Training, true));
        t.record(ev(2.0, 4.0, Phase::Idle, false));
        let s = t.utilization_series(4);
        assert_eq!(s.len(), 4);
        assert!((s[0].1 - 1.0).abs() < 1e-12);
        assert!((s[3].1 - 0.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn malformed_interval_panics() {
        let mut t = UtilizationTrace::new();
        t.record(ev(2.0, 1.0, Phase::Idle, false));
    }

    #[test]
    fn empty_trace_series_is_empty() {
        let t = UtilizationTrace::new();
        assert!(t.utilization_series(10).is_empty());
    }

    #[test]
    fn phase_all_is_exhaustive_with_distinct_labels() {
        assert_eq!(Phase::ALL.len(), 6);
        for (i, a) in Phase::ALL.iter().enumerate() {
            assert!(a.metric_name().starts_with("sim.phase."));
            assert!(a.metric_name().ends_with("_s"));
            for b in &Phase::ALL[i + 1..] {
                assert_ne!(a, b);
                assert_ne!(a.name(), b.name());
                assert_ne!(a.metric_name(), b.metric_name());
            }
        }
    }

    #[test]
    fn touching_busy_intervals_merge_without_double_count() {
        // end == next start: one contiguous busy run, not two plus a gap.
        let mut t = UtilizationTrace::new();
        t.record(ev(0.0, 1.0, Phase::Sampling, true));
        t.record(ev(1.0, 2.0, Phase::Gather, true));
        t.record(ev(2.0, 2.0, Phase::Training, true)); // zero-length
        let busy = t.busy_time(SimTime::ZERO, SimTime::from_secs(3.0));
        assert!((busy.as_secs() - 2.0).abs() < 1e-12, "busy {busy}");
        // A window that excludes every interval sees zero busy time.
        assert_eq!(
            t.busy_time(SimTime::from_secs(2.5), SimTime::from_secs(3.0))
                .as_secs(),
            0.0
        );
        // An inverted/empty window has zero utilization, not NaN.
        assert_eq!(t.utilization(SimTime::from_secs(1.0), SimTime::ZERO), 0.0);
    }

    #[test]
    fn busy_tag_not_phase_decides_occupancy() {
        // Phase labels say what ran; only the busy flag says whether the
        // GPUs were utilized (host-side sampling is recorded as
        // Sampling/busy=false — a Figure 12 dip).
        let mut t = UtilizationTrace::new();
        t.record(ev(0.0, 1.0, Phase::Sampling, false));
        t.record(ev(1.0, 2.0, Phase::Sampling, true));
        assert_eq!(
            t.busy_time(SimTime::ZERO, SimTime::from_secs(2.0))
                .as_secs(),
            1.0
        );
    }

    #[test]
    fn chrome_events_map_intervals_to_complete_events() {
        let mut t = UtilizationTrace::new();
        t.record(ev(0.0, 0.5, Phase::Gather, true));
        t.record(ev(0.5, 1.0, Phase::Idle, false));
        let mut chrome = wg_trace::chrome::ChromeTrace::new();
        t.chrome_events(&mut chrome, 7, 3);
        let json = chrome.finish();
        // Both intervals (idle dips included) as complete events on the
        // requested track, timestamps in simulated microseconds.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"pid\":7"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"name\":\"gather\""));
        assert!(json.contains("\"name\":\"idle\""));
        assert!(json.contains("\"dur\":500000.000"));
        assert!(json.contains("\"busy\":false"));
    }

    #[test]
    fn record_accrues_per_phase_metric_counters() {
        wg_trace::enable_metrics();
        let mut t = UtilizationTrace::new();
        t.record(ev(0.0, 2.0, Phase::Communication, true));
        t.record(ev(2.0, 3.5, Phase::Communication, true));
        wg_trace::disable_all();
        let snap = wg_trace::metrics::snapshot();
        let comm = snap
            .counters
            .iter()
            .find(|(n, _)| n == Phase::Communication.metric_name())
            .expect("comm counter interned");
        // Other concurrently-running tests may also record comm intervals
        // (the registry is process-global), so lower-bound the total.
        assert!(comm.1 >= 3.5 - 1e-12, "comm seconds {}", comm.1);
    }
}
