//! Merged host/sim trace export (the Figure 12 evidence, machine-readable).
//!
//! The workspace records two kinds of timing:
//!
//! * **host wall-clock spans** — `wg-trace` spans recorded by the real
//!   code (`pipeline.sample`, `mem.gather`, …) on every participating
//!   thread, and
//! * **simulated node intervals** — the busy/idle phase intervals the
//!   schedules charge into each machine's [`wg_sim::UtilizationTrace`]
//!   (what the paper's utilization timeline plots). A node's GPUs train
//!   in lockstep, so each machine has one simulated track.
//!
//! [`chrome_trace_json`] merges both into one Chrome trace-event JSON:
//! process 1 carries one track per host thread (wall-clock microseconds),
//! process 2 the machine's one simulated track (simulated microseconds).
//! The two processes are separate time bases by construction — the
//! process names say so — but land in a single file that
//! `chrome://tracing` / Perfetto load directly, which is what makes the
//! per-stage host split and the simulated starvation dips inspectable
//! side by side.

use wg_sim::Machine;
use wg_trace::chrome::ChromeTrace;

/// Chrome `pid` for host wall-clock thread tracks.
pub const HOST_PID: u32 = 1;
/// Chrome `pid` for the simulated machine track.
pub const SIM_PID: u32 = 2;

/// Drain the host span rings and merge them with `machine`'s recorded
/// trace into Chrome trace-event JSON.
///
/// Draining consumes the host spans: a second call exports only spans
/// recorded after the first. The machine's trace is read, not cleared
/// (reset them with [`Machine::reset_time`] between experiments).
pub fn chrome_trace_json(machine: &Machine) -> String {
    let mut out = ChromeTrace::new();
    add_host_tracks(&mut out);
    add_machine_track(&mut out, SIM_PID, "simulated node (sim time)", machine);
    out.finish()
}

/// Multi-node variant of [`chrome_trace_json`]: one Chrome process per
/// machine node (`pid = SIM_PID + k`, named `node<k> (sim time)`), so
/// Perfetto shows each node's comm/compute occupancy as its own swimlane
/// — the per-phase evidence behind the executed multi-node sweep.
pub fn cluster_chrome_trace_json(machines: &[&Machine]) -> String {
    let mut out = ChromeTrace::new();
    add_host_tracks(&mut out);
    for (k, machine) in machines.iter().enumerate() {
        add_machine_track(
            &mut out,
            SIM_PID + k as u32,
            &format!("node{k} (sim time)"),
            machine,
        );
    }
    out.finish()
}

fn add_host_tracks(out: &mut ChromeTrace) {
    out.process_name(HOST_PID, "host threads (wall-clock)");
    for thread in wg_trace::drain() {
        if !thread.events.is_empty() || thread.dropped > 0 {
            out.add_host_thread(HOST_PID, &thread);
        }
    }
}

fn add_machine_track(out: &mut ChromeTrace, pid: u32, name: &str, machine: &Machine) {
    out.process_name(pid, name);
    if !machine.trace().events().is_empty() {
        out.thread_name(pid, 0, &format!("{} GPUs", machine.num_gpus()));
        machine.trace().chrome_events(out, pid, 0);
    }
}

/// [`chrome_trace_json`] straight to a file.
pub fn write_chrome_trace(path: &str, machine: &Machine) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json(machine))
}

/// [`cluster_chrome_trace_json`] straight to a file.
pub fn write_cluster_chrome_trace(path: &str, machines: &[&Machine]) -> std::io::Result<()> {
    std::fs::write(path, cluster_chrome_trace_json(machines))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_sim::trace::Phase;
    use wg_sim::{MachineConfig, SimTime};

    /// Distinct `(pid, tid)` tracks of complete (`"ph":"X"`) events
    /// under `pid`.
    fn tracks(json: &str, pid: u32) -> std::collections::BTreeSet<String> {
        json.split('{')
            .filter(|e| e.contains("\"ph\":\"X\"") && e.contains(&format!("\"pid\":{pid},")))
            .filter_map(|e| e.split("\"tid\":").nth(1))
            .map(|t| t.split([',', '}']).next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn export_merges_host_and_sim_tracks() {
        let mut machine = Machine::new(MachineConfig::dgx_like(2));
        machine.run(Phase::Training, true, SimTime::from_millis(2.0));
        machine.run(Phase::Idle, false, SimTime::from_millis(2.0));
        wg_trace::enable_spans();
        {
            let _g = wg_trace::span!("test.host.span");
        }
        wg_trace::disable_all();
        let json = chrome_trace_json(&machine);
        // Both processes are present and labeled…
        assert!(json.contains("host threads (wall-clock)"));
        assert!(json.contains("simulated node (sim time)"));
        // …the host span and the machine's one simulated track made it
        // in…
        assert!(json.contains("test.host.span"));
        assert!(json.contains("\"2 GPUs\""));
        assert_eq!(tracks(&json, SIM_PID).len(), 1);
        assert_eq!(json.matches("\"cat\":\"sim\"").count(), 2);
        // …with phase labels and the busy flag as an arg.
        assert!(json.contains("\"training\""));
        assert!(json.contains("\"busy\":true"));
        assert!(json.contains("\"busy\":false"));
    }

    #[test]
    fn cluster_export_gives_each_node_its_own_process() {
        let mut machines: Vec<Machine> = (0..3)
            .map(|_| Machine::new(MachineConfig::dgx_like(2)))
            .collect();
        for (k, m) in machines.iter_mut().enumerate() {
            m.run(Phase::Training, true, SimTime::from_millis(1.0 + k as f64));
        }
        let refs: Vec<&Machine> = machines.iter().collect();
        let json = cluster_chrome_trace_json(&refs);
        for k in 0..3 {
            assert!(
                json.contains(&format!("node{k} (sim time)")),
                "missing node {k} process"
            );
            assert_eq!(tracks(&json, SIM_PID + k).len(), 1, "node {k} tracks");
        }
        // One process per node, none for the single-machine name.
        assert!(tracks(&json, SIM_PID + 3).is_empty());
        assert!(!json.contains("simulated node (sim time)"));
    }
}
