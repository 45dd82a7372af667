//! Merged host/sim trace export (the Figure 12 evidence, machine-readable).
//!
//! The workspace records two kinds of timing:
//!
//! * **host wall-clock spans** — `wg-trace` spans recorded by the real
//!   code (`pipeline.sample`, `mem.gather`, …) on every participating
//!   thread, and
//! * **simulated device intervals** — the per-GPU busy/idle phase
//!   intervals the schedules charge into [`wg_sim::UtilizationTrace`]s
//!   (what the paper's utilization timeline plots).
//!
//! [`chrome_trace_json`] merges both into one Chrome trace-event JSON:
//! process 1 carries one track per host thread (wall-clock microseconds),
//! process 2 one track per simulated device (simulated microseconds).
//! The two processes are separate time bases by construction — the
//! process names say so — but land in a single file that
//! `chrome://tracing` / Perfetto load directly, which is what makes the
//! per-stage host split and the simulated starvation dips inspectable
//! side by side.

use wg_sim::{DeviceId, Machine};
use wg_trace::chrome::ChromeTrace;

/// Chrome `pid` for host wall-clock thread tracks.
pub const HOST_PID: u32 = 1;
/// Chrome `pid` for simulated device tracks.
pub const SIM_PID: u32 = 2;

/// Drain the host span rings and merge them with `machine`'s recorded
/// device traces into Chrome trace-event JSON.
///
/// Draining consumes the host spans: a second call exports only spans
/// recorded after the first. The machine's traces are read, not cleared
/// (reset them with [`Machine::reset_time`] between experiments).
pub fn chrome_trace_json(machine: &Machine) -> String {
    let mut out = ChromeTrace::new();
    add_host_tracks(&mut out);
    add_machine_tracks(&mut out, SIM_PID, "simulated devices (sim time)", machine);
    out.finish()
}

/// Multi-node variant of [`chrome_trace_json`]: one Chrome process per
/// machine node (`pid = SIM_PID + k`, named `node<k> devices (sim
/// time)`), so Perfetto shows each node's per-GPU comm/compute occupancy
/// as its own swimlane group — the per-phase evidence behind the executed
/// multi-node sweep.
pub fn cluster_chrome_trace_json(machines: &[&Machine]) -> String {
    let mut out = ChromeTrace::new();
    add_host_tracks(&mut out);
    for (k, machine) in machines.iter().enumerate() {
        add_machine_tracks(
            &mut out,
            SIM_PID + k as u32,
            &format!("node{k} devices (sim time)"),
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

fn add_machine_tracks(out: &mut ChromeTrace, pid: u32, name: &str, machine: &Machine) {
    out.process_name(pid, name);
    let mut devices: Vec<DeviceId> = machine.gpus();
    devices.push(DeviceId::Cpu);
    for (tid, dev) in devices.into_iter().enumerate() {
        let trace = machine.trace(dev);
        if !trace.events().is_empty() {
            out.thread_name(pid, tid as u32, &dev.to_string());
            trace.chrome_events(out, pid, tid as u32);
        }
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

    #[test]
    fn export_merges_host_and_sim_tracks() {
        let mut machine = Machine::new(MachineConfig::dgx_like(2));
        machine.run(
            DeviceId::Gpu(0),
            Phase::Training,
            true,
            SimTime::from_millis(2.0),
        );
        machine.run(
            DeviceId::Gpu(1),
            Phase::Idle,
            false,
            SimTime::from_millis(2.0),
        );
        wg_trace::enable_spans();
        {
            let _g = wg_trace::span!("test.host.span");
        }
        wg_trace::disable_all();
        let json = chrome_trace_json(&machine);
        // Both processes are present and labeled…
        assert!(json.contains("host threads (wall-clock)"));
        assert!(json.contains("simulated devices (sim time)"));
        // …the host span and both device tracks made it in…
        assert!(json.contains("test.host.span"));
        assert!(json.contains("\"GPU0\""));
        assert!(json.contains("\"GPU1\""));
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
            m.run(
                DeviceId::Gpu(0),
                Phase::Training,
                true,
                SimTime::from_millis(1.0 + k as f64),
            );
        }
        let refs: Vec<&Machine> = machines.iter().collect();
        let json = cluster_chrome_trace_json(&refs);
        for k in 0..3 {
            assert!(
                json.contains(&format!("node{k} devices (sim time)")),
                "missing node {k} process"
            );
            assert!(json.contains(&format!("\"pid\":{}", SIM_PID + k)));
        }
        // Device tracks live under per-node pids, not the single-machine
        // one's name.
        assert!(!json.contains("simulated devices (sim time)"));
    }
}
