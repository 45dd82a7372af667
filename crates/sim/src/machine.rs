//! The assembled simulated machine and the cross-machine barrier.
//!
//! A [`Machine`] bundles the pieces every higher layer needs: device specs,
//! the interconnect cost model, one simulated clock and one utilization
//! trace, and shared memory-capacity accounting. Training is synchronous —
//! every GPU of the node runs each wave in lockstep and meets the others at
//! the gradient AllReduce (§III-D) — so the node has one timeline, not one
//! per device. Pipelines "run" work by calling [`Machine::run`], which
//! advances that timeline and appends a trace interval.

use std::sync::Arc;

use crate::cost::CostModel;
use crate::device::{DeviceId, DeviceSpec};
use crate::memory::MemoryAccounting;
use crate::time::SimTime;
use crate::topology::Topology;
use crate::trace::{Phase, TraceEvent, UtilizationTrace};

/// Configuration of a simulated node.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Interconnect description.
    pub topology: Topology,
    /// Spec applied to every GPU.
    pub gpu_spec: DeviceSpec,
    /// Spec of the host CPU.
    pub host_spec: DeviceSpec,
}

impl MachineConfig {
    /// The paper's DGX-A100 node: 8× A100-40GB + 2× AMD Rome.
    pub fn dgx_a100() -> Self {
        MachineConfig {
            topology: Topology::dgx_a100(),
            gpu_spec: DeviceSpec::a100_40gb(),
            host_spec: DeviceSpec::dgx_host(),
        }
    }

    /// A DGX-like node with a custom GPU count (scaled experiments/tests).
    pub fn dgx_like(num_gpus: u32) -> Self {
        MachineConfig {
            topology: Topology::dgx_like(num_gpus),
            ..MachineConfig::dgx_a100()
        }
    }
}

/// One simulated machine node.
pub struct Machine {
    config: MachineConfig,
    cost: CostModel,
    now: SimTime,
    trace: UtilizationTrace,
    memory: Arc<MemoryAccounting>,
}

impl Machine {
    /// Build a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        let cost = CostModel::for_topology(config.topology.clone());
        let mut mem: Vec<(DeviceId, u64)> = config
            .topology
            .gpus()
            .map(|gpu| (gpu, config.gpu_spec.memory_capacity))
            .collect();
        mem.push((DeviceId::Cpu, config.host_spec.memory_capacity));
        Machine {
            config,
            cost,
            now: SimTime::ZERO,
            trace: UtilizationTrace::new(),
            memory: Arc::new(MemoryAccounting::new(mem)),
        }
    }

    /// The paper's 8-GPU DGX-A100.
    pub fn dgx_a100() -> Self {
        Machine::new(MachineConfig::dgx_a100())
    }

    /// Number of GPUs on the node.
    pub fn num_gpus(&self) -> u32 {
        self.config.topology.num_gpus
    }

    /// GPU device ids.
    pub fn gpus(&self) -> Vec<DeviceId> {
        self.config.topology.gpus().collect()
    }

    /// Spec of a device.
    pub fn spec(&self, device: DeviceId) -> &DeviceSpec {
        match device {
            DeviceId::Gpu(_) => &self.config.gpu_spec,
            DeviceId::Cpu => &self.config.host_spec,
        }
    }

    /// The interconnect cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Shared memory accounting (clone the `Arc` to hand to stores).
    pub fn memory(&self) -> Arc<MemoryAccounting> {
        Arc::clone(&self.memory)
    }

    /// Current simulated time on the node.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run `dt` of work on every GPU at once in the given phase, recording
    /// a trace interval; returns the new time. `busy` distinguishes "the
    /// GPUs computed" from "the GPUs waited for this long" (Figure 12).
    ///
    /// Negative spans are rejected — simulated work cannot take negative
    /// time, and silently accepting one would corrupt every downstream
    /// utilization figure.
    pub fn run(&mut self, phase: Phase, busy: bool, dt: SimTime) -> SimTime {
        assert!(
            dt.as_secs() >= 0.0,
            "cannot run a negative span ({dt}) on the simulated clock"
        );
        let start = self.now;
        self.now += dt;
        self.trace.record(TraceEvent {
            start,
            end: self.now,
            phase,
            busy,
        });
        self.now
    }

    /// Record a span a schedule placed itself and move the clock to the
    /// span's end if it is later. This is how the overlapped schedule
    /// publishes overlapping per-phase intervals: several spans may cover
    /// the same simulated time, and [`UtilizationTrace::busy_time`] counts
    /// the covered time once.
    pub fn record_span(&mut self, phase: Phase, busy: bool, start: SimTime, end: SimTime) {
        self.trace.record(TraceEvent {
            start,
            end,
            phase,
            busy,
        });
        self.now = self.now.max(end);
    }

    /// Advance the clock to `t`, recording the wait as an `Idle`
    /// (non-busy) trace interval. A clock already at or past `t` is left
    /// untouched. This is the per-node half of a cross-machine barrier:
    /// the idle spans make inter-node load imbalance visible in traces.
    pub fn idle_until(&mut self, t: SimTime) {
        if self.now < t {
            self.run(Phase::Idle, false, t - self.now);
        }
    }

    /// The node's utilization trace.
    pub fn trace(&self) -> &UtilizationTrace {
        &self.trace
    }

    /// Reset the clock and trace (fresh experiment on a warm machine —
    /// memory accounting, i.e. loaded data, is preserved).
    pub fn reset_time(&mut self) {
        self.now = SimTime::ZERO;
        self.trace = UtilizationTrace::new();
    }
}

/// Rendezvous across several machines' clocks: every machine idles (with
/// a visible `Idle` trace interval) until the cluster-wide maximum, which
/// is returned. This is the trailing barrier of a data-parallel epoch —
/// the point where the slowest node gates everyone else.
pub fn cluster_barrier(machines: &mut [&mut Machine]) -> SimTime {
    let t = machines
        .iter()
        .map(|m| m.now())
        .fold(SimTime::ZERO, SimTime::max);
    for m in machines.iter_mut() {
        m.idle_until(t);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_has_all_devices() {
        let m = Machine::dgx_a100();
        assert_eq!(m.num_gpus(), 8);
        assert_eq!(m.gpus().len(), 8);
        assert_eq!(m.now(), SimTime::ZERO);
        assert!(m.trace().events().is_empty());
        assert_eq!(m.spec(DeviceId::Gpu(7)).name, "A100-SXM4-40GB");
        assert_eq!(m.spec(DeviceId::Cpu).name, "2x AMD Rome 7742");
    }

    #[test]
    fn run_advances_clock_and_traces() {
        let mut m = Machine::new(MachineConfig::dgx_like(4));
        let end = m.run(Phase::Training, true, SimTime::from_millis(5.0));
        assert_eq!(end, m.now());
        m.run(Phase::Idle, false, SimTime::from_millis(5.0));
        assert!((m.now().as_millis() - 10.0).abs() < 1e-9);
        // One interval per call, not one per GPU.
        let tr = m.trace();
        assert_eq!(tr.events().len(), 2);
        assert_eq!(tr.events()[1].start, end);
        let u = tr.utilization(SimTime::ZERO, m.now());
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn run_rejects_a_negative_span() {
        let mut m = Machine::new(MachineConfig::dgx_like(2));
        m.run(Phase::Training, true, SimTime::from_secs(-1.0));
    }

    #[test]
    fn record_span_never_moves_the_clock_back() {
        let mut m = Machine::new(MachineConfig::dgx_like(2));
        m.record_span(
            Phase::Gather,
            true,
            SimTime::from_secs(1.0),
            SimTime::from_secs(3.0),
        );
        m.record_span(
            Phase::Sampling,
            false,
            SimTime::ZERO,
            SimTime::from_secs(2.0),
        );
        assert_eq!(m.now(), SimTime::from_secs(3.0));
        assert_eq!(m.trace().events().len(), 2);
        let busy = m.trace().busy_time(SimTime::ZERO, m.now());
        assert_eq!(busy, SimTime::from_secs(2.0));
    }

    #[test]
    fn reset_time_clears_clocks_and_traces() {
        let mut m = Machine::new(MachineConfig::dgx_like(2));
        m.run(Phase::Training, true, SimTime::from_secs(1.0));
        m.reset_time();
        assert_eq!(m.now(), SimTime::ZERO);
        assert!(m.trace().events().is_empty());
    }

    #[test]
    fn idle_until_records_visible_wait() {
        let mut m = Machine::new(MachineConfig::dgx_like(2));
        m.run(Phase::Training, true, SimTime::from_secs(1.0));
        // Already at the target: no span.
        m.idle_until(SimTime::from_secs(1.0));
        m.idle_until(SimTime::from_secs(0.5));
        assert_eq!(m.trace().events().len(), 1);
        m.idle_until(SimTime::from_secs(2.5));
        let ev = &m.trace().events()[1];
        assert_eq!(ev.phase, Phase::Idle);
        assert!(!ev.busy);
        assert_eq!(ev.duration(), SimTime::from_secs(1.5));
        assert_eq!(m.now(), SimTime::from_secs(2.5));
    }

    #[test]
    fn cluster_barrier_gates_on_slowest_node() {
        let mut a = Machine::new(MachineConfig::dgx_like(2));
        let mut b = Machine::new(MachineConfig::dgx_like(2));
        b.run(Phase::Training, true, SimTime::from_secs(2.0));
        let t = cluster_barrier(&mut [&mut a, &mut b]);
        assert_eq!(t, SimTime::from_secs(2.0));
        assert_eq!((a.now(), b.now()), (t, t));
        // The fast node waited visibly; the slow one recorded nothing new.
        assert_eq!(a.trace().events()[0].phase, Phase::Idle);
        assert_eq!(b.trace().events().len(), 1);
        assert_eq!(cluster_barrier(&mut []), SimTime::ZERO);
    }
}
