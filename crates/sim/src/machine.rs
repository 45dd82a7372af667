//! The assembled simulated machine and the cross-machine barrier.
//!
//! A [`Machine`] bundles the pieces every higher layer needs: device specs,
//! the interconnect cost model, one virtual clock and one utilization trace
//! per device, and shared memory-capacity accounting. Pipelines "run" work
//! on a device by calling [`Machine::run`], which advances that device's
//! clock and appends a trace interval.

use std::collections::HashMap;
use std::sync::Arc;

use crate::clock::DeviceClock;
use crate::cost::CostModel;
use crate::device::{DeviceId, DeviceSpec};
use crate::memory::MemoryAccounting;
use crate::stream::Stream;
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
    clocks: HashMap<DeviceId, DeviceClock>,
    traces: HashMap<DeviceId, UtilizationTrace>,
    memory: Arc<MemoryAccounting>,
}

impl Machine {
    /// Build a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        let cost = CostModel::for_topology(config.topology.clone());
        let mut clocks = HashMap::new();
        let mut traces = HashMap::new();
        let mut mem = Vec::new();
        for gpu in config.topology.gpus() {
            clocks.insert(gpu, DeviceClock::new());
            traces.insert(gpu, UtilizationTrace::new());
            mem.push((gpu, config.gpu_spec.memory_capacity));
        }
        clocks.insert(DeviceId::Cpu, DeviceClock::new());
        traces.insert(DeviceId::Cpu, UtilizationTrace::new());
        mem.push((DeviceId::Cpu, config.host_spec.memory_capacity));
        Machine {
            config,
            cost,
            clocks,
            traces,
            memory: Arc::new(MemoryAccounting::new(mem)),
        }
    }

    /// The paper's 8-GPU DGX-A100.
    pub fn dgx_a100() -> Self {
        Machine::new(MachineConfig::dgx_a100())
    }

    /// Node configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
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

    /// Current simulated time on a device.
    pub fn now(&self, device: DeviceId) -> SimTime {
        self.clocks[&device].now()
    }

    /// Run `dt` of work on `device` in the given phase, recording a trace
    /// interval. `busy` distinguishes "the device computed" from "the
    /// device waited for this long" (Figure 12).
    pub fn run(&mut self, device: DeviceId, phase: Phase, busy: bool, dt: SimTime) -> SimTime {
        let clock = self
            .clocks
            .get_mut(&device)
            .unwrap_or_else(|| panic!("unknown device {device}"));
        let start = clock.now();
        let end = clock.advance(dt);
        self.traces.get_mut(&device).unwrap().record(TraceEvent {
            device,
            start,
            end,
            phase,
            busy,
        });
        end
    }

    /// Run the same span of work on every GPU concurrently (the usual
    /// data-parallel situation: all ranks execute the phase at once).
    pub fn run_all_gpus(&mut self, phase: Phase, busy: bool, dt: SimTime) -> SimTime {
        let mut end = SimTime::ZERO;
        for gpu in self.gpus() {
            end = end.max(self.run(gpu, phase, busy, dt));
        }
        end
    }

    /// Open a new [`Stream`] on `device`, positioned at the device's
    /// current clock time so stream spans line up with work already
    /// charged through [`Machine::run`]. The stream is an independent
    /// timeline: advancing it does not move the device clock — use
    /// [`Machine::record_span`] to charge its spans back to the device.
    pub fn stream(&self, device: DeviceId) -> Stream {
        assert!(self.clocks.contains_key(&device), "unknown device {device}");
        Stream::new_at(&self.config.topology, device, self.now(device))
    }

    /// Record a span scheduled on a stream into `device`'s trace and move
    /// the device clock to the span's end if it is later. This is how
    /// stream-scheduled executors publish overlapping per-phase intervals:
    /// several spans may cover the same simulated time, and
    /// [`UtilizationTrace::busy_time`] counts the covered time once.
    pub fn record_span(
        &mut self,
        device: DeviceId,
        phase: Phase,
        busy: bool,
        start: SimTime,
        end: SimTime,
    ) {
        assert!(
            end >= start,
            "span on {device} ends before it starts ({start} > {end})"
        );
        self.traces
            .get_mut(&device)
            .unwrap_or_else(|| panic!("unknown device {device}"))
            .record(TraceEvent {
                device,
                start,
                end,
                phase,
                busy,
            });
        self.clocks.get_mut(&device).unwrap().advance_to(end);
    }

    /// Advance every GPU clock to `t`, recording the wait as an `Idle`
    /// (non-busy) trace interval. Clocks already at or past `t` are left
    /// untouched. This is the per-node half of a cross-machine barrier:
    /// the idle spans make inter-node load imbalance visible in traces.
    pub fn idle_until(&mut self, t: SimTime) {
        for gpu in self.gpus() {
            let now = self.now(gpu);
            if now < t {
                self.run(gpu, Phase::Idle, false, t - now);
            }
        }
    }

    /// Utilization trace of one device.
    pub fn trace(&self, device: DeviceId) -> &UtilizationTrace {
        &self.traces[&device]
    }

    /// Reset all clocks and traces (fresh experiment on a warm machine —
    /// memory accounting, i.e. loaded data, is preserved).
    pub fn reset_time(&mut self) {
        for c in self.clocks.values_mut() {
            c.reset();
        }
        for t in self.traces.values_mut() {
            *t = UtilizationTrace::new();
        }
    }
}

/// Rendezvous across several machines' GPU clocks: every GPU on every
/// machine idles (with a visible `Idle` trace interval) until the
/// cluster-wide maximum, which is returned. This is the trailing barrier
/// of a data-parallel epoch — the point where the slowest node gates
/// everyone else.
pub fn cluster_barrier(machines: &mut [&mut Machine]) -> SimTime {
    let mut t = SimTime::ZERO;
    for m in machines.iter() {
        for gpu in m.gpus() {
            t = t.max(m.now(gpu));
        }
    }
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
        assert_eq!(m.now(DeviceId::Gpu(7)), SimTime::ZERO);
        assert_eq!(m.now(DeviceId::Cpu), SimTime::ZERO);
    }

    #[test]
    fn run_advances_clock_and_traces() {
        let mut m = Machine::dgx_a100();
        m.run(
            DeviceId::Gpu(0),
            Phase::Training,
            true,
            SimTime::from_millis(5.0),
        );
        m.run(
            DeviceId::Gpu(0),
            Phase::Idle,
            false,
            SimTime::from_millis(5.0),
        );
        assert!((m.now(DeviceId::Gpu(0)).as_millis() - 10.0).abs() < 1e-9);
        let tr = m.trace(DeviceId::Gpu(0));
        assert_eq!(tr.events().len(), 2);
        let u = tr.utilization(SimTime::ZERO, m.now(DeviceId::Gpu(0)));
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn run_all_gpus_moves_every_clock() {
        let mut m = Machine::new(MachineConfig::dgx_like(4));
        let end = m.run_all_gpus(Phase::Sampling, true, SimTime::from_millis(1.0));
        assert!((end.as_millis() - 1.0).abs() < 1e-9);
        for g in m.gpus() {
            assert!((m.now(g).as_millis() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn barrier_aligns_gpu_clocks() {
        let mut m = Machine::new(MachineConfig::dgx_like(2));
        m.run(
            DeviceId::Gpu(0),
            Phase::Training,
            true,
            SimTime::from_secs(1.0),
        );
        let t = cluster_barrier(&mut [&mut m]);
        assert_eq!(t.as_secs(), 1.0);
        assert_eq!(m.now(DeviceId::Gpu(1)).as_secs(), 1.0);
    }

    #[test]
    fn reset_time_clears_clocks_and_traces() {
        let mut m = Machine::new(MachineConfig::dgx_like(2));
        m.run(
            DeviceId::Gpu(0),
            Phase::Training,
            true,
            SimTime::from_secs(1.0),
        );
        m.reset_time();
        assert_eq!(m.now(DeviceId::Gpu(0)), SimTime::ZERO);
        assert!(m.trace(DeviceId::Gpu(0)).events().is_empty());
    }

    #[test]
    fn idle_until_records_visible_wait() {
        let mut m = Machine::new(MachineConfig::dgx_like(2));
        m.run(
            DeviceId::Gpu(0),
            Phase::Training,
            true,
            SimTime::from_secs(1.0),
        );
        m.idle_until(SimTime::from_secs(1.0));
        // GPU 0 is already at the target — no span; GPU 1 idles for 1 s.
        assert_eq!(m.trace(DeviceId::Gpu(0)).events().len(), 1);
        let ev = &m.trace(DeviceId::Gpu(1)).events()[0];
        assert_eq!(ev.phase, Phase::Idle);
        assert!(!ev.busy);
        assert_eq!(m.now(DeviceId::Gpu(1)), SimTime::from_secs(1.0));
    }

    #[test]
    fn cluster_barrier_gates_on_slowest_node() {
        let mut a = Machine::new(MachineConfig::dgx_like(2));
        let mut b = Machine::new(MachineConfig::dgx_like(2));
        b.run(
            DeviceId::Gpu(0),
            Phase::Training,
            true,
            SimTime::from_secs(2.0),
        );
        let t = cluster_barrier(&mut [&mut a, &mut b]);
        assert_eq!(t, SimTime::from_secs(2.0));
        for m in [&a, &b] {
            for g in m.gpus() {
                assert_eq!(m.now(g), t);
            }
        }
    }
}
