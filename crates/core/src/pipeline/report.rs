//! Iteration and epoch reports: phase times, numerics, and the busy/idle
//! occupancy accounting derived from the machine's trace.

use wg_gnn::cost::BlockShape;
pub use wg_mem::StorageIo;
use wg_sample::SampleStats;
use wg_sim::trace::Phase;
use wg_sim::{SimTime, UtilizationTrace};

/// Per-iteration simulated phase times.
#[derive(Clone, Copy, Debug, Default)]
pub struct IterTimes {
    /// Sub-graph sampling (+ sub-graph transfer for host pipelines).
    pub sample: SimTime,
    /// Feature gathering (+ PCIe copy for host pipelines).
    pub gather: SimTime,
    /// Forward + backward + optimizer.
    pub train: SimTime,
    /// Gradient AllReduce.
    pub comm: SimTime,
    /// Out-of-core storage-tier prefetch time of this iteration's gather.
    /// Informational sub-component: already included in `gather`, so
    /// [`total`](Self::total) does not add it again. Zero whenever the
    /// tier is off or every row was cache- or DSM-resident.
    pub storage: SimTime,
}

impl IterTimes {
    /// Sum of all phases (`storage` is part of `gather`, not re-added).
    pub fn total(&self) -> SimTime {
        self.sample + self.gather + self.train + self.comm
    }

    /// The compute half (training + AllReduce) — what a wave's storage
    /// prefetch hides under.
    pub fn compute(&self) -> SimTime {
        self.train + self.comm
    }
}

/// Result of one executed iteration.
#[derive(Clone, Debug)]
pub struct IterationResult {
    /// Phase times of this iteration.
    pub times: IterTimes,
    /// Storage-tier traffic behind `times.storage`.
    pub storage_io: StorageIo,
    /// Mini-batch training loss.
    pub loss: f32,
    /// Correct predictions on the batch.
    pub correct: usize,
    /// Batch size actually processed.
    pub batch: usize,
    /// Shapes of the sampled blocks (for memory estimates).
    pub shapes: Vec<BlockShape>,
    /// Sampling work counters.
    pub sample_stats: SampleStats,
}

/// Busy/idle split of the simulated time one phase occupied on the GPUs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseOccupancy {
    /// Time the GPUs actively computed in this phase.
    pub busy: SimTime,
    /// Time the phase occupied while the GPUs waited (host-side work).
    pub idle: SimTime,
}

impl PhaseOccupancy {
    /// Total time the phase occupied.
    pub fn total(&self) -> SimTime {
        self.busy + self.idle
    }
}

/// Per-phase busy/idle accounting of one epoch on the node's GPUs, which
/// run every wave in lockstep, derived from the trace intervals the
/// schedule recorded. `busy`/`idle` are union measures over the epoch
/// window and always add up to exactly the epoch span.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochOccupancy {
    /// Sampling-phase occupancy.
    pub sampling: PhaseOccupancy,
    /// Gather-phase occupancy.
    pub gather: PhaseOccupancy,
    /// Training-phase occupancy.
    pub training: PhaseOccupancy,
    /// AllReduce-phase occupancy.
    pub comm: PhaseOccupancy,
    /// Union busy time of the GPUs over the epoch window (abutting busy
    /// spans merged).
    pub busy: SimTime,
    /// Epoch span minus union busy time.
    pub idle: SimTime,
}

impl EpochOccupancy {
    /// GPU utilization over the epoch: union busy / epoch span.
    pub fn utilization(&self) -> f64 {
        let span = self.busy + self.idle;
        if span.as_secs() <= 0.0 {
            return 0.0;
        }
        self.busy / span
    }

    /// Occupancy of one phase by trace label.
    pub fn phase(&self, phase: Phase) -> PhaseOccupancy {
        match phase {
            Phase::Sampling => self.sampling,
            Phase::Gather => self.gather,
            Phase::Training => self.training,
            Phase::Communication => self.comm,
            Phase::Setup | Phase::Idle => PhaseOccupancy::default(),
        }
    }
}

/// Derive the epoch occupancy from a machine's trace over `[from, to)`.
/// `Schedule::finish_epoch` calls this after recording the epoch's spans.
pub(crate) fn occupancy_from_trace(
    trace: &UtilizationTrace,
    from: SimTime,
    to: SimTime,
) -> EpochOccupancy {
    let mut occ = EpochOccupancy::default();
    for e in trace.events() {
        let lo = e.start.max(from);
        let hi = e.end.min(to);
        if hi <= lo {
            continue;
        }
        let d = hi - lo;
        let slot = match e.phase {
            Phase::Sampling => &mut occ.sampling,
            Phase::Gather => &mut occ.gather,
            Phase::Training => &mut occ.training,
            Phase::Communication => &mut occ.comm,
            Phase::Setup | Phase::Idle => continue,
        };
        if e.busy {
            slot.busy += d;
        } else {
            slot.idle += d;
        }
    }
    occ.busy = trace.busy_time(from, to);
    occ.idle = (to - from) - occ.busy;
    occ
}

/// Aggregated report of one (possibly extrapolated) epoch.
#[derive(Clone, Copy, Debug)]
pub struct EpochReport {
    /// Wall-clock epoch time (per-GPU, data-parallel waves): the sum of
    /// the four phase times.
    pub epoch_time: SimTime,
    /// Total sampling time across the epoch.
    pub sample_time: SimTime,
    /// Total gather time.
    pub gather_time: SimTime,
    /// Total training time.
    pub train_time: SimTime,
    /// Total AllReduce time.
    pub comm_time: SimTime,
    /// Total out-of-core storage-tier time, summed as if every NVMe
    /// prefetch blocked the gather (it is part of `gather_time`).
    pub storage_time: SimTime,
    /// Storage time left *exposed* when each wave's prefetch is
    /// double-buffered against the previous wave's compute:
    /// Σ max(0, storage_w − (train_w + comm_w)). Strictly below
    /// `storage_time` whenever storage and compute are both nonzero —
    /// the overlap win the `storage_sweep` bench gates on.
    pub storage_exposed_time: SimTime,
    /// Storage-tier traffic behind `storage_time`, summed over the same
    /// waves (one rank's iteration per wave — the `mem.storage.*`
    /// counters, which see every rank's gathers, run `num_gpus` times
    /// higher).
    pub storage_io: StorageIo,
    /// Mean training loss over executed iterations.
    pub loss: f32,
    /// Training accuracy over executed iterations.
    pub train_accuracy: f64,
    /// Iterations the epoch comprises (across all GPUs).
    pub iterations: usize,
    /// Iterations actually executed (≤ `iterations` when extrapolating).
    pub executed_iterations: usize,
    /// Per-phase busy/idle accounting of the GPUs, from the recorded trace.
    pub occupancy: EpochOccupancy,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_sim::TraceEvent;

    fn ev(start: f64, end: f64, phase: Phase, busy: bool) -> TraceEvent {
        TraceEvent {
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
            phase,
            busy,
        }
    }

    #[test]
    fn occupancy_splits_phases_and_unions_busy() {
        let mut t = UtilizationTrace::new();
        // Overlapping spans: input phases idle under training.
        t.record(ev(0.0, 1.0, Phase::Sampling, false));
        t.record(ev(1.0, 2.0, Phase::Gather, false));
        t.record(ev(0.5, 2.5, Phase::Training, true));
        t.record(ev(2.5, 3.0, Phase::Communication, true));
        let occ = occupancy_from_trace(&t, SimTime::ZERO, SimTime::from_secs(3.0));
        assert_eq!(occ.sampling.idle.as_secs(), 1.0);
        assert_eq!(occ.gather.idle.as_secs(), 1.0);
        assert_eq!(occ.training.busy.as_secs(), 2.0);
        assert_eq!(occ.comm.busy.as_secs(), 0.5);
        assert_eq!(occ.busy.as_secs(), 2.5);
        assert_eq!(occ.idle.as_secs(), 0.5);
        assert!((occ.utilization() - 2.5 / 3.0).abs() < 1e-12);
        assert_eq!(occ.phase(Phase::Gather), occ.gather);
    }

    #[test]
    fn occupancy_clips_to_window() {
        let mut t = UtilizationTrace::new();
        t.record(ev(0.0, 10.0, Phase::Training, true));
        let occ = occupancy_from_trace(&t, SimTime::from_secs(4.0), SimTime::from_secs(6.0));
        assert_eq!(occ.training.busy.as_secs(), 2.0);
        assert!((occ.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iter_times_halves() {
        let t = IterTimes {
            sample: SimTime::from_secs(1.0),
            gather: SimTime::from_secs(2.0),
            train: SimTime::from_secs(3.0),
            comm: SimTime::from_secs(4.0),
            storage: SimTime::from_secs(0.5),
        };
        assert_eq!(t.compute().as_secs(), 7.0);
        assert_eq!(t.total().as_secs(), 10.0);
    }
}
