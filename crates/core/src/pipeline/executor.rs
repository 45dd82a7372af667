//! Epoch executors: how stage times are scheduled onto the machine.
//!
//! Both executors consume the same per-iteration [`IterationResult`]s —
//! all numerics are fixed before scheduling starts — and differ only in
//! the simulated timeline they lay the phases onto:
//!
//! * [`SerialExecutor`] charges sample → gather → train → AllReduce
//!   back-to-back per wave, the synchronous-DataLoader behavior every
//!   result in the paper's evaluation is measured under.
//! * [`OverlappedExecutor`] is a double-buffered software pipeline built
//!   on [`wg_sim::stream`]: wave `i+1`'s sampling and gathering run on an
//!   *input stream* while wave `i` trains on the *compute stream*. With
//!   two mini-batch buffers, wave `w`'s input may start once wave `w-2`'s
//!   training has consumed its buffer. The epoch time is the schedule
//!   length, which is strictly shorter than the serial sum whenever there
//!   are ≥ 2 waves with nonzero input and compute phases — the largest
//!   win going to the host pipelines, whose input phases dominate.

use wg_sim::stream::{self, Event};
use wg_sim::trace::Phase;
use wg_sim::{DeviceId, Machine, SimTime};

use crate::framework::Framework;
use crate::pipeline::config::ExecMode;
use crate::pipeline::report::{
    occupancy_from_trace, EpochReport, IterTimes, IterationResult, StorageIo,
};

/// An epoch-scheduling strategy.
pub trait Executor {
    /// The mode this executor implements.
    fn mode(&self) -> ExecMode;

    /// Display name.
    fn name(&self) -> &'static str {
        self.mode().name()
    }

    /// Steady-state simulated time one wave occupies under this schedule
    /// (used by throughput projections, e.g. multi-node scaling).
    fn wave_time(&self, times: &IterTimes) -> SimTime;

    /// Charge the executed iterations' phase times onto the machine's
    /// clocks and traces, wave by wave, and build the epoch report.
    /// `results` is cycled when the epoch extrapolates beyond the
    /// executed iterations.
    fn finish_epoch(
        &self,
        machine: &mut Machine,
        framework: Framework,
        results: &[IterationResult],
        total_iters: usize,
    ) -> EpochReport;
}

/// The executor implementing `mode`.
pub fn executor_for(mode: ExecMode) -> &'static dyn Executor {
    match mode {
        ExecMode::Serial => &SerialExecutor,
        ExecMode::Overlapped => &OverlappedExecutor,
    }
}

/// Phase-time totals, exposed storage time, storage traffic, mean loss
/// and accuracy over the (cycled) waves — identical for every executor. The exposed sum
/// prices the storage tier's async prefetch: wave `w`'s NVMe reads are
/// double-buffered against wave `w-1`'s compute, so only the part of
/// each wave's storage time exceeding its compute time surfaces as
/// added wall clock.
fn aggregate(
    results: &[IterationResult],
    waves: usize,
) -> (IterTimes, SimTime, StorageIo, f32, f64) {
    let mut totals = IterTimes::default();
    let mut exposed = SimTime::ZERO;
    let mut storage_io = StorageIo::default();
    for w in 0..waves {
        let t = results[w % results.len()].times;
        storage_io += results[w % results.len()].storage_io;
        totals.sample += t.sample;
        totals.gather += t.gather;
        totals.train += t.train;
        totals.comm += t.comm;
        totals.storage += t.storage;
        let compute = t.compute();
        if t.storage > compute {
            exposed += t.storage - compute;
        }
    }
    let loss = results.iter().map(|r| r.loss).sum::<f32>() / results.len() as f32;
    let correct: usize = results.iter().map(|r| r.correct).sum();
    let seen: usize = results.iter().map(|r| r.batch).sum();
    (
        totals,
        exposed,
        storage_io,
        loss,
        correct as f64 / seen.max(1) as f64,
    )
}

/// Sample → gather → train → AllReduce back-to-back per wave.
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn mode(&self) -> ExecMode {
        ExecMode::Serial
    }

    fn wave_time(&self, times: &IterTimes) -> SimTime {
        times.total()
    }

    fn finish_epoch(
        &self,
        machine: &mut Machine,
        framework: Framework,
        results: &[IterationResult],
        total_iters: usize,
    ) -> EpochReport {
        assert!(!results.is_empty());
        let g = machine.num_gpus() as usize;
        let waves = total_iters.div_ceil(g);
        let busy_input = framework.gpu_busy_in_input_phases();
        let gpu0 = DeviceId::Gpu(0);
        let epoch_start = machine.now(gpu0);
        for w in 0..waves {
            let t = results[w % results.len()].times;
            machine.run_all_gpus(Phase::Sampling, busy_input, t.sample);
            machine.run_all_gpus(Phase::Gather, busy_input, t.gather);
            machine.run_all_gpus(Phase::Training, true, t.train);
            machine.run_all_gpus(Phase::Communication, true, t.comm);
        }
        let epoch_end = machine.now(gpu0);
        let (totals, exposed, storage_io, loss, train_accuracy) = aggregate(results, waves);
        EpochReport {
            epoch_time: totals.total(),
            sample_time: totals.sample,
            gather_time: totals.gather,
            train_time: totals.train,
            comm_time: totals.comm,
            storage_time: totals.storage,
            storage_exposed_time: exposed,
            storage_io,
            loss,
            train_accuracy,
            iterations: total_iters,
            executed_iterations: results.len(),
            occupancy: occupancy_from_trace(machine.trace(gpu0), epoch_start, epoch_end),
        }
    }
}

/// Double-buffered sample/gather/train overlap on two streams per GPU.
pub struct OverlappedExecutor;

/// Mini-batch buffer slots: wave `w`'s input phases may run while wave
/// `w-1` trains, but must wait for wave `w-2`'s training to have
/// consumed its buffer (classic double buffering).
const BUFFER_SLOTS: usize = 2;

impl Executor for OverlappedExecutor {
    fn mode(&self) -> ExecMode {
        ExecMode::Overlapped
    }

    fn wave_time(&self, times: &IterTimes) -> SimTime {
        // Steady state: input and compute proceed concurrently; the wave
        // rate is set by whichever stream is longer.
        times.input().max(times.compute())
    }

    fn finish_epoch(
        &self,
        machine: &mut Machine,
        framework: Framework,
        results: &[IterationResult],
        total_iters: usize,
    ) -> EpochReport {
        assert!(!results.is_empty());
        let g = machine.num_gpus() as usize;
        let waves = total_iters.div_ceil(g);
        let busy_input = framework.gpu_busy_in_input_phases();
        let gpu0 = DeviceId::Gpu(0);
        let epoch_start = machine.now(gpu0);

        // Schedule once on a representative GPU's streams (data-parallel
        // ranks execute identical schedules), then record the spans on
        // every GPU.
        let mut input = machine.stream(gpu0);
        let mut train = machine.stream(gpu0);
        let mut train_done: Vec<Event> = Vec::with_capacity(waves);
        let mut spans: Vec<(Phase, bool, SimTime, SimTime)> = Vec::with_capacity(4 * waves);
        for w in 0..waves {
            let t = results[w % results.len()].times;
            if w >= BUFFER_SLOTS {
                input.wait(train_done[w - BUFFER_SLOTS]);
            }
            let (s0, s1) = input.run(t.sample);
            let (g0, g1) = input.run(t.gather);
            let ready = input.record();
            train.wait(ready);
            let (t0, t1) = train.run(t.train);
            let (c0, c1) = train.run(t.comm);
            train_done.push(train.record());
            spans.push((Phase::Sampling, busy_input, s0, s1));
            spans.push((Phase::Gather, busy_input, g0, g1));
            spans.push((Phase::Training, true, t0, t1));
            spans.push((Phase::Communication, true, c0, c1));
        }
        let epoch_end = stream::sync(&mut [&mut input, &mut train]);
        for gpu in machine.gpus() {
            for &(phase, busy, start, end) in &spans {
                machine.record_span(gpu, phase, busy, start, end);
            }
        }

        let (totals, exposed, storage_io, loss, train_accuracy) = aggregate(results, waves);
        EpochReport {
            epoch_time: epoch_end - epoch_start,
            sample_time: totals.sample,
            gather_time: totals.gather,
            train_time: totals.train,
            comm_time: totals.comm,
            storage_time: totals.storage,
            storage_exposed_time: exposed,
            storage_io,
            loss,
            train_accuracy,
            iterations: total_iters,
            executed_iterations: results.len(),
            occupancy: occupancy_from_trace(machine.trace(gpu0), epoch_start, epoch_end),
        }
    }
}

/// Wall time of a pipelined batched *inference* run: each batch's input
/// phases overlap the previous batch's forward pass (single-buffer
/// prefetch — there is no optimizer dependency between batches).
/// `batch_times` is `(input, compute)` per batch. Serial wall time is the
/// plain sum.
pub fn pipelined_wall_time(batch_times: &[(SimTime, SimTime)]) -> SimTime {
    let mut input_end = SimTime::ZERO;
    let mut compute_end = SimTime::ZERO;
    for &(input, compute) in batch_times {
        input_end += input;
        compute_end = compute_end.max(input_end) + compute;
    }
    compute_end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(sample: f64, gather: f64, train: f64, comm: f64) -> IterTimes {
        IterTimes {
            sample: SimTime::from_secs(sample),
            gather: SimTime::from_secs(gather),
            train: SimTime::from_secs(train),
            comm: SimTime::from_secs(comm),
            storage: SimTime::ZERO,
        }
    }

    #[test]
    fn exposed_storage_is_the_over_compute_excess() {
        use crate::pipeline::report::IterationResult;
        use wg_sample::SampleStats;
        // Wave A: storage 1s hides under 3.5s of compute; wave B: 5s of
        // storage against 2s of compute leaves 3s exposed.
        let mk = |storage: f64, train: f64| IterationResult {
            times: IterTimes {
                storage: SimTime::from_secs(storage),
                ..times(0.5, storage + 0.5, train, 0.5)
            },
            storage_io: StorageIo {
                rows: 4,
                bytes: 1600,
                requests: 2,
                read_bytes: 2000,
            },
            loss: 1.0,
            correct: 1,
            batch: 2,
            shapes: Vec::new(),
            sample_stats: SampleStats::default(),
        };
        let results = [mk(1.0, 3.0), mk(5.0, 1.5)];
        let (totals, exposed, io, _, _) = aggregate(&results, 2);
        assert_eq!((io.rows, io.requests, io.read_bytes), (8, 4, 4000));
        assert_eq!(io.read_amplification(), 1.25);
        assert_eq!(totals.storage.as_secs(), 6.0);
        assert_eq!(exposed.as_secs(), 3.0);
        assert!(exposed < totals.storage);
    }

    #[test]
    fn wave_time_serial_vs_overlapped() {
        let t = times(3.0, 1.0, 2.0, 0.5);
        assert_eq!(SerialExecutor.wave_time(&t).as_secs(), 6.5);
        assert_eq!(OverlappedExecutor.wave_time(&t).as_secs(), 4.0);
        assert_eq!(executor_for(ExecMode::Serial).mode(), ExecMode::Serial);
        assert_eq!(executor_for(ExecMode::Overlapped).name(), "overlapped");
    }

    #[test]
    fn pipelined_wall_time_overlaps_input_with_compute() {
        // Two batches: input 2s, compute 3s. Serial = 10s; pipelined
        // saves the second batch's input: 2 + 3 + 3 = 8s.
        let batches = vec![
            (SimTime::from_secs(2.0), SimTime::from_secs(3.0)),
            (SimTime::from_secs(2.0), SimTime::from_secs(3.0)),
        ];
        assert_eq!(pipelined_wall_time(&batches).as_secs(), 8.0);
        // Input-bound: compute hides inside input time.
        let batches = vec![
            (SimTime::from_secs(4.0), SimTime::from_secs(1.0)),
            (SimTime::from_secs(4.0), SimTime::from_secs(1.0)),
        ];
        assert_eq!(pipelined_wall_time(&batches).as_secs(), 9.0);
        assert_eq!(pipelined_wall_time(&[]), SimTime::ZERO);
    }
}
