//! Epoch scheduling: how an epoch's priced iterations are laid onto the
//! machine's timeline. [`ExecMode`] is the seam — *when* work runs — and
//! schedules itself.
//!
//! Both modes consume the same per-iteration [`IterationResult`]s — all
//! numerics are fixed before scheduling starts — and differ only in the
//! simulated timeline they lay the phases onto:
//!
//! * [`ExecMode::Serial`] charges sample → gather → train → AllReduce
//!   back-to-back per wave, the synchronous-DataLoader behavior every
//!   result in the paper's evaluation is measured under.
//! * [`ExecMode::Overlapped`] is a double-buffered software pipeline on two
//!   simulated-time cursors: wave `i+1`'s sampling and gathering advance
//!   the *input cursor* while wave `i` trains on the *train cursor*. With
//!   two mini-batch buffers, wave `w`'s input may start once wave `w-2`'s
//!   training has consumed its buffer. The epoch time is the schedule
//!   length, which is strictly shorter than the serial sum whenever some
//!   wave with a nonzero compute phase is followed by one with a nonzero
//!   input phase — the largest win going to the host pipelines, whose
//!   input phases dominate.

use wg_sim::trace::Phase;
use wg_sim::{Machine, SimTime};

use crate::framework::Framework;
use crate::pipeline::config::ExecMode;
use crate::pipeline::report::{
    occupancy_from_trace, EpochReport, IterTimes, IterationResult, StorageIo,
};

impl ExecMode {
    /// Steady-state simulated time one wave occupies under this schedule
    /// (used by throughput projections, e.g. multi-node scaling).
    pub fn wave_time(self, times: &IterTimes) -> SimTime {
        match self {
            ExecMode::Serial => times.total(),
            // Input and compute proceed concurrently; the wave rate is
            // set by whichever half is longer.
            ExecMode::Overlapped => times.input().max(times.compute()),
        }
    }

    /// Charge the executed iterations' phase times onto the machine's
    /// clock and trace, wave by wave, and build the epoch report.
    /// `results` is cycled when the epoch extrapolates beyond the
    /// executed iterations.
    pub fn finish_epoch(
        self,
        machine: &mut Machine,
        framework: Framework,
        results: &[IterationResult],
        total_iters: usize,
    ) -> EpochReport {
        assert!(!results.is_empty());
        let waves = total_iters.div_ceil(machine.num_gpus() as usize);
        let busy_input = framework.gpu_busy_in_input_phases();
        let epoch_start = machine.now();
        let (totals, exposed, storage_io, loss, train_accuracy) = aggregate(results, waves);
        let epoch_time = match self {
            ExecMode::Serial => serial_schedule(machine, busy_input, results, waves, &totals),
            ExecMode::Overlapped => overlapped_schedule(machine, busy_input, results, waves),
        };
        let epoch_end = machine.now();
        EpochReport {
            epoch_time,
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
            occupancy: occupancy_from_trace(machine.trace(), epoch_start, epoch_end),
        }
    }
}

/// Phase-time totals, exposed storage time, storage traffic, mean loss
/// and accuracy over the (cycled) waves — identical for every schedule.
/// The exposed sum prices the storage tier's async prefetch: wave `w`'s
/// NVMe reads are double-buffered against wave `w-1`'s compute, so only
/// the part of each wave's storage time exceeding its compute time
/// surfaces as added wall clock.
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

/// Sample → gather → train → AllReduce back-to-back per wave. The epoch
/// time is the phase-time sum, not the clock difference:
/// the clock accumulates the same terms in a different order, and the
/// sum is what the multi-node executor reproduces bitwise at N=1.
fn serial_schedule(
    machine: &mut Machine,
    busy_input: bool,
    results: &[IterationResult],
    waves: usize,
    totals: &IterTimes,
) -> SimTime {
    for w in 0..waves {
        let t = results[w % results.len()].times;
        machine.run(Phase::Sampling, busy_input, t.sample);
        machine.run(Phase::Gather, busy_input, t.gather);
        machine.run(Phase::Training, true, t.train);
        machine.run(Phase::Communication, true, t.comm);
    }
    totals.total()
}

/// Mini-batch buffer slots: wave `w`'s input phases may run while wave
/// `w-1` trains, but must wait for wave `w-2`'s training to have
/// consumed its buffer (classic double buffering).
const BUFFER_SLOTS: usize = 2;

/// Double-buffered sample/gather/train overlap on two cursors, input and
/// train, each a running end time like [`pipelined_wall_time`]'s. A wait
/// is a `max`, a phase is a `+=`. The epoch time is the schedule length.
fn overlapped_schedule(
    machine: &mut Machine,
    busy_input: bool,
    results: &[IterationResult],
    waves: usize,
) -> SimTime {
    let epoch_start = machine.now();
    let (mut input, mut train) = (epoch_start, epoch_start);
    let mut train_done: Vec<SimTime> = Vec::with_capacity(waves);
    let mut charge = |cursor: &mut SimTime, phase: Phase, busy: bool, dt: SimTime| {
        let start = *cursor;
        *cursor += dt;
        machine.record_span(phase, busy, start, *cursor);
    };
    for w in 0..waves {
        let t = results[w % results.len()].times;
        if w >= BUFFER_SLOTS {
            input = input.max(train_done[w - BUFFER_SLOTS]);
        }
        charge(&mut input, Phase::Sampling, busy_input, t.sample);
        charge(&mut input, Phase::Gather, busy_input, t.gather);
        train = train.max(input);
        charge(&mut train, Phase::Training, true, t.train);
        charge(&mut train, Phase::Communication, true, t.comm);
        train_done.push(train);
    }
    input.max(train) - epoch_start
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
    use proptest::prelude::*;
    use wg_sample::SampleStats;
    use wg_sim::MachineConfig;

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
        assert_eq!(ExecMode::Serial.wave_time(&t).as_secs(), 6.5);
        assert_eq!(ExecMode::Overlapped.wave_time(&t).as_secs(), 4.0);
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

    /// `a == b` up to the rounding a clock difference and a sum of the
    /// same terms may disagree by.
    fn close(a: SimTime, b: SimTime) -> bool {
        (a.as_secs() - b.as_secs()).abs() <= 1e-9 * a.as_secs().max(b.as_secs())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The two schedules over the same synthetic iterations: same
        /// totals and numerics, and an overlapped epoch that is never
        /// longer than the serial one, never shorter than its longer
        /// stream, and strictly shorter exactly when some wave's compute
        /// has a following wave's input to hide.
        #[test]
        fn schedules_agree_on_totals_and_order_on_epoch_time(
            // Per result: (sample, gather), (train, comm), storage — in
            // units of 0.37 ms, so exact zeros and inexact sums both occur.
            codes in proptest::collection::vec(((0u32..5, 0u32..5), (0u32..5, 0u32..5), 0u32..4), 1..13),
            shape in (1usize..41, 1u32..9, 0usize..3),
            lead in 0u32..3,
        ) {
            let unit = |c: u32| SimTime::from_secs(c as f64 * 0.37e-3);
            let results: Vec<IterationResult> = codes
                .iter()
                .enumerate()
                .map(|(i, &((sample, gather), (train, comm), storage))| IterationResult {
                    times: IterTimes {
                        sample: unit(sample),
                        gather: unit(gather) + unit(storage),
                        train: unit(train),
                        comm: unit(comm),
                        storage: unit(storage),
                    },
                    storage_io: StorageIo {
                        rows: storage as u64,
                        bytes: storage as u64 * 400,
                        requests: storage.min(1) as u64,
                        read_bytes: storage as u64 * 512,
                    },
                    loss: 0.1 + i as f32 * 0.3,
                    correct: i % 3,
                    batch: 4,
                    shapes: Vec::new(),
                    sample_stats: SampleStats::default(),
                })
                .collect();
            let (total_iters, gpus, fw) = shape;
            let framework = Framework::ALL[fw];
            let run = |mode: ExecMode| {
                let mut machine = Machine::new(MachineConfig::dgx_like(gpus));
                // Epochs after the first start on a clock that is not zero.
                machine.run(Phase::Setup, false, unit(lead));
                mode.finish_epoch(&mut machine, framework, &results, total_iters)
            };
            let (serial, overlapped) = (run(ExecMode::Serial), run(ExecMode::Overlapped));

            // Everything but `epoch_time` and the occupancy is the
            // schedule's input, not its output.
            let numerics = |r: &EpochReport| {
                let times = [r.sample_time, r.gather_time, r.train_time, r.comm_time];
                let storage = (r.storage_time, r.storage_exposed_time, r.storage_io);
                (times, storage, r.loss.to_bits(), r.train_accuracy.to_bits())
            };
            prop_assert_eq!(numerics(&serial), numerics(&overlapped));
            prop_assert_eq!(serial.iterations, total_iters);
            prop_assert_eq!(overlapped.executed_iterations, results.len());

            let waves: Vec<IterTimes> = (0..total_iters.div_ceil(gpus as usize))
                .map(|w| results[w % results.len()].times)
                .collect();
            let sum = |f: fn(&IterTimes) -> SimTime| waves.iter().map(f).sum::<SimTime>();
            prop_assert!(close(serial.epoch_time, sum(IterTimes::total)));
            let hides = waves
                .windows(2)
                .any(|w| w[0].compute() > SimTime::ZERO && w[1].input() > SimTime::ZERO);
            if hides {
                prop_assert!(
                    overlapped.epoch_time.as_secs() < serial.epoch_time.as_secs() * (1.0 - 1e-9),
                    "overlapped {} !< serial {}", overlapped.epoch_time, serial.epoch_time
                );
            } else {
                prop_assert!(
                    close(overlapped.epoch_time, serial.epoch_time),
                    "overlapped {} != serial {}", overlapped.epoch_time, serial.epoch_time
                );
            }
            let floor = sum(IterTimes::input).max(sum(IterTimes::compute));
            prop_assert!(overlapped.epoch_time.as_secs() >= floor.as_secs() * (1.0 - 1e-9));

            for r in [&serial, &overlapped] {
                prop_assert!(close(r.occupancy.busy + r.occupancy.idle, r.epoch_time));
            }
            for t in &waves {
                prop_assert_eq!(ExecMode::Serial.wave_time(t), t.total());
                prop_assert_eq!(ExecMode::Overlapped.wave_time(t), t.input().max(t.compute()));
            }
        }
    }
}
