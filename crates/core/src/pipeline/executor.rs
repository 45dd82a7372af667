//! Epoch scheduling: how an epoch's priced iterations are laid onto the
//! machine's timeline.
//!
//! [`Schedule::finish_epoch`] charges sample → gather → train → AllReduce
//! back-to-back per wave: the synchronous loop every epoch time in the
//! paper's evaluation is measured under. All numerics are fixed in the
//! [`IterationResult`]s before scheduling starts; the schedule only lays
//! their phase times onto the node's clock and trace.

use wg_sim::trace::Phase;
use wg_sim::{Machine, SimTime};

use crate::framework::Framework;
use crate::pipeline::report::{
    occupancy_from_trace, EpochReport, IterTimes, IterationResult, StorageIo,
};

/// The epoch schedule: no variants, no fields. It is a type only because
/// the out-of-tree `benchmark/` package charges the epochs it drives
/// through [`Pipeline::executor`](crate::pipeline::Pipeline::executor).
#[derive(Clone, Copy, Debug, Default)]
pub struct Schedule;

impl Schedule {
    /// Charge the executed iterations' phase times onto the machine's
    /// clock and trace, wave by wave, and build the epoch report.
    /// `results` is cycled when the epoch extrapolates beyond the
    /// executed iterations. The epoch time is the phase-time sum, not the
    /// clock difference: the clock accumulates the same terms in a
    /// different order, and the sum is what the multi-node executor
    /// reproduces bitwise at N=1.
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
        for w in 0..waves {
            let t = results[w % results.len()].times;
            machine.run(Phase::Sampling, busy_input, t.sample);
            machine.run(Phase::Gather, busy_input, t.gather);
            machine.run(Phase::Training, true, t.train);
            machine.run(Phase::Communication, true, t.comm);
        }
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
            occupancy: occupancy_from_trace(machine.trace(), epoch_start, machine.now()),
        }
    }
}

/// Phase-time totals, exposed storage time, storage traffic, mean loss
/// and accuracy over the (cycled) waves.
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

    /// `a == b` up to the rounding a clock difference and a sum of the
    /// same terms may disagree by.
    fn close(a: SimTime, b: SimTime) -> bool {
        (a.as_secs() - b.as_secs()).abs() <= 1e-9 * a.as_secs().max(b.as_secs())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The schedule over synthetic iterations: the epoch is the phase
        /// sum of the cycled waves, busy and idle partition it, and the
        /// report counts the epoch's and the executed iterations.
        #[test]
        fn serial_epoch_is_the_phase_sum_of_the_cycled_waves(
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
            let mut machine = Machine::new(MachineConfig::dgx_like(gpus));
            // Epochs after the first start on a clock that is not zero.
            machine.run(Phase::Setup, false, unit(lead));
            let start = machine.now();
            let r = Schedule.finish_epoch(&mut machine, framework, &results, total_iters);
            prop_assert_eq!(r.iterations, total_iters);
            prop_assert_eq!(r.executed_iterations, results.len());

            let waves: Vec<IterTimes> = (0..total_iters.div_ceil(gpus as usize))
                .map(|w| results[w % results.len()].times)
                .collect();
            let sum = |f: fn(&IterTimes) -> SimTime| waves.iter().map(f).sum::<SimTime>();
            let phases = [r.sample_time, r.gather_time, r.train_time, r.comm_time, r.storage_time];
            prop_assert_eq!(
                phases,
                [sum(|t| t.sample), sum(|t| t.gather), sum(|t| t.train), sum(|t| t.comm), sum(|t| t.storage)]
            );
            prop_assert!(close(r.epoch_time, sum(IterTimes::total)));
            prop_assert!(close(machine.now() - start, r.epoch_time));
            prop_assert!(close(r.occupancy.busy + r.occupancy.idle, r.epoch_time));
        }
    }
}
