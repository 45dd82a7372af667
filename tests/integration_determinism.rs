//! The work-stealing pool must be invisible to the numerics: a training
//! epoch run on N worker threads produces bit-identical losses,
//! predictions, and simulated phase times to the same epoch run strictly
//! sequentially. The rayon shim guarantees this by deriving its split
//! tree from input lengths alone and merging reductions in chunk order;
//! `rayon::run_sequential` executes that exact tree inline, so it is the
//! reference schedule the parallel runs are compared against.

use std::sync::Arc;

use wholegraph::prelude::*;

/// Everything observable about one epoch, captured as raw bits so the
/// comparison is exact (no epsilon, no rounding).
#[derive(PartialEq, Eq, Debug)]
struct EpochFingerprint {
    loss: u32,
    train_accuracy: u64,
    epoch_time: u64,
    sample_time: u64,
    gather_time: u64,
    train_time: u64,
    comm_time: u64,
    predictions: Vec<u32>,
    checksums: Vec<u64>,
}

fn run_epoch(fw: Framework, model: ModelKind) -> EpochFingerprint {
    let dataset = Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnProducts,
        900,
        17,
    ));
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let cfg = PipelineConfig::tiny(fw, model).with_seed(33);
    let mut pipe = Pipeline::new(machine, dataset, cfg).unwrap();
    let r = pipe.train_epoch(0);
    let probe: Vec<_> = pipe.dataset().val.iter().take(64).copied().collect();
    let (mut predictions, mut checksums) = (Vec::new(), Vec::new());
    pipe.serve_forward(&probe, 0, &mut predictions, &mut checksums);
    EpochFingerprint {
        loss: r.loss.to_bits(),
        train_accuracy: r.train_accuracy.to_bits(),
        epoch_time: r.epoch_time.as_secs().to_bits(),
        sample_time: r.sample_time.as_secs().to_bits(),
        gather_time: r.gather_time.as_secs().to_bits(),
        train_time: r.train_time.as_secs().to_bits(),
        comm_time: r.comm_time.as_secs().to_bits(),
        predictions,
        checksums,
    }
}

/// One epoch per framework, sequential reference vs. two pool runs.
/// `init_threads(8)` is a request — `WG_THREADS` wins if set. The
/// one-worker pool, a degenerate but distinct schedule, has a binary of
/// its own: `crates/serve/tests/one_worker.rs`.
#[test]
fn training_epoch_is_bit_identical_at_any_thread_count() {
    rayon::init_threads(8);
    for fw in Framework::ALL {
        let sequential = rayon::run_sequential(|| run_epoch(fw, ModelKind::GraphSage));
        for round in 0..2 {
            let parallel = run_epoch(fw, ModelKind::GraphSage);
            assert_eq!(
                sequential,
                parallel,
                "{fw:?} diverged from the sequential schedule \
                 (round {round}, {} threads)",
                rayon::current_num_threads()
            );
        }
    }
}

/// GAT is the one model that runs g-SDDMM, edge softmax, weighted
/// multi-head g-SpMM and the narrow (n = heads) matmuls. Its epoch must be
/// schedule-invariant like the others, and the loss is pinned to the bits
/// recorded at commit bd43f07, before those kernels had SIMD twins: CI
/// runs this binary at the detected level and under `WG_SIMD=scalar`, so
/// one constant holds both levels to the same answer.
#[test]
fn gat_epoch_is_bit_identical_on_the_pool_and_at_both_simd_levels() {
    rayon::init_threads(8);
    let fw = Framework::WholeGraph;
    let sequential = rayon::run_sequential(|| run_epoch(fw, ModelKind::Gat));
    assert_eq!(sequential, run_epoch(fw, ModelKind::Gat));
    assert_eq!(
        sequential.loss, 0x4025_e548,
        "GAT epoch loss bits moved: got {:#010x}",
        sequential.loss
    );
}

/// The simulated device times come out of the same kernels, so they are
/// covered above; this pins the *accounting identities* that must hold
/// regardless of host schedule, catching a pool bug that corrupts
/// report aggregation without touching the floats.
#[test]
fn epoch_report_invariants_hold_under_parallel_execution() {
    rayon::init_threads(8);
    let dataset = Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnProducts,
        600,
        9,
    ));
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::Gcn).with_seed(5);
    let mut pipe = Pipeline::new(machine, dataset, cfg).unwrap();
    let r = pipe.train_epoch(0);
    assert!(r.loss.is_finite() && r.loss > 0.0);
    assert!(r.executed_iterations <= r.iterations);
    assert!(r.epoch_time > SimTime::ZERO);
    let phase_sum = r.sample_time + r.gather_time + r.train_time + r.comm_time;
    assert!(
        phase_sum.as_secs() > 0.0,
        "phase accounting vanished: {phase_sum:?}"
    );
}
