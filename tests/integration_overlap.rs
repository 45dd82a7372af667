//! Serial vs overlapped executor equivalence, end to end.
//!
//! The stage/executor split guarantees that scheduling is timing-only:
//! both executors run the same iterations with the same seeds, so every
//! numeric output — losses, accuracy, trained parameters, predictions —
//! must be *bit-identical*, while the overlapped schedule's epoch time is
//! never longer and is strictly shorter whenever the epoch has several
//! waves with nonzero input and compute phases.

use std::sync::Arc;

use wg_graph::NodeId;
use wholegraph::pipeline::ExecMode;
use wholegraph::prelude::*;

fn dataset() -> Arc<SyntheticDataset> {
    Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnProducts,
        1500,
        5,
    ))
}

/// Train one epoch under `exec` and return the report plus predictions
/// over a fixed node set (from the post-epoch parameters).
fn epoch_under(
    fw: Framework,
    model: ModelKind,
    exec: ExecMode,
    data: &Arc<SyntheticDataset>,
) -> (EpochReport, Vec<u32>, usize) {
    let cfg = PipelineConfig::tiny(fw, model)
        .with_seed(23)
        .with_exec(exec);
    epoch_with(cfg, data)
}

fn epoch_with(
    mut cfg: PipelineConfig,
    data: &Arc<SyntheticDataset>,
) -> (EpochReport, Vec<u32>, usize) {
    // 2 GPUs + a small batch give the tiny train split several waves, so
    // the overlapped schedule has something to overlap.
    let machine = Machine::new(MachineConfig::dgx_like(2));
    cfg.batch_size = 32;
    let mut pipe = Pipeline::new(machine, data.clone(), cfg).unwrap();
    let waves = pipe
        .iters_per_epoch()
        .div_ceil(pipe.machine().num_gpus() as usize);
    let report = pipe.train_epoch(0);
    let nodes: Vec<NodeId> = (0..64u64).collect();
    let (preds, _) = pipe.infer(&nodes);
    (report, preds, waves)
}

#[test]
fn executors_agree_numerically_for_every_framework_and_model() {
    let data = dataset();
    for fw in Framework::ALL {
        for model in ModelKind::ALL {
            let (serial, preds_s, waves) = epoch_under(fw, model, ExecMode::Serial, &data);
            let (overlap, preds_o, _) = epoch_under(fw, model, ExecMode::Overlapped, &data);
            let tag = format!("{fw:?}/{model:?}");

            // Numerics: bit-identical across executors.
            assert_eq!(serial.loss.to_bits(), overlap.loss.to_bits(), "{tag}: loss");
            assert_eq!(
                serial.train_accuracy, overlap.train_accuracy,
                "{tag}: accuracy"
            );
            assert_eq!(preds_s, preds_o, "{tag}: predictions");

            // Phase totals are the same work, differently scheduled.
            assert_eq!(serial.sample_time, overlap.sample_time, "{tag}: sample");
            assert_eq!(serial.gather_time, overlap.gather_time, "{tag}: gather");
            assert_eq!(serial.train_time, overlap.train_time, "{tag}: train");
            assert_eq!(serial.comm_time, overlap.comm_time, "{tag}: comm");

            // Timing: overlap never loses, and with several waves of
            // nonzero input + compute it must strictly win.
            assert!(
                overlap.epoch_time <= serial.epoch_time,
                "{tag}: overlapped {} > serial {}",
                overlap.epoch_time,
                serial.epoch_time
            );
            assert!(
                waves >= 2,
                "{tag}: need >= 2 waves to exercise overlap, got {waves}"
            );
            assert!(
                overlap.epoch_time < serial.epoch_time,
                "{tag}: overlapped {} !< serial {}",
                overlap.epoch_time,
                serial.epoch_time
            );
        }
    }
}

/// One framework's serial and overlapped GraphSAGE epochs, with the
/// out-of-core tier's resident-row budget at `storage` (0: tier off).
struct OverlapWin {
    serial: EpochReport,
    overlapped: EpochReport,
}

impl OverlapWin {
    fn of(fw: Framework, storage: usize, data: &Arc<SyntheticDataset>) -> Self {
        let epoch = |exec| {
            let cfg = PipelineConfig::tiny(fw, ModelKind::GraphSage)
                .with_seed(23)
                .with_exec(exec)
                .with_storage(storage);
            epoch_with(cfg, data).0
        };
        OverlapWin {
            serial: epoch(ExecMode::Serial),
            overlapped: epoch(ExecMode::Overlapped),
        }
    }

    /// Fraction of the serial epoch the overlapped schedule removes.
    fn saving(&self) -> f64 {
        1.0 - self.overlapped.epoch_time / self.serial.epoch_time
    }

    /// Fraction of the serial epoch spent in the input phases
    /// (sampling + gather, storage reads included).
    fn input_share(&self) -> f64 {
        (self.serial.sample_time + self.serial.gather_time) / self.serial.epoch_time
    }
}

#[test]
fn overlap_win_is_largest_for_host_pipelines() {
    // DGL/PyG input phases dominate their epochs (Figure 9), so hiding
    // them under training shrinks the epoch far more than for WholeGraph,
    // whose input phases are already small. That is the paper's
    // in-memory ordering; the two tests below add the storage tier.
    let data = dataset();
    let saving = |fw| OverlapWin::of(fw, 0, &data).saving();
    let wg = saving(Framework::WholeGraph);
    let dgl = saving(Framework::Dgl);
    let pyg = saving(Framework::Pyg);
    assert!(dgl > wg, "DGL saving {dgl:.3} !> WholeGraph saving {wg:.3}");
    assert!(pyg > wg, "PyG saving {pyg:.3} !> WholeGraph saving {wg:.3}");
}

#[test]
fn overlap_win_follows_the_input_share() {
    // The rule behind the ordering above, checked with the storage tier
    // off and at ~25% residency: overlap hides input under training, so
    // of two pipelines the one spending the larger share of its serial
    // epoch in input phases saves the larger share. In memory that is
    // DGL/PyG over WholeGraph; with the tier on, WholeGraph's gather
    // carries the NVMe reads, its input share is the largest of the
    // three, and so is its saving.
    let data = dataset();
    for storage in [0, 400] {
        let wg = OverlapWin::of(Framework::WholeGraph, storage, &data);
        for fw in [Framework::Dgl, Framework::Pyg] {
            let host = OverlapWin::of(fw, storage, &data);
            assert_eq!(
                host.saving() > wg.saving(),
                host.input_share() > wg.input_share(),
                "{fw:?}: saving {:.3} / input share {:.3} vs WholeGraph {:.3} / {:.3} \
                 (storage rows {})",
                host.saving(),
                host.input_share(),
                wg.saving(),
                wg.input_share(),
                wg.serial.storage_io.rows
            );
        }
    }
}

#[test]
fn overlap_hides_wholegraph_storage_reads() {
    // Tier on at ~25% residency. Priced as the ranged reads issued, a
    // wave's storage time is below its training step (per-row pricing
    // charged several steps), so it fits under the previous wave's
    // compute: nothing stays exposed, and WholeGraph's saving overtakes
    // both its own in-memory saving and DGL's.
    let data = dataset();
    let tiered = OverlapWin::of(Framework::WholeGraph, 400, &data);
    let in_memory = OverlapWin::of(Framework::WholeGraph, 0, &data);
    let dgl = OverlapWin::of(Framework::Dgl, 400, &data);

    let r = &tiered.serial;
    assert!(r.storage_io.rows > 0, "tier served no rows");
    assert!(
        r.storage_io.requests < r.storage_io.rows,
        "{}",
        r.storage_io
    );
    assert!(r.storage_time > SimTime::ZERO);
    assert!(
        r.storage_time < r.train_time + r.comm_time,
        "storage {} should fit under compute {}",
        r.storage_time,
        r.train_time + r.comm_time
    );
    assert_eq!(r.storage_exposed_time, SimTime::ZERO);
    // Values never move: the tier changes the clock, not the numbers.
    assert_eq!(r.loss.to_bits(), in_memory.serial.loss.to_bits());

    // The serial schedule pays the storage time in full; the overlapped
    // one hides all of it but the first wave's, on top of everything it
    // already hid in memory.
    let hidden = |w: &OverlapWin| w.serial.epoch_time - w.overlapped.epoch_time;
    assert!(
        hidden(&tiered) > hidden(&in_memory),
        "hidden {} !> in-memory {}",
        hidden(&tiered),
        hidden(&in_memory)
    );
    assert!(tiered.saving() > in_memory.saving());
    assert!(
        tiered.saving() > dgl.saving(),
        "tiered WholeGraph saving {:.3} !> DGL saving {:.3}",
        tiered.saving(),
        dgl.saving()
    );
}

#[test]
fn overlapped_occupancy_shows_input_hidden_under_training() {
    // Under the overlapped executor the per-phase occupancy totals can
    // exceed the epoch span (phases co-occupy time on two streams), while
    // busy+idle still partition the span exactly.
    let data = dataset();
    let (r, _, _) = epoch_under(
        Framework::Dgl,
        ModelKind::GraphSage,
        ExecMode::Overlapped,
        &data,
    );
    let occ = r.occupancy;
    let span = (occ.busy + occ.idle).as_secs();
    assert!(
        (span - r.epoch_time.as_secs()).abs() < 1e-9,
        "span {span} vs epoch {}",
        r.epoch_time
    );
    let phase_sum =
        occ.sampling.total() + occ.gather.total() + occ.training.total() + occ.comm.total();
    assert!(
        phase_sum.as_secs() > r.epoch_time.as_secs() + 1e-12,
        "phase totals {} should exceed the overlapped epoch span {}",
        phase_sum,
        r.epoch_time
    );
}
