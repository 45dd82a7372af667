//! End-to-end integration: dataset → multi-GPU store → sampling →
//! gather → training, across all frameworks and models.

use std::sync::Arc;

use wholegraph::prelude::*;

fn dataset() -> Arc<SyntheticDataset> {
    Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnProducts,
        1200,
        21,
    ))
}

#[test]
fn every_framework_model_combination_trains() {
    for fw in Framework::ALL {
        for model in ModelKind::ALL {
            let machine = Machine::new(MachineConfig::dgx_like(4));
            let cfg = PipelineConfig::tiny(fw, model).with_seed(21);
            let mut pipe = Pipeline::new(machine, dataset(), cfg).unwrap();
            let r = pipe.train_epoch(0);
            assert!(r.loss.is_finite() && r.loss > 0.0, "{fw:?}/{model:?}");
            assert!(r.epoch_time > SimTime::ZERO);
            assert!(
                r.train_accuracy >= 0.0 && r.train_accuracy <= 1.0,
                "{fw:?}/{model:?}: accuracy {}",
                r.train_accuracy
            );
        }
    }
}

#[test]
fn wholegraph_learns_and_beats_random_guessing() {
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage).with_seed(2);
    let mut pipe = Pipeline::new(machine, dataset(), cfg).unwrap();
    let out = Trainer::new(TrainerConfig {
        epochs: 6,
        eval_every: 3,
    })
    .run(&mut pipe);
    let classes = pipe.dataset().num_classes as f64;
    assert!(
        out.val_accuracy > 3.0 / classes,
        "val accuracy {} barely beats random",
        out.val_accuracy
    );
    // The validation curve is recorded at the requested cadence.
    assert_eq!(out.val_curve.len(), 2);
}

#[test]
fn epoch_speedup_ordering_holds_at_paper_shape() {
    // Table V's qualitative result: WholeGraph < DGL < PyG epoch time,
    // with meaningful gaps.
    let mut times = Vec::new();
    for fw in [Framework::WholeGraph, Framework::Dgl, Framework::Pyg] {
        let d = Arc::new(SyntheticDataset::generate(
            DatasetKind::OgbnProducts,
            300,
            8,
        ));
        let machine = Machine::dgx_a100();
        let cfg = PipelineConfig {
            batch_size: 256,
            fanouts: vec![15, 15],
            num_layers: 2,
            hidden: 64,
            ..PipelineConfig::tiny(fw, ModelKind::GraphSage)
        };
        let mut pipe = Pipeline::new(machine, d, cfg).unwrap();
        let r = pipe.measure_epoch(0, 2);
        times.push((fw, r.epoch_time));
    }
    let (wg, dgl, pyg) = (times[0].1, times[1].1, times[2].1);
    assert!(dgl / wg > 2.0, "DGL/WG speedup only {:.2}", dgl / wg);
    assert!(pyg / dgl > 2.0, "PyG/DGL ratio only {:.2}", pyg / dgl);
}

#[test]
fn setup_cost_is_amortized() {
    // §III-B: DSM setup is tens-to-hundreds of ms, paid once; it must be
    // far below even a single tiny epoch... of the *baselines*, and within
    // an order of magnitude of WholeGraph's own epoch at this scale.
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::Gcn);
    let mut pipe = Pipeline::new(machine, dataset(), cfg).unwrap();
    let setup = pipe.setup_time();
    assert!(
        setup.as_millis() > 0.1 && setup.as_millis() < 500.0,
        "setup {setup}"
    );
    let _ = pipe.train_epoch(0);
}

#[test]
fn graph_too_large_for_gpu_memory_is_a_clean_error() {
    // Failure injection: shrink the simulated GPUs until the feature
    // store cannot fit; Pipeline::new must surface OutOfMemory rather
    // than panic or truncate.
    let mut config = MachineConfig::dgx_like(4);
    config.gpu_spec.memory_capacity = 64 * 1024; // 64 KiB "GPUs"
    let machine = Machine::new(config);
    let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::Gcn);
    let Err(err) = Pipeline::new(machine, dataset(), cfg) else {
        panic!("64 KiB GPUs should not fit the store");
    };
    let msg = err.to_string();
    assert!(msg.contains("out of memory"), "unexpected error: {msg}");
}

#[test]
fn saved_dataset_trains_identically_to_generated() {
    // IO round-trip feeding the full pipeline: save → load → train must
    // match training on the original object exactly.
    use wg_graph::io::{load_dataset, save_dataset};
    let d = dataset();
    let mut path = std::env::temp_dir();
    path.push(format!("wg-integration-{}.wgds", std::process::id()));
    save_dataset(&d, &path).unwrap();
    let loaded = Arc::new(load_dataset(&path).unwrap());
    std::fs::remove_file(&path).ok();

    let run = |data: Arc<SyntheticDataset>| {
        let machine = Machine::new(MachineConfig::dgx_like(4));
        let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::Gcn).with_seed(9);
        let mut pipe = Pipeline::new(machine, data, cfg).unwrap();
        pipe.train_epoch(0).loss
    };
    let a = run(d);
    let b = run(loaded);
    assert!(
        (a - b).abs() < 1e-3,
        "losses differ after IO roundtrip: {a} vs {b}"
    );
}

#[test]
fn memory_accounting_covers_all_phases_after_training() {
    use wholegraph::memstats::{memory_report, register_training_memory, training_bytes_per_gpu};
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage);
    let mut pipe = Pipeline::new(machine, dataset(), cfg).unwrap();
    let batch: Vec<_> = pipe.dataset().train[..32].to_vec();
    let it = pipe.run_iteration(0, 0, &batch, true);
    let bytes = training_bytes_per_gpu(&pipe.model, &it.shapes, pipe.dataset().feature_dim);
    register_training_memory(pipe.machine(), bytes).unwrap();
    let rows = memory_report(pipe.machine());
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().all(|r| r.total_bytes > 0));
}

#[test]
fn prefetch_hides_wholegraph_storage_reads() {
    // Tier on at ~25% residency. Priced as the ranged reads issued, a
    // wave's storage time is below its training step (per-row pricing
    // charged several steps), so the prefetch fits it under the previous
    // wave's compute and nothing stays exposed.
    let data = Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnProducts,
        1500,
        5,
    ));
    let epoch = |storage_rows: usize| {
        // 2 GPUs and a small batch give the epoch several waves.
        let machine = Machine::new(MachineConfig::dgx_like(2));
        let mut cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage)
            .with_seed(23)
            .with_storage(storage_rows);
        cfg.batch_size = 32;
        Pipeline::new(machine, data.clone(), cfg)
            .unwrap()
            .train_epoch(0)
    };
    let r = epoch(400);
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
    assert_eq!(r.loss.to_bits(), epoch(0).loss.to_bits());
}
