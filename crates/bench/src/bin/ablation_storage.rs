//! Ablation — where the features live (the §I design space + §II-B):
//! WholeGraph with GPU+P2P features vs GPU+Unified-Memory features vs
//! host zero-copy, against the DGL baseline's CPU-gather-then-copy.
//!
//! All variants compute identical training; only the gather path changes.

use wg_bench::{banner, bench_dataset, bench_pipeline_config, secs, Table};
use wg_graph::DatasetKind;
use wholegraph::prelude::*;

fn main() {
    wg_bench::flags(&[]); // takes none: any argument is an error
    banner(
        "Ablation",
        "feature placement: P2P vs UM vs host zero-copy vs CPU gather",
    );
    let dataset = bench_dataset(DatasetKind::OgbnPapers100M, 41);
    let mut t = Table::new(&["variant", "gather/epoch (s)", "epoch (s)", "vs P2P"]);
    let mut base = None;
    let variants: Vec<(String, Framework, FeaturePlacement)> = vec![
        (
            "WholeGraph GPU+P2P".into(),
            Framework::WholeGraph,
            FeaturePlacement::DeviceP2p,
        ),
        (
            "WholeGraph host zero-copy".into(),
            Framework::WholeGraph,
            FeaturePlacement::HostMapped,
        ),
        (
            "WholeGraph GPU+UM".into(),
            Framework::WholeGraph,
            FeaturePlacement::DeviceUnifiedMemory,
        ),
        (
            "DGL (CPU gather + copy)".into(),
            Framework::Dgl,
            FeaturePlacement::DeviceP2p,
        ),
    ];
    for (label, fw, placement) in variants {
        let machine = Machine::dgx_a100();
        let cfg = bench_pipeline_config(fw, ModelKind::GraphSage)
            .with_seed(41)
            .with_feature_placement(placement);
        let mut pipe = Pipeline::new(machine, dataset.clone(), cfg).unwrap();
        let r = pipe.measure_epoch(0, 1);
        let baseline = *base.get_or_insert(r.epoch_time);
        t.row(&[
            label,
            secs(r.gather_time),
            secs(r.epoch_time),
            format!("{:.2}x", r.epoch_time / baseline),
        ]);
    }
    t.print();
    println!("\nThe paper's argument in one table: P2P distributed shared");
    println!("memory is the only placement whose gather keeps up with the");
    println!("GPU; UM page faults are catastrophic (Table I), and both");
    println!("host-side placements press on shared PCIe (§I, §II-B).");
}
