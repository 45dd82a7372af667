//! Table IV — per-GPU memory usage of WholeGraph by phase on
//! ogbn-papers100M.
//!
//! The stand-in runs at 1/2000 scale; the theoretical column is computed
//! at full paper scale with the paper's own arithmetic (3.2 B stored
//! edges × 8 B; 111.1 M nodes × 512 B features), and the measured per-GPU
//! column is scaled back up for comparison.

use wg_bench::{banner, bench_dataset, bench_pipeline_config, bench_scale, Table};
use wg_graph::DatasetKind;
use wholegraph::memstats::{memory_report, register_training_memory, training_bytes_per_gpu};
use wholegraph::prelude::*;

const GIB: f64 = (1u64 << 30) as f64;

fn main() {
    wg_bench::flags(&[]); // takes none: any argument is an error
    banner("Table IV", "memory usage of WholeGraph for ogbn-papers100M");
    let kind = DatasetKind::OgbnPapers100M;
    let scale = bench_scale(kind);
    let dataset = bench_dataset(kind, 3);
    let machine = Machine::dgx_a100();
    let cfg = bench_pipeline_config(Framework::WholeGraph, ModelKind::GraphSage).with_seed(3);
    let mut pipe = Pipeline::new(machine, dataset, cfg).unwrap();

    // One real iteration pins the training-phase shapes.
    let batch: Vec<_> = pipe.epoch_batches(0)[0].clone();
    let it = pipe.run_iteration(0, 0, &batch, true);
    let train_bytes = training_bytes_per_gpu(&pipe.model, &it.shapes, pipe.dataset().feature_dim);
    register_training_memory(pipe.machine(), train_bytes).unwrap();

    let rows = memory_report(pipe.machine());
    let mut t = Table::new(&[
        "phase",
        "measured/GPU (GiB, @paper scale)",
        "paper measured/GPU",
        "theoretical total (GB)",
        "paper theoretical",
    ]);
    // Paper: graph 3.1 GiB/GPU (24 GB total), features 6.7 (53), training 20.4.
    let paper = [
        ("graph structure", 3.1, "24"),
        ("node feature", 6.7, "53"),
        ("training", 20.4, "-"),
    ];
    for (row, (label, paper_per_gpu, paper_total)) in rows.iter().zip(paper) {
        // Structure/features scale with the graph; training state scales
        // with the mini-batch (same at any graph scale) plus parameters.
        let scaled_per_gpu = match label {
            "training" => row.per_gpu_bytes as f64, // batch-shaped, not graph-shaped
            _ => row.per_gpu_bytes as f64 * scale as f64,
        };
        let scaled_total = match label {
            "training" => f64::NAN,
            _ => row.total_bytes as f64 * scale as f64,
        };
        t.row(&[
            label.to_string(),
            format!("{:.1}", scaled_per_gpu / GIB),
            format!("{paper_per_gpu:.1}"),
            if scaled_total.is_nan() {
                "-".to_string()
            } else {
                format!("{:.0}", scaled_total / 1e9)
            },
            paper_total.to_string(),
        ]);
    }
    t.print();
    println!("\n(The training row is mini-batch-shaped, so it reflects the");
    println!("stand-in's smaller frontiers rather than paper scale; structure");
    println!("and feature rows scale linearly with the graph and are rescaled");
    println!("to paper size above, confirming both are spread across all GPUs.)");
}
