//! Multi-node data-parallel scaling (paper §III-D / Figure 13): project
//! epoch time from 1 to 8 DGX nodes for GraphSage on a papers100M
//! stand-in.
//!
//! ```text
//! cargo run --release --example multi_node_scaling
//! ```

use std::sync::Arc;

use wholegraph::multinode::projected_sweep;
use wholegraph::prelude::*;

fn main() {
    let dataset = Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnPapers100M,
        2000,
        11,
    ));
    println!(
        "ogbn-papers100M stand-in (1/2000): {} nodes, {} edges, {} train nodes\n",
        dataset.num_nodes(),
        dataset.num_edges(),
        dataset.train.len()
    );

    let machine = Machine::dgx_a100();
    let cfg = PipelineConfig {
        batch_size: 32,
        fanouts: vec![10, 10, 10],
        num_layers: 3,
        hidden: 64,
        ..PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage)
    }
    .with_seed(11);
    let mut pipe = Pipeline::new(machine, dataset, cfg).unwrap();

    println!("measuring per-iteration times (2 real iterations)...");
    let points = projected_sweep(&mut pipe, &[1, 2, 4, 8], 2);

    println!(
        "\n{:>6} {:>16} {:>10} {:>12}",
        "nodes", "epoch time", "speedup", "efficiency"
    );
    for p in &points {
        println!(
            "{:>6} {:>16} {:>9.2}x {:>11.0}%",
            p.nodes,
            format!("{}", p.epoch_time),
            p.speedup,
            p.speedup / p.nodes as f64 * 100.0
        );
    }
    println!("\nEach node holds a full graph replica; only the gradient");
    println!("AllReduce crosses InfiniBand, so scaling stays near linear");
    println!("(paper Figure 13).");
}
