//! Multi-node data-parallel scaling (paper §III-D / Figure 13): execute
//! one epoch on 1 to 8 simulated DGX nodes for GraphSage on a
//! papers100M stand-in.
//!
//! ```text
//! cargo run --release --example multi_node_scaling
//! ```

use std::sync::Arc;

use wholegraph::multinode::executed_sweep;
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

    let cfg = PipelineConfig {
        batch_size: 32,
        fanouts: vec![10, 10, 10],
        num_layers: 3,
        hidden: 64,
        ..PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage)
    }
    .with_seed(11);
    println!("executing one epoch per node count (8 GPUs per node)...");
    let points = executed_sweep(dataset, cfg, MultiNodeConfig::new(1), &[1, 2, 4, 8]).unwrap();

    println!(
        "\n{:>6} {:>16} {:>10} {:>12} {:>8}",
        "nodes", "epoch time", "speedup", "efficiency", "loss"
    );
    for p in &points {
        println!(
            "{:>6} {:>16} {:>9.2}x {:>11.0}% {:>8.4}",
            p.nodes,
            format!("{}", p.epoch_time),
            p.speedup,
            p.efficiency * 100.0,
            p.report.loss
        );
    }
    let last = &points[points.len() - 1];
    println!("\nEach node holds a full graph replica; only the gradient");
    println!(
        "AllReduce crosses InfiniBand. Measured efficiency at {} nodes: {:.0}%",
        last.nodes,
        last.efficiency * 100.0
    );
    println!("(paper Figure 13: close to linear). At a fixed epoch count more");
    println!("nodes take fewer optimizer steps, hence the rising loss.");
}
