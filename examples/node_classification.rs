//! Node classification à la the paper's accuracy study (Table III):
//! train GCN, GraphSage and GAT on the same dataset under both WholeGraph
//! and the DGL-style baseline, and show that accuracy matches while epoch
//! times do not.
//!
//! ```text
//! cargo run --release --example node_classification
//! ```

use std::sync::Arc;

use wholegraph::prelude::*;

fn main() {
    let dataset = Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnProducts,
        1000,
        7,
    ));
    println!(
        "ogbn-products stand-in (1/1000 scale): {} nodes, {} edges, {} classes\n",
        dataset.num_nodes(),
        dataset.num_edges(),
        dataset.num_classes
    );
    println!(
        "{:<12} {:<12} {:>9} {:>9} {:>14}",
        "model", "framework", "val-acc", "test-acc", "epoch time"
    );

    for model in ModelKind::ALL {
        for fw in [Framework::Dgl, Framework::WholeGraph] {
            let machine = Machine::dgx_a100();
            let cfg = PipelineConfig {
                batch_size: 128,
                fanouts: vec![10, 10],
                num_layers: 2,
                hidden: 64,
                ..PipelineConfig::tiny(fw, model)
            }
            .with_seed(7);
            let mut pipe = Pipeline::new(machine, Arc::clone(&dataset), cfg).unwrap();
            let out = Trainer::new(TrainerConfig {
                epochs: 5,
                eval_every: 0,
            })
            .run(&mut pipe);
            let mean_epoch = out.total_time / out.epochs.len() as f64;
            println!(
                "{:<12} {:<12} {:>8.1}% {:>8.1}% {:>14}",
                model.name(),
                fw.name(),
                out.val_accuracy * 100.0,
                out.test_accuracy * 100.0,
                format!("{mean_epoch}"),
            );
        }
        println!();
    }
    println!("Same seeds => same sampled sub-graphs => matching accuracy;");
    println!("the frameworks differ only in where sampling/gather run and");
    println!("which interconnect the features cross.");
}
