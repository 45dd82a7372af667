//! Figure 7 — validation accuracy of DGL and WholeGraph, epoch by epoch,
//! for GraphSage on the ogbn-products stand-in.

use wg_bench::{banner, hard_accuracy_dataset, Table};
use wg_graph::DatasetKind;
use wholegraph::prelude::*;

/// Epochs per curve (EXPERIMENTS.md's figure was produced at 10).
const EPOCHS: u64 = 10;

fn main() {
    wg_bench::flags(&[]); // takes none: any argument is an error
    banner(
        "Figure 7",
        "validation accuracy per epoch: DGL vs WholeGraph",
    );
    let dataset = hard_accuracy_dataset(DatasetKind::OgbnProducts, 600, 19);

    let mut curves = Vec::new();
    for fw in [Framework::Dgl, Framework::WholeGraph] {
        let machine = Machine::dgx_a100();
        let cfg = PipelineConfig {
            hidden: 96,
            num_layers: 2,
            fanouts: vec![15, 15],
            batch_size: 256,
            dropout: 0.2,
            lr: 5e-3,
            ..PipelineConfig::tiny(fw, ModelKind::GraphSage)
        }
        .with_seed(19);
        let mut pipe = Pipeline::new(machine, dataset.clone(), cfg).unwrap();
        let out = Trainer::new(TrainerConfig {
            epochs: EPOCHS,
            eval_every: 1,
        })
        .run(&mut pipe);
        curves.push((fw, out.val_curve));
    }

    let mut t = Table::new(&["epoch", "DGL val-acc", "WholeGraph val-acc", "delta"]);
    for i in 0..curves[0].1.len() {
        let (e, dgl) = curves[0].1[i];
        let (_, wg) = curves[1].1[i];
        t.row(&[
            e.to_string(),
            format!("{:.2}%", dgl * 100.0),
            format!("{:.2}%", wg * 100.0),
            format!("{:+.2}pp", (wg - dgl) * 100.0),
        ]);
    }
    t.print();
    println!("\nPaper shape: the two curves coincide epoch by epoch — both");
    println!("frameworks train the same model on the same sampled sub-graphs.");
}
