//! Table III — validation/test accuracy of PyG, DGL and WholeGraph on the
//! two learnable stand-ins, for all three models.
//!
//! All frameworks share seeds, so they sample the same sub-graphs and
//! compute the same training — the accuracy columns must (and do) agree,
//! which is the point of the paper's table.

use wg_bench::{banner, Table};
use wg_graph::DatasetKind;
use wholegraph::prelude::*;

/// Epochs each cell trains (EXPERIMENTS.md's table was produced at 10).
const EPOCHS: u64 = 10;

fn main() {
    banner("Table III", "validation and test accuracy parity");
    println!("training {EPOCHS} epochs per cell\n");

    let mut t = Table::new(&[
        "dataset",
        "model",
        "framework",
        "valid",
        "test",
        "paper valid",
        "paper test",
    ]);
    // Paper Table III values for reference.
    let paper = |kind: DatasetKind, model: ModelKind, fw: Framework| -> (f64, f64) {
        use DatasetKind::*;
        use Framework::*;
        use ModelKind::*;
        match (kind, model, fw) {
            (OgbnProducts, Gcn, Dgl) => (91.09, 78.02),
            (OgbnProducts, Gcn, Pyg) => (91.41, 76.86),
            (OgbnProducts, Gcn, WholeGraph) => (91.51, 78.46),
            (OgbnProducts, GraphSage, Dgl) => (91.30, 77.73),
            (OgbnProducts, GraphSage, Pyg) => (92.33, 78.29),
            (OgbnProducts, GraphSage, WholeGraph) => (92.02, 78.25),
            (OgbnProducts, Gat, Dgl) => (89.97, 77.55),
            (OgbnProducts, Gat, Pyg) => (90.77, 78.72),
            (OgbnProducts, Gat, WholeGraph) => (90.58, 78.16),
            (OgbnPapers100M, Gcn, Dgl) => (66.17, 63.73),
            (OgbnPapers100M, Gcn, Pyg) => (65.55, 63.19),
            (OgbnPapers100M, Gcn, WholeGraph) => (65.98, 63.41),
            (OgbnPapers100M, GraphSage, Dgl) => (68.28, 65.25),
            (OgbnPapers100M, GraphSage, Pyg) => (68.28, 65.16),
            (OgbnPapers100M, GraphSage, WholeGraph) => (68.14, 64.94),
            (OgbnPapers100M, Gat, Dgl) => (67.79, 64.71),
            (OgbnPapers100M, Gat, Pyg) => (68.33, 65.10),
            (OgbnPapers100M, Gat, WholeGraph) => (68.21, 65.21),
            _ => (f64::NAN, f64::NAN),
        }
    };

    for (kind, scale) in [
        (DatasetKind::OgbnProducts, 600),
        (DatasetKind::OgbnPapers100M, 20_000),
    ] {
        let dataset = wg_bench::hard_accuracy_dataset(kind, scale, 55);
        for model in ModelKind::ALL {
            for fw in [Framework::Dgl, Framework::Pyg, Framework::WholeGraph] {
                let machine = Machine::dgx_a100();
                let cfg = PipelineConfig {
                    hidden: 96,
                    num_layers: 2,
                    heads: 4,
                    fanouts: vec![15, 15],
                    batch_size: 256,
                    dropout: 0.2,
                    lr: 5e-3,
                    ..PipelineConfig::tiny(fw, model)
                }
                .with_seed(55);
                let mut pipe = Pipeline::new(machine, dataset.clone(), cfg).unwrap();
                let out = Trainer::new(TrainerConfig {
                    epochs: EPOCHS,
                    eval_every: 0,
                    patience: None,
                })
                .run(&mut pipe);
                let (pv, pt) = paper(kind, model, fw);
                t.row(&[
                    kind.name().to_string(),
                    model.name().to_string(),
                    fw.name().to_string(),
                    format!("{:.2}%", out.val_accuracy * 100.0),
                    format!("{:.2}%", out.test_accuracy * 100.0),
                    format!("{pv:.2}%"),
                    format!("{pt:.2}%"),
                ]);
            }
        }
    }
    t.print();
    println!("\nShape check: within each (dataset, model) group the three");
    println!("frameworks agree to within a couple of points, as in the paper.");
    println!("Absolute values reflect the SBM stand-in's difficulty, not OGB's.");
}
