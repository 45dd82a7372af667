//! Figure 9 — epoch time breakdown (sampling / gathering / training) of
//! PyG, DGL and WholeGraph on ogbn-products and ogbn-papers100M for all
//! three models.

use wg_bench::{banner, bench_dataset, bench_pipeline_config, secs, Table};
use wg_graph::DatasetKind;
use wholegraph::prelude::*;

fn main() {
    wg_bench::flags(&[]); // takes none: any argument is an error
    banner("Figure 9", "epoch time breakdown per framework");
    for kind in [DatasetKind::OgbnProducts, DatasetKind::OgbnPapers100M] {
        let dataset = bench_dataset(kind, 31);
        println!("\n--- {} ---", kind.name());
        let mut t = Table::new(&[
            "framework",
            "model",
            "sampling (s)",
            "gather (s)",
            "training (s)",
            "total (s)",
            "input share",
        ]);
        for fw in [Framework::Pyg, Framework::Dgl, Framework::WholeGraph] {
            for model in ModelKind::ALL {
                let machine = Machine::dgx_a100();
                let cfg = bench_pipeline_config(fw, model).with_seed(31);
                let mut pipe = Pipeline::new(machine, dataset.clone(), cfg).unwrap();
                let r = pipe.measure_epoch(0, 1);
                let input = (r.sample_time + r.gather_time) / r.epoch_time;
                t.row(&[
                    fw.name().to_string(),
                    model.name().to_string(),
                    secs(r.sample_time),
                    secs(r.gather_time),
                    secs(r.train_time + r.comm_time),
                    secs(r.epoch_time),
                    format!("{:.0}%", input * 100.0),
                ]);
            }
        }
        t.print();
    }
    println!("\nPaper shape: for PyG/DGL the sampling+gathering slices dominate");
    println!("(training is 'hardly seen'); for WholeGraph the input phases are");
    println!("much smaller than training.");
}
