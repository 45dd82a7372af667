//! Figure 13 — multi-node scalability of WholeGraph on the three large
//! datasets for GCN, GraphSage and GAT, 1 → 8 nodes.

use wg_bench::{banner, bench_dataset, bench_pipeline_config, Table};
use wg_graph::DatasetKind;
use wholegraph::multinode::projected_sweep;
use wholegraph::prelude::*;

fn main() {
    wg_bench::flags(&[]); // takes none: any argument is an error
    banner("Figure 13", "multi-node scaling on three large datasets");
    let mut t = Table::new(&[
        "dataset",
        "model",
        "1 node",
        "2 nodes",
        "4 nodes",
        "8 nodes",
        "8-node eff.",
    ]);
    for kind in [
        DatasetKind::OgbnPapers100M,
        DatasetKind::Friendster,
        DatasetKind::UkDomain,
    ] {
        let dataset = bench_dataset(kind, 23);
        for model in ModelKind::ALL {
            let machine = Machine::dgx_a100();
            let mut cfg = bench_pipeline_config(Framework::WholeGraph, model).with_seed(23);
            // Keep ~500 iterations per epoch so the stand-in has enough
            // waves to distribute across 64 ranks without quantization
            // (the paper's full-size datasets have 1000+ iterations; the
            // KONECT stand-ins have ~1% labels, hence few batches).
            cfg.batch_size = (dataset.train.len() / 500).max(2);
            let mut pipe = Pipeline::new(machine, dataset.clone(), cfg).unwrap();
            let pts = projected_sweep(&mut pipe, &[1, 2, 4, 8], 1);
            t.row(&[
                kind.name().to_string(),
                model.name().to_string(),
                format!("{:.2}x", pts[0].speedup),
                format!("{:.2}x", pts[1].speedup),
                format!("{:.2}x", pts[2].speedup),
                format!("{:.2}x", pts[3].speedup),
                format!("{:.0}%", pts[3].speedup / 8.0 * 100.0),
            ]);
        }
    }
    t.print();
    println!("\nPaper shape: close-to-linear speedups up to 8 nodes — each");
    println!("node keeps a full graph replica, so only the gradient AllReduce");
    println!("crosses InfiniBand. (The paper's own headline: 80 GraphSage");
    println!("epochs on ogbn-papers100M in 66 s on 8 DGX-A100s.)");
}
