//! Table V — average epoch time and speedups of PyG, DGL and WholeGraph
//! for GCN / GraphSage / GAT on all four datasets.
//!
//! For every (dataset, model, framework) combination, one iteration is
//! executed for real on the scaled stand-in and the epoch is extrapolated
//! wave-by-wave (iterations are statistically identical). The paper's
//! speedup columns are printed alongside for comparison.

use wg_bench::{banner, bench_dataset, bench_pipeline_config, secs, speedup, Table};
use wg_graph::DatasetKind;
use wholegraph::prelude::*;

/// Paper Table V speedups (ours-vs-PyG, ours-vs-DGL) per (dataset, model).
fn paper_speedups(kind: DatasetKind, model: ModelKind) -> (f64, f64) {
    use DatasetKind::*;
    use ModelKind::*;
    match (kind, model) {
        (OgbnProducts, Gcn) => (242.98, 28.01),
        (OgbnProducts, GraphSage) => (231.27, 31.11),
        (OgbnProducts, Gat) => (75.25, 8.91),
        (OgbnPapers100M, Gcn) => (62.91, 38.65),
        (OgbnPapers100M, GraphSage) => (52.48, 45.61),
        (OgbnPapers100M, Gat) => (16.69, 11.12),
        (Friendster, Gcn) => (102.79, 57.16),
        (Friendster, GraphSage) => (89.57, 57.32),
        (Friendster, Gat) => (22.43, 12.05),
        (UkDomain, Gcn) => (44.26, 27.83),
        (UkDomain, GraphSage) => (42.35, 14.17),
        (UkDomain, Gat) => (14.17, 7.84),
    }
}

fn main() {
    wg_bench::flags(&[]); // takes none: any argument is an error
    banner(
        "Table V",
        "average epoch time and speedups (3 models x 4 datasets)",
    );
    let mut t = Table::new(&[
        "dataset",
        "model",
        "PyG (s)",
        "DGL (s)",
        "Ours (s)",
        "vs PyG",
        "vs DGL",
        "paper vsPyG",
        "paper vsDGL",
    ]);
    let mut min_pyg = f64::INFINITY;
    let mut max_pyg = 0.0f64;
    let mut min_dgl = f64::INFINITY;
    let mut max_dgl = 0.0f64;

    for kind in DatasetKind::ALL {
        let dataset = bench_dataset(kind, 77);
        for model in ModelKind::ALL {
            let mut times = Vec::new();
            for fw in [Framework::Pyg, Framework::Dgl, Framework::WholeGraph] {
                let machine = Machine::dgx_a100();
                let cfg = bench_pipeline_config(fw, model).with_seed(77);
                let mut pipe = Pipeline::new(machine, dataset.clone(), cfg)
                    .expect("stand-in fits in simulated GPU memory");
                let r = pipe.measure_epoch(0, 1);
                times.push(r.epoch_time);
            }
            let (pyg, dgl, ours) = (times[0], times[1], times[2]);
            let s_pyg = pyg / ours;
            let s_dgl = dgl / ours;
            min_pyg = min_pyg.min(s_pyg);
            max_pyg = max_pyg.max(s_pyg);
            min_dgl = min_dgl.min(s_dgl);
            max_dgl = max_dgl.max(s_dgl);
            let (pp, pd) = paper_speedups(kind, model);
            t.row(&[
                kind.name().to_string(),
                model.name().to_string(),
                secs(pyg),
                secs(dgl),
                secs(ours),
                speedup(s_pyg),
                speedup(s_dgl),
                speedup(pp),
                speedup(pd),
            ]);
        }
    }
    t.print();
    println!("\nmeasured speedup ranges: vs PyG {min_pyg:.1}x..{max_pyg:.1}x, vs DGL {min_dgl:.1}x..{max_dgl:.1}x");
    println!("paper ranges:            vs PyG 14.2x..243.0x,  vs DGL 7.8x..57.3x");
    println!("Shape checks: WholeGraph always fastest; GAT speedups smallest");
    println!("(compute-heavier training dilutes the input-pipeline win).");
}
