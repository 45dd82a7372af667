//! Table II — the evaluation datasets and our scaled stand-ins.

use wg_bench::{banner, bench_dataset, bench_scale, Table};
use wg_graph::DatasetKind;

fn main() {
    wg_bench::flags(&[]); // takes none: any argument is an error
    banner("Table II", "graph datasets used in evaluating WholeGraph");
    let mut t = Table::new(&[
        "graph",
        "paper nodes",
        "paper edges",
        "feat",
        "scale",
        "standin nodes",
        "standin edges",
        "avg deg",
    ]);
    for kind in DatasetKind::ALL {
        let (n, e, f) = kind.paper_stats();
        let d = bench_dataset(kind, 1);
        t.row(&[
            kind.name().to_string(),
            format!("{:.1}M", n as f64 / 1e6),
            format!(
                "{:.1}{}",
                if e >= 1_000_000_000 {
                    e as f64 / 1e9
                } else {
                    e as f64 / 1e6
                },
                if e >= 1_000_000_000 { "B" } else { "M" }
            ),
            f.to_string(),
            format!("1/{}", bench_scale(kind)),
            d.num_nodes().to_string(),
            d.num_edges().to_string(),
            format!("{:.1}", d.graph.avg_degree()),
        ]);
    }
    t.print();
    println!("\nStand-ins preserve average degree and feature width (the");
    println!("quantities per-batch data volumes depend on); ogbn graphs use");
    println!("learnable SBM structure, KONECT graphs use R-MAT power laws");
    println!("with random features, exactly as the paper randomizes them.");
}
