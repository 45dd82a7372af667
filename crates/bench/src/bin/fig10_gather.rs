//! Figure 10 — gathering-feature performance: NCCL-based (distributed
//! memory, 5 steps) vs ours (distributed *shared* memory, one kernel).
//!
//! For each dataset, real training-shaped gathers are executed both ways
//! (outputs verified identical) and the latency speedup plus BusBW of each
//! method are reported, as in the paper's combined bar/line chart.

use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_bench::{banner, bench_dataset, Table};
use wg_graph::{DatasetKind, MultiGpuGraph};
use wg_mem::gather::global_gather;
use wg_mem::nccl::nccl_gather;
use wg_sim::Machine;

fn main() {
    wg_bench::flags(&[]); // takes none: any argument is an error
    banner("Figure 10", "gathering features: NCCL-based vs ours");
    let mut t = Table::new(&[
        "dataset",
        "rows",
        "ours (ms)",
        "NCCL (ms)",
        "speedup",
        "ours BusBW",
        "NCCL BusBW",
    ]);
    for kind in DatasetKind::ALL {
        let dataset = bench_dataset(kind, 5);
        let machine = Machine::dgx_a100();
        let store = MultiGpuGraph::build(
            machine.cost(),
            machine.num_gpus(),
            &dataset.graph,
            &dataset.features,
            dataset.feature_dim,
            &machine.memory(),
        )
        .unwrap();
        // A training-shaped gather, sized into the bandwidth-dominated
        // regime the paper measures (its gathers move hundreds of MB; at
        // stand-in scale we draw ~1.6n random rows so fixed per-op
        // overheads stay negligible).
        let n = dataset.num_nodes();
        let mut rng = SmallRng::seed_from_u64(9);
        let rows: Vec<usize> = (0..(8 * n / 5))
            .map(|_| store.feature_row(rng.gen_range(0..n as u64)))
            .collect();
        let width = dataset.feature_dim;
        let spec = machine.spec(wg_sim::DeviceId::Gpu(0));
        let mut a = vec![0.0f32; rows.len() * width];
        let mut b = vec![0.0f32; rows.len() * width];
        let ours = global_gather(store.features(), &rows, &mut a, 0, machine.cost(), spec);
        let nccl = nccl_gather(store.features(), &rows, &mut b, 0, machine.cost(), spec);
        assert_eq!(a, b, "gather implementations disagree");
        t.row(&[
            kind.name().to_string(),
            rows.len().to_string(),
            format!("{:.3}", ours.sim_time.as_millis()),
            format!("{:.3}", nccl.total_time().as_millis()),
            format!("{:.2}x", nccl.total_time() / ours.sim_time),
            format!("{:.0} GB/s", ours.bus_bandwidth() / 1e9),
            format!("{:.0} GB/s", nccl.alltoallv_bus_bandwidth() / 1e9),
        ]);
    }
    t.print();
    println!("\nPaper shape: speedups above 2x on all datasets; both BusBW");
    println!("values close to the measured NVLink limit (~230 GB/s) — the");
    println!("NCCL AlltoAllV itself is fine, the other 4 steps are the cost.");
}
