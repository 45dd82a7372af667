//! Extension sweep — how the WholeGraph-vs-DGL gap moves with the
//! sampling hyperparameters the paper holds fixed (batch 512, fanout 30).
//!
//! Larger fanouts multiply the sampled-edge count (CPU sampling pain) and
//! the gathered-feature volume (PCIe pain), so the host pipelines fall
//! further behind as mini-batches grow — the trend that motivates doing
//! both on the GPU in the first place.

use wg_bench::{banner, bench_dataset, secs, Table};
use wg_graph::DatasetKind;
use wholegraph::prelude::*;

fn main() {
    wg_bench::flags(&[]); // takes none: any argument is an error
    banner(
        "Sweep",
        "epoch time vs fanout and batch size (GraphSage, papers stand-in)",
    );
    let dataset = bench_dataset(DatasetKind::OgbnPapers100M, 61);

    println!("\n--- fanout sweep (batch 512, 3 layers) ---");
    let mut t = Table::new(&[
        "fanout",
        "edges/iter",
        "DGL (s)",
        "WholeGraph (s)",
        "speedup",
    ]);
    for fanout in [5usize, 10, 20, 30] {
        let mut row: Vec<String> = vec![fanout.to_string()];
        let mut edges = 0u64;
        let mut times = Vec::new();
        for fw in [Framework::Dgl, Framework::WholeGraph] {
            let machine = Machine::dgx_a100();
            let cfg = PipelineConfig {
                hidden: 256,
                num_layers: 3,
                heads: 4,
                fanouts: vec![fanout; 3],
                batch_size: 512,
                dropout: 0.5,
                lr: 3e-3,
                ..PipelineConfig::tiny(fw, ModelKind::GraphSage)
            }
            .with_seed(61);
            let mut pipe = Pipeline::new(machine, dataset.clone(), cfg).unwrap();
            let batches = pipe.epoch_batches(0);
            let it = pipe.run_iteration(0, 0, &batches[0], true);
            edges = it.sample_stats.edges_sampled;
            let r = pipe.measure_epoch(0, 1);
            times.push(r.epoch_time);
        }
        row.push(edges.to_string());
        row.push(secs(times[0]));
        row.push(secs(times[1]));
        row.push(format!("{:.1}x", times[0] / times[1]));
        t.row(&row);
    }
    t.print();

    println!("\n--- batch-size sweep (fanout 15, 3 layers) ---");
    let mut t = Table::new(&["batch", "DGL (s)", "WholeGraph (s)", "speedup"]);
    for batch in [64usize, 256, 1024] {
        let mut times = Vec::new();
        for fw in [Framework::Dgl, Framework::WholeGraph] {
            let machine = Machine::dgx_a100();
            let cfg = PipelineConfig {
                hidden: 256,
                num_layers: 3,
                heads: 4,
                fanouts: vec![15; 3],
                batch_size: batch,
                dropout: 0.5,
                lr: 3e-3,
                ..PipelineConfig::tiny(fw, ModelKind::GraphSage)
            }
            .with_seed(61);
            let mut pipe = Pipeline::new(machine, dataset.clone(), cfg).unwrap();
            let r = pipe.measure_epoch(0, 1);
            times.push(r.epoch_time);
        }
        t.row(&[
            batch.to_string(),
            secs(times[0]),
            secs(times[1]),
            format!("{:.1}x", times[0] / times[1]),
        ]);
    }
    t.print();
    println!("\nTrend: the host pipeline's deficit grows with sampled volume;");
    println!("WholeGraph's epoch time is dominated by (GPU) training compute");
    println!("at every setting.");
}
