//! Figure 11 — epoch breakdown with third-party layer implementations on
//! top of WholeGraph's sampling and gather: WholeGraph+PyG vs
//! WholeGraph+DGL vs WholeGraph native layers.

use wg_bench::{banner, bench_dataset, bench_pipeline_config, secs, Table};
use wg_graph::DatasetKind;
use wholegraph::prelude::*;

fn main() {
    wg_bench::flags(&[]); // takes none: any argument is an error
    banner(
        "Figure 11",
        "layer providers on top of WholeGraph sampling/gather",
    );
    for kind in [DatasetKind::OgbnProducts, DatasetKind::OgbnPapers100M] {
        let dataset = bench_dataset(kind, 13);
        println!("\n--- {} ---", kind.name());
        let mut t = Table::new(&[
            "model",
            "layers",
            "sampling (s)",
            "gather (s)",
            "training (s)",
            "total (s)",
            "native speedup",
        ]);
        for model in ModelKind::ALL {
            let mut native_total = None;
            let mut rows = Vec::new();
            for provider in [
                LayerProvider::PygLayers,
                LayerProvider::DglLayers,
                LayerProvider::WholeGraphNative,
            ] {
                let machine = Machine::dgx_a100();
                let cfg = bench_pipeline_config(Framework::WholeGraph, model)
                    .with_seed(13)
                    .with_provider(provider);
                let mut pipe = Pipeline::new(machine, dataset.clone(), cfg).unwrap();
                let r = pipe.measure_epoch(0, 1);
                if provider == LayerProvider::WholeGraphNative {
                    native_total = Some(r.epoch_time);
                }
                rows.push((provider, r));
            }
            let native = native_total.unwrap();
            for (provider, r) in rows {
                t.row(&[
                    model.name().to_string(),
                    provider.name().to_string(),
                    secs(r.sample_time),
                    secs(r.gather_time),
                    secs(r.train_time + r.comm_time),
                    secs(r.epoch_time),
                    format!("{:.2}x", r.epoch_time / native),
                ]);
            }
        }
        t.print();
    }
    println!("\nPaper shape: WholeGraph's sampling+gather eliminate the input");
    println!("bottleneck for every provider (GPU utilization ~95% even with");
    println!("PyG/DGL layers); native layers win up to ~1.31x over +DGL and");
    println!("~2.43x over +PyG end-to-end.");
}
