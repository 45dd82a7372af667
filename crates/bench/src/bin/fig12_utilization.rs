//! Figure 12 — GPU utilization over time during training on the
//! ogbn-papers100M stand-in, for PyG, DGL and WholeGraph.
//!
//! Prints an ASCII utilization strip per framework (one char per time
//! bin: '#' ≥ 90%, '+' ≥ 50%, '.' ≥ 10%, ' ' below) plus the aggregate
//! ratio.

use wg_bench::{banner, bench_dataset, bench_pipeline_config, overlap_mode};
use wg_graph::DatasetKind;
use wholegraph::prelude::*;

fn main() {
    let exec = overlap_mode();
    banner("Figure 12", "GPU utilization over time (GPU0 of 8)");
    println!(
        "executor: {} (pass --overlap for the pipelined schedule)",
        exec.name()
    );
    let dataset = bench_dataset(DatasetKind::OgbnPapers100M, 17);
    for fw in [Framework::Pyg, Framework::Dgl, Framework::WholeGraph] {
        let machine = Machine::dgx_a100();
        let cfg = bench_pipeline_config(fw, ModelKind::GraphSage)
            .with_seed(17)
            .with_exec(exec);
        let mut pipe = Pipeline::new(machine, dataset.clone(), cfg).unwrap();
        // A few measured epochs populate the trace wave-by-wave so the
        // strip shows the periodic idle/busy pattern.
        let mut r = pipe.measure_epoch(0, 1);
        for e in 1..4 {
            r = pipe.measure_epoch(e, 1);
        }
        let end = pipe.machine().now();
        let trace = pipe.machine().trace();
        let series = trace.utilization_series(72);
        let strip: String = series
            .iter()
            .map(|(_, u)| match u {
                u if *u >= 0.9 => '#',
                u if *u >= 0.5 => '+',
                u if *u >= 0.1 => '.',
                _ => ' ',
            })
            .collect();
        let overall = trace.utilization(SimTime::ZERO, end);
        println!(
            "\n{:<11} overall {:>5.1}%  (epoch {})",
            fw.name(),
            overall * 100.0,
            r.epoch_time
        );
        println!("  |{strip}|");
    }
    println!("\nPaper shape: PyG/DGL utilization fluctuates and repeatedly");
    println!("drops to zero while the CPU prepares data; WholeGraph sustains");
    println!(">=95% because sampling and gathering also run on the GPUs.");
}
