//! Executed multi-node sweep — the evidence behind the §III-D scaling
//! claim, measured instead of projected. Builds a real [`MultiNode`]
//! cluster per node count (1 → 64), trains one epoch of GraphSage on the
//! ogbn-products stand-in, and writes `BENCH_multinode.json` with the
//! measured epoch times, speedups, gradient-sync traffic, and the N=1
//! equivalence checksum (the executed single-node epoch must be
//! bit-identical to a plain [`Pipeline::train_epoch`]). The sweep gates
//! itself — measure, [`gate`], write — so a `BENCH_multinode.json` on
//! disk is one that passed: N=1 equivalence, gradient-sync traffic
//! exactly when N > 1, and a genuine end-to-end speedup at the largest
//! node count.
//!
//! `--trace <out.json>` additionally records a 4-node cluster epoch with
//! span tracing on and writes the merged Chrome trace (one process per
//! node) — the per-phase comm/compute occupancy evidence.
//!
//! One GPU per node isolates node-count scaling from intra-node wave
//! quantization: the single-node epoch has ~30 waves, so each doubling
//! of nodes genuinely halves the critical path until the inter-node
//! AllReduce overhead bites at high node counts.

use std::sync::Arc;

use wg_bench::{banner, flags, fnv1a, Table};
use wg_graph::{DatasetKind, SyntheticDataset};
use wholegraph::multinode::{executed_sweep, ExecutedPoint, MultiNode};
use wholegraph::prelude::*;

const NODE_COUNTS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The N=1 equivalence witness: loss, accuracy and epoch-time bits.
fn epoch_checksum(loss: f32, accuracy: f64, epoch_time: SimTime) -> u64 {
    fnv1a([
        loss.to_bits() as u64,
        accuracy.to_bits(),
        epoch_time.as_secs().to_bits(),
    ])
}

fn dataset() -> Arc<SyntheticDataset> {
    Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnProducts,
        400,
        7,
    ))
}

/// The swept pipeline config, for both the single-pipeline witness and
/// every cluster replica; no cache, no disk tier (N=1 equivalence under
/// every tier combination is `crates/serve/tests/config_space.rs`).
fn pipe_cfg() -> PipelineConfig {
    let mut cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage).with_seed(7);
    cfg.batch_size = 16;
    cfg
}

fn point_json(p: &ExecutedPoint) -> String {
    let r = &p.report;
    // Critical-path comm and occupancy come from the slowest node's
    // report (the one that sets the cluster epoch time).
    let slowest = r
        .per_node
        .iter()
        .filter_map(|n| n.report)
        .max_by(|a, b| a.epoch_time.as_secs().total_cmp(&b.epoch_time.as_secs()))
        .expect("sweep points train at least one node");
    format!(
        "    {{\"nodes\": {}, \"epoch_time_s\": {:.9}, \"speedup\": {:.4}, \
         \"efficiency\": {:.4}, \"loss\": {:.6}, \"train_accuracy\": {:.6}, \
         \"iterations\": {}, \"waves\": {}, \"comm_s\": {:.9}, \"occupancy\": {:.4}, \
         \"sync_bytes\": {}, \"sync_time_s\": {:.9}}}",
        p.nodes,
        p.epoch_time.as_secs(),
        p.speedup,
        p.efficiency,
        r.loss,
        r.train_accuracy,
        r.executed_iterations,
        r.waves,
        slowest.comm_time.as_secs(),
        slowest.occupancy.utilization(),
        r.sync_bytes,
        r.sync_time.as_secs(),
    )
}

/// Every invariant the artifact claims, on the typed points, before it
/// is written (`points` in [`NODE_COUNTS`] order, N=1 first).
fn gate(n1_sum: u64, single_sum: u64, points: &[ExecutedPoint]) {
    assert!(
        n1_sum == single_sum,
        "executed N=1 diverged from the single pipeline: {n1_sum:016x} != {single_sum:016x}"
    );
    for p in points {
        let (n, sync) = (p.nodes, p.report.sync_bytes);
        assert!(
            p.epoch_time > SimTime::ZERO,
            "non-positive epoch time at {n} nodes"
        );
        // Gradients are the only inter-node traffic: none on one node,
        // some on more than one.
        assert_eq!(sync > 0, n > 1, "{sync} sync bytes at {n} nodes");
    }
    let (first, last) = (&points[0], &points[points.len() - 1]);
    assert_eq!(first.nodes, 1, "sweep must start at 1 node");
    assert!(
        (first.speedup - 1.0).abs() <= 1e-9,
        "first point's speedup is not 1.0"
    );
    assert!(
        last.epoch_time < first.epoch_time,
        "no end-to-end speedup: {} at max nodes vs {} at 1",
        last.epoch_time,
        first.epoch_time
    );
}

fn main() {
    let flags = flags(&["--trace"]);
    banner(
        "multi-node sweep",
        "executed data-parallel scaling, 1 -> 64 nodes",
    );

    let ds = dataset();
    println!(
        "dataset: ogbn-products stand-in at 1/400 — {} nodes, {} train; batch 16, 1 GPU/node\n",
        ds.num_nodes(),
        ds.train.len()
    );

    // The N=1 equivalence witness: a plain single pipeline runs the same
    // epoch; the executed cluster at N=1 must reproduce its numbers bit
    // for bit.
    let machine = Machine::new(MachineConfig::dgx_like(1));
    let mut single = Pipeline::new(machine, Arc::clone(&ds), pipe_cfg()).expect("single pipeline");
    let s = single.train_epoch(0);
    let single_sum = epoch_checksum(s.loss, s.train_accuracy, s.epoch_time);

    let points = executed_sweep(
        Arc::clone(&ds),
        pipe_cfg(),
        MultiNodeConfig::new(1).with_gpus(1),
        &NODE_COUNTS,
    )
    .expect("sweep");

    let n1 = &points[0].report;
    let n1_sum = epoch_checksum(n1.loss, n1.train_accuracy, n1.epoch_time);
    let bit_identical = n1_sum == single_sum;

    let mut t = Table::new(&["nodes", "epoch", "speedup", "efficiency", "loss", "sync KB"]);
    for p in &points {
        t.row(&[
            p.nodes.to_string(),
            format!("{}", p.epoch_time),
            format!("{:.2}x", p.speedup),
            format!("{:.0}%", p.efficiency * 100.0),
            format!("{:.4}", p.report.loss),
            format!("{:.1}", p.report.sync_bytes as f64 / 1e3),
        ]);
    }
    t.print();

    gate(n1_sum, single_sum, &points);
    println!("\ngate: OK (N=1 equivalence: executed == single pipeline ({n1_sum:016x}))");

    if let Some(path) = flags.get("trace") {
        // A 4-node traced epoch: one Chrome process per node, per-phase
        // busy/idle spans per GPU.
        wg_trace::enable_all();
        let mut mn = MultiNode::new(
            Arc::clone(&ds),
            pipe_cfg(),
            MultiNodeConfig::new(4).with_gpus(1),
        )
        .expect("traced cluster");
        mn.train_epoch(0);
        wg_trace::disable_all();
        let machines = mn.machines();
        wholegraph::observability::write_cluster_chrome_trace(path, &machines)
            .expect("write cluster trace");
        println!("cluster chrome trace written to {path} (one process per node)");
    }

    let points_json: Vec<String> = points.iter().map(point_json).collect();
    let json = format!(
        "{{\n  \"schema\": \"wg-multinode-sweep-v2\",\n  \"dataset\": \"ogbn-products\",\n  \
         \"scale\": 400,\n  \"seed\": 7,\n  \"batch_size\": 16,\n  \"gpus_per_node\": 1,\n  \
         \"n1\": {{\"bit_identical\": {bit_identical}, \"checksum\": \"{n1_sum:016x}\", \
         \"single_checksum\": \"{single_sum:016x}\"}},\n  \"points\": [\n{}\n  ]\n}}\n",
        points_json.join(",\n")
    );
    std::fs::write("BENCH_multinode.json", &json).expect("write BENCH_multinode.json");
    println!("Wrote BENCH_multinode.json");
}
