//! Multi-node data-parallel integration (§III-D / Figure 13): the
//! executed cluster path (partitioned shards, halo exchange, gradient
//! sync) end to end, the legacy projection it replaced, and
//! gradient-averaging semantics.

use std::sync::Arc;

use wholegraph::multinode::{executed_sweep, projected_sweep};
use wholegraph::prelude::*;

fn pipeline() -> Pipeline {
    let dataset = Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnPapers100M,
        2000,
        31,
    ));
    let machine = Machine::dgx_a100();
    let mut cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage).with_seed(31);
    cfg.batch_size = 16;
    Pipeline::new(machine, dataset, cfg).unwrap()
}

#[test]
fn projected_sweep_matches_figure13_shape() {
    let mut pipe = pipeline();
    let pts = projected_sweep(&mut pipe, &[1, 2, 4, 8], 2);
    assert_eq!(pts.len(), 4);
    // Speedups grow with node count and 8-node efficiency is high.
    for w in pts.windows(2) {
        assert!(w[1].speedup > w[0].speedup);
    }
    let eff8 = pts[3].speedup / 8.0;
    assert!(eff8 > 0.55, "8-node efficiency {eff8:.2}");
    // 2-node efficiency should be nearly perfect (tiny gradients over fat
    // IB pipes).
    let eff2 = pts[1].speedup / 2.0;
    assert!(eff2 > 0.8, "2-node efficiency {eff2:.2}");
}

#[test]
fn gradient_averaging_equalizes_replicas() {
    // Two replicas with different local gradients end up identical after
    // the simulated AllReduce — the §III-D invariant ("each GPU has the
    // same GNN model parameters").
    use wg_autograd::Params;
    use wg_sim::CostModel;
    use wg_tensor::Matrix;
    use wholegraph::multinode::GradSync;
    let mut a = Params::new();
    let mut b = Params::new();
    let ia = a.add("w", Matrix::zeros(2, 2));
    let ib = b.add("w", Matrix::zeros(2, 2));
    a.accumulate_grad(ia, &Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
    b.accumulate_grad(ib, &Matrix::from_vec(2, 2, vec![3.0, 2.0, 1.0, 0.0]));
    let mut sync = GradSync::new(CostModel::dgx_a100(), 2);
    let wave = sync.sync_wave(&mut [&mut a, &mut b], &[0, 1]);
    assert!(wave.bytes > 0);
    assert_eq!(a.grad(ia).data(), b.grad(ib).data());
    assert_eq!(a.grad(ia).data(), &[2.0, 2.0, 2.0, 2.0]);
}

#[test]
fn more_real_iterations_refine_but_do_not_flip_the_sweep() {
    let mut pipe = pipeline();
    let one = projected_sweep(&mut pipe, &[1, 8], 1);
    let mut pipe = pipeline();
    let three = projected_sweep(&mut pipe, &[1, 8], 3);
    // Both sweeps agree that 8 nodes is much faster than 1.
    assert!(one[1].speedup > 3.0);
    assert!(three[1].speedup > 3.0);
}

fn cluster_dataset() -> Arc<SyntheticDataset> {
    Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnPapers100M,
        2000,
        31,
    ))
}

fn cluster_cfg() -> PipelineConfig {
    let mut cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage).with_seed(31);
    cfg.batch_size = 16;
    cfg
}

#[test]
fn executed_single_node_epoch_is_bit_identical_to_the_pipeline() {
    // The tentpole correctness bar: the full cluster machinery at N=1 —
    // partition plan, deferred steps, gradient sync, halo accounting,
    // barrier — collapses to exactly the single-pipeline epoch, bit for
    // bit, across several epochs.
    let mut mn = MultiNode::new(
        cluster_dataset(),
        cluster_cfg(),
        MultiNodeConfig::new(1).with_gpus(4),
    )
    .unwrap();
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let mut single = Pipeline::new(machine, cluster_dataset(), cluster_cfg()).unwrap();
    for epoch in 0..3 {
        let r = mn.train_epoch(epoch);
        let s = single.train_epoch(epoch);
        assert_eq!(r.loss.to_bits(), s.loss.to_bits(), "epoch {epoch}");
        assert_eq!(r.train_accuracy, s.train_accuracy);
        assert_eq!(r.epoch_time, s.epoch_time);
        assert_eq!(r.executed_iterations, s.executed_iterations);
        assert_eq!(r.sync_bytes, 0);
        assert_eq!(r.per_node[0].halo_bytes, 0);
    }
}

#[test]
fn executed_multi_node_loss_parity_and_comm_accounting() {
    // The loss-parity configuration DESIGN.md §9 documents: ogbn-products
    // stand-in, batch 32. N nodes take ~1/N optimizer steps per epoch
    // (each step averages N shard batches), so the epoch-mean loss lands
    // near — not on — the single-node figure; 15% relative holds at this
    // scale.
    let ds = || {
        Arc::new(SyntheticDataset::generate(
            DatasetKind::OgbnProducts,
            1500,
            5,
        ))
    };
    let cfg = || {
        let mut cfg =
            PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage).with_seed(11);
        cfg.batch_size = 32;
        cfg
    };
    let machine = Machine::new(MachineConfig::dgx_like(2));
    let mut single = Pipeline::new(machine, ds(), cfg()).unwrap();
    let s = single.train_epoch(0);
    for nodes in [2u32, 4] {
        let mut mn = MultiNode::new(ds(), cfg(), MultiNodeConfig::new(nodes).with_gpus(2)).unwrap();
        let r = mn.train_epoch(0);
        let rel = (r.loss - s.loss).abs() / s.loss.abs();
        assert!(rel < 0.15, "{nodes} nodes: loss {} vs {} ", r.loss, s.loss);
        // Every node paid inter-node gradient sync and halo traffic.
        assert!(r.sync_bytes > 0);
        assert!(r.sync_time > SimTime::ZERO);
        for n in &r.per_node {
            assert!(n.halo_bytes > 0, "node {} fetched no halo rows", n.node);
            let rep = n.report.expect("every shard is non-empty at this scale");
            assert!(rep.comm_time > SimTime::ZERO);
        }
        // The cluster epoch is the slowest node's epoch.
        let slowest = r
            .per_node
            .iter()
            .filter_map(|n| n.report.map(|rep| rep.epoch_time))
            .fold(SimTime::ZERO, SimTime::max);
        assert_eq!(r.epoch_time, slowest);
    }
}

#[test]
fn executed_sweep_beats_single_node_and_stays_sublinear() {
    let pts = executed_sweep(
        cluster_dataset(),
        cluster_cfg(),
        MultiNodeConfig::new(1).with_gpus(1),
        &[1, 2, 4],
    )
    .unwrap();
    assert!((pts[0].speedup - 1.0).abs() < 1e-9);
    for w in pts.windows(2) {
        assert!(w[1].epoch_time < w[0].epoch_time);
    }
    // Real execution pays halo + sync, so speedup is genuinely sublinear
    // (the projection's near-linear curve was the assumption, not the
    // measurement).
    for p in &pts[1..] {
        assert!(p.speedup > 1.0);
        assert!(p.speedup < p.nodes as f64);
    }
}

#[test]
fn per_node_attribution_covers_metrics_and_the_cluster_trace() {
    // The global `pipeline.gather.feature_bytes` /
    // `pipeline.allreduce.bytes` / `mem.halo.*` counters sum over all
    // replicas; the per-node halo traffic lives in `NodeEpochReport`.
    // (The registry is process-global and the enable flags affect the
    // whole process, so the metric and trace halves share one test and
    // assert presence and cross-series consistency rather than exact
    // totals.)
    wg_trace::enable_all();
    let mut mn = MultiNode::new(
        cluster_dataset(),
        cluster_cfg(),
        MultiNodeConfig::new(2).with_gpus(2),
    )
    .unwrap();
    let r = mn.train_epoch(0);
    wg_trace::disable_all();
    let snap = wg_trace::metrics::snapshot();
    let counter = |name: &str| -> f64 {
        snap.counters
            .iter()
            .find(|(n, _)| n.as_str() == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert_eq!(r.per_node.len(), 2);
    for n in &r.per_node {
        assert!(n.halo_bytes > 0, "node {} fetched no halo bytes", n.node);
    }
    // The global halo counter covers every node's reported traffic (other
    // tests in this process may add to it, never take from it).
    let halo = counter("mem.halo.bytes");
    let report_halo: u64 = r.per_node.iter().map(|n| n.halo_bytes).sum();
    assert!(
        halo >= report_halo as f64,
        "mem.halo.bytes {halo} < the reports' sum {report_halo}"
    );
    assert!(counter("pipeline.gather.feature_bytes") > 0.0);
    assert!(counter("pipeline.allreduce.bytes") > 0.0);

    // Trace half: the merged cluster export gives every node one Chrome
    // process holding its one simulated track (the node's GPUs run in
    // lockstep), with per-phase spans for comm and compute.
    let machines = mn.machines();
    let json = wholegraph::observability::cluster_chrome_trace_json(&machines);
    for k in 0..2 {
        assert!(
            json.contains(&format!("node{k} (sim time)")),
            "node {k} missing its Chrome process"
        );
    }
    assert_eq!(
        json.matches(" (sim time)").count(),
        2,
        "one process per node"
    );
    assert_eq!(json.matches("\"2 GPUs\"").count(), 2, "one track per node");
    // Per-phase spans for comm and compute are present in the merged
    // trace (the occupancy evidence the sweep points summarize).
    assert!(json.contains("\"training\""));
    assert!(json.contains("\"comm\""));
    assert!(json.contains("\"sampling\""));
}
