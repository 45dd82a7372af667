//! Node-count sweeps: the executed multi-node sweep (Figure 13, run for
//! real through [`MultiNode`]) and the legacy mean-based projection it
//! replaced as the headline path.
//!
//! [`projected_sweep`] divides the per-epoch iteration count across
//! `nodes × gpus` ranks while the per-iteration time is unchanged; only
//! the AllReduce grows an inter-node (InfiniBand) term. With
//! per-iteration work in the tens of milliseconds and gradients of a few
//! MB over 200 GB/s of node IB bandwidth, projected speedup stays near
//! linear — the Figure 13 shape. [`executed_sweep`] builds a real
//! [`MultiNode`] cluster per point and trains an epoch, so partition
//! imbalance, halo traffic, and gradient-sync time all show up in the
//! measured epoch time instead of being assumed away.

use wg_sim::collective::allreduce_multi_node;
use wg_sim::SimTime;

use crate::multinode::exec::{MultiNode, MultiNodeConfig, MultiNodeEpochReport};
use crate::pipeline::{IterTimes, Pipeline, PipelineConfig};
use std::sync::Arc;
use wg_graph::SyntheticDataset;
use wg_sim::memory::OutOfMemory;

/// One point of the projected scaling sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    /// Machine nodes used.
    pub nodes: u32,
    /// Simulated epoch time.
    pub epoch_time: SimTime,
    /// Speedup relative to one node.
    pub speedup: f64,
}

/// One point of the executed scaling sweep.
#[derive(Clone, Debug)]
pub struct ExecutedPoint {
    /// Machine nodes used.
    pub nodes: u32,
    /// Measured cluster epoch time (slowest node sets it).
    pub epoch_time: SimTime,
    /// Speedup relative to the first point.
    pub speedup: f64,
    /// Parallel efficiency: speedup over the node-count ratio.
    pub efficiency: f64,
    /// The full cluster epoch report.
    pub report: MultiNodeEpochReport,
    /// Fraction of edges the machine-level partition cuts.
    pub cut_fraction: f64,
}

/// Measure per-iteration times on `pipe` (executing `real_iters`
/// iterations) and project the epoch time across `node_counts` machine
/// nodes. Kept as the cheap estimator; [`executed_sweep`] actually runs
/// the cluster.
pub fn projected_sweep(
    pipe: &mut Pipeline,
    node_counts: &[u32],
    real_iters: usize,
) -> Vec<ScalingPoint> {
    assert!(!node_counts.is_empty());
    let batches = pipe.epoch_batches(0);
    let n = real_iters.clamp(1, batches.len());
    let mut times: Vec<IterTimes> = Vec::with_capacity(n);
    for (i, batch) in batches.iter().take(n).enumerate() {
        times.push(pipe.run_iteration(0, i as u64, batch, true).times);
    }
    let mean = |f: fn(&IterTimes) -> SimTime| -> SimTime {
        times.iter().map(f).sum::<SimTime>() / times.len() as f64
    };
    let mean_times = IterTimes {
        sample: mean(|t| t.sample),
        gather: mean(|t| t.gather),
        train: mean(|t| t.train),
        comm: SimTime::ZERO, // replaced per node count below
        storage: mean(|t| t.storage),
    };

    let total_iters = batches.len();
    let gpus = pipe.machine().num_gpus();
    let param_bytes = pipe.model.params.param_bytes();
    let cost = pipe.machine().cost().clone();
    let epoch_time = |nodes: u32| -> SimTime {
        let ranks = (nodes * gpus) as usize;
        let waves = total_iters.div_ceil(ranks).max(1);
        let comm = allreduce_multi_node(&cost, param_bytes, nodes, gpus);
        IterTimes { comm, ..mean_times }.total() * waves as f64
    };

    let base = epoch_time(node_counts[0]);
    node_counts
        .iter()
        .map(|&nodes| {
            let t = epoch_time(nodes);
            ScalingPoint {
                nodes,
                epoch_time: t,
                speedup: base / t,
            }
        })
        .collect()
}

/// Execute one training epoch on a real [`MultiNode`] cluster per node
/// count and report measured times. Speedup/efficiency are relative to
/// the first point, normalized by the node-count ratio.
pub fn executed_sweep(
    dataset: Arc<SyntheticDataset>,
    pipe_cfg: PipelineConfig,
    base_cfg: MultiNodeConfig,
    node_counts: &[u32],
) -> Result<Vec<ExecutedPoint>, OutOfMemory> {
    assert!(!node_counts.is_empty());
    let mut out = Vec::with_capacity(node_counts.len());
    let mut base: Option<(u32, SimTime)> = None;
    for &nodes in node_counts {
        let mut cfg = base_cfg.clone();
        cfg.nodes = nodes;
        let mut mn = MultiNode::new(Arc::clone(&dataset), pipe_cfg.clone(), cfg)?;
        let report = mn.train_epoch(0);
        let cut_fraction = mn.plan().quality().cut_fraction;
        let t = report.epoch_time;
        let (n0, t0) = *base.get_or_insert((nodes, t));
        let speedup = t0 / t;
        out.push(ExecutedPoint {
            nodes,
            epoch_time: t,
            speedup,
            efficiency: speedup / (nodes as f64 / n0 as f64),
            report,
            cut_fraction,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Framework;
    use crate::pipeline::PipelineConfig;
    use std::sync::Arc;
    use wg_gnn::ModelKind;
    use wg_graph::{DatasetKind, SyntheticDataset};
    use wg_sim::{Machine, MachineConfig};

    fn pipeline() -> Pipeline {
        // Enough training nodes that an epoch has many waves even on
        // 8 nodes × 8 GPUs (scaling needs iterations to distribute).
        let dataset = Arc::new(SyntheticDataset::generate(
            DatasetKind::OgbnPapers100M,
            2000,
            9,
        ));
        let machine = Machine::new(MachineConfig::dgx_like(8));
        let mut cfg =
            PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage).with_seed(1);
        cfg.batch_size = 16;
        Pipeline::new(machine, dataset, cfg).unwrap()
    }

    #[test]
    fn scaling_is_near_linear_up_to_8_nodes() {
        let mut pipe = pipeline();
        let pts = projected_sweep(&mut pipe, &[1, 2, 4, 8], 2);
        assert_eq!(pts.len(), 4);
        assert!((pts[0].speedup - 1.0).abs() < 1e-9);
        // Monotone speedups…
        for w in pts.windows(2) {
            assert!(w[1].speedup > w[0].speedup, "{pts:?}");
        }
        // …and near-linear at 8 nodes (Figure 13 shows "close to linear").
        // Wave quantization on the scaled dataset costs some efficiency;
        // require ≥55% parallel efficiency at 8 nodes.
        assert!(
            pts[3].speedup > 8.0 * 0.55,
            "8-node speedup only {:.2}",
            pts[3].speedup
        );
    }

    #[test]
    fn epoch_time_decreases_with_nodes() {
        let mut pipe = pipeline();
        let pts = projected_sweep(&mut pipe, &[1, 8], 1);
        assert!(pts[1].epoch_time < pts[0].epoch_time);
    }

    #[test]
    fn speedup_is_relative_to_first_point_and_iters_clamp() {
        let mut pipe = pipeline();
        // real_iters far beyond the epoch's batch count must clamp, and
        // the speedup baseline is the *first requested* node count (the
        // sweep need not start at 1).
        let pts = projected_sweep(&mut pipe, &[2, 4], 100_000);
        assert_eq!(pts.len(), 2);
        assert!((pts[0].speedup - 1.0).abs() < 1e-9);
        assert_eq!(pts[0].nodes, 2);
        assert!(pts[1].speedup > 1.0);
        assert!(pts[1].epoch_time < pts[0].epoch_time);
    }

    #[test]
    fn single_point_sweep_is_identity() {
        let mut pipe = pipeline();
        let pts = projected_sweep(&mut pipe, &[3], 1);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].nodes, 3);
        assert!((pts[0].speedup - 1.0).abs() < 1e-9);
        assert!(pts[0].epoch_time > SimTime::ZERO);
    }

    #[test]
    fn sweep_iterations_feed_observability_counters() {
        // The sweep executes real iterations through the full stage
        // graph, so with metrics enabled the pipeline probes must accrue.
        wg_trace::enable_metrics();
        let mut pipe = pipeline();
        projected_sweep(&mut pipe, &[1], 2);
        wg_trace::disable_all();
        let snap = wg_trace::metrics::snapshot();
        for name in ["pipeline.gather.feature_bytes", "pipeline.allreduce.bytes"] {
            let c = snap.counters.iter().find(|(n, _)| n == name);
            assert!(
                c.is_some_and(|(_, v)| *v > 0.0),
                "{name} not accrued: {c:?}"
            );
        }
    }

    #[test]
    fn executed_n1_time_tracks_the_projected_n1_baseline() {
        // Satellite 1: the executed single-node epoch and the mean-based
        // projection measure the same machine — times must land within
        // wave-quantization noise of each other (the projection uses a
        // 2-iteration mean; execution runs every batch).
        let dataset = Arc::new(SyntheticDataset::generate(
            DatasetKind::OgbnPapers100M,
            2000,
            9,
        ));
        let mut cfg =
            PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage).with_seed(1);
        cfg.batch_size = 16;
        let machine = Machine::new(MachineConfig::dgx_like(8));
        let mut pipe = Pipeline::new(machine, dataset.clone(), cfg.clone()).unwrap();
        let projected = projected_sweep(&mut pipe, &[1], usize::MAX);
        let executed =
            executed_sweep(dataset, cfg, MultiNodeConfig::new(1).with_gpus(8), &[1]).unwrap();
        let p = projected[0].epoch_time.as_secs();
        let e = executed[0].epoch_time.as_secs();
        // With real_iters = all batches the projection's mean equals the
        // true mean; only div_ceil wave quantization separates the two.
        let rel = (p - e).abs() / e;
        assert!(rel < 0.20, "projected {p} vs executed {e} (rel {rel})");
        assert!((executed[0].speedup - 1.0).abs() < 1e-9);
        assert_eq!(executed[0].cut_fraction, 0.0);
    }

    #[test]
    fn executed_sweep_speedups_are_relative_and_efficiency_bounded() {
        let dataset = Arc::new(SyntheticDataset::generate(
            DatasetKind::OgbnProducts,
            1500,
            5,
        ));
        // One GPU per node and a small batch give the epoch enough waves
        // (~8 on one node) that adding nodes genuinely shortens the
        // critical path despite ceil-quantization and comm overhead.
        let mut cfg =
            PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage).with_seed(11);
        cfg.batch_size = 16;
        let pts = executed_sweep(
            dataset,
            cfg,
            MultiNodeConfig::new(1).with_gpus(1),
            &[1, 2, 4],
        )
        .unwrap();
        assert_eq!(pts.len(), 3);
        assert!((pts[0].speedup - 1.0).abs() < 1e-9);
        assert!((pts[0].efficiency - 1.0).abs() < 1e-9);
        for w in pts.windows(2) {
            assert!(
                w[1].epoch_time < w[0].epoch_time,
                "epoch time must shrink: {} -> {}",
                w[0].epoch_time,
                w[1].epoch_time
            );
        }
        for p in &pts[1..] {
            assert!(p.speedup > 1.0);
            assert!(p.efficiency <= 1.05, "efficiency {} > 1", p.efficiency);
            assert!(p.cut_fraction > 0.0);
        }
    }
}
