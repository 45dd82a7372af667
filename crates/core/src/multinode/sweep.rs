//! The node-count sweep behind Figure 13: [`executed_sweep`] builds a
//! real [`MultiNode`] cluster per node count and trains an epoch, so
//! shard imbalance, wave quantization and gradient-sync time all show up
//! in the measured epoch time.

use wg_sim::SimTime;

use crate::multinode::exec::{MultiNode, MultiNodeConfig, MultiNodeEpochReport};
use crate::pipeline::PipelineConfig;
use std::sync::Arc;
use wg_graph::SyntheticDataset;
use wg_sim::memory::OutOfMemory;

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
        let t = report.epoch_time;
        let (n0, t0) = *base.get_or_insert((nodes, t));
        let speedup = t0 / t;
        out.push(ExecutedPoint {
            nodes,
            epoch_time: t,
            speedup,
            efficiency: speedup / (nodes as f64 / n0 as f64),
            report,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Framework;
    use wg_gnn::ModelKind;
    use wg_graph::DatasetKind;

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
        }
    }
}
