//! Multi-epoch training with validation — the accuracy experiments
//! (Table III, Figure 7).

use wg_graph::NodeId;
use wg_sim::SimTime;

use crate::pipeline::{EpochReport, Pipeline};

/// Trainer configuration.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// Epochs to train (the paper trains "about 24 epochs" for Table III).
    pub epochs: u64,
    /// Evaluate on the validation split every `eval_every` epochs
    /// (0 disables periodic evaluation).
    pub eval_every: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            epochs: 24,
            eval_every: 1,
        }
    }
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainOutcome {
    /// Per-epoch reports.
    pub epochs: Vec<EpochReport>,
    /// `(epoch, validation_accuracy)` at each evaluation point —
    /// the Figure 7 curve.
    pub val_curve: Vec<(u64, f64)>,
    /// Final validation accuracy.
    pub val_accuracy: f64,
    /// Final test accuracy.
    pub test_accuracy: f64,
    /// Total simulated training time.
    pub total_time: SimTime,
}

/// Drives a [`Pipeline`] through epochs with periodic evaluation.
pub struct Trainer {
    cfg: TrainerConfig,
}

impl Trainer {
    /// Trainer with the given configuration.
    pub fn new(cfg: TrainerConfig) -> Self {
        Trainer { cfg }
    }

    /// Train for the configured epochs, evaluating on the dataset's
    /// splits.
    pub fn run(&self, pipe: &mut Pipeline) -> TrainOutcome {
        let mut epochs = Vec::with_capacity(self.cfg.epochs as usize);
        let mut val_curve = Vec::new();
        let val: Vec<NodeId> = pipe.dataset().val.clone();
        let test: Vec<NodeId> = pipe.dataset().test.clone();
        for e in 0..self.cfg.epochs {
            let report = pipe.train_epoch(e);
            epochs.push(report);
            if self.cfg.eval_every > 0 && (e + 1) % self.cfg.eval_every == 0 {
                val_curve.push((e, pipe.evaluate(&val)));
            }
        }
        let val_accuracy = pipe.evaluate(&val);
        let test_accuracy = pipe.evaluate(&test);
        let total_time = epochs.iter().map(|r| r.epoch_time).sum();
        TrainOutcome {
            epochs,
            val_curve,
            val_accuracy,
            test_accuracy,
            total_time,
        }
    }
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

    fn learnable_pipeline(fw: Framework) -> Pipeline {
        // A dense, strongly homophilous SBM stand-in the tiny model can
        // learn quickly.
        let dataset = Arc::new(SyntheticDataset::generate(
            DatasetKind::OgbnProducts,
            1200,
            3,
        ));
        let machine = Machine::new(MachineConfig::dgx_like(4));
        let cfg = PipelineConfig::tiny(fw, ModelKind::GraphSage).with_seed(3);
        Pipeline::new(machine, dataset, cfg).unwrap()
    }

    #[test]
    fn training_learns_the_sbm_classes() {
        let mut pipe = learnable_pipeline(Framework::WholeGraph);
        let out = Trainer::new(TrainerConfig {
            epochs: 6,
            eval_every: 2,
        })
        .run(&mut pipe);
        assert_eq!(out.epochs.len(), 6);
        assert_eq!(out.val_curve.len(), 3);
        // 16-class problem: random guessing is ~6%; the model must do far
        // better after a few epochs.
        assert!(
            out.val_accuracy > 0.5,
            "validation accuracy {} too low",
            out.val_accuracy
        );
        assert!(
            out.test_accuracy > 0.5,
            "test accuracy {}",
            out.test_accuracy
        );
        // Loss decreases epoch over epoch (first vs last).
        assert!(out.epochs.last().unwrap().loss < out.epochs[0].loss);
        assert!(out.total_time > wg_sim::SimTime::ZERO);
        // WholeGraph keeps the GPU busy in every phase, so the occupancy
        // accounting must report near-full mean utilization.
        let mean_util = out
            .epochs
            .iter()
            .map(|r| r.occupancy.utilization())
            .sum::<f64>()
            / out.epochs.len() as f64;
        assert!(mean_util > 0.99, "{mean_util}");
    }

    #[test]
    fn accuracy_parity_between_wholegraph_and_dgl() {
        // Table III: "PyG, DGL and WholeGraph can achieve almost the same
        // validation and test accuracy".
        let mut wg = learnable_pipeline(Framework::WholeGraph);
        let mut dgl = learnable_pipeline(Framework::Dgl);
        let t = Trainer::new(TrainerConfig {
            epochs: 4,
            eval_every: 0,
        });
        let a = t.run(&mut wg);
        let b = t.run(&mut dgl);
        assert!(
            (a.val_accuracy - b.val_accuracy).abs() < 0.06,
            "val accuracy diverged: {} vs {}",
            a.val_accuracy,
            b.val_accuracy
        );
    }
}
