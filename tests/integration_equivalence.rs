//! Cross-framework equivalence: WholeGraph and the host-memory baselines
//! must compute the *same training* (the paper's Table III / Figure 7
//! accuracy-parity claim) — same seeds produce the same sampled
//! sub-graphs, the same losses (up to float summation order), and the
//! same converged accuracy.

use std::collections::HashSet;
use std::sync::Arc;

use wholegraph::prelude::*;
use wholegraph::Pipeline as P;

fn dataset(seed: u64) -> Arc<SyntheticDataset> {
    Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnProducts,
        1500,
        seed,
    ))
}

fn pipeline(fw: Framework, model: ModelKind, seed: u64) -> P {
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let cfg = PipelineConfig::tiny(fw, model).with_seed(seed);
    Pipeline::new(machine, dataset(seed), cfg).unwrap()
}

#[test]
fn identical_losses_across_all_three_frameworks() {
    for model in ModelKind::ALL {
        let mut losses = Vec::new();
        for fw in Framework::ALL {
            let mut p = pipeline(fw, model, 4);
            let batch: Vec<_> = p.dataset().train[..48].to_vec();
            let r = p.run_iteration(0, 0, &batch, false);
            losses.push((fw, r.loss));
        }
        let base = losses[0].1;
        for (fw, l) in &losses {
            assert!(
                (l - base).abs() < 2e-3 * (1.0 + base.abs()),
                "{model:?}: {fw:?} loss {l} vs {base}"
            );
        }
    }
}

#[test]
fn identical_sampled_work_across_frameworks() {
    let mut wg = pipeline(Framework::WholeGraph, ModelKind::Gcn, 6);
    let mut pyg = pipeline(Framework::Pyg, ModelKind::Gcn, 6);
    let batch: Vec<_> = wg.dataset().train[..64].to_vec();
    let a = wg.run_iteration(0, 3, &batch, false);
    let b = pyg.run_iteration(0, 3, &batch, false);
    assert_eq!(a.sample_stats.edges_sampled, b.sample_stats.edges_sampled);
    assert_eq!(a.shapes.len(), b.shapes.len());
    for (sa, sb) in a.shapes.iter().zip(&b.shapes) {
        assert_eq!(sa.num_dst, sb.num_dst);
        assert_eq!(sa.num_src, sb.num_src);
        assert_eq!(sa.num_edges, sb.num_edges);
    }
}

#[test]
fn parallel_training_converges_like_the_paper_figure7() {
    // Figure 7: DGL and WholeGraph validation curves coincide epoch by
    // epoch. With dropout disabled, per-epoch losses track closely.
    let mut wg = pipeline(Framework::WholeGraph, ModelKind::GraphSage, 9);
    let mut dgl = pipeline(Framework::Dgl, ModelKind::GraphSage, 9);
    for epoch in 0..3 {
        let a = wg.train_epoch(epoch);
        let b = dgl.train_epoch(epoch);
        assert!(
            (a.loss - b.loss).abs() < 0.05 * (1.0 + a.loss.abs()),
            "epoch {epoch}: losses {} vs {}",
            a.loss,
            b.loss
        );
    }
    let va = wg.evaluate(&wg.dataset().val.clone());
    let vb = dgl.evaluate(&dgl.dataset().val.clone());
    assert!((va - vb).abs() < 0.08, "val accuracy {va} vs {vb}");
}

#[test]
fn different_seeds_sample_different_subgraphs() {
    // Sanity check that the equivalence above is not vacuous: different
    // seeds must actually change the sampled work.
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::Gcn).with_seed(100);
    let mut a = Pipeline::new(machine, dataset(4), cfg).unwrap();
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::Gcn).with_seed(200);
    let mut b = Pipeline::new(machine, dataset(4), cfg).unwrap();
    let batch: Vec<_> = a.dataset().train[..64].to_vec();
    let ra = a.run_iteration(0, 0, &batch, false);
    let rb = b.run_iteration(0, 0, &batch, false);
    // Same batch, different sampling seed: frontier sizes almost surely
    // differ somewhere.
    let sa: Vec<_> = ra.shapes.iter().map(|s| s.num_edges).collect();
    let sb: Vec<_> = rb.shapes.iter().map(|s| s.num_edges).collect();
    assert_ne!(sa, sb, "different seeds produced identical sampled edges");
}

#[test]
fn dsm_and_host_stores_hold_the_same_graph() {
    // Structural round-trip at the store level, through the full
    // dataset-build path.
    let d = dataset(12);
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let store = wg_graph::MultiGpuGraph::build(
        machine.cost(),
        4,
        &d.graph,
        &d.features,
        d.feature_dim,
        &machine.memory(),
    )
    .unwrap();
    for v in (0..d.num_nodes() as u64).step_by(97) {
        let via_dsm: HashSet<u64> = store
            .neighbors(store.partition().global_id(v))
            .iter()
            .map(|&raw| store.partition().node_of(wg_graph::GlobalId::from_raw(raw)))
            .collect();
        let via_host: HashSet<u64> = d.graph.neighbors(v).iter().copied().collect();
        assert_eq!(via_dsm, via_host, "adjacency of node {v} diverges");
    }
}
