//! Joint GNN + trainable-embedding training over the distributed shared
//! memory (the featureless-graph workflow of `examples/learnable_embeddings`).

use wg_autograd::{Adam, Optimizer, Tape};
use wg_gnn::{GnnConfig, GnnModel, ModelKind};
use wg_graph::{gen, GlobalId, MultiGpuGraph};
use wg_mem::EmbeddingTable;
use wg_sample::{sample_minibatch, GraphAccess, MultiGpuAccess, SamplerConfig};
use wg_sim::Machine;
use wg_tensor::ops::softmax_cross_entropy;
use wg_tensor::Matrix;
use wholegraph::convert::minibatch_blocks;

struct Setup {
    machine: Machine,
    store: MultiGpuGraph,
    labels: Vec<u32>,
}

fn setup() -> Setup {
    let (graph, labels) = gen::sbm(800, 4, 20.0, 0.9, 11);
    let machine = Machine::dgx_a100();
    let store = MultiGpuGraph::build(machine.cost(), 8, &graph, &[], 0, &machine.memory()).unwrap();
    Setup {
        machine,
        store,
        labels,
    }
}

#[test]
fn embeddings_plus_gnn_learn_a_featureless_graph() {
    let s = setup();
    let emb_dim = 16;
    let mut table = EmbeddingTable::new(
        s.machine.cost(),
        8,
        s.store.partition().padded_rows(),
        emb_dim,
        3,
    );
    let cfg = GnnConfig {
        kind: ModelKind::GraphSage,
        in_dim: emb_dim,
        hidden: 16,
        num_classes: 4,
        num_layers: 2,
        heads: 2,
        dropout: 0.0,
    };
    let mut model = GnnModel::new(cfg, 3);
    let mut opt = Adam::new(5e-3);
    let sampler = SamplerConfig {
        fanouts: vec![8, 8],
        seed: 3,
    };
    let access = MultiGpuAccess::new(&s.store);
    let spec = s.machine.spec(wg_sim::DeviceId::Gpu(0));

    let run_batch = |model: &mut GnnModel,
                     opt: &mut Adam,
                     table: &mut EmbeddingTable,
                     epoch: u64,
                     update: bool|
     -> f32 {
        let batch: Vec<u64> = (0..128u64).map(|v| access.handle_of(v)).collect();
        let (mb, _) = sample_minibatch(&access, &batch, &sampler, epoch, 0);
        let rows: Vec<usize> = mb
            .input_nodes()
            .iter()
            .map(|&h| s.store.feature_row_of_global(GlobalId::from_raw(h)))
            .collect();
        let mut feats = vec![0.0f32; rows.len() * emb_dim];
        table.gather(&rows, &mut feats, 0, s.machine.cost(), spec);
        let blocks = minibatch_blocks(&mb);
        let mut tape = Tape::new();
        // A leaf, not a constant input: the embedding rows take a gradient.
        let x = tape.leaf(Matrix::from_vec(rows.len(), emb_dim, feats));
        let out = model.forward_from(&mut tape, &blocks, x, update, epoch);
        let labels: Vec<u32> = (0..128usize).map(|v| s.labels[v]).collect();
        let (loss, grad) = softmax_cross_entropy(tape.value(out), &labels);
        if update {
            model.params.zero_grads();
            tape.backward(out, grad, &mut model.params);
            opt.step(&mut model.params);
            let emb_grad = tape
                .grad(x)
                .expect("input embeddings must receive a gradient");
            assert_eq!(emb_grad.rows(), rows.len());
            table.apply_sparse_adagrad(&rows, emb_grad.data(), 0.1, 1e-8, s.machine.cost(), spec);
        }
        loss
    };

    let loss0 = run_batch(&mut model, &mut opt, &mut table, 0, false);
    for epoch in 0..20 {
        run_batch(&mut model, &mut opt, &mut table, epoch, true);
    }
    let loss1 = run_batch(&mut model, &mut opt, &mut table, 99, false);
    assert!(
        loss1 < 0.5 * loss0,
        "joint training failed to learn: {loss0} -> {loss1}"
    );
}

#[test]
fn embedding_gradients_reach_only_touched_rows() {
    let s = setup();
    let emb_dim = 8;
    let mut table = EmbeddingTable::new(
        s.machine.cost(),
        8,
        s.store.partition().padded_rows(),
        emb_dim,
        5,
    );
    let spec = s.machine.spec(wg_sim::DeviceId::Gpu(0));
    // Snapshot two rows, update one of them, verify the other is intact.
    let touched = vec![3usize];
    let untouched = vec![900usize.min(table.rows() - 1)];
    let read = |table: &EmbeddingTable, rows: &[usize]| {
        let mut o = vec![0.0f32; rows.len() * emb_dim];
        table.gather(rows, &mut o, 0, s.machine.cost(), spec);
        o
    };
    let before = read(&table, &untouched);
    table.apply_sparse_adagrad(
        &touched,
        &vec![1.0; emb_dim],
        0.5,
        1e-8,
        s.machine.cost(),
        spec,
    );
    assert_eq!(read(&table, &untouched), before, "untouched row changed");
    assert_ne!(read(&table, &touched), vec![0.0; emb_dim]);
}
