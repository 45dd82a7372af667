//! Featureless-graph training with a trainable embedding table in
//! distributed shared memory.
//!
//! Graphs like Friendster ship no node features (the paper randomizes
//! them just to measure performance). The better answer for real tasks is
//! to *learn* the input features: store an embedding row per node in
//! WholeMemory, gather the rows a mini-batch touches with the one-kernel
//! global gather, backprop into them, and scatter sparse Adagrad updates
//! back to each row's home GPU — no AllReduce needed for the table, since
//! every row has exactly one home.
//!
//! ```text
//! cargo run --release --example learnable_embeddings
//! ```

use wg_autograd::{Adam, Optimizer, Tape};
use wg_gnn::{GnnConfig, GnnModel, ModelKind};
use wg_graph::{gen, GlobalId, MultiGpuGraph, NodeId};
use wg_mem::EmbeddingTable;
use wg_sample::{sample_minibatch, GraphAccess, MultiGpuAccess, SamplerConfig};
use wg_sim::Machine;
use wg_tensor::ops::{argmax_rows, softmax_cross_entropy};
use wg_tensor::Matrix;
use wholegraph::convert::minibatch_blocks;

fn main() {
    // A community graph with NO input features: only the structure (and
    // sparse labels) carry signal.
    let (graph, labels) = gen::sbm(4000, 8, 40.0, 0.9, 5);
    let machine = Machine::dgx_a100();
    let store = MultiGpuGraph::build(
        machine.cost(),
        machine.num_gpus(),
        &graph,
        &[],
        0,
        &machine.memory(),
    )
    .unwrap();
    println!(
        "featureless SBM graph: {} nodes, {} edges, 8 classes",
        graph.num_nodes(),
        graph.num_edges()
    );

    // Trainable embeddings, one row per padded DSM slot.
    let emb_dim = 32;
    let mut table = EmbeddingTable::new(
        machine.cost(),
        machine.num_gpus(),
        store.partition().padded_rows(),
        emb_dim,
        7,
    );

    let cfg = GnnConfig {
        kind: ModelKind::GraphSage,
        in_dim: emb_dim,
        hidden: 32,
        num_classes: 8,
        num_layers: 2,
        heads: 2,
        dropout: 0.0,
    };
    let mut model = GnnModel::new(cfg, 7);
    let mut opt = Adam::new(5e-3);
    let sampler = SamplerConfig {
        fanouts: vec![10, 10],
        seed: 7,
    };
    let access = MultiGpuAccess::new(&store);
    let spec = machine.spec(wg_sim::DeviceId::Gpu(0));
    let train: Vec<NodeId> = (0..320u64).collect();
    let eval: Vec<NodeId> = (320..960u64).collect();

    for epoch in 0..30u64 {
        let mut loss_sum = 0.0f32;
        let mut batches = 0;
        for (bi, batch) in train.chunks(64).enumerate() {
            let handles: Vec<u64> = batch.iter().map(|&v| access.handle_of(v)).collect();
            let (mb, _) = sample_minibatch(&access, &handles, &sampler, epoch, bi as u64);

            // Gather this batch's embedding rows from the DSM.
            let rows: Vec<usize> = mb
                .input_nodes()
                .iter()
                .map(|&h| store.feature_row_of_global(GlobalId::from_raw(h)))
                .collect();
            let mut feats = vec![0.0f32; rows.len() * emb_dim];
            table.gather(&rows, &mut feats, 0, machine.cost(), spec);

            // Forward/backward through the GNN into the embedding rows.
            let blocks = minibatch_blocks(&mb);
            let mut tape = Tape::new();
            // A leaf, not a constant input: the rows take a gradient.
            let x = tape.leaf(Matrix::from_vec(rows.len(), emb_dim, feats));
            let out = model.forward_from(&mut tape, &blocks, x, true, epoch ^ bi as u64);
            let batch_labels: Vec<u32> = batch.iter().map(|&v| labels[v as usize]).collect();
            let (loss, grad) = softmax_cross_entropy(tape.value(out), &batch_labels);
            model.params.zero_grads();
            tape.backward(out, grad, &mut model.params);
            opt.step(&mut model.params);

            // Sparse update of the touched embedding rows.
            let emb_grad = tape.grad(x).expect("embedding rows received gradient");
            table.apply_sparse_adagrad(&rows, emb_grad.data(), 0.1, 1e-8, machine.cost(), spec);

            loss_sum += loss;
            batches += 1;
        }
        if epoch % 5 == 0 || epoch == 29 {
            let acc = evaluate(
                &model, &table, &store, &sampler, &eval, &labels, emb_dim, &machine,
            );
            println!(
                "epoch {epoch:>2}: loss {:.4}  eval-acc {:.1}%",
                loss_sum / batches as f32,
                acc * 100.0
            );
        }
    }
    println!("\nAll signal came from the learned embeddings — the graph had");
    println!("no input features at all.");
}

#[allow(clippy::too_many_arguments)]
fn evaluate(
    model: &GnnModel,
    table: &EmbeddingTable,
    store: &MultiGpuGraph,
    sampler: &SamplerConfig,
    nodes: &[NodeId],
    labels: &[u32],
    emb_dim: usize,
    machine: &Machine,
) -> f64 {
    let access = MultiGpuAccess::new(store);
    let spec = machine.spec(wg_sim::DeviceId::Gpu(0));
    let mut correct = 0usize;
    for (bi, batch) in nodes.chunks(128).enumerate() {
        let handles: Vec<u64> = batch.iter().map(|&v| access.handle_of(v)).collect();
        let (mb, _) = sample_minibatch(&access, &handles, sampler, u64::MAX, bi as u64);
        let rows: Vec<usize> = mb
            .input_nodes()
            .iter()
            .map(|&h| store.feature_row_of_global(GlobalId::from_raw(h)))
            .collect();
        let mut feats = vec![0.0f32; rows.len() * emb_dim];
        table.gather(&rows, &mut feats, 0, machine.cost(), spec);
        let blocks = minibatch_blocks(&mb);
        let mut tape = Tape::new();
        let x = Matrix::from_vec(rows.len(), emb_dim, feats);
        let out = model.forward(&mut tape, &blocks, x, false, 0);
        let preds = argmax_rows(tape.value(out));
        correct += preds
            .iter()
            .zip(batch)
            .filter(|(p, &v)| **p == labels[v as usize])
            .count();
    }
    correct as f64 / nodes.len() as f64
}
