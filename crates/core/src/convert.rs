//! Conversions between the sampler's output and the sparse kernels' input.

use std::sync::Arc;

use wg_gnn::cost::BlockShape;
use wg_sample::{MiniBatch, SampleBlock};
use wg_tensor::BlockCsr;

/// Convert one sampled block into the sparse-kernel CSR format.
pub fn to_block_csr(b: &SampleBlock) -> BlockCsr {
    let csr = BlockCsr {
        num_dst: b.num_dst,
        num_src: b.num_src,
        offsets: b.offsets.clone(),
        indices: b.indices.clone(),
        dup_count: b.dup_count.clone(),
    };
    debug_assert!({
        csr.validate();
        true
    });
    csr
}

/// [`to_block_csr`] into an existing CSR, reusing its buffer capacity.
pub fn to_block_csr_into(b: &SampleBlock, csr: &mut BlockCsr) {
    csr.num_dst = b.num_dst;
    csr.num_src = b.num_src;
    csr.offsets.clone_from(&b.offsets);
    csr.indices.clone_from(&b.indices);
    csr.dup_count.clone_from(&b.dup_count);
    debug_assert!({
        csr.validate();
        true
    });
}

/// Convert a whole mini-batch (outermost-first order preserved) into a
/// pooled block list. When a slot's `Arc` is
/// unshared (the tape's op-held clones were dropped by `Tape::reset`),
/// the CSR is rebuilt in place via `clone_from` — steady-state iterations
/// convert without heap allocation. Shared or missing slots fall back to
/// a fresh `Arc`.
pub fn minibatch_blocks_into(mb: &MiniBatch, out: &mut Vec<Arc<BlockCsr>>) {
    out.truncate(mb.blocks.len());
    for (i, b) in mb.blocks.iter().enumerate() {
        if i < out.len() {
            let slot = &mut out[i];
            if let Some(csr) = Arc::get_mut(slot) {
                to_block_csr_into(b, csr);
            } else {
                *slot = Arc::new(to_block_csr(b));
            }
        } else {
            out.push(Arc::new(to_block_csr(b)));
        }
    }
}

/// Shape summaries for the compute cost model.
pub fn minibatch_shapes(mb: &MiniBatch) -> Vec<BlockShape> {
    mb.blocks
        .iter()
        .map(|b| BlockShape {
            num_dst: b.num_dst,
            num_src: b.num_src,
            num_edges: b.num_edges(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> SampleBlock {
        SampleBlock {
            num_dst: 2,
            num_src: 4,
            offsets: vec![0, 1, 3],
            indices: vec![2, 3, 1],
            dup_count: vec![0, 1, 1, 1],
        }
    }

    #[test]
    fn block_roundtrip_preserves_structure() {
        let sb = sample_block();
        let csr = to_block_csr(&sb);
        csr.validate();
        assert_eq!(csr.num_dst, 2);
        assert_eq!(csr.num_src, 4);
        assert_eq!(csr.indices, vec![2, 3, 1]);
        assert_eq!(csr.num_edges(), 3);
    }

    #[test]
    fn shapes_summarize_blocks() {
        let mb = MiniBatch {
            blocks: vec![sample_block()],
            frontiers: vec![vec![10, 11], vec![10, 11, 12, 13]],
        };
        let shapes = minibatch_shapes(&mb);
        assert_eq!(shapes.len(), 1);
        assert_eq!(shapes[0].num_dst, 2);
        assert_eq!(shapes[0].num_edges, 3);
        let mut blocks = Vec::new();
        minibatch_blocks_into(&mb, &mut blocks);
        assert_eq!(blocks[0].num_src, 4);
    }
}
