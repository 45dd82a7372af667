//! Every dispatched AVX2 kernel refuses an operand that is too short, or
//! an index past its operand's end, with a panic: it cannot read or write
//! outside its slices. Each test calls one kernel at `Level::Avx2` with
//! otherwise valid operands and one element, row, word or index out of
//! range. On a host without AVX2 the same call runs the scalar loop,
//! whose slices refuse the same operand, so the tests run everywhere.

use wg_tensor::simd::{self, Level, RowVisits, VISIT_CAP};

const L: Level = Level::Avx2;

/// `dst << 32 | edge`, one incoming edge of the packed reverse CSR.
fn pair(dst: u64, edge: u64) -> u64 {
    dst << 32 | edge
}

#[test]
#[should_panic(expected = "out of range for slice")]
fn matmul_rowtile_refuses_a_panel_one_row_short() {
    let (arow, panel, mut c) = ([1.0f32; 4], [1.0f32; 3 * 8], [0.0f32; 8]);
    simd::matmul_rowtile(L, RowVisits::all(&arow), &panel, &mut c, true);
}

#[test]
#[should_panic(expected = "out of range for slice")]
fn matmul_rowtile2_refuses_a_panel_one_row_short() {
    let (a, panel, mut c) = ([1.0f32; 4], [1.0f32; 3 * 32], [0.0f32; 64]);
    simd::matmul_rowtile2(L, &a, &a, &panel, &mut c, 32, true);
}

#[test]
#[should_panic(expected = "segment too long")]
fn visit_list_refuses_a_segment_one_past_its_buffer() {
    let (arow, mut buf) = ([1.0f32; VISIT_CAP + 1], [0u16; VISIT_CAP]);
    RowVisits::all(&arow).listed(L, &mut buf);
}

#[test]
#[should_panic(expected = "transpose: block out of bounds")]
fn transpose_refuses_a_source_one_element_short() {
    let (src, mut dst) = ([1.0f32; 8 * 4 - 1], [0.0f32; 4 * 8]);
    simd::transpose(L, &src, 4, 8, 4, &mut dst, 8);
}

#[test]
#[should_panic(expected = "out of range for slice")]
fn spmm_gather_refuses_a_source_row_past_src() {
    let (src, mut acc) = ([1.0f32; 2 * 8], [0.0f32; 8]);
    simd::spmm_gather_rowtile(L, &[0, 2], None, &src, 8, 0, 1.0, &mut acc, &[]);
}

#[test]
#[should_panic(expected = "out of range for slice")]
fn spmm_scatter_refuses_a_destination_past_grad() {
    let (grad, mut acc) = ([1.0f32; 2 * 8], [0.0f32; 8]);
    simd::spmm_scatter_rowtile(L, &[1, 2], &[0, 1, 2, 3], false, &grad, 8, 0, &mut acc);
}

#[test]
#[should_panic(expected = "acc too short")]
fn tn_accumulate_narrow_refuses_an_accumulator_one_short() {
    let (a, b, mut acc) = ([1.0f32; 2 * 8], [1.0f32; 2 * 4], [0.0f32; 8 * 4 - 1]);
    simd::tn_accumulate_narrow(L, &a, 8, &b, 4, &mut acc);
}

#[test]
#[should_panic(expected = "b.len() == k * n")]
fn matmul_narrow_n_refuses_a_b_one_element_short() {
    let (a, b, mut c) = ([1.0f32; 8 * 5], [1.0f32; 5 * 3 - 1], [0.0f32; 8 * 3]);
    simd::matmul_narrow_n(L, &a, 5, &b, 3, &mut c, false);
}

#[test]
#[should_panic(expected = "b.len() == k * n")]
fn matmul_narrow_k_refuses_a_b_one_element_short() {
    let (a, b, mut c) = ([1.0f32; 8 * 4], [1.0f32; 4 * 40 - 1], [0.0f32; 8 * 40]);
    simd::matmul_narrow_k(L, &a, 4, &b, 40, &mut c, false);
}

#[test]
#[should_panic(expected = "is_multiple_of(heads)")]
fn edge_softmax_refuses_logits_one_short() {
    let mut x = [0.5f32; 3 * 4 - 1];
    simd::edge_softmax_dst(L, &mut x, 4);
}

#[test]
#[should_panic(expected = "left == right")]
fn edge_softmax_backward_refuses_a_gradient_one_short() {
    let (soft, mut grad) = ([0.25f32; 3 * 4], [1.0f32; 3 * 4 - 1]);
    simd::edge_softmax_backward_dst(L, &soft, &mut grad, 4);
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn weighted_spmm_backward_refuses_an_edge_id_past_att() {
    let (grad, hrow, mut dh) = ([1.0f32; 3 * 16], [1.0f32; 16], [0.0f32; 16]);
    // Two edges' weights, four heads each, and the second edge is numbered 2.
    let (att, pairs) = ([0.5f32; 2 * 4], [pair(0, 0), pair(2, 2)]);
    simd::weighted_spmm_backward_row(L, &pairs, &att, 4, &grad, &hrow, &mut dh, &[], |_, _, _| {});
}

#[test]
#[should_panic(expected = "scores backward: stacked vectors")]
fn scores_backward_refuses_stacked_vectors_one_short() {
    let (g, at, mut dh) = ([1.0f32; 8], [1.0f32; 8 * 40 - 1], [0.0f32; 40]);
    simd::scores_backward_row(L, &g, &at, &mut dh, true);
}

#[test]
#[should_panic(expected = "dropout mask")]
fn dropout_masks_refuse_a_mask_one_word_short() {
    // 100 columns are two words a row: four rows are eight words.
    let mut mask = [0u64; 4 * 2 - 1];
    simd::dropout_mask_rows4(L, &mut mask, 100, 0.5, [1, 2, 3, 4]);
}

#[test]
#[should_panic(expected = "add_assign length mismatch")]
fn add_assign_refuses_a_source_one_short() {
    let (mut dst, src) = ([0.0f32; 20], [1.0f32; 19]);
    simd::add_assign(L, &mut dst, &src);
}
