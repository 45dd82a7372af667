//! Sampling **without replacement** — Algorithm 1 and the host kernel it
//! equals.
//!
//! Sampling M of N neighbors without duplicates is hard to parallelize
//! because "each thread has to know neighbors sampled by other threads".
//! WholeGraph adopts the path-doubling construction of Rajan, Ghosh & Gupta
//! (IPL '89): draw `r[i] ∈ [0, N-1-i]` independently, then repair the
//! collisions that a *sequential* Fisher–Yates would have resolved through
//! its swap chain, using a sort + pointer-jumping pass. The result is
//! exactly what sequential Fisher–Yates would output for the same draws —
//! the tests below feed the same draws to both shipped samplers and to
//! [`fisher_yates_reference`] — so uniformity follows from Fisher–Yates'
//! correctness.
//!
//! The repair exists so that the M GPU threads of one target node never
//! coordinate. On the host one thread samples each node, so the hot-path
//! kernel, [`sample_small`], *is* sequential Fisher–Yates over the same
//! draws in the same order: the same neighbors, bit for bit.
//! [`PathDoublingSampler`] keeps Algorithm 1 verbatim, as the oracle the
//! tests compare against and the path for fanouts above
//! [`STACK_FANOUT_MAX`]. The simulated clock
//! ([`SamplerBackend::sample_time`](crate::SamplerBackend::sample_time))
//! prices Algorithm 1, the kernel the GPU runs.

use rand::prelude::*;
use rand::rngs::SmallRng;

use crate::radix::sort_with_indices;

/// Reusable scratch buffers for the path-doubling sampler (one per worker
/// thread; avoids per-node allocation in the sampling hot loop).
#[derive(Default)]
pub struct PathDoublingSampler {
    r: Vec<u32>,
    chain: Vec<u32>,
    chain_next: Vec<u32>,
    q: Vec<u32>,
    last: Vec<u32>,
}

impl PathDoublingSampler {
    /// Fresh sampler with empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sample `m` distinct indices from `0..n` without replacement,
    /// appending them to `out`. Requires `m <= n`.
    ///
    /// This is Algorithm 1 verbatim: lines are annotated with the paper's
    /// line numbers.
    pub fn sample(&mut self, m: usize, n: usize, rng: &mut SmallRng, out: &mut Vec<u32>) {
        assert!(m <= n, "cannot sample {m} of {n} without replacement");
        if m == 0 {
            return;
        }
        if m == n {
            // Degenerate case the kernel special-cases: "all of N neighbors
            // are sampled, and each thread can simply output its id".
            out.extend(0..n as u32);
            return;
        }
        // Lines 1–4, the draws: r[i] ← random(N-1-i).
        self.r.clear();
        self.r
            .extend((0..m).map(|i| rng.gen_range(0..(n - i) as u32)));
        self.apply_draws(n, out);
    }

    /// Lines 1–22 over the draws already in `self.r` (`r[i] < n - i`).
    fn apply_draws(&mut self, n: usize, out: &mut Vec<u32>) {
        let m = self.r.len();
        let (r, chain, chain_next, q, last) = (
            &self.r,
            &mut self.chain,
            &mut self.chain_next,
            &mut self.q,
            &mut self.last,
        );
        // Lines 1–4, the rest: chain[i] ← i.
        chain.clear();
        chain.extend(0..m as u32);
        q.resize(m, 0);
        last.resize(m, 0);

        // Line 5: s, p ← parallel_sort(r) (stable: ties by original index).
        let (s, p) = sort_with_indices(r);

        // Lines 6–11: q[p[i]] ← i; the *last* occurrence of each drawn
        // value v ≥ N-M becomes the chain target of the step that retires
        // position v (step N-v-1).
        for i in 0..m {
            q[p[i] as usize] = i as u32;
            let is_last_of_group = i == m - 1 || s[i] != s[i + 1];
            if is_last_of_group && s[i] as usize >= n - m {
                chain[n - s[i] as usize - 1] = p[i];
            }
        }

        // Line 12: chain ← path_doubling(chain). Pointer jumping converges
        // in ⌈log2 M⌉ rounds because chains are strictly decreasing.
        let rounds = usize::BITS - m.leading_zeros();
        chain_next.resize(m, 0);
        for _ in 0..rounds {
            for i in 0..m {
                chain_next[i] = chain[chain[i] as usize];
            }
            std::mem::swap(chain, chain_next);
        }

        // Lines 13–15: last[i] ← N - chain[i] - 1.
        for i in 0..m {
            last[i] = (n - chain[i] as usize - 1) as u32;
        }

        // Lines 16–22: first occurrence of a value keeps its draw; later
        // occurrences read the value their predecessor's retirement step
        // exposed.
        for i in 0..m {
            let qi = q[i] as usize;
            let first_of_group = qi == 0 || s[qi] != s[qi - 1];
            if first_of_group {
                out.push(r[i]);
            } else {
                out.push(last[p[qi - 1] as usize]);
            }
        }
    }
}

/// Largest `m` the allocation-free [`sample_small`] handles. Covers the
/// paper's fanouts (30) with headroom; larger fanouts fall back to
/// [`PathDoublingSampler`].
pub const STACK_FANOUT_MAX: usize = 64;

/// Allocation-free sampling for `m ≤ STACK_FANOUT_MAX`: sequential
/// Fisher–Yates over the draws [`PathDoublingSampler::sample`] takes, in
/// the same order, so the same RNG state yields the same sample (and
/// `m == n` takes all, drawing nothing, as Algorithm 1 does). Writes the
/// `m` sampled indices into `out`.
pub fn sample_small(m: usize, n: usize, rng: &mut SmallRng, out: &mut [u32]) {
    assert!(m <= n, "cannot sample {m} of {n} without replacement");
    assert!(m <= STACK_FANOUT_MAX);
    assert_eq!(out.len(), m);
    if m == n {
        for (i, o) in out.iter_mut().enumerate() {
            *o = i as u32;
        }
        return;
    }
    fisher_yates_into(n, |i| rng.gen_range(0..(n - i) as u32), out);
}

/// `n` up to which [`fisher_yates_into`] swaps in a dense identity array.
const DENSE_N_MAX: usize = 256;

/// Sequential Fisher–Yates over `draw(i) < n - i` for `i in 0..out.len()`:
/// step `i` emits the value at position `draw(i)` of a virtual permutation
/// of `0..n`, then moves the value at position `n-1-i` there.
///
/// The permutation is an overlay on the identity, on the stack, in one of
/// two forms chosen by `n`. For `n ≤ 256` it is a `[u16; 256]` identity
/// swapped in place. Above that it is an open-addressed table of the at
/// most `m` positions a step has written (position → value; a missing
/// position holds itself). Two forms because the table alone costs
/// 2.3–3.7x the array at small `n` (30 of 50: 362 vs 105 ns on a 2-core
/// Xeon), and the benchmark workloads sample on both sides of the split:
/// of their sampled nodes (take-all / `n ≤ 256` / `n > 256`),
/// `train_paper` is 0 / 99.9 / 0%, `train_input` 71 / 24 / 5% and
/// `serve_zipf` 22 / 45 / 33%.
fn fisher_yates_into(n: usize, mut draw: impl FnMut(usize) -> u32, out: &mut [u32]) {
    debug_assert!(out.len() <= n.min(STACK_FANOUT_MAX));
    if n <= DENSE_N_MAX {
        let mut perm: [u16; DENSE_N_MAX] = std::array::from_fn(|i| i as u16);
        for (i, o) in out.iter_mut().enumerate() {
            let r = draw(i) as usize;
            *o = perm[r] as u32;
            perm[r] = perm[n - 1 - i];
        }
        return;
    }
    // 128 slots (twice `STACK_FANOUT_MAX`) of `(position << 32) | value`;
    // a position is below n ≤ u32::MAX, so never `EMPTY`.
    const EMPTY: u64 = u64::MAX;
    let mut slots = [EMPTY; 128];
    let find = |slots: &[u64; 128], pos: u32| {
        let mut h = (pos.wrapping_mul(0x9E37_79B9) >> 25) as usize;
        while slots[h] != EMPTY && (slots[h] >> 32) as u32 != pos {
            h = (h + 1) % 128;
        }
        h
    };
    let value = |slot: u64, pos: u32| if slot == EMPTY { pos } else { slot as u32 };
    for (i, o) in out.iter_mut().enumerate() {
        let r = draw(i);
        let back = (n - 1 - i) as u32;
        let at_r = find(&slots, r);
        *o = value(slots[at_r], r);
        let moved = value(slots[find(&slots, back)], back);
        slots[at_r] = ((r as u64) << 32) | moved as u64;
    }
}

/// One-shot convenience wrapper around [`PathDoublingSampler::sample`].
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let sample = wg_sample::sample_without_replacement(30, 1000, &mut rng);
/// assert_eq!(sample.len(), 30);
/// let mut dedup = sample.clone();
/// dedup.sort_unstable();
/// dedup.dedup();
/// assert_eq!(dedup.len(), 30); // no duplicates, ever
/// ```
pub fn sample_without_replacement(m: usize, n: usize, rng: &mut SmallRng) -> Vec<u32> {
    let mut s = PathDoublingSampler::new();
    let mut out = Vec::with_capacity(m);
    s.sample(m, n, rng, &mut out);
    out
}

/// Sequential Fisher–Yates reference with *explicit draws*: consumes the
/// same `r[i] ∈ [0, N-1-i]` sequence Algorithm 1 uses, so the two can be
/// compared result-for-result.
pub fn fisher_yates_reference(r: &[u32], n: usize) -> Vec<u32> {
    use std::collections::HashMap;
    let m = r.len();
    let mut overlay: HashMap<u32, u32> = HashMap::new(); // position -> value
    let mut out = Vec::with_capacity(m);
    for (i, &pos) in r.iter().enumerate() {
        let value = overlay.get(&pos).copied().unwrap_or(pos);
        out.push(value);
        let back = (n - 1 - i) as u32;
        let back_value = overlay.get(&back).copied().unwrap_or(back);
        overlay.insert(pos, back_value);
    }
    out
}

/// Rejection-sampling baseline (used in ablation benchmarks): draw with
/// replacement into a set until `m` distinct values are collected. Cheap
/// for `m ≪ n`, degenerate as `m → n`.
pub fn rejection_sample(m: usize, n: usize, rng: &mut SmallRng) -> Vec<u32> {
    assert!(m <= n);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut out = Vec::with_capacity(m);
    while out.len() < m {
        let v = rng.gen_range(0..n as u32);
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_valid_sample(sample: &[u32], m: usize, n: usize) {
        assert_eq!(sample.len(), m);
        let mut sorted = sample.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), m, "sample contains duplicates: {sample:?}");
        assert!(
            sample.iter().all(|&v| (v as usize) < n),
            "out of range: {sample:?}"
        );
    }

    #[test]
    fn small_cases_are_valid() {
        let mut rng = SmallRng::seed_from_u64(1);
        for n in 1..20 {
            for m in 0..=n {
                let s = sample_without_replacement(m, n, &mut rng);
                assert_valid_sample(&s, m, n);
            }
        }
    }

    #[test]
    fn m_equals_n_returns_identity() {
        let mut rng = SmallRng::seed_from_u64(2);
        let s = sample_without_replacement(5, 5, &mut rng);
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn matches_fisher_yates_on_pathological_draws() {
        // All draws equal at the bottom (the worst collision chain), all
        // equal at the top of the common range (re-reading positions later
        // steps retire), and each draw the next step's retiring position
        // (every step moves an overlaid value) — on both overlays, hub
        // positions included.
        for n in [10usize, 16, 33, 256, 257, 4096, 1 << 20] {
            let all = if n <= 4096 { n - 1 } else { 3 };
            for m in [3usize, 5, 8, 64, all].into_iter().filter(|&m| m < n) {
                let top = (n - m) as u32;
                for r in [
                    vec![0u32; m],
                    vec![top; m],
                    (0..m)
                        .map(|i| (n - 2 - i).max(top as usize) as u32)
                        .collect(),
                ] {
                    let got = shipped_samplers_on_draws(&r, n);
                    assert_valid_sample(&got, m, n);
                }
            }
        }
    }

    /// Feeds the draws `r` to the shipped Algorithm 1 (lines 1–22 of
    /// [`PathDoublingSampler`]), to the shipped Fisher–Yates core of
    /// [`sample_small`] (when `r.len() <= STACK_FANOUT_MAX`) and to
    /// [`fisher_yates_reference`], asserts all agree, and returns the sample.
    fn shipped_samplers_on_draws(r: &[u32], n: usize) -> Vec<u32> {
        let expect = fisher_yates_reference(r, n);
        let mut algorithm1 = PathDoublingSampler::new();
        algorithm1.r = r.to_vec();
        let mut got = Vec::new();
        algorithm1.apply_draws(n, &mut got);
        assert_eq!(got, expect, "Algorithm 1, n={n} draws={r:?}");
        if r.len() <= STACK_FANOUT_MAX {
            let mut small = vec![u32::MAX; r.len()];
            fisher_yates_into(n, |i| r[i], &mut small);
            assert_eq!(small, expect, "sample_small, n={n} draws={r:?}");
        }
        expect
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn always_distinct_and_in_range(n in 1usize..200, frac in 0.0f64..1.0, seed in any::<u64>()) {
            let m = ((n as f64) * frac) as usize;
            let mut rng = SmallRng::seed_from_u64(seed);
            let s = sample_without_replacement(m, n, &mut rng);
            assert_valid_sample(&s, m, n);
        }

        #[test]
        fn equals_sequential_fisher_yates(log2_n in 1.0f64..12.0, frac in 0.0f64..1.0, seed in any::<u64>()) {
            // Same draws → identical output: the parallel algorithm *is*
            // Fisher–Yates, and so is the host kernel.
            let n = (2f64.powf(log2_n) as usize).max(2);
            let m = (((n - 1) as f64) * frac) as usize + 1; // 1..=n-1 (m<n path)
            let mut rng = SmallRng::seed_from_u64(seed);
            let r: Vec<u32> = (0..m).map(|i| rng.gen_range(0..(n - i) as u32)).collect();
            shipped_samplers_on_draws(&r, n);
        }
    }

    /// `sample_small` against Algorithm 1 from the same RNG state.
    fn assert_stack_matches_heap(m: usize, n: usize, seed: u64) {
        let mut rng_a = SmallRng::seed_from_u64(seed);
        let mut rng_b = SmallRng::seed_from_u64(seed);
        let heap = sample_without_replacement(m, n, &mut rng_a);
        let mut stack = [u32::MAX; STACK_FANOUT_MAX];
        sample_small(m, n, &mut rng_b, &mut stack[..m]);
        assert_eq!(&heap[..], &stack[..m], "m={m} n={n} seed={seed}");
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "draw counts differ");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn stack_sampler_is_bit_identical_to_heap_sampler(
            log2_n in 0.0f64..20.0,
            frac in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            // Log-uniform n up to 2^20 reaches both overlays and hub degrees.
            let n = 2f64.powf(log2_n) as usize;
            let m = (((n.min(STACK_FANOUT_MAX)) as f64) * frac) as usize;
            assert_stack_matches_heap(m, n, seed);
        }
    }

    #[test]
    fn stack_sampler_matches_heap_sampler_at_the_overlay_edges() {
        for n in [1usize, 2, 255, 256, 257, 65_536] {
            for m in [0, 1, 63, 64, STACK_FANOUT_MAX.min(n - 1), n] {
                let m = m.min(n).min(STACK_FANOUT_MAX);
                for seed in 0..8 {
                    assert_stack_matches_heap(m, n, seed);
                }
            }
        }
    }

    #[test]
    fn marginals_are_uniform() {
        // Sampling 3 of 10, each index should be chosen ~30% of the time.
        let trials = 40_000;
        let mut counts = [0u32; 10];
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..trials {
            for v in sample_without_replacement(3, 10, &mut rng) {
                counts[v as usize] += 1;
            }
        }
        let expect = trials as f64 * 0.3;
        for (v, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.06, "index {v} frequency off by {dev:.3}");
        }
    }

    #[test]
    fn rejection_baseline_is_valid() {
        let mut rng = SmallRng::seed_from_u64(5);
        let s = rejection_sample(30, 100, &mut rng);
        assert_valid_sample(&s, 30, 100);
    }

    #[test]
    #[should_panic(expected = "without replacement")]
    fn m_greater_than_n_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        sample_without_replacement(5, 3, &mut rng);
    }
}
