#!/usr/bin/env bash
# Bench gate: regenerate every BENCH_*.json. Each bench bin gates itself
# — measure, gate, write, in one process — so a bin's exit status is its
# gate and an artifact on disk is one that passed; the invariants live
# in each bin's `gate` function (crates/bench/src/bin/), not here.
#
# Usage: scripts/bench_gate.sh [out-dir]     (default: bench-artifacts/)
#
# Legs (any non-zero exit fails the script):
#   * wallclock, three times — default (span tracing on), through a
#     CLOCK feature cache (--cache-rows 4096 --cache-mode clock) and
#     through the out-of-core tier at full residency (--storage-rows
#     999999): every leg must reproduce the pinned checksums and hold
#     the allocation and peak-heap budgets (`EXPECT` in wallclock.rs) —
#     tiers change cost, never values. Host timings are printed, never judged:
#     `benchmark/`'s `compare` is the instrument for those.
#   * cache_sweep, storage_sweep, serving_sweep, multinode_sweep — each
#     against its own invariant list (bit-identity to the tier-off /
#     sequential / single-pipeline baseline, byte conservation, the
#     >=50% hot-set headline, strict prefetch overlap, >=2x QPS at
#     equal-or-better p99 inside the service bounds, balanced shed books,
#     arrival <= start <= finish for every request of every serving leg,
#     gradient-sync traffic exactly when N > 1 and a real end-to-end
#     speedup).
#   * every JSON left in <out-dir> — artifacts and Chrome traces alike —
#     must parse.
#   * the sweeps are simulated-clock artifacts, so they must regenerate
#     as committed: BENCH_cache.json, BENCH_serving.json and
#     BENCH_multinode.json byte for byte, BENCH_storage.json in
#     everything but `fetch_ms` (its one host-clock column). A change
#     that re-prices on purpose commits the new JSON and passes.
#
# Leaves in <out-dir>: baseline.json (committed numbers), current.json
# (this run), wallclock_trace.json (merged host/sim Chrome trace — load
# in chrome://tracing or ui.perfetto.dev), current_cached.json and
# current_storage.json (wallclock through the cache / the full-residency
# disk tier), cache.json, storage.json, serving.json and
# serving_trace.json (serving sweep + traced coalesced replay),
# multinode.json and multinode_trace.json (executed sweep + 4-node
# cluster trace, one Chrome process per node), criterion_benches.txt
# (the kernel, disk-tier, gather, AppendUnique and sampler criterion
# microbenchmarks — informational, never gated). CI uploads the
# directory.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR="${1:-bench-artifacts}"
mkdir -p "$OUT_DIR"

# Every dependency is a path shim (Cargo.lock names no registry
# package), so every cargo call runs with --offline.
bench() {
    cargo run -q --release --offline -p wg-bench --bin "$@"
}

cp BENCH_wallclock.json "$OUT_DIR/baseline.json"

echo "bench_gate: wallclock bench (tracing on)"
bench wallclock -- --trace "$OUT_DIR/wallclock_trace.json"
cp BENCH_wallclock.json "$OUT_DIR/current.json"

echo "bench_gate: cached wallclock leg (checksums must not move)"
bench wallclock -- --cache-rows 4096 --cache-mode clock
cp BENCH_wallclock.json "$OUT_DIR/current_cached.json"

echo "bench_gate: feature-cache sweep"
bench cache_sweep
cp BENCH_cache.json "$OUT_DIR/cache.json"

echo "bench_gate: storage-tier wallclock leg (checksums must not move)"
bench wallclock -- --storage-rows 999999
cp BENCH_wallclock.json "$OUT_DIR/current_storage.json"

echo "bench_gate: storage sweep"
bench storage_sweep
cp BENCH_storage.json "$OUT_DIR/storage.json"

# Criterion microbenchmarks for the kernels the wallclock stages are
# built from: dispatched vs forced-scalar vs naive-reference matmul
# (wide and narrow-n/k shapes), the sparse kernels (unweighted g-SpMM,
# and the fused GAT kernels training runs — edge attention, the
# aggregation with bias + ELU, its one-walk backward — per SIMD level),
# the disk tier's host cost per disk row (`ooc_fetch` in `gather_copy`:
# the serve_zipf and train_input batch shapes through a disk-only stack),
# the one-kernel gather against the NCCL baseline (the empty tier
# stack: what the plain gather costs through the one plan/execute pair),
# AppendUnique (input-length vs universe-bounded table vs sort)
# and the mini-batch sampler (uniform and power-law 1/94 graphs, fused
# path vs reference). The criterion shim prints
# "bench <label>: best N ns" lines to stdout; keep them as an artifact
# so SIMD speedups are inspectable per-kernel, not just per-stage.
echo "bench_gate: criterion microbenchmarks (matmul, spmm, gather_copy, gather, append_unique, sampling)"
cargo bench -q --offline -p wg-bench --bench matmul --bench spmm --bench gather_copy \
    --bench gather --bench append_unique --bench sampling \
    | tee "$OUT_DIR/criterion_benches.txt"

echo "bench_gate: serving sweep (coalesced trace on)"
bench serving_sweep -- --trace "$OUT_DIR/serving_trace.json"
cp BENCH_serving.json "$OUT_DIR/serving.json"

echo "bench_gate: executed multi-node sweep (4-node trace on)"
bench multinode_sweep -- --trace "$OUT_DIR/multinode_trace.json"
cp BENCH_multinode.json "$OUT_DIR/multinode.json"

echo "bench_gate: every JSON in $OUT_DIR parses"
for f in "$OUT_DIR"/*.json; do python3 -m json.tool "$f" >/dev/null; done

echo "bench_gate: simulated-clock artifacts match the committed copies"
MOVED=()
for f in BENCH_cache.json BENCH_serving.json BENCH_multinode.json; do
    git diff --quiet -- "$f" || MOVED+=("$f")
done
python3 - <<'PY' || MOVED+=("BENCH_storage.json (beyond fetch_ms)")
import json, subprocess, sys

def strip(x):
    if isinstance(x, dict):
        return {k: strip(v) for k, v in x.items() if k != "fetch_ms"}
    if isinstance(x, list):
        return [strip(v) for v in x]
    return x

new = json.load(open("BENCH_storage.json"))
old = json.loads(subprocess.check_output(["git", "show", ":BENCH_storage.json"]))
sys.exit(0 if strip(new) == strip(old) else 1)
PY

# The benches rewrote BENCH_wallclock.json / BENCH_multinode.json /
# BENCH_cache.json / BENCH_storage.json / BENCH_serving.json in place;
# restore the committed copies so the gate leaves the tree clean (this
# run's copies live in $OUT_DIR).
git checkout -- BENCH_wallclock.json BENCH_multinode.json BENCH_cache.json \
    BENCH_storage.json BENCH_serving.json 2>/dev/null || true

if [ ${#MOVED[@]} -gt 0 ]; then
    echo "bench_gate: FAIL: the simulated clock moved in: ${MOVED[*]}" >&2
    echo "  (this run's copies are in $OUT_DIR/; commit them if the change re-prices on purpose)" >&2
    exit 1
fi

echo "bench_gate: OK (artifacts in $OUT_DIR/)"
