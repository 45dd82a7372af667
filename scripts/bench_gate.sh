#!/usr/bin/env bash
# Bench gate: regenerate the wallclock bench (with span tracing + metrics
# enabled — the harness runs them always-on) and hold it to the committed
# contract.
#
# Usage: scripts/bench_gate.sh [out-dir]     (default: bench-artifacts/)
#
# Hard failures (exit 1, via `check_bench gate`):
#   * any kernel checksum off its pinned value (numerics moved), or
#   * any hot path over its steady-state allocation budget.
# Soft failure (warning only, via `check_bench compare --warn-pct 25`):
#   * pool-schedule time regression beyond 25% against the committed
#     BENCH_wallclock.json — wall-clock is too noisy on shared CI runners
#     to fail on, but the drift is printed and the artifacts are kept.
#
# The multi-node sweep regenerates BENCH_multinode.json and holds it to
# its own contract (`check_bench multinode`): schema, executed-N=1 bit
# equivalence with the single pipeline, monotone node counts, halo-free
# N=1, and a real end-to-end speedup at 64 nodes.
#
# The feature-cache legs hold the cache tier to its contract:
#   * a cached wallclock run (CLOCK, 4096 rows/device) must reproduce
#     every pinned checksum and allocation budget bit-for-bit — caching
#     changes cost, never values (`check_bench gate` on the cached run);
#   * the cache sweep regenerates BENCH_cache.json and `check_bench
#     cache` gates it: numerics pinned to the uncached baseline, bus
#     bytes conserved, monotone static hit rates, and a >=50% remote-row
#     cut from a <=10% hot-set cache.
#
# The storage legs hold the out-of-core tier to its contract:
#   * a wallclock run with the tier built at full residency
#     (--storage-rows 999999, honoured by the gather and epoch rows)
#     must reproduce every pinned checksum and allocation budget
#     bit-for-bit — tiering changes cost, never values (`check_bench
#     gate` on the tiered run);
#   * the storage sweep regenerates BENCH_storage.json and `check_bench
#     storage` gates it: numerics pinned to the tier-off baseline,
#     dsm + disk bytes conserved exactly, zero disk traffic at full
#     residency, and the prefetch-overlapped storage time strictly below
#     the blocking sum at <=50% residency.
#
# The serving leg regenerates BENCH_serving.json and `check_bench
# serving` gates it: coalesced micro-batching must answer every request
# bit-identically to sequential serving, at >=2x the sustained QPS with
# equal-or-better exact p99, shed nothing on the main legs, and balance
# its shed books exactly on the overload leg.
#
# Leaves in <out-dir>: baseline.json (committed numbers), current.json
# (this run), wallclock_trace.json (merged host/sim Chrome trace — load
# in chrome://tracing or ui.perfetto.dev), criterion_benches.txt (the
# kernel, gather, AppendUnique and sampler criterion microbenchmarks —
# informational, never gated), multinode.json and multinode_trace.json (executed sweep +
# 4-node cluster trace, one Chrome process per node), serving.json and
# serving_trace.json (serving sweep + traced coalesced replay),
# current_storage.json (wallclock through the full-residency disk tier)
# and storage.json (the residency sweep). CI uploads the directory.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR="${1:-bench-artifacts}"
mkdir -p "$OUT_DIR"

OFFLINE_FLAGS=()
if ! curl -sfI --max-time 5 https://index.crates.io/config.json >/dev/null 2>&1; then
    echo "bench_gate: registry unreachable, building offline"
    export CARGO_NET_OFFLINE=true
    OFFLINE_FLAGS=(--offline)
fi

cp BENCH_wallclock.json "$OUT_DIR/baseline.json"

echo "bench_gate: wallclock bench (tracing on)"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin wallclock -- \
    --trace "$OUT_DIR/wallclock_trace.json"
cp BENCH_wallclock.json "$OUT_DIR/current.json"

echo "bench_gate: checksum + allocation gate"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin check_bench -- \
    gate "$OUT_DIR/current.json"

echo "bench_gate: time drift vs committed baseline (warn-only)"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin check_bench -- \
    compare "$OUT_DIR/baseline.json" "$OUT_DIR/current.json" --warn-pct 25

echo "bench_gate: cached wallclock leg (checksums must not move)"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin wallclock -- \
    --cache-rows 4096 --cache-mode clock
cp BENCH_wallclock.json "$OUT_DIR/current_cached.json"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin check_bench -- \
    gate "$OUT_DIR/current_cached.json"

echo "bench_gate: feature-cache sweep"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin cache_sweep
cp BENCH_cache.json "$OUT_DIR/cache.json"

echo "bench_gate: feature-cache sweep gate"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin check_bench -- \
    cache "$OUT_DIR/cache.json"

echo "bench_gate: storage-tier wallclock leg (checksums must not move)"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin wallclock -- \
    --storage-rows 999999
cp BENCH_wallclock.json "$OUT_DIR/current_storage.json"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin check_bench -- \
    gate "$OUT_DIR/current_storage.json"

echo "bench_gate: storage sweep"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin storage_sweep
cp BENCH_storage.json "$OUT_DIR/storage.json"

echo "bench_gate: storage sweep gate"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin check_bench -- \
    storage "$OUT_DIR/storage.json"

# Criterion microbenchmarks for the kernels the wallclock stages are
# built from: dispatched vs forced-scalar vs naive-reference matmul
# (wide and narrow-n/k shapes), the sparse kernels (g-SpMM, g-SDDMM,
# weighted g-SpMM, edge softmax), the gather row-copy / checksum
# loops, the one-kernel gather against the NCCL baseline (the empty tier
# stack: what the plain gather costs through the one plan/execute pair),
# AppendUnique (input-length vs universe-bounded table vs sort)
# and the mini-batch sampler (uniform and power-law 1/94 graphs, fused
# path vs reference). The criterion shim prints
# "bench <label>: best N ns" lines to stdout; keep them as an artifact
# so SIMD speedups are inspectable per-kernel, not just per-stage.
echo "bench_gate: criterion microbenchmarks (matmul, spmm, gather_copy, gather, append_unique, sampling)"
cargo bench -q "${OFFLINE_FLAGS[@]}" -p wg-bench --bench matmul --bench spmm --bench gather_copy \
    --bench gather --bench append_unique --bench sampling \
    | tee "$OUT_DIR/criterion_benches.txt"

echo "bench_gate: serving sweep (coalesced trace on)"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin serving_sweep -- \
    --trace "$OUT_DIR/serving_trace.json"
cp BENCH_serving.json "$OUT_DIR/serving.json"

echo "bench_gate: serving sweep gate"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin check_bench -- \
    serving "$OUT_DIR/serving.json"

echo "bench_gate: executed multi-node sweep (4-node trace on)"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin multinode_sweep -- \
    --trace "$OUT_DIR/multinode_trace.json"
cp BENCH_multinode.json "$OUT_DIR/multinode.json"

echo "bench_gate: multi-node sweep gate"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin check_bench -- \
    multinode "$OUT_DIR/multinode.json"

# The benches rewrote BENCH_wallclock.json / BENCH_multinode.json /
# BENCH_cache.json / BENCH_storage.json / BENCH_serving.json in place;
# restore the committed copies so the gate leaves the tree clean (this
# run's copies live in $OUT_DIR).
git checkout -- BENCH_wallclock.json BENCH_multinode.json BENCH_cache.json \
    BENCH_storage.json BENCH_serving.json 2>/dev/null || true

echo "bench_gate: OK (artifacts in $OUT_DIR/)"
