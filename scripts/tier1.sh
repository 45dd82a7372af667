#!/usr/bin/env bash
# Tier-1 verification: build, test, format and lint the whole workspace.
#
# Usage: scripts/tier1.sh
#
# When the crates.io registry is unreachable (air-gapped CI, laptops on
# planes), cargo is forced offline — all dependencies resolve to the
# path-based shims under shims/, so offline builds are fully supported.
#
# With CI=1 (set by .github/workflows/ci.yml), the wall-clock *timing*
# comparison against the committed baseline is skipped — shared runners
# are too noisy for time assertions — while the bit-exactness checksums
# and allocation budgets (machine-independent) are still enforced.
#
# Baseline refresh (after a commit that legitimately step-changes a bench
# time, e.g. a SIMD or cache-blocking optimization):
#   1. on the reference machine run
#        cargo run --release -p wg-bench --bin wallclock
#      (the harness asserts bit-identical checksums and the allocation
#      budgets itself; checksums must NOT move for a perf-only change);
#   2. `check_bench gate BENCH_wallclock.json` must pass — if a commit
#      intentionally moved numerics, update the pinned checksums in
#      crates/bench/src/bin/check_bench.rs in the same commit;
#   3. commit the regenerated BENCH_wallclock.json with the code change.
#   Until the refreshed baseline lands, `check_bench compare` accepts
#   `--expect-improvement <bench>` to exempt the intentionally-faster
#   bench from the drift thresholds (it warns if the bench did NOT
#   improve instead).

set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE_FLAGS=()
if ! curl -sfI --max-time 5 https://index.crates.io/config.json >/dev/null 2>&1; then
    echo "tier1: registry unreachable, building offline"
    export CARGO_NET_OFFLINE=true
    OFFLINE_FLAGS=(--offline)
fi

echo "tier1: cargo build --release"
cargo build --release "${OFFLINE_FLAGS[@]}"

# The suite runs twice: once on the work-stealing pool at its natural
# width and once pinned to one worker (WG_THREADS=1). The rayon shim
# guarantees bit-identical numerics at any thread count, so both passes
# must agree with the same expectations.
echo "tier1: cargo test -q"
cargo test -q "${OFFLINE_FLAGS[@]}"

echo "tier1: WG_THREADS=1 cargo test -q"
WG_THREADS=1 cargo test -q "${OFFLINE_FLAGS[@]}"

echo "tier1: cargo fmt --check"
cargo fmt --check

echo "tier1: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets "${OFFLINE_FLAGS[@]}" -- -D warnings

# The wallclock harness is a correctness gate as much as a benchmark:
# every kernel's FNV-1a checksum must stay pinned to the committed value
# (the numerics may never move), and every hot path must stay within its
# steady-state allocation budget (the workspace/scratch-arena contract —
# the harness itself asserts the same budgets under its counting
# allocator, with span tracing and metrics enabled throughout). The pins
# and budgets live in one place: crates/bench/src/bin/check_bench.rs.
echo "tier1: wallclock bench (checksum + allocation gate)"
cp BENCH_wallclock.json "${TMPDIR:-/tmp}/tier1_bench_baseline.json"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin wallclock
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin check_bench -- \
    gate BENCH_wallclock.json
echo "tier1: wallclock checksums pinned, alloc budgets held"

if [ "${CI:-0}" = "1" ]; then
    echo "tier1: CI=1 — skipping wall-clock timing comparison (noisy runners)"
else
    echo "tier1: wall-clock drift vs committed baseline (warn-only)"
    cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin check_bench -- \
        compare "${TMPDIR:-/tmp}/tier1_bench_baseline.json" BENCH_wallclock.json \
        --warn-pct 25
fi

echo "tier1: OK"
