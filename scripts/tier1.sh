#!/usr/bin/env bash
# Tier-1 verification: check every manifest dependency is used, then build,
# test, format, lint and document the whole workspace, and type-check the
# out-of-workspace benchmark package against it.
#
# Usage: scripts/tier1.sh
#
# When the crates.io registry is unreachable (air-gapped CI, laptops on
# planes), cargo is forced offline — all dependencies resolve to the
# path-based shims under shims/, so offline builds are fully supported.
#
# The last step runs the wallclock harness, whose exit status is the
# checksum + allocation gate (machine-independent, so it applies on any
# runner). Host *timings* are not judged here; `benchmark/`'s `compare`
# is the instrument for those (alternating, speed-normalised runs).
#
# Baseline refresh: rerun
#     cargo run --release -p wg-bench --bin wallclock
# and commit the regenerated BENCH_wallclock.json; if a commit
# legitimately moved numerics, update `EXPECT` in
# crates/bench/src/bin/wallclock.rs in the same commit.

set -euo pipefail
cd "$(dirname "$0")/.."

# An exported CARGO_NET_OFFLINE=true settles it without a probe (a
# sandbox may forbid even the attempt).
OFFLINE_FLAGS=()
if [ "${CARGO_NET_OFFLINE:-}" = "true" ]; then
    OFFLINE_FLAGS=(--offline)
elif ! curl -sfI --max-time 5 https://index.crates.io/config.json >/dev/null 2>&1; then
    echo "tier1: registry unreachable, building offline"
    export CARGO_NET_OFFLINE=true
    OFFLINE_FLAGS=(--offline)
fi

# A dependency no source names still builds, links and slows every
# build; nothing else here notices it. The check reads the manifests and
# sources only, so it runs first.
echo "tier1: unused manifest dependencies"
python3 scripts/unused_deps.py

echo "tier1: cargo build --release"
cargo build --release "${OFFLINE_FLAGS[@]}"

# benchmark/ is a package of its own, outside the workspace, so the
# build above never compiles it: without this step a renamed `Pipeline`
# method passes tier-1 and fails only when the benchmark is next built.
echo "tier1: cargo check --manifest-path benchmark/Cargo.toml"
cargo check --offline --manifest-path benchmark/Cargo.toml

# One pass: the settings earlier passes varied process-wide are checked
# in-process — the one-worker pool by crates/serve/tests/one_worker.rs,
# every cache x residency combination, on the pool and sequentially, by
# crates/serve/tests/config_space.rs.
echo "tier1: cargo test -q"
cargo test -q "${OFFLINE_FLAGS[@]}"

# wg-trace's `disabled` feature compiles every probe to nothing, and no
# other step builds it: its own tests check that, enabled or not, no
# probe records (the recording tests are gated to the default build).
echo "tier1: cargo test -q -p wg-trace --features disabled"
cargo test -q "${OFFLINE_FLAGS[@]}" -p wg-trace --features disabled

# The kernel crates once more at the optimisation level the benchmarks
# measure: the bit-identity claims are about release binaries, and the
# compiler vectorises (and commutes) differently there than in the dev
# profile the pass above tests. wg-mem rides along for the gather's
# plan/execute index arithmetic and the CLOCK cache's open-addressed
# table probing, at the release codegen the benchmarks run. wg-sample
# rides along for its host sampling kernel: the `u16` identity array and
# the overlay table's wrap-around probing are index arithmetic that the
# dev profile's overflow checks would trap and release wraps silently.
echo "tier1: cargo test -q --release -p wg-tensor -p wg-autograd -p wg-gnn -p wg-mem -p wg-sample"
cargo test -q --release "${OFFLINE_FLAGS[@]}" -p wg-tensor -p wg-autograd -p wg-gnn -p wg-mem -p wg-sample

echo "tier1: cargo fmt --check"
cargo fmt --check

echo "tier1: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets "${OFFLINE_FLAGS[@]}" -- -D warnings

# CI's lint job builds the docs with warnings denied; running it here too
# means a doc comment that still links a deleted or renamed item fails
# locally, not only in CI.
echo "tier1: cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps "${OFFLINE_FLAGS[@]}"

# The wallclock harness is a correctness gate as much as a benchmark:
# every kernel's FNV-1a checksum must stay pinned (the numerics may never
# move), every hot path must stay within its steady-state allocation
# budget (the workspace/scratch-arena contract, counted under the
# harness's own allocator with span tracing and metrics enabled), and
# the `epoch` / `gat_step` benches within their peak live-heap budgets
# (the tape's release-at-last-use contract, counted by the same
# allocator). The pins and budgets live in one table: `EXPECT` in
# crates/bench/src/bin/wallclock.rs; a violation panics before the
# artifact is written.
echo "tier1: wallclock bench (checksum + allocation + peak-heap gate)"
cargo run -q --release "${OFFLINE_FLAGS[@]}" -p wg-bench --bin wallclock

echo "tier1: OK"
