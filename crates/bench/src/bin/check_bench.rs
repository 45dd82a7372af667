//! Gatekeeper for `BENCH_wallclock.json` — the one place the pinned
//! bit-exactness checksums and steady-state allocation budgets live.
//! `scripts/tier1.sh` and the CI bench job both call this instead of
//! grepping the JSON apart in shell.
//!
//! ```text
//! check_bench gate <bench.json>
//!     Hard gate: `bit_identical` must be true, every expected bench
//!     present, every checksum equal to the pinned value, every
//!     allocs_per_batch within budget. Exit 1 on any violation.
//!
//! check_bench compare <baseline.json> <current.json> [--warn-pct N] [--fail-pct N]
//!                     [--expect-improvement <bench>]...
//!     Per-bench pool-time (`tn_ms`) drift, current vs baseline. Drift
//!     above --warn-pct (default 25) prints a warning; above --fail-pct
//!     (default: never) exits 1. Wall-clock is noisy on shared runners,
//!     so CI warns rather than fails by default.
//!
//!     --expect-improvement <bench> (repeatable) marks a bench whose time
//!     is *supposed* to step-change downward in this commit (e.g. a SIMD
//!     or blocking optimization): the named bench is exempt from the
//!     drift thresholds, and instead a warning is printed if it did NOT
//!     get faster. Baseline-refresh procedure for such a commit:
//!       1. land the optimization with the old `BENCH_wallclock.json`
//!          still committed;
//!       2. run `cargo run --release -p wg-bench --bin wallclock` on the
//!          reference machine — the harness itself asserts bit-identical
//!          checksums and the allocation budgets;
//!       3. run `check_bench gate BENCH_wallclock.json` (checksums must
//!          be byte-identical; if the commit legitimately moved numerics,
//!          update `EXPECT` below in the same commit);
//!       4. commit the refreshed JSON together with the code, and pass
//!          `--expect-improvement <bench>` in CI until the baseline lands.
//!
//! check_bench multinode <bench.json>
//!     Validate `BENCH_multinode.json`: schema string, executed-N=1
//!     checksum equal to the single-pipeline one, node counts strictly
//!     increasing from 1, positive epoch times, no halo traffic at N=1
//!     (and some at N>1), and a genuine end-to-end speedup.
//!
//! check_bench cache <bench.json>
//!     Validate `BENCH_cache.json` (the feature-cache sweep): every
//!     cached point's loss/accuracy bits equal the uncached baseline's,
//!     bus bytes are conserved (`bus + saved == baseline bus`), static
//!     hit rates grow monotonically with cache size, points with hits
//!     strictly improve epoch time — and on the hot-set stream a static
//!     cache of at most 10% of the rows cuts remote gather rows by at
//!     least half.
//!
//! check_bench storage <bench.json>
//!     Validate `BENCH_storage.json` (the out-of-core residency sweep):
//!     schema string, every point's loss/accuracy bits equal to the
//!     tier-off baseline's, bytes conserved exactly between the DSM and
//!     disk tiers (`storage + dsm == uncached total`), the issued I/O
//!     consistent with the logical traffic (`storage_requests <=
//!     storage_rows`, `storage_read_bytes >= storage_bytes`), zero disk
//!     traffic at full residency, disk rows monotone as residency
//!     shrinks, and the prefetch-overlapped storage time strictly below
//!     the blocking sum at every point with <= 50% residency.
//!
//! check_bench serving <bench.json>
//!     Validate `BENCH_serving.json` (the serving sweep): schema string,
//!     `bit_identical` true (coalesced == sequential per-request bits),
//!     no shedding on the main legs with every offered request answered,
//!     coalesced QPS at least 2x sequential at equal-or-better exact
//!     p99, a QPS floor (coalesced sustains >= 80% of the offered
//!     rate), a p99 ceiling (<= 4x the coalescing window), a genuine
//!     dedup factor, live histogram quantile estimates, and balanced
//!     shed accounting on the overload leg.
//! ```
//!
//! Exit codes: 0 pass, 1 gate/threshold violation, 2 usage or IO error.

use std::process::exit;

use wg_bench::json::Json;

/// The pinned per-bench contract: (name, FNV-1a checksum, allocation
/// budget per warm batch). The checksums are schedule- and
/// thread-count-invariant by the harness's bit-identical construction,
/// so this gate holds under any `WG_THREADS`. A kernel change that
/// legitimately moves numerics must update the pin here — in the same
/// commit, with the bench rerun.
const EXPECT: [(&str, &str, u64); 5] = [
    ("sample", "f0d397b0ce92dc84", 0),
    ("gather", "2b272988158bae37", 0),
    ("spmm", "9ca0fe519fc2bdf1", 0),
    // The epoch checksum covers loss + train-accuracy bits only (not
    // epoch_time): the feature-cache tier moves simulated time without
    // touching a trained bit, and this pin is the witness. The budget is
    // the measured steady-state figure with warm pools — cache lookups
    // included.
    ("epoch", "2f1ecc574fe94d6a", 9),
    // Two paper-config GAT iterations: the checksum covers both loss
    // bits and was recorded before g-SDDMM, edge softmax, weighted g-SpMM
    // and the narrow matmuls had SIMD twins — those kernels may get
    // faster, never different. The budget is the warm-pool figure now
    // that every GAT intermediate is drawn from the tape's workspace (17
    // when `edge_softmax`/`sddmm` returned fresh matrices).
    ("gat_step", "d7da30127959a9cb", 8),
];

fn usage() -> ! {
    eprintln!(
        "usage:\n  check_bench gate <bench.json>\n  check_bench compare <baseline.json> \
         <current.json> [--warn-pct N] [--fail-pct N] [--expect-improvement <bench>]...\n  \
         check_bench multinode <bench.json>\n  check_bench cache <bench.json>\n  \
         check_bench storage <bench.json>\n  check_bench serving <bench.json>"
    );
    exit(2);
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("check_bench: cannot read {path}: {e}");
        exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("check_bench: {path} is not valid JSON: {e}");
        exit(2);
    })
}

/// The `benches` array member named `name`.
fn bench<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("benches")?
        .as_array()?
        .iter()
        .find(|b| b.get("name").and_then(Json::as_str) == Some(name))
}

fn gate(path: &str) -> i32 {
    let doc = load(path);
    let mut failures = 0u32;
    let mut fail = |msg: String| {
        eprintln!("GATE FAIL: {msg}");
        failures += 1;
    };
    if doc.get("bit_identical").and_then(Json::as_bool) != Some(true) {
        fail("bit_identical is not true".to_string());
    }
    for (name, want_sum, budget) in EXPECT {
        let Some(b) = bench(&doc, name) else {
            fail(format!("bench '{name}' missing from {path}"));
            continue;
        };
        match b.get("checksum").and_then(Json::as_str) {
            Some(got) if got == want_sum => {}
            got => fail(format!(
                "{name}: checksum {} != pinned {want_sum}",
                got.unwrap_or("<missing>")
            )),
        }
        match b.get("allocs_per_batch").and_then(Json::as_f64) {
            Some(a) if a <= budget as f64 => {}
            Some(a) => fail(format!("{name}: {a} allocs/batch exceeds budget {budget}")),
            None => fail(format!("{name}: allocs_per_batch missing")),
        }
    }
    if failures == 0 {
        println!(
            "check_bench gate: OK ({} benches, checksums pinned, alloc budgets held)",
            EXPECT.len()
        );
        0
    } else {
        eprintln!("check_bench gate: {failures} failure(s) in {path}");
        1
    }
}

/// Validate the executed multi-node sweep artifact.
fn multinode(path: &str) -> i32 {
    let doc = load(path);
    let mut failures = 0u32;
    let mut fail = |msg: String| {
        eprintln!("MULTINODE FAIL: {msg}");
        failures += 1;
    };
    match doc.get("schema").and_then(Json::as_str) {
        Some("wg-multinode-sweep-v1") => {}
        got => fail(format!(
            "schema {} != wg-multinode-sweep-v1",
            got.unwrap_or("<missing>")
        )),
    }
    match doc.get("n1") {
        None => fail("n1 equivalence block missing".to_string()),
        Some(n1) => {
            if n1.get("bit_identical").and_then(Json::as_bool) != Some(true) {
                fail("n1.bit_identical is not true".to_string());
            }
            let sum = n1.get("checksum").and_then(Json::as_str);
            let single = n1.get("single_checksum").and_then(Json::as_str);
            if sum.is_none() || sum != single {
                fail(format!(
                    "executed N=1 checksum {} != single-pipeline {}",
                    sum.unwrap_or("<missing>"),
                    single.unwrap_or("<missing>")
                ));
            }
        }
    }
    let points: Vec<&Json> = doc
        .get("points")
        .and_then(Json::as_array)
        .map(|p| p.iter().collect())
        .unwrap_or_default();
    if points.len() < 2 {
        fail(format!(
            "need at least 2 sweep points, got {}",
            points.len()
        ));
        eprintln!("check_bench multinode: {failures} failure(s) in {path}");
        return 1;
    }
    let field = |p: &Json, key: &str| -> f64 {
        p.get(key).and_then(Json::as_f64).unwrap_or_else(|| {
            eprintln!("check_bench: sweep point missing {key} in {path}");
            exit(2);
        })
    };
    let mut prev_nodes = 0.0;
    for p in &points {
        let nodes = field(p, "nodes");
        if nodes <= prev_nodes {
            fail(format!("node counts not strictly increasing at {nodes}"));
        }
        prev_nodes = nodes;
        if field(p, "epoch_time_s") <= 0.0 {
            fail(format!("non-positive epoch time at {nodes} nodes"));
        }
        let halo = field(p, "halo_bytes");
        if nodes == 1.0 && halo != 0.0 {
            fail(format!("{halo} halo bytes at N=1 (must be exactly zero)"));
        }
        if nodes > 1.0 && halo <= 0.0 {
            fail(format!("no halo traffic at {nodes} nodes"));
        }
    }
    if field(points[0], "nodes") != 1.0 {
        fail("sweep must start at 1 node".to_string());
    }
    if (field(points[0], "speedup") - 1.0).abs() > 1e-9 {
        fail("first point's speedup is not 1.0".to_string());
    }
    let (first, last) = (
        field(points[0], "epoch_time_s"),
        field(points[points.len() - 1], "epoch_time_s"),
    );
    if last >= first {
        fail(format!(
            "no end-to-end speedup: {last}s at max nodes vs {first}s at 1"
        ));
    }
    if failures == 0 {
        println!(
            "check_bench multinode: OK ({} points, N=1 bit-identical, {:.2}x end-to-end)",
            points.len(),
            first / last
        );
        0
    } else {
        eprintln!("check_bench multinode: {failures} failure(s) in {path}");
        1
    }
}

/// Validate the feature-cache sweep artifact.
fn cache(path: &str) -> i32 {
    let doc = load(path);
    let mut failures = 0u32;
    let mut fail = |msg: String| {
        eprintln!("CACHE FAIL: {msg}");
        failures += 1;
    };
    match doc.get("schema").and_then(Json::as_str) {
        Some("wg-cache-sweep-v1") => {}
        got => fail(format!(
            "schema {} != wg-cache-sweep-v1",
            got.unwrap_or("<missing>")
        )),
    }
    let str_field = |p: &Json, key: &str| -> String {
        p.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .unwrap_or_else(|| {
                eprintln!("check_bench: cache point missing {key} in {path}");
                exit(2);
            })
    };
    let num_field = |p: &Json, key: &str| -> f64 {
        p.get(key).and_then(Json::as_f64).unwrap_or_else(|| {
            eprintln!("check_bench: cache point missing {key} in {path}");
            exit(2);
        })
    };
    // Epoch-workload section: numerics pinned to the baseline, bytes
    // conserved, static hit rate monotone in cache size, time improving
    // whenever the cache actually hit.
    let Some(base) = doc.get("baseline") else {
        fail("baseline missing".to_string());
        eprintln!("check_bench cache: {failures} failure(s) in {path}");
        return 1;
    };
    let points: Vec<&Json> = doc
        .get("points")
        .and_then(Json::as_array)
        .map(|p| p.iter().collect())
        .unwrap_or_default();
    if points.len() < 5 {
        fail(format!("need >= 5 epoch points, got {}", points.len()));
    }
    let base_bus = num_field(base, "bus_bytes");
    let mut prev_static_rate = -1.0;
    for p in &points {
        let mode = str_field(p, "mode");
        let rows = num_field(p, "rows");
        if str_field(p, "loss_bits") != str_field(base, "loss_bits") {
            fail(format!("{mode}/{rows}: loss bits differ from baseline"));
        }
        if str_field(p, "accuracy_bits") != str_field(base, "accuracy_bits") {
            fail(format!("{mode}/{rows}: accuracy bits differ from baseline"));
        }
        if mode == "off" {
            continue;
        }
        let conserved = num_field(p, "bus_bytes") + num_field(p, "saved_bus_bytes");
        if conserved != base_bus {
            fail(format!(
                "{mode}/{rows}: bus bytes not conserved ({conserved} != {base_bus})"
            ));
        }
        if mode == "static" {
            let rate = num_field(p, "hit_rate");
            if rate < prev_static_rate {
                fail(format!(
                    "static hit rate not monotone at {rows} rows ({rate} < {prev_static_rate})"
                ));
            }
            prev_static_rate = rate;
        }
        if num_field(p, "hits") > 0.0
            && num_field(p, "epoch_time_s") >= num_field(base, "epoch_time_s")
        {
            fail(format!("{mode}/{rows}: hits but no epoch-time improvement"));
        }
    }
    // Hot-set section: the headline claim. A static cache of <= 10% of
    // the rows must cut remote gather rows by >= 50%, values and bytes
    // accounted for exactly.
    match doc.get("hotset") {
        None => fail("hotset section missing".to_string()),
        Some(hs) => {
            let Some(hbase) = hs.get("baseline") else {
                fail("hotset.baseline missing".to_string());
                eprintln!("check_bench cache: {failures} failure(s) in {path}");
                return 1;
            };
            let hpoints: Vec<&Json> = hs
                .get("points")
                .and_then(Json::as_array)
                .map(|p| p.iter().collect())
                .unwrap_or_default();
            let hbase_bus = num_field(hbase, "bus_bytes");
            let mut headline = false;
            for p in &hpoints {
                let mode = str_field(p, "mode");
                let rows = num_field(p, "rows");
                if str_field(p, "checksum") != str_field(hbase, "checksum") {
                    fail(format!("hotset {mode}/{rows}: gathered values diverged"));
                }
                if mode == "off" {
                    continue;
                }
                let conserved = num_field(p, "bus_bytes") + num_field(p, "saved_bus_bytes");
                if conserved != hbase_bus {
                    fail(format!("hotset {mode}/{rows}: bus bytes not conserved"));
                }
                if mode == "static"
                    && num_field(p, "frac") <= 0.10
                    && num_field(p, "remote_row_reduction") >= 0.50
                {
                    headline = true;
                }
            }
            if !headline {
                fail(
                    "no static hot-set point with frac <= 0.10 cuts remote rows by >= 50%"
                        .to_string(),
                );
            }
        }
    }
    if failures == 0 {
        println!(
            "check_bench cache: OK ({} epoch points; numerics pinned, bytes conserved, >=50% remote-row cut at <=10% cache)",
            points.len()
        );
        0
    } else {
        eprintln!("check_bench cache: {failures} failure(s) in {path}");
        1
    }
}

/// Validate the out-of-core storage sweep artifact.
fn storage(path: &str) -> i32 {
    let doc = load(path);
    let mut failures = 0u32;
    let mut fail = |msg: String| {
        eprintln!("STORAGE FAIL: {msg}");
        failures += 1;
    };
    match doc.get("schema").and_then(Json::as_str) {
        Some("wg-storage-sweep-v2") => {}
        got => fail(format!(
            "schema {} != wg-storage-sweep-v2",
            got.unwrap_or("<missing>")
        )),
    }
    let str_field = |p: &Json, key: &str| -> String {
        p.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .unwrap_or_else(|| {
                eprintln!("check_bench: storage point missing {key} in {path}");
                exit(2);
            })
    };
    let num_field = |p: &Json, key: &str| -> f64 {
        p.get(key).and_then(Json::as_f64).unwrap_or_else(|| {
            eprintln!("check_bench: storage point missing {key} in {path}");
            exit(2);
        })
    };
    let Some(base) = doc.get("baseline") else {
        fail("baseline missing".to_string());
        eprintln!("check_bench storage: {failures} failure(s) in {path}");
        return 1;
    };
    let points: Vec<&Json> = doc
        .get("points")
        .and_then(Json::as_array)
        .map(|p| p.iter().collect())
        .unwrap_or_default();
    if points.len() < 4 {
        fail(format!("need >= 4 sweep points, got {}", points.len()));
    }
    let base_algo = num_field(base, "algo_bytes");
    let mut prev_disk = -1.0;
    let mut full_residency_seen = false;
    let mut overlap_gated = 0u32;
    for p in &points {
        let frac = num_field(p, "frac");
        // Values never move: the disk-served rows round-tripped through
        // the spill file bit-identically.
        if str_field(p, "loss_bits") != str_field(base, "loss_bits") {
            fail(format!("{frac}: loss bits differ from tier-off baseline"));
        }
        if str_field(p, "accuracy_bits") != str_field(base, "accuracy_bits") {
            fail(format!(
                "{frac}: accuracy bits differ from tier-off baseline"
            ));
        }
        // Bytes conserved: every gathered byte came from exactly one of
        // the DSM or the disk tier.
        let split = num_field(p, "storage_bytes") + num_field(p, "dsm_bytes");
        if split != base_algo {
            fail(format!(
                "{frac}: storage + dsm bytes {split} != uncached total {base_algo}"
            ));
        }
        let disk = num_field(p, "storage_rows");
        // Issued I/O vs logical traffic: coalescing merges requests and
        // bridges gaps, never the reverse.
        let (requests, read_bytes) = (
            num_field(p, "storage_requests"),
            num_field(p, "storage_read_bytes"),
        );
        if requests > disk || (disk > 0.0 && requests <= 0.0) {
            fail(format!("{frac}: {requests} requests for {disk} disk rows"));
        }
        if read_bytes < num_field(p, "storage_bytes") {
            fail(format!(
                "{frac}: read {read_bytes} B, fewer than the storage bytes delivered"
            ));
        }
        if num_field(p, "fetch_ms") < 0.0 {
            fail(format!("{frac}: negative host fetch_ms"));
        }
        if disk < prev_disk {
            fail(format!("disk rows not monotone at frac {frac}"));
        }
        prev_disk = disk;
        let (blocking, exposed) = (
            num_field(p, "storage_blocking_s"),
            num_field(p, "storage_exposed_s"),
        );
        if frac >= 1.0 {
            full_residency_seen = true;
            if disk != 0.0 || blocking != 0.0 {
                fail(format!(
                    "full residency still hit disk ({disk} rows, {blocking}s)"
                ));
            }
        }
        // The overlap claim: at <= 50% residency the tier serves real
        // traffic, and the double-buffered prefetch must strictly beat
        // charging every NVMe read as blocking.
        if frac <= 0.50 {
            if disk <= 0.0 || blocking <= 0.0 {
                fail(format!("{frac}: expected disk traffic at <= 50% residency"));
            }
            if exposed >= blocking {
                fail(format!(
                    "{frac}: prefetch-overlapped {exposed}s not strictly below blocking {blocking}s"
                ));
            }
            overlap_gated += 1;
        }
    }
    if !full_residency_seen {
        fail("no full-residency (frac = 1.0) point".to_string());
    }
    if overlap_gated == 0 {
        fail("no point at <= 50% residency to gate the prefetch overlap".to_string());
    }
    if failures == 0 {
        println!(
            "check_bench storage: OK ({} points; numerics pinned, dsm + disk bytes conserved, \
             requests <= rows, read bytes >= storage bytes, prefetch overlap holds on {overlap_gated} low-residency points)",
            points.len()
        );
        0
    } else {
        eprintln!("check_bench storage: {failures} failure(s) in {path}");
        1
    }
}

/// Validate the serving sweep artifact.
fn serving(path: &str) -> i32 {
    let doc = load(path);
    let mut failures = 0u32;
    let mut fail = |msg: String| {
        eprintln!("SERVING FAIL: {msg}");
        failures += 1;
    };
    match doc.get("schema").and_then(Json::as_str) {
        Some("wg-serving-v1") => {}
        got => fail(format!(
            "schema {} != wg-serving-v1",
            got.unwrap_or("<missing>")
        )),
    }
    if doc.get("bit_identical").and_then(Json::as_bool) != Some(true) {
        fail("bit_identical is not true (coalesced must equal sequential per-request)".to_string());
    }
    let num = |p: &Json, key: &str| -> f64 {
        p.get(key).and_then(Json::as_f64).unwrap_or_else(|| {
            eprintln!("check_bench: serving block missing {key} in {path}");
            exit(2);
        })
    };
    let (Some(seq), Some(coal)) = (doc.get("sequential"), doc.get("coalesced")) else {
        fail("sequential/coalesced blocks missing".to_string());
        eprintln!("check_bench serving: {failures} failure(s) in {path}");
        return 1;
    };
    // Main legs: open-loop but not overloaded — every offered request
    // answered, none shed, so the two QPS figures cover identical work.
    for (name, leg) in [("sequential", seq), ("coalesced", coal)] {
        if num(leg, "shed") != 0.0 {
            fail(format!(
                "{name}: main leg shed {} requests",
                num(leg, "shed")
            ));
        }
        if num(leg, "admitted") != num(leg, "offered") {
            fail(format!(
                "{name}: admitted {} != offered {}",
                num(leg, "admitted"),
                num(leg, "offered")
            ));
        }
        if num(leg, "hist_p50_us") <= 0.0 || num(leg, "hist_p99_us") <= 0.0 {
            fail(format!("{name}: histogram quantile estimates missing"));
        }
    }
    // The headline: >= 2x sustained QPS at equal-or-better exact p99.
    let (sq, cq) = (num(seq, "qps"), num(coal, "qps"));
    if cq < 2.0 * sq {
        fail(format!("coalesced {cq:.0} qps < 2x sequential {sq:.0} qps"));
    }
    if num(coal, "p99_us") > num(seq, "p99_us") {
        fail(format!(
            "coalesced p99 {}us worse than sequential {}us",
            num(coal, "p99_us"),
            num(seq, "p99_us")
        ));
    }
    // Absolute service-quality bounds: the coalesced engine must sustain
    // most of the offered rate, with tail latency bounded by a small
    // multiple of the coalescing window it deliberately introduces.
    let rate = doc
        .get("traffic")
        .map(|t| num(t, "rate_qps"))
        .unwrap_or_else(|| {
            fail("traffic block missing".to_string());
            f64::INFINITY
        });
    if cq < 0.8 * rate {
        fail(format!(
            "qps floor: coalesced {cq:.0} qps < 80% of offered {rate:.0}"
        ));
    }
    if let Some(c) = doc.get("coalescing") {
        let ceiling = 4.0 * num(c, "max_delay_us");
        if num(coal, "p99_us") > ceiling {
            fail(format!(
                "p99 ceiling: coalesced {}us > {ceiling}us (4x window)",
                num(coal, "p99_us")
            ));
        }
    } else {
        fail("coalescing block missing".to_string());
    }
    if num(coal, "dedup_factor") <= 1.0 {
        fail("coalesced run collapsed no duplicate queries".to_string());
    }
    if num(coal, "batches") >= num(seq, "batches") {
        fail("coalescing did not reduce dispatch count".to_string());
    }
    // Overload leg: shedding happened and the books balance exactly.
    match doc.get("overload") {
        None => fail("overload block missing".to_string()),
        Some(o) => {
            if num(o, "shed") <= 0.0 {
                fail("overload leg shed nothing".to_string());
            }
            if num(o, "admitted") + num(o, "shed") != num(o, "offered") {
                fail(format!(
                    "overload books: {} admitted + {} shed != {} offered",
                    num(o, "admitted"),
                    num(o, "shed"),
                    num(o, "offered")
                ));
            }
        }
    }
    if failures == 0 {
        println!(
            "check_bench serving: OK ({:.2}x qps at {:.2}x p99, bit-identical, shed books balance)",
            cq / sq,
            num(coal, "p99_us") / num(seq, "p99_us")
        );
        0
    } else {
        eprintln!("check_bench serving: {failures} failure(s) in {path}");
        1
    }
}

/// `--flag N` style option, or the default.
fn pct_flag(args: &[String], flag: &str, default: Option<f64>) -> Option<f64> {
    match args.iter().position(|a| a == flag) {
        None => default,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(v) => Some(v),
            None => usage(),
        },
    }
}

/// Every value following a repeatable `--flag <value>` pair.
fn multi_flag<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            match args.get(i + 1) {
                Some(v) => out.push(v.as_str()),
                None => usage(),
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

fn compare(base_path: &str, cur_path: &str, args: &[String]) -> i32 {
    let warn_pct = pct_flag(args, "--warn-pct", Some(25.0));
    let fail_pct = pct_flag(args, "--fail-pct", None);
    let expect_improvement = multi_flag(args, "--expect-improvement");
    for e in &expect_improvement {
        if !EXPECT.iter().any(|(name, _, _)| name == e) {
            eprintln!("check_bench: --expect-improvement names unknown bench '{e}'");
            exit(2);
        }
    }
    let base = load(base_path);
    let cur = load(cur_path);
    let mut worst: f64 = f64::NEG_INFINITY;
    let mut failed = false;
    println!("bench time drift, {cur_path} vs {base_path} (pool-schedule tn_ms):");
    for (name, _, _) in EXPECT {
        let t = |doc: &Json, path: &str| -> f64 {
            bench(doc, name)
                .and_then(|b| b.get("tn_ms"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| {
                    eprintln!("check_bench: bench '{name}' has no tn_ms in {path}");
                    exit(2);
                })
        };
        let (b, c) = (t(&base, base_path), t(&cur, cur_path));
        let pct = (c - b) / b.max(1e-12) * 100.0;
        let mark = if expect_improvement.contains(&name) {
            // Step-change expected: exempt from the drift thresholds, but
            // flag the opposite surprise — an "optimized" bench that
            // didn't get faster.
            if pct >= 0.0 {
                "  << WARN: expected an improvement"
            } else {
                "  (improvement expected)"
            }
        } else {
            worst = worst.max(pct);
            match (fail_pct, warn_pct) {
                (Some(f), _) if pct > f => {
                    failed = true;
                    "  << FAIL"
                }
                (_, Some(w)) if pct > w => "  << WARN: regression",
                _ => "",
            }
        };
        println!("  {name:>8}: {b:>10.3} ms -> {c:>10.3} ms  ({pct:>+7.1}%){mark}");
    }
    if failed {
        eprintln!(
            "check_bench compare: time regression beyond --fail-pct {}%",
            fail_pct.unwrap_or(f64::INFINITY)
        );
        1
    } else {
        println!(
            "check_bench compare: OK (worst drift {:+.1}%{})",
            if worst.is_finite() { worst } else { 0.0 },
            warn_pct.map_or_else(String::new, |w| format!(", warn threshold {w}%"))
        );
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("gate") => match args.get(1) {
            Some(path) => gate(path),
            None => usage(),
        },
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(b), Some(c)) => compare(b, c, &args[3..]),
            _ => usage(),
        },
        Some("multinode") => match args.get(1) {
            Some(path) => multinode(path),
            None => usage(),
        },
        Some("cache") => match args.get(1) {
            Some(path) => cache(path),
            None => usage(),
        },
        Some("storage") => match args.get(1) {
            Some(path) => storage(path),
            None => usage(),
        },
        Some("serving") => match args.get(1) {
            Some(path) => serving(path),
            None => usage(),
        },
        _ => usage(),
    };
    exit(code);
}
