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
//! The sweep gates itself — measure, [`gate`], write — so a
//! `BENCH_cache.json` on disk is one that passed:
//!
//! * **Values never move** — every point's loss/accuracy bits (and every
//!   hot-set point's gathered-value checksum) equal the uncached
//!   baseline's. Caching changes cost, never numerics.
//! * **Bytes are conserved** — `bus_bytes + saved_bus_bytes` equals the
//!   baseline's `bus_bytes` exactly: every remote row is either fetched
//!   (a miss) or saved (a cached hit), never dropped or double-counted.
//! * **The cache pays** — static hit rates grow with cache size, a point
//!   with hits strictly improves epoch time, and on the hot-set stream a
//!   static cache of at most 10% of the rows cuts remote gather rows by
//!   at least half (the headline).
//!
//! Each configuration trains two epochs and reports the *second*: epoch 0
//! warms the CLOCK caches (and the scratch pools), so the recorded hit
//! rates are steady-state figures, not cold-start ones. The per-point
//! traffic numbers are metric-registry deltas over exactly that epoch.

use std::sync::Arc;

use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_bench::{banner, counter, flags, Table};
use wg_graph::{DatasetKind, DegreeProfile, MultiGpuGraph, SyntheticDataset};
use wg_mem::{FeatureCache, RowPlan, TierStack};
use wholegraph::prelude::*;

/// Cache sizes swept, as fractions of the DSM feature-row count. The
/// largest point stays at the acceptance bound: a hot set of at most 10%
/// of rows must cut remote gather rows by at least half.
const FRACTIONS: [f64; 4] = [0.01, 0.025, 0.05, 0.10];

/// One swept configuration's measurements (mode `None` = the uncached
/// baseline).
#[derive(Default)]
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

/// Train two epochs of the wallclock-shaped pipeline under `cache` and
/// measure the second one (report + metric deltas).
fn run(dataset: &Arc<SyntheticDataset>, rows: usize, mode: Option<CacheMode>, frac: f64) -> Point {
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage)
        .with_seed(3)
        .with_cache(rows, mode.unwrap_or_default());
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
#[derive(Default)]
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

    /// Share of the baseline's remote rows this point's cache removed.
    fn remote_row_reduction(&self, baseline: &HotPoint) -> f64 {
        1.0 - self.remote_rows as f64 / (baseline.remote_rows as f64).max(1.0)
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
        let stats = stack.execute(
            store.features(),
            &plan,
            &mut out,
            rank,
            machine.cost(),
            &spec,
        );
        hits += stats.cache_hits as u64;
        remote += stats.remote_rows as u64;
        bus += stats.bus_bytes;
        saved += stats.saved_bus_bytes;
        sim += stats.sim_time;
        sum = wg_tensor::simd::fnv1a_f32(sum, &out);
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
        p.remote_row_reduction(baseline),
    )
}

/// Every invariant the artifact claims, on the typed points, before it
/// is written (`points` / `hot_points` exclude their baselines).
fn gate(base: &Point, points: &[Point], hot_base: &HotPoint, hot_points: &[HotPoint]) {
    // Epoch section.
    let mut prev_static_rate = -1.0;
    for p in points {
        let (at, rate) = (format!("{:?}/{} rows", p.mode, p.rows), p.hit_rate());
        assert_eq!(p.loss_bits, base.loss_bits, "{at}: loss diverged");
        assert_eq!(
            p.accuracy_bits, base.accuracy_bits,
            "{at}: accuracy diverged"
        );
        let conserved = p.bus_bytes + p.saved_bus_bytes;
        assert_eq!(conserved, base.bus_bytes, "{at}: bus bytes not conserved");
        if p.mode == Some(CacheMode::Static) {
            assert!(
                rate >= prev_static_rate,
                "{at}: static hit rate not monotone ({rate} < {prev_static_rate})"
            );
            prev_static_rate = rate;
        }
        assert!(
            p.hits == 0 || p.epoch_time < base.epoch_time,
            "{at}: hits but no epoch-time improvement"
        );
    }
    // Hot-set section, where the headline is measured.
    for p in hot_points {
        let at = format!("hot-set {:?}/{} rows", p.mode, p.rows);
        assert_eq!(
            p.checksum, hot_base.checksum,
            "{at}: gathered values diverged"
        );
        assert_eq!(
            p.bus_bytes + p.saved_bus_bytes,
            hot_base.bus_bytes,
            "{at}: bus bytes not conserved"
        );
    }
    assert!(
        hot_points.iter().any(|p| {
            p.mode == Some(CacheMode::Static)
                && p.frac <= 0.10
                && p.remote_row_reduction(hot_base) >= 0.50
        }),
        "no static hot-set point with frac <= 0.10 cuts remote rows by >= 50%"
    );
}

fn main() {
    flags(&[]); // takes none: any argument is an error
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

    // Phase 2: the hot-set gather sweep — same gather kernel, an access
    // stream with the skew real power-law graphs produce. This is where
    // the headline claim (≥50% of remote rows cut by a ≤10% cache) is
    // measured.
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
            format!("{:.1}%", p.remote_row_reduction(&hot_baseline) * 100.0),
            format!("{:.2}", p.saved_bus_bytes as f64 / 1e6),
            format!("{}", p.sim_time),
        ]);
    };
    hrow(&mut ht, &hot_baseline);
    for p in &hot_points {
        hrow(&mut ht, p);
    }
    ht.print();

    gate(&baseline, &points, &hot_baseline, &hot_points);
    println!("\ngate: OK (values pinned, bus bytes conserved, >= 50% remote-row cut at <= 10%)");

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

#[cfg(test)]
mod tests {
    use super::*;

    const ROW_BYTES: u64 = 400;

    /// A static-cache epoch point that hits `hits` of 1000 remote rows.
    fn point(rows: usize, hits: u64) -> Point {
        Point {
            mode: (rows > 0).then_some(CacheMode::Static),
            rows,
            hits,
            misses: 1000 - hits,
            bus_bytes: (1000 - hits) * ROW_BYTES,
            saved_bus_bytes: hits * ROW_BYTES,
            epoch_time: SimTime::from_secs(1.0 - hits as f64 * 1e-4),
            ..Default::default()
        }
    }

    /// Baseline + a two-size static sweep, and a hot-set pair, that pass.
    fn passing() -> (Point, Vec<Point>, HotPoint, Vec<HotPoint>) {
        let hot = |mode, remote_rows| HotPoint {
            mode,
            remote_rows,
            bus_bytes: remote_rows * ROW_BYTES,
            saved_bus_bytes: (1000 - remote_rows) * ROW_BYTES,
            ..Default::default()
        };
        (
            point(0, 0),
            vec![point(80, 100), point(800, 300)],
            hot(None, 1000),
            vec![hot(Some(CacheMode::Static), 400)],
        )
    }

    #[test]
    #[should_panic(expected = "Some(Static)/800 rows: bus bytes not conserved")]
    fn gate_catches_bus_bytes_off_by_one_row() {
        let (b, mut p, hb, hp) = passing();
        p[1].bus_bytes += ROW_BYTES;
        gate(&b, &p, &hb, &hp);
    }

    #[test]
    #[should_panic(expected = "Some(Static)/800 rows: static hit rate not monotone")]
    fn gate_catches_a_falling_static_hit_rate() {
        let (b, mut p, hb, hp) = passing();
        p[1] = point(800, 50);
        gate(&b, &p, &hb, &hp);
    }
}
