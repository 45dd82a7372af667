//! Wall-clock harness for the work-stealing pool — the one harness that
//! measures *host* time, not simulated device time. Each kernel family
//! (sampling, gather, g-SpMM forward+backward, an end-to-end training
//! epoch, two paper-config GAT iterations) runs twice: once pinned to the sequential reference schedule
//! (`rayon::run_sequential`) and once on the pool at its configured
//! width. Outputs must be bit-identical — the speedup is only reportable
//! because the numerics provably did not move. Results are printed, held
//! to the pinned contract ([`EXPECT`], checked by [`gate`]) and only then
//! written to `BENCH_wallclock.json`: the exit status is the gate that
//! `scripts/tier1.sh` and `scripts/bench_gate.sh` run.
//!
//! On a single-core runner the speedups degenerate to ~1.0x; the JSON
//! records `threads` and `cores` so readers can tell.
//!
//! The harness also runs under a counting global allocator and reports
//! `allocs_per_batch` for every bench: the minimum number of heap
//! allocations observed across the (already warm) pool-schedule repeats.
//! For the sampling bench this must be **zero** — the scratch-arena hot
//! path's contract — and [`gate`] holds every bench to its budget. The
//! same allocator tracks live bytes, and every row reports
//! `peak_heap_mb`: the highest live heap while the bench's runs execute
//! (its set-up state included), which [`gate`] holds to a budget where
//! [`EXPECT`] sets one.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::prelude::*;
use rand::rngs::SmallRng;
use wg_bench::{args, banner, bench_dataset, fnv1a, parse_flags, parse_value, refuse, Table};
use wg_graph::{DatasetKind, MultiGpuGraph};
use wg_mem::{CacheMode, FeatureCache, OocTier, RowPlan, TierStack};
use wg_sample::{
    sample_minibatch_into, GraphAccess, MiniBatch, MultiGpuAccess, SampleScratch, SamplerConfig,
};
use wg_tensor::heap::{self, CountingAlloc};
use wg_tensor::simd::{fnv1a_f32, FNV_OFFSET};
use wg_tensor::sparse::{spmm_backward_src_into, spmm_into, ReverseScratch};
use wg_tensor::{Agg, BlockCsr, Matrix};
use wholegraph::prelude::*;

/// The allocation and live-byte counters every row is gated on: process
/// wide, pool workers included.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Repeats under the sequential reference schedule.
const REPEATS: usize = 3;
/// Repeats on the pool — a couple more, since the pool timings feed the
/// reported speedup and the steady-state allocation minimum.
const POOL_REPEATS: usize = 5;

/// The pinned per-bench contract: (name, FNV-1a checksum, allocation
/// budget per warm batch, peak live-heap budget in MiB where the bench
/// has one) — the one place the pins and budgets live. The checksums
/// are schedule- and thread-count-invariant by the harness's
/// bit-identical construction, so the gate holds under any `WG_THREADS`
/// and on every tier leg (`--cache-rows`, `--storage-rows`: tiers change
/// cost, never values, and their hot paths allocate nothing). A kernel
/// change that legitimately moves numerics must update the pin here — in
/// the same commit, with the bench rerun.
const EXPECT: [(&str, u64, u64, Option<f64>); 5] = [
    ("sample", 0xf0d397b0ce92dc84, 0, None),
    ("gather", 0x2b272988158bae37, 0, None),
    ("spmm", 0x9ca0fe519fc2bdf1, 0, None),
    // The epoch checksum covers loss + train-accuracy bits only (not
    // epoch_time): the feature-cache tier moves simulated time without
    // touching a trained bit, and this pin is the witness. The budget is
    // the measured steady-state figure with warm pools, cache lookups and
    // CLOCK maintenance included. The peak budget is the highest figure
    // measured at `WG_THREADS` 1 and 4 on the three tier legs (18.9 MiB,
    // the CLOCK cache leg), plus 10%.
    ("epoch", 0x2f1ecc574fe94d6a, 1, Some(20.8)),
    // Two paper-config GAT iterations: the checksum covers both loss
    // bits and was recorded before g-SDDMM, edge softmax, weighted g-SpMM
    // and the narrow matmuls had SIMD twins — those kernels may get
    // faster, never different. The budget is the warm-pool figure: every
    // GAT intermediate is drawn from the tape's workspace. The peak
    // budget is set like the epoch's (109.3 MiB at `WG_THREADS=4` on the
    // default, CLOCK-cache and full-residency legs, 106.8 at one thread,
    // plus 10%); the unfused GAT layer peaked at 135.9 MiB, and a tape
    // that held every buffer until `Tape::reset` at 278 MiB.
    ("gat_step", 0xd7da30127959a9cb, 2, Some(120.3)),
];

/// One timed run of a bench's workload.
struct RunOut {
    elapsed: Duration,
    checksum: u64,
    /// Simulated device time for the same work, where one exists.
    sim: Option<SimTime>,
    /// Host wall-clock split across the pipeline stages (epoch bench).
    stages: Option<[Duration; 3]>,
}

#[derive(Default)]
struct Measurement {
    name: &'static str,
    t1: Duration,
    tn: Duration,
    checksum: u64,
    /// Minimum heap allocations over the warm pool-schedule repeats.
    allocs: u64,
    /// Logical batches per run (divides `allocs` into a per-batch figure).
    batches: u64,
    /// Highest live heap while the runs executed, bytes.
    peak_bytes: usize,
    sim: Option<SimTime>,
    stages: Option<[Duration; 3]>,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.t1.as_secs_f64() / self.tn.as_secs_f64().max(1e-12)
    }

    fn allocs_per_batch(&self) -> u64 {
        self.allocs / self.batches.max(1)
    }

    fn peak_mb(&self) -> f64 {
        self.peak_bytes as f64 / (1 << 20) as f64
    }
}

/// Run `work` once as an untimed warm-up (filling every pooled buffer),
/// then `REPEATS` times under the sequential reference schedule and
/// `POOL_REPEATS` times on the pool; keep the best time of each and
/// insist the checksums never differ between (or within) the two
/// schedules. The minimum pool-repeat allocation count is the
/// steady-state figure; the peak live heap covers every run.
fn measure(name: &'static str, batches: u64, mut work: impl FnMut() -> RunOut) -> Measurement {
    heap::reset_peak();
    let warm = work();
    let mut best = |sequential: bool, repeats: usize| {
        let mut t = Duration::MAX;
        let mut sum = None;
        let mut sim = None;
        let mut stages = None;
        let mut allocs = u64::MAX;
        for _ in 0..repeats {
            let a0 = heap::allocs();
            let r = if sequential {
                rayon::run_sequential(&mut work)
            } else {
                work()
            };
            let a = heap::allocs() - a0;
            assert_eq!(
                *sum.get_or_insert(r.checksum),
                r.checksum,
                "{name}: run-to-run divergence"
            );
            t = t.min(r.elapsed);
            allocs = allocs.min(a);
            sim = r.sim;
            stages = r.stages;
        }
        (t, sum.unwrap(), sim, stages, allocs)
    };
    let (t1, c1, sim, _, _) = best(true, REPEATS);
    let (tn, cn, _, stages, allocs) = best(false, POOL_REPEATS);
    assert_eq!(c1, cn, "{name}: parallel result differs from sequential");
    assert_eq!(warm.checksum, c1, "{name}: warm-up run diverged");
    Measurement {
        name,
        t1,
        tn,
        checksum: c1,
        allocs,
        batches,
        peak_bytes: heap::peak_bytes(),
        sim,
        stages,
    }
}

/// Mini-batch sampling (Algorithm 1 + AppendUnique) over the DSM store.
fn bench_sample() -> Measurement {
    let dataset = bench_dataset(DatasetKind::OgbnProducts, 11);
    let machine = Machine::dgx_a100();
    let store = MultiGpuGraph::build(
        machine.cost(),
        machine.num_gpus(),
        &dataset.graph,
        &dataset.features,
        dataset.feature_dim,
        &machine.memory(),
    )
    .unwrap();
    let access = MultiGpuAccess::new(&store);
    let batch: Vec<u64> = dataset
        .train
        .iter()
        .take(1024)
        .map(|&v| access.handle_of(v))
        .collect();
    let cfg = SamplerConfig {
        fanouts: vec![30, 30, 30],
        seed: 17,
    };
    let mut scratch = SampleScratch::default();
    let mut mb = MiniBatch::empty();
    measure("sample", 1, move || {
        let start = Instant::now();
        sample_minibatch_into(&access, &batch, &cfg, 0, 0, &mut scratch, &mut mb);
        let elapsed = start.elapsed();
        let words = mb.blocks.iter().flat_map(|b| {
            (b.offsets.iter().map(|&x| x as u64))
                .chain(b.indices.iter().map(|&x| x as u64))
                .chain(b.dup_count.iter().map(|&x| x as u64))
        });
        let frontier_words = mb.frontiers.iter().flatten().copied();
        RunOut {
            elapsed,
            checksum: fnv1a(words.chain(frontier_words)),
            sim: None,
            stages: None,
        }
    })
}

/// Training-shaped feature gather from the distributed store, through
/// whatever tier stack the flags attach. With `--cache-rows` /
/// `--cache-mode`, planning consults a per-device [`FeatureCache`] first
/// — CLOCK warms dynamically, static mode pins by hotness; with
/// `--storage-rows`, rows beyond that residency budget are priced as
/// reads from an [`OocTier`]. Hotness is the *observed access
/// frequency* of the bench's own index stream (the paper's hotness
/// signal at its purest). The checksum must not move: tiers change cost,
/// never values, and the zero-allocation budget must hold with them in
/// the loop.
fn bench_gather(cache: Option<(usize, CacheMode)>, storage: Option<usize>) -> Measurement {
    let dataset = bench_dataset(DatasetKind::OgbnProducts, 5);
    let machine = Machine::dgx_a100();
    let store = MultiGpuGraph::build(
        machine.cost(),
        machine.num_gpus(),
        &dataset.graph,
        &dataset.features,
        dataset.feature_dim,
        &machine.memory(),
    )
    .unwrap();
    let n = dataset.num_nodes();
    let mut rng = SmallRng::seed_from_u64(9);
    let rows: Vec<usize> = (0..(8 * n / 5))
        .map(|_| store.feature_row(rng.gen_range(0..n as u64)))
        .collect();
    let width = dataset.feature_dim;
    let spec = machine.spec(wg_sim::DeviceId::Gpu(0)).clone();
    let mut out = vec![0.0f32; rows.len() * width];
    let mut plan = RowPlan::default();
    let wm = store.features();
    let mut freq = vec![0u64; wm.rows()];
    for &r in &rows {
        freq[r] += 1;
    }
    let mut stack = TierStack {
        cache: cache.map(|(slots, mode)| match mode {
            CacheMode::Static => FeatureCache::new_static(wm, &freq, slots),
            CacheMode::Clock => FeatureCache::new_clock(wm, machine.num_gpus(), slots),
        }),
        disk: storage.map(|budget| OocTier::build(wm, &freq, budget)),
    };
    measure("gather", 1, move || {
        let start = Instant::now();
        let wm = store.features();
        stack.plan(wm, &rows, 0, &mut plan);
        let stats = stack.execute(wm, &plan, &mut out, 0, machine.cost(), &spec);
        RunOut {
            elapsed: start.elapsed(),
            checksum: fnv1a_f32(FNV_OFFSET, &out),
            sim: Some(stats.sim_time),
            stages: None,
        }
    })
}

/// g-SpMM forward + deterministic backward on a synthetic sampled block.
fn bench_spmm() -> Measurement {
    let (num_dst, num_src, channels) = (2048usize, 4096usize, 64usize);
    let mut rng = SmallRng::seed_from_u64(41);
    let mut offsets = vec![0u32; num_dst + 1];
    let mut indices = Vec::new();
    for d in 0..num_dst {
        for _ in 0..rng.gen_range(4..=24) {
            indices.push(rng.gen_range(0..num_src as u32));
        }
        offsets[d + 1] = indices.len() as u32;
    }
    let mut dup_count = vec![0u32; num_src];
    for &s in &indices {
        dup_count[s as usize] += 1;
    }
    let block = BlockCsr {
        num_dst,
        num_src,
        offsets,
        indices,
        dup_count,
    };
    let src = Matrix::from_vec(
        num_src,
        channels,
        (0..num_src * channels)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    );
    let mut y = Matrix::empty();
    let mut g = Matrix::empty();
    let mut rev = ReverseScratch::default();
    measure("spmm", 1, move || {
        let start = Instant::now();
        spmm_into(&block, &src, None, 1, Agg::Mean, &mut y);
        spmm_backward_src_into(&block, &y, None, 1, Agg::Mean, &mut g, &mut rev);
        let elapsed = start.elapsed();
        let c = fnv1a(
            (y.data().iter().map(|v| v.to_bits() as u64))
                .chain(g.data().iter().map(|v| v.to_bits() as u64)),
        );
        RunOut {
            elapsed,
            checksum: c,
            sim: None,
            stages: None,
        }
    })
}

/// End-to-end training epoch through the full WholeGraph pipeline. The
/// pipeline is built **once**; each repetition calls
/// `reset_training_state` (bit-exact parameter/optimizer/clock restore)
/// and re-trains the same epoch against the warm scratch pools — so the
/// allocation count is the steady-state training-loop figure, and the
/// checksum doubles as proof the replay is bit-identical to a cold start.
/// Also reports the *simulated* device epoch time and the host wall-clock
/// split across the sample/gather/train stages.
///
/// With `--trace <file>`, the last repetition's simulated device
/// intervals are merged with the drained host spans into a Chrome trace.
fn bench_epoch(
    trace: Option<&str>,
    cache: Option<(usize, CacheMode)>,
    storage: Option<usize>,
) -> Measurement {
    let dataset = Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnProducts,
        300,
        8,
    ));
    let machine = Machine::new(MachineConfig::dgx_like(4));
    // With `--cache-rows` / `--storage-rows` the epoch runs through those
    // tiers — the pinned checksum must not move (values never move; only
    // simulated cost does).
    let (cache_rows, cache_mode) = cache.unwrap_or_default();
    let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage)
        .with_seed(3)
        .with_cache(cache_rows, cache_mode)
        .with_storage(storage.unwrap_or(0));
    let mut pipe = Pipeline::new(machine, dataset, cfg).unwrap();
    let batches = pipe.iters_per_epoch() as u64;
    let m = measure("epoch", batches, || {
        pipe.reset_training_state();
        let start = Instant::now();
        let (r, stages) = pipe.train_epoch_timed(0);
        let elapsed = start.elapsed();
        // Numerics only — deliberately *excluding* `epoch_time`: the
        // feature cache (and any future cost-layer change) moves
        // simulated time without touching a single trained bit, and this
        // checksum is the pinned witness of exactly that invariant.
        let c = fnv1a([r.loss.to_bits() as u64, r.train_accuracy.to_bits()]);
        RunOut {
            elapsed,
            checksum: c,
            sim: Some(r.epoch_time),
            stages: Some(stages),
        }
    });
    if let Some(path) = trace {
        wholegraph::observability::write_chrome_trace(path, pipe.machine())
            .expect("write chrome trace");
        println!("chrome trace written to {path} (chrome://tracing / ui.perfetto.dev)");
    }
    m
}

/// Two training iterations of the paper's GAT configuration (3 layers,
/// fanout 30, hidden 256, 4 heads, dropout 0.5, batch 512) on the epoch
/// bench's graph — the only row that runs g-SDDMM, edge softmax, weighted
/// multi-head g-SpMM and the n = heads matmuls. The second loss is
/// computed from parameters the first backward pass updated, so the
/// checksum over both witnesses forward and backward kernels alike.
fn bench_gat_step() -> Measurement {
    let dataset = Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnProducts,
        300,
        8,
    ));
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let cfg = PipelineConfig::paper(Framework::WholeGraph, ModelKind::Gat).with_seed(3);
    let mut pipe = Pipeline::new(machine, dataset, cfg).unwrap();
    let batches = pipe.epoch_batches(0);
    measure("gat_step", 2, move || {
        pipe.reset_training_state();
        let start = Instant::now();
        let losses: Vec<u64> = (0..2)
            .map(|i| {
                pipe.run_iteration(0, i as u64, &batches[i], true)
                    .loss
                    .to_bits() as u64
            })
            .collect();
        RunOut {
            elapsed: start.elapsed(),
            checksum: fnv1a(losses),
            sim: None,
            stages: None,
        }
    })
}

/// The hard gate, on the typed measurements, before anything is written:
/// every bench `expect` pins ([`EXPECT`], outside the tests) ran, its
/// checksum has not moved, its hot path stayed within its steady-state
/// allocation budget and its peak live heap within its peak budget.
fn gate(results: &[Measurement], expect: &[(&str, u64, u64, Option<f64>)]) {
    for &(name, pinned, budget, peak_budget) in expect {
        let m = results.iter().find(|m| m.name == name);
        let m = m.unwrap_or_else(|| panic!("bench '{name}' did not run"));
        let (checksum, allocs) = (m.checksum, m.allocs_per_batch());
        assert!(
            checksum == pinned,
            "{name}: checksum {checksum:016x} != pinned {pinned:016x} (numerics moved)"
        );
        assert!(
            allocs <= budget,
            "{name}: {allocs} allocs per warm batch exceeds budget {budget}"
        );
        if let Some(budget) = peak_budget {
            let peak = m.peak_mb();
            assert!(
                peak <= budget,
                "{name}: peak heap {peak:.1} MiB exceeds budget {budget} MiB"
            );
        }
    }
}

/// What the command line selects: the trace path and the cache and
/// storage tiers of the gather and epoch benches.
#[derive(Debug, Default)]
struct Args {
    trace: Option<String>,
    cache: Option<(usize, CacheMode)>,
    storage: Option<usize>,
}

/// Parse the command line, refusing an unknown flag, a flag without a
/// value or given twice, a malformed value, and a cache mode without rows
/// — each with an error naming the flag.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let flags = parse_flags(
        args,
        &["--trace", "--cache-rows", "--cache-mode", "--storage-rows"],
    )?;
    let rows = parse_value::<usize>(&flags, "cache-rows", "a row count")?;
    let mode = flags
        .get("cache-mode")
        .map(|m| {
            CacheMode::parse(m)
                .ok_or_else(|| format!("`--cache-mode` expects static|clock, got `{m}`"))
        })
        .transpose()?;
    let cache = match (rows, mode) {
        (Some(rows), mode) => Some((rows, mode.unwrap_or(CacheMode::Static))),
        (None, Some(_)) => return Err("`--cache-mode` needs `--cache-rows`".to_string()),
        (None, None) => None,
    };
    Ok(Args {
        trace: flags.get("trace").cloned(),
        cache,
        storage: parse_value(&flags, "storage-rows", "a row count")?,
    })
}

fn main() {
    let Args {
        trace,
        cache,
        storage,
    } = parse_args(&args()).unwrap_or_else(|e| refuse(&e));
    banner("Wallclock", "host-side speedup of the work-stealing pool");
    let threads = rayon::current_num_threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("pool threads: {threads}   host cores: {cores}");
    println!("(every kernel is checked bit-identical between schedules)\n");

    // Spans + metrics run *enabled* throughout: the allocation budgets
    // are held with observability on, which is the crate's
    // zero-steady-state-overhead claim made checkable. (Per-thread ring
    // buffers and metric names intern during the untimed warm-up run;
    // warm repeats allocate nothing.)
    wg_trace::enable_all();
    if let Some((rows, mode)) = cache {
        println!(
            "feature cache: {} rows/device, {} mode\n",
            rows,
            mode.as_str()
        );
    }
    if let Some(rows) = storage {
        println!("out-of-core tier: {rows} DSM-resident rows (gather + epoch benches)\n");
    }

    let results = [
        bench_sample(),
        bench_gather(cache, storage),
        bench_spmm(),
        bench_epoch(trace.as_deref(), cache, storage),
        bench_gat_step(),
    ];

    let tn_header = format!("{threads}-thread (ms)");
    let mut t = Table::new(&[
        "kernel",
        "1-thread (ms)",
        tn_header.as_str(),
        "speedup",
        "allocs/batch",
        "peak heap (MiB)",
        "checksum",
        "sim device time",
    ]);
    for m in &results {
        t.row(&[
            m.name.to_string(),
            format!("{:.2}", m.t1.as_secs_f64() * 1e3),
            format!("{:.2}", m.tn.as_secs_f64() * 1e3),
            format!("{:.2}x", m.speedup()),
            m.allocs_per_batch().to_string(),
            format!("{:.1}", m.peak_mb()),
            format!("{:016x}", m.checksum),
            m.sim
                .map_or_else(|| "-".to_string(), |s| format!("{:.3} ms", s.as_millis())),
        ]);
    }
    t.print();
    if let Some(stages) = results.iter().find_map(|m| m.stages) {
        let total: f64 = stages.iter().map(Duration::as_secs_f64).sum();
        println!(
            "\nepoch host-time split: sample {:.2} ms ({:.0}%), gather {:.2} ms ({:.0}%), \
             train {:.2} ms ({:.0}%)",
            stages[0].as_secs_f64() * 1e3,
            stages[0].as_secs_f64() / total.max(1e-12) * 100.0,
            stages[1].as_secs_f64() * 1e3,
            stages[1].as_secs_f64() / total.max(1e-12) * 100.0,
            stages[2].as_secs_f64() * 1e3,
            stages[2].as_secs_f64() / total.max(1e-12) * 100.0,
        );
    }

    gate(&results, &EXPECT);
    println!("\ngate: OK (checksums pinned, alloc and peak-heap budgets held)");

    let benches: Vec<String> = results
        .iter()
        .map(|m| {
            let stages = m.stages.map_or_else(String::new, |s| {
                format!(
                    ", \"stages\": {{\"sample_ms\": {:.4}, \"gather_ms\": {:.4}, \
                     \"train_ms\": {:.4}}}",
                    s[0].as_secs_f64() * 1e3,
                    s[1].as_secs_f64() * 1e3,
                    s[2].as_secs_f64() * 1e3
                )
            });
            format!(
                "    {{\"name\": \"{}\", \"t1_ms\": {:.4}, \"tn_ms\": {:.4}, \
                 \"speedup\": {:.4}, \"allocs_per_batch\": {}, \"batches\": {}, \
                 \"peak_heap_mb\": {:.2}, \"checksum\": \"{:016x}\"{stages}}}",
                m.name,
                m.t1.as_secs_f64() * 1e3,
                m.tn.as_secs_f64() * 1e3,
                m.speedup(),
                m.allocs_per_batch(),
                m.batches,
                m.peak_mb(),
                m.checksum
            )
        })
        .collect();
    // Cumulative metrics over every run of every bench (warm-up,
    // sequential reference and pool repeats alike) — the registry totals,
    // same shape `wg_trace::metrics::Snapshot::to_json` documents.
    let metrics = wg_trace::metrics::snapshot().to_json();
    let json = format!(
        "{{\n  \"threads\": {threads},\n  \"cores\": {cores},\n  \
         \"bit_identical\": true,\n  \"benches\": [\n{}\n  ],\n  \
         \"metrics\": {metrics}\n}}\n",
        benches.join(",\n")
    );
    std::fs::write("BENCH_wallclock.json", &json).expect("write BENCH_wallclock.json");
    println!("\nWrote BENCH_wallclock.json");
    if threads > 1 && cores > 1 {
        println!("Expect >=2x on the parallel kernels with {threads} threads.");
    } else {
        println!("Single-threaded environment: speedups are ~1.0x by construction.");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A contract of one bench, so the tests repeat none of the real pins.
    const TOY: [(&str, u64, u64, Option<f64>); 1] = [("toy", 0xabc, 2, Some(4.0))];

    fn toy(checksum: u64, allocs: u64, peak_bytes: usize) -> [Measurement; 1] {
        [Measurement {
            name: "toy",
            checksum,
            allocs,
            batches: 1,
            peak_bytes,
            ..Default::default()
        }]
    }

    fn parse(line: &[&str]) -> Result<Args, String> {
        parse_args(&line.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    /// `--cache-rows abc` and `--cache-mode lru` used to panic (exit 101)
    /// under the banner; each is refused naming its flag.
    #[test]
    fn malformed_tier_flags_are_refused_naming_the_flag() {
        for (line, flag) in [
            (&["--cache-rows", "abc"][..], "`--cache-rows`"),
            (
                &["--cache-rows", "8", "--cache-mode", "lru"],
                "`--cache-mode`",
            ),
            (&["--cache-mode", "clock"], "`--cache-mode`"),
            (&["--storage-rows", "-3"], "`--storage-rows`"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.starts_with(flag), "{line:?}: {err}");
        }
        let ok = parse(&[
            "--cache-rows",
            "8",
            "--cache-mode",
            "clock",
            "--storage-rows",
            "9",
        ])
        .unwrap();
        assert_eq!(ok.cache, Some((8, CacheMode::Clock)));
        assert_eq!(ok.storage, Some(9));
        assert_eq!(
            parse(&["--cache-rows", "4"]).unwrap().cache,
            Some((4, CacheMode::Static))
        );
    }

    #[test]
    fn gate_passes_a_bench_inside_every_budget() {
        gate(&toy(0xabc, 2, 4 << 20), &TOY);
    }

    #[test]
    #[should_panic(expected = "toy: checksum 0000000000000abd != pinned 0000000000000abc")]
    fn gate_names_a_moved_checksum() {
        gate(&toy(0xabd, 2, 0), &TOY);
    }

    #[test]
    #[should_panic(expected = "toy: 3 allocs per warm batch exceeds budget 2")]
    fn gate_names_an_over_budget_bench() {
        gate(&toy(0xabc, 3, 0), &TOY);
    }

    #[test]
    #[should_panic(expected = "toy: peak heap 4.5 MiB exceeds budget 4 MiB")]
    fn gate_names_a_bench_over_its_peak_heap() {
        gate(&toy(0xabc, 2, 9 << 19), &TOY);
    }
}
