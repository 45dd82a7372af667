//! `serve_zipf`: open-loop online inference through `ServeEngine::run`,
//! one op per 4000-request stream.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wg_gnn::ModelKind;
use wg_graph::{DatasetKind, DegreeProfile, SyntheticDataset};
use wg_serve::{ArrivalProcess, Request, ServeConfig, ServeEngine, ServeReport, TrafficConfig};
use wg_sim::{Machine, MachineConfig, SimTime};
use wholegraph::prelude::{CacheMode, Framework, Pipeline, PipelineConfig};

use crate::common::{self, HeapScope, OpTimes, Tally};
use crate::metrics::{Ledger, END_TO_END};
use crate::replay::Replay;
use crate::speed::SpeedRef;
use crate::stats;
use crate::workloads::trace::{library_counts, Counters, Traced};

pub const SCALE: u64 = 100;
pub const GPUS: u32 = 4;
pub const REQUESTS: usize = 4000;
/// Offered rate of the host-clock ops and of `sim_p50_us` / `sim_p99_us`.
pub const BASE_QPS: f64 = 25_000.0;
/// The fixed-rate ladder the SLO capacity is bracketed on.
pub const LADDER_QPS: [f64; 5] = [12_500.0, 25_000.0, 50_000.0, 100_000.0, 200_000.0];
pub const BISECT_STEPS: u32 = 12;
/// SLO: p99 of `finish − arrival` on the simulated clock, and the most
/// the last request may finish after it arrived (no growing backlog).
pub const SLO: f64 = 5e-3;
/// Per-request deadline on the base-rate stream; a request finishing
/// later is `expired` and a failed op. Four SLOs: never hit below
/// capacity, so the base workload has no failing op by design.
pub const DEADLINE: f64 = 4.0 * SLO;
/// Epochs the served model trains for during set-up.
pub const WARM_EPOCHS: usize = 3;
pub const LOSS_TARGET: f32 = 1.0;
/// Requests in the coalesced-vs-sequential identity check.
pub const CHECK_SLICE: usize = 500;

pub struct Built {
    pub dataset: Arc<SyntheticDataset>,
    pub pipe: Pipeline,
    /// `(simulated epoch ms, mean loss)` of each warm-up epoch.
    pub warm_curve: Vec<(f64, f32)>,
}

pub fn dataset(seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate_with_profile(
        DatasetKind::OgbnProducts,
        SCALE,
        common::sub_seed(seed, 1),
        DegreeProfile::PowerLaw { alpha: 1.05 },
    )
}

/// The served pipeline; `tiers = false` builds its in-memory twin (no
/// cache, no disk tier) for the causality probe.
pub fn pipeline(seed: u64, dataset: &Arc<SyntheticDataset>, tiers: bool) -> Pipeline {
    let mut cfg = PipelineConfig::paper(Framework::WholeGraph, ModelKind::GraphSage)
        .with_seed(common::sub_seed(seed, 2));
    cfg.hidden = 64;
    cfg.num_layers = 2;
    cfg.fanouts = vec![10, 10];
    cfg.batch_size = 256;
    cfg.dropout = 0.0;
    // Pinned either way: `None` would defer to the environment.
    let (cache_rows, budget_rows) = if tiers {
        (
            (dataset.num_nodes() as f64 * 0.05).round() as usize,
            dataset.storage_budget_rows(0.25),
        )
    } else {
        (0, 0)
    };
    let cfg = cfg
        .with_cache(cache_rows, CacheMode::Static)
        .with_storage(budget_rows);
    let machine = Machine::new(MachineConfig::dgx_like(GPUS));
    Pipeline::new(machine, Arc::clone(dataset), cfg)
        .expect("the stand-in graph fits the simulated machine")
}

pub fn build(seed: u64) -> Built {
    let dataset = Arc::new(dataset(seed));
    let mut pipe = pipeline(seed, &dataset, true);
    let warm_curve = (0..WARM_EPOCHS as u64)
        .map(|e| {
            let r = pipe.train_epoch(e);
            (r.epoch_time.as_millis(), r.loss)
        })
        .collect();
    Built {
        dataset,
        pipe,
        warm_curve,
    }
}

pub fn engine() -> ServeEngine {
    let mut cfg = ServeConfig::coalesced(64, SimTime::from_millis(2.0));
    cfg.queue_capacity = 4096;
    ServeEngine::new(cfg)
}

/// The seeded request stream at `rate_qps`. One traffic seed for every
/// rate, so the query nodes are the same and the arrival timeline is the
/// same exponential draws scaled by the rate.
pub fn traffic(seed: u64, num_nodes: usize, rate_qps: f64, deadline: Option<f64>) -> Vec<Request> {
    TrafficConfig {
        requests: REQUESTS,
        process: ArrivalProcess::Poisson { rate_qps },
        zipf_s: 1.1,
        num_nodes: num_nodes as u64,
        seed: common::sub_seed(seed, 3),
        deadline: deadline.map(SimTime::from_secs),
    }
    .generate()
}

/// What one engine run did on the simulated clock.
pub struct SimRun {
    /// `finish − arrival` in µs per offered request, ascending; a shed,
    /// expired or causality-violating request counts as +inf.
    pub latencies_us: Vec<f64>,
    pub failed: u64,
    /// Completions dispatched before they arrived (`start < arrival`).
    pub causality_violations: u64,
    /// Last finish − last arrival, seconds.
    pub backlog_s: f64,
    /// First arrival → last finish, ms.
    pub span_ms: f64,
}

impl SimRun {
    pub fn of(requests: &[Request], report: &ServeReport) -> SimRun {
        let mut latencies_us = Vec::with_capacity(requests.len());
        let mut violations = 0;
        let mut failed = report.shed as u64;
        for c in &report.completions {
            let ordered = c.arrival <= c.start && c.start <= c.finish;
            if !ordered {
                violations += 1;
            }
            if ordered && !c.expired {
                latencies_us.push(c.latency().as_micros());
            } else {
                failed += 1;
            }
        }
        latencies_us.resize(requests.len(), f64::INFINITY);
        latencies_us.sort_by(f64::total_cmp);
        let last_arrival = requests.last().map_or(SimTime::ZERO, |r| r.arrival);
        let first_arrival = requests.first().map_or(SimTime::ZERO, |r| r.arrival);
        SimRun {
            latencies_us,
            failed,
            causality_violations: violations,
            backlog_s: (report.makespan - last_arrival).as_secs(),
            span_ms: (report.makespan - first_arrival).as_millis(),
        }
    }

    pub fn p(&self, q: f64) -> f64 {
        stats::percentile_sorted(&self.latencies_us, q)
    }

    /// The SLO at this rate: tail within the limit, nothing failed, and
    /// the queue drained as fast as it filled.
    pub fn meets_slo(&self) -> bool {
        self.failed == 0 && self.p(0.99) <= SLO * 1e6 && self.backlog_s <= SLO
    }
}

/// Simulated-clock capacity probe: the ladder, then bisection.
pub struct Capacity {
    pub slo_qps: f64,
    /// Per ladder rung, in `LADDER_QPS` order.
    pub ladder: Vec<SimRun>,
    /// False when no rung passes or every rung does (no bracket).
    pub bracketed: bool,
}

pub fn capacity(built: &mut Built, seed: u64) -> Capacity {
    let nodes = built.dataset.num_nodes();
    let mut probe = |rate: f64| {
        let reqs = traffic(seed, nodes, rate, None);
        let report = engine().run(&mut built.pipe, &reqs);
        SimRun::of(&reqs, &report)
    };
    let ladder: Vec<SimRun> = LADDER_QPS.iter().map(|&r| probe(r)).collect();
    let first_fail = ladder.iter().position(|r| !r.meets_slo());
    let (slo_qps, bracketed) = match first_fail {
        Some(0) => (LADDER_QPS[0], false),
        None => (LADDER_QPS[LADDER_QPS.len() - 1], false),
        Some(k) => (
            stats::bisect_geometric(LADDER_QPS[k - 1], LADDER_QPS[k], BISECT_STEPS, |rate| {
                probe(rate).meets_slo()
            }),
            true,
        ),
    };
    Capacity {
        slo_qps,
        ladder,
        bracketed,
    }
}

/// Coalesced answers must equal per-request answers on the first
/// [`CHECK_SLICE`] requests: same predictions, same logits checksums.
pub fn coalescing_is_invisible(pipe: &mut Pipeline, requests: &[Request]) -> bool {
    let slice = &requests[..CHECK_SLICE.min(requests.len())];
    let answers = |report: &ServeReport| -> BTreeMap<u64, (u32, u64)> {
        report
            .completions
            .iter()
            .map(|c| (c.id, (c.pred, c.logits_checksum)))
            .collect()
    };
    let coalesced = answers(&engine().run(pipe, slice));
    let sequential = answers(&ServeEngine::new(ServeConfig::sequential()).run(pipe, slice));
    coalesced.len() == slice.len() && coalesced == sequential
}

/// The untraced pass, all of it on the sequential reference schedule (see
/// the README's thread policy; no check here needs the pool).
pub fn run_e2e(seed: u64, seconds: f64) -> (Ledger, Tally) {
    rayon::run_sequential(|| e2e(seed, seconds))
}

fn e2e(seed: u64, seconds: f64) -> (Ledger, Tally) {
    let mut tally = Tally::default();
    let mut speed = SpeedRef::new();
    let mut heap = HeapScope::open(speed.own_bytes());
    let (mut built, setup_s) = common::timed_setup(&mut speed, || build(seed));
    let nodes = built.dataset.num_nodes();
    let requests = traffic(seed, nodes, BASE_QPS, Some(DEADLINE));
    tally.check(
        "coalesced predictions and logits checksums equal ServeConfig::sequential()",
        coalescing_is_invisible(&mut built.pipe, &requests),
    );

    // Host clock: the same stream, served again and again. The static
    // cache and fixed residency make every run the same work.
    let mut engine = engine();
    let warm = engine.run(&mut built.pipe, &requests);
    let base = SimRun::of(&requests, &warm);
    let mut host: Vec<Duration> = Vec::new();
    let mut answered = 0usize;
    let start = Instant::now();
    speed.sample();
    while host.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let ((report, wall), k) = speed.around(|| {
            let t = Instant::now();
            let report = engine.run(&mut built.pipe, &requests);
            (report, t.elapsed())
        });
        host.push(wall.mul_f64(k));
        answered += report.admitted;
        let run = SimRun::of(&requests, &report);
        tally.ops(requests.len() as u64, run.failed);
    }
    tally.check(
        "every completion has arrival <= start <= finish at the base rate",
        base.causality_violations == 0,
    );

    let cap = capacity(&mut built, seed);
    tally.check("the rate ladder brackets the SLO capacity", cap.bracketed);
    let to_loss_ms = common::checked_time_to_loss(
        &mut tally,
        "warm-up training",
        &built.warm_curve,
        LOSS_TARGET,
    );
    let correct = warm
        .completions
        .iter()
        .filter(|c| c.pred == built.dataset.labels[c.node as usize])
        .count();

    let t = OpTimes::of(&host);
    let mut m = Ledger::new(&END_TO_END);
    t.fill(&mut m, setup_s, answered);
    m.set("peak_heap_mb", heap.peak_mb());
    m.set("sim_epoch_ms", base.span_ms);
    m.set("sim_seeds_per_s", cap.slo_qps);
    m.set("sim_time_to_loss_ms", to_loss_ms);
    m.set("sim_p50_us", base.p(0.5));
    m.set("sim_p99_us", base.p(0.99));
    m.set("sim_dev_mem_mb", common::dev_mem_mb(built.pipe.machine()));
    m.set(
        "accuracy",
        correct as f64 / warm.completions.len().max(1) as f64,
    );
    println!("{t} ({} requests an op)", requests.len());
    for (rate, run) in LADDER_QPS.iter().zip(&cap.ladder) {
        println!(
            "ladder {:>7.0} qps  p99 {:>10.1} us  failed {:>4}  causality {:>4}  backlog {:>8.3} ms  {}",
            rate,
            run.p(0.99),
            run.failed,
            run.causality_violations,
            run.backlog_s * 1e3,
            if run.meets_slo() { "pass" } else { "fail" }
        );
    }
    (m, tally)
}

/// Engine runs the traced pass records (and counts over).
const TRACED_RUNS: usize = 4;
/// Passes over one run's batches when replaying `serve_forward`.
const REPLAY_PASSES: usize = 3;
/// Offered rate of the in-memory causality probe.
const PROBE_QPS: f64 = 200_000.0;

/// The query nodes of each dispatched batch, in request order, recovered
/// from the completions (which are listed batch by batch).
fn batches_of(report: &ServeReport) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = Vec::new();
    let mut current = None;
    for c in &report.completions {
        if current != Some(c.batch) {
            current = Some(c.batch);
            out.push(Vec::new());
        }
        out.last_mut().expect("pushed above").push(c.node);
    }
    out
}

/// Requests dispatched before they arrived when the same stream hits the
/// in-memory twin of the served pipeline (a batch is served faster than the
/// next one fills) at [`PROBE_QPS`]. Untrained: only the timeline matters.
fn causality_probe(seed: u64, dataset: &Arc<SyntheticDataset>) -> u64 {
    let mut pipe = pipeline(seed, dataset, false);
    let reqs = traffic(seed, dataset.num_nodes(), PROBE_QPS, None);
    SimRun::of(&reqs, &engine().run(&mut pipe, &reqs)).causality_violations
}

pub fn run_traced(seed: u64, host: (usize, usize)) -> (Ledger, Tally) {
    let mut t = Traced::start(host);
    // Like the untraced pass, everything is timed on the sequential
    // reference schedule; only the last section runs on the pool.
    let (mut pipe, requests, plain_ms) =
        rayon::run_sequential(|| traced_on_reference_schedule(&mut t, seed));
    let pooled_ms = timed_runs(&mut pipe, &requests);
    t.ledger.set("pool.speedup.op", plain_ms / pooled_ms);
    t.finish("serve_zipf", seed)
}

/// p50 host ms of [`TRACED_RUNS`] plain engine runs over `requests`.
fn timed_runs(pipe: &mut Pipeline, requests: &[Request]) -> f64 {
    let mut engine = engine();
    let v: Vec<f64> = (0..TRACED_RUNS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(engine.run(pipe, requests));
            common::ms(start.elapsed())
        })
        .collect();
    stats::p50(&v)
}

/// The traced pass up to the pool comparison. Returns the pipeline, the
/// base-rate stream and the untraced twin runs' p50 (the comparison's
/// sequential side).
fn traced_on_reference_schedule(t: &mut Traced, seed: u64) -> (Pipeline, Vec<Request>, f64) {
    let root = t.rec.begin("setup");
    let (dataset, gen_ms) = t.timed("graph.gen", || Arc::new(dataset(seed)));
    // Pipeline::new builds its store inside; time one on its own.
    let (_, store_ms) = t.timed("graph.store_build", || Replay::store(&dataset, GPUS));
    let (mut pipe, _) = t.timed("pipeline.new", || pipeline(seed, &dataset, true));
    t.timed("pipeline.warmup_training", || {
        for e in 0..WARM_EPOCHS as u64 {
            pipe.train_epoch(e);
        }
    });
    t.rec.end(root);
    t.ledger.set("graph.gen_ms", gen_ms);
    t.ledger.set("graph.store_build_ms", store_ms);

    let nodes = dataset.num_nodes();
    for _ in 0..3 {
        t.timed("serve.traffic_gen", || {
            std::hint::black_box(traffic(seed, nodes, BASE_QPS, Some(DEADLINE)))
        });
    }
    t.ledger
        .set("serve.traffic_gen_ms", t.p50_ms("serve.traffic_gen"));
    let requests = traffic(seed, nodes, BASE_QPS, Some(DEADLINE));
    let mut engine = engine();
    engine.run(&mut pipe, &requests);

    // Traced runs; the library's counters see exactly these.
    let (report, counters) = Counters::over(|| {
        let mut report = ServeReport::default();
        for _ in 0..TRACED_RUNS {
            t.rec.next_op();
            (report, _) = t.timed("op", || engine.run(&mut pipe, &requests));
            t.tally
                .ops(requests.len() as u64, SimRun::of(&requests, &report).failed);
        }
        report
    });
    let op_ms = t.p50_ms("op");
    t.ledger.set("pipeline.op_ms", op_ms);
    library_counts(t, &counters, TRACED_RUNS, dataset.feature_dim * 4);
    replay_section(t, &mut pipe, &report, op_ms);

    // What the run did, from its report.
    let l = &mut t.ledger;
    l.set("serve.batches", report.batches as f64);
    l.set(
        "serve.mean_batch",
        report.batched_rows as f64 / report.batches.max(1) as f64,
    );
    l.set("serve.dedup_factor", report.dedup_factor());
    let queue_us: Vec<f64> = report
        .completions
        .iter()
        .map(|c| (c.start - c.arrival).as_micros())
        .collect();
    l.set("serve.sim_queue_us_p50", stats::p50(&queue_us));
    l.set("serve.sim_sample_ms", report.sample_time.as_millis());
    l.set("serve.sim_gather_ms", report.gather_time.as_millis());
    l.set("serve.sim_compute_ms", report.compute_time.as_millis());
    l.set("serve.shed", report.shed as f64);
    l.set("serve.expired", report.expired as f64);

    // The rate ladder on the simulated clock, and the causality finding.
    let mut built = Built {
        dataset: Arc::clone(&dataset),
        pipe,
        warm_curve: Vec::new(),
    };
    let (cap, _) = t.timed("serve.capacity_ladder", || capacity(&mut built, seed));
    for (name, rung) in [
        ("serve.sim_p99_us_12k5", 0),
        ("serve.sim_p99_us_50k", 2),
        ("serve.sim_p99_us_100k", 3),
        ("serve.sim_p99_us_200k", 4),
    ] {
        t.ledger.set(name, cap.ladder[rung].p(0.99));
    }
    let on_ladder: u64 = cap.ladder.iter().map(|r| r.causality_violations).sum();
    t.ledger.set("serve.causality_violations", on_ladder as f64);
    let on_probe = causality_probe(seed, &dataset);
    t.ledger
        .set("serve.causality_probe_violations", on_probe as f64);
    println!(
        "finding     requests dispatched before they arrived: {on_ladder} on the ladder, \
         {on_probe} of {REQUESTS} on the in-memory twin at {PROBE_QPS} qps"
    );

    // Untraced twins of the traced runs: the recorder's own cost.
    let plain_ms = timed_runs(&mut built.pipe, &requests);
    t.ledger
        .set("trace.bench_overhead_share", op_ms / plain_ms - 1.0);
    (built.pipe, requests, plain_ms)
}

/// Replay one run's batches through the coalescer and `serve_forward`,
/// [`REPLAY_PASSES`] times: where an engine run's host time goes.
fn replay_section(t: &mut Traced, pipe: &mut Pipeline, report: &ServeReport, op_ms: f64) {
    let batches = batches_of(report);
    let mut coalescer = wg_serve::Coalescer::default();
    let (mut preds, mut sums) = (Vec::new(), Vec::new());
    let (mut coalesce_ms, mut forward_ms) = (Vec::new(), Vec::new());
    let mut answers_match = batches.len() == report.batches;
    for pass in 0..REPLAY_PASSES {
        let root = t.rec.begin("replay");
        let (mut c_ms, mut f_ms) = (0.0, 0.0);
        let mut done = report.completions.iter();
        for (seq, batch) in batches.iter().enumerate() {
            c_ms += t.timed("serve.coalesce", || coalescer.coalesce(batch)).1;
            preds.clear();
            sums.clear();
            let rank = (seq as u64 % u64::from(GPUS)) as u32;
            f_ms += t
                .timed("serve.forward", || {
                    pipe.serve_forward(coalescer.unique(), rank, &mut preds, &mut sums)
                })
                .1;
            if pass == 0 {
                for &row in coalescer.map() {
                    let c = done.next().expect("one completion per batched request");
                    answers_match &=
                        preds[row as usize] == c.pred && sums[row as usize] == c.logits_checksum;
                }
            }
        }
        t.rec.end(root);
        coalesce_ms.push(c_ms);
        forward_ms.push(f_ms);
    }
    t.tally.check(
        "replayed serve_forward answers equal the engine's (predictions and checksums)",
        answers_match,
    );
    let forward_ms = stats::p50(&forward_ms);
    t.ledger.set("serve.coalesce_ms", stats::p50(&coalesce_ms));
    t.ledger.set("serve.forward_ms", forward_ms);
    t.ledger.set("serve.engine_overhead_ms", op_ms - forward_ms);
}
