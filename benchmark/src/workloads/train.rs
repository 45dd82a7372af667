//! `train_paper` and `train_input`: single-node minibatch training through
//! `Pipeline::run_iteration_timed`, one op per iteration.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wg_gnn::ModelKind;
use wg_graph::{DatasetKind, DegreeProfile, NodeId, SyntheticDataset};
use wg_sim::{Machine, MachineConfig};
use wholegraph::pipeline::{EpochReport, IterationResult};
use wholegraph::prelude::{CacheMode, Framework, Pipeline, PipelineConfig};

use crate::common::{self, HeapScope, OpTimes, Tally};
use crate::metrics::{Ledger, END_TO_END};
use crate::replay::Replay;
use crate::span::Recorder;
use crate::speed::SpeedRef;
use crate::workloads::trace::{library_counts, sim_phases, Counters, Traced};

/// Simulated GPUs in the one machine both training workloads use.
pub const GPUS: u32 = 8;
/// Minibatch size (the WholeGraph example docs' 1024, not the paper
/// table's 512 — ROADMAP item 2 names this configuration).
pub const BATCH: usize = 1024;

pub struct TrainSpec {
    pub name: &'static str,
    /// ogbn-products stand-in at 1/`scale` of the paper's node count.
    /// 94, not 100: 2 400 000 / 94 = 25 531 nodes puts 2 042 in the
    /// train split — two near-full batches (1024 + 1018) — so every op is
    /// the same size and the op median is not a coin flip between a full
    /// and a 7/8 batch.
    pub scale: u64,
    pub profile: DegreeProfile,
    pub model: ModelKind,
    pub hidden: usize,
    /// CLOCK cache slots per device as a share of the node count; 0 = off.
    pub cache_share: f64,
    /// DSM-resident share of feature rows; 0 = out-of-core tier off.
    pub resident_share: f64,
    /// Adam learning rate and layer-input dropout. `train_paper` keeps the
    /// paper's (3e-3, 0.5); `train_input` is about the input pipeline, so
    /// its small model trains fast (1e-2, none) and its loss and accuracy
    /// settle within the fixed epochs on every seed.
    pub lr: f32,
    pub dropout: f32,
    /// Epochs the simulated-clock metrics cover. Always run, even when the
    /// host budget is already spent, so `sim_*` never depend on host speed.
    pub sim_epochs: usize,
    /// Epoch mean training loss that counts as "trained".
    pub loss_target: f32,
}

pub static TRAIN_PAPER: TrainSpec = TrainSpec {
    name: "train_paper",
    scale: 94,
    profile: DegreeProfile::Uniform,
    model: ModelKind::Gat,
    hidden: 256,
    cache_share: 0.0,
    resident_share: 0.0,
    lr: 3e-3,
    dropout: 0.5,
    sim_epochs: 3,
    loss_target: 2.0,
};

pub static TRAIN_INPUT: TrainSpec = TrainSpec {
    name: "train_input",
    scale: 94,
    profile: DegreeProfile::PowerLaw { alpha: 1.05 },
    model: ModelKind::Gcn,
    hidden: 16,
    cache_share: 0.05,
    resident_share: 0.10,
    lr: 1e-2,
    dropout: 0.0,
    sim_epochs: 20,
    loss_target: 1.0,
};

pub struct Built {
    pub dataset: Arc<SyntheticDataset>,
    pub pipe: Pipeline,
}

pub fn dataset(spec: &TrainSpec, seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate_with_profile(
        DatasetKind::OgbnProducts,
        spec.scale,
        common::sub_seed(seed, 1),
        spec.profile,
    )
}

pub fn config(
    spec: &TrainSpec,
    seed: u64,
    dataset: &SyntheticDataset,
    tiers: bool,
) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper(Framework::WholeGraph, spec.model)
        .with_seed(common::sub_seed(seed, 2));
    cfg.hidden = spec.hidden;
    cfg.batch_size = BATCH;
    cfg.lr = spec.lr;
    cfg.dropout = spec.dropout;
    // Pin both tiers explicitly: `None` would defer to the WG_CACHE_* /
    // WG_STORAGE_* environment.
    let (cache_rows, budget_rows) = if tiers {
        (
            (dataset.num_nodes() as f64 * spec.cache_share).round() as usize,
            dataset.storage_budget_rows(spec.resident_share),
        )
    } else {
        (0, 0)
    };
    cfg.with_cache(cache_rows, CacheMode::Clock)
        .with_storage(budget_rows)
}

pub fn pipeline(
    spec: &TrainSpec,
    seed: u64,
    dataset: &Arc<SyntheticDataset>,
    tiers: bool,
) -> Pipeline {
    let machine = Machine::new(MachineConfig::dgx_like(GPUS));
    Pipeline::new(
        machine,
        Arc::clone(dataset),
        config(spec, seed, dataset, tiers),
    )
    .expect("the stand-in graph fits the simulated machine")
}

pub fn build(spec: &TrainSpec, seed: u64) -> Built {
    let dataset = Arc::new(dataset(spec, seed));
    let pipe = pipeline(spec, seed, &dataset, true);
    Built { dataset, pipe }
}

/// Loss bit patterns of epoch 0's first two iterations.
pub fn first_two_losses(pipe: &mut Pipeline) -> Vec<u32> {
    let batches = pipe.epoch_batches(0);
    batches
        .iter()
        .take(2)
        .enumerate()
        .map(|(i, b)| pipe.run_iteration(0, i as u64, b, true).loss.to_bits())
        .collect()
}

/// The correctness checks of a training workload; also the warm-up (four
/// iterations through every buffer pool). Leaves the pipeline at its
/// freshly initialised parameters.
pub fn checks(spec: &TrainSpec, seed: u64, built: &mut Built, tally: &mut Tally) {
    let pooled = first_two_losses(&mut built.pipe);
    built.pipe.reset_training_state();
    let sequential = rayon::run_sequential(|| first_two_losses(&mut built.pipe));
    built.pipe.reset_training_state();
    tally.check(
        "loss bits equal on the pool and under rayon::run_sequential (2 iterations)",
        pooled == sequential && pooled.len() == 2,
    );
    if spec.cache_share > 0.0 || spec.resident_share > 0.0 {
        let mut plain = pipeline(spec, seed, &built.dataset, false);
        tally.check(
            "loss bits equal with cache+tier on and off (2 iterations)",
            first_two_losses(&mut plain) == pooled,
        );
    }
}

/// One measured op and what the ledger needs from it.
pub struct Op {
    pub host: Duration,
    pub walls: [Duration; 3],
    pub result: IterationResult,
}

impl Op {
    /// Re-express the op's host times at the reference speed.
    fn scaled(mut self, k: f64) -> Op {
        self.host = self.host.mul_f64(k);
        self.walls = self.walls.map(|w| w.mul_f64(k));
        self
    }
}

/// One plain (unrecorded) op: iteration `iter` of `epoch` over `batch`.
pub fn plain_op(pipe: &mut Pipeline, epoch: u64, iter: u64, batch: &[NodeId]) -> Op {
    let mut walls = [Duration::ZERO; 3];
    let t = Instant::now();
    let result = pipe.run_iteration_timed(epoch, iter, batch, true, &mut walls);
    Op {
        host: t.elapsed(),
        walls,
        result,
    }
}

/// Run `batches` as one epoch, each op through `run_op`; `keep_going` is
/// asked after every op. Returns the ops and, if the epoch completed,
/// its report from the pipeline's executor.
pub fn run_epoch_with(
    pipe: &mut Pipeline,
    batches: &[Vec<NodeId>],
    mut run_op: impl FnMut(&mut Pipeline, u64, &[NodeId]) -> Op,
    mut keep_going: impl FnMut() -> bool,
) -> (Vec<Op>, Option<EpochReport>) {
    let mut ops = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        ops.push(run_op(pipe, i as u64, batch));
        if !keep_going() {
            break;
        }
    }
    if ops.len() < batches.len() {
        return (ops, None);
    }
    let results: Vec<IterationResult> = ops.iter().map(|o| o.result.clone()).collect();
    let report = pipe.executor().finish_epoch(
        pipe.machine_mut(),
        Framework::WholeGraph,
        &results,
        results.len(),
    );
    (ops, Some(report))
}

/// [`run_epoch_with`] over the epoch's own shuffled batches, plain ops.
pub fn run_epoch(
    pipe: &mut Pipeline,
    epoch: u64,
    keep_going: impl FnMut() -> bool,
) -> (Vec<Op>, Option<EpochReport>) {
    let batches = pipe.epoch_batches(epoch);
    run_epoch_with(
        pipe,
        &batches,
        |pipe, iter, batch| plain_op(pipe, epoch, iter, batch),
        keep_going,
    )
}

/// What the measured loop of the untraced pass collects.
struct Measured {
    host: Vec<Duration>,
    seeds: usize,
    /// Reports and per-seed latencies of the fixed epochs only.
    sim_epochs: Vec<EpochReport>,
    sim_lat: Vec<(f64, u64)>,
    /// `peak_heap_mb`, read when the fixed epochs end: how many more ops
    /// the host budget buys must not move a deterministic metric.
    peak_heap_mb: f64,
}

/// The fixed epochs, then whole ops until `seconds` of budget are spent.
fn measure(
    spec: &TrainSpec,
    pipe: &mut Pipeline,
    seconds: f64,
    speed: &mut SpeedRef,
    heap: &mut HeapScope,
    tally: &mut Tally,
) -> Measured {
    let mut m = Measured {
        host: Vec::new(),
        seeds: 0,
        sim_epochs: Vec::new(),
        sim_lat: Vec::new(),
        peak_heap_mb: 0.0,
    };
    let start = Instant::now();
    speed.sample();
    for epoch in 0.. {
        let sim_done = m.sim_epochs.len() >= spec.sim_epochs;
        let in_budget = || start.elapsed().as_secs_f64() < seconds;
        let batches = pipe.epoch_batches(epoch);
        let (ops, report) = run_epoch_with(
            pipe,
            &batches,
            |pipe, iter, batch| {
                let (op, k) = speed.around(|| plain_op(pipe, epoch, iter, batch));
                op.scaled(k)
            },
            || !sim_done || in_budget(),
        );
        for op in &ops {
            tally.op(op.result.loss.is_finite());
            m.host.push(op.host);
            m.seeds += op.result.batch;
            if !sim_done {
                m.sim_lat
                    .push((op.result.times.total().as_micros(), op.result.batch as u64));
            }
        }
        match report {
            Some(r) if !sim_done => {
                m.sim_epochs.push(r);
                if m.sim_epochs.len() == spec.sim_epochs {
                    m.peak_heap_mb = heap.peak_mb();
                }
            }
            Some(_) => {}
            None => break,
        }
        if m.sim_epochs.len() >= spec.sim_epochs && !in_budget() {
            break;
        }
    }
    m
}

pub fn run_e2e(spec: &TrainSpec, seed: u64, seconds: f64) -> (Ledger, Tally) {
    let mut tally = Tally::default();
    let mut speed = SpeedRef::new();
    let mut heap = HeapScope::open(speed.own_bytes());
    // Host-clock numbers are taken on the sequential reference schedule
    // (see the README's thread policy); only the checks use the pool.
    let (mut built, setup_s) =
        rayon::run_sequential(|| common::timed_setup(&mut speed, || build(spec, seed)));
    heap.pause();
    checks(spec, seed, &mut built, &mut tally);
    heap.resume();
    let Measured {
        host,
        seeds,
        sim_epochs,
        sim_lat,
        peak_heap_mb,
    } = rayon::run_sequential(|| {
        measure(
            spec,
            &mut built.pipe,
            seconds,
            &mut speed,
            &mut heap,
            &mut tally,
        )
    });

    let t = OpTimes::of(&host);
    let curve: Vec<(f64, f32)> = sim_epochs
        .iter()
        .map(|r| (r.epoch_time.as_millis(), r.loss))
        .collect();
    let sim_total_ms: f64 = curve.iter().map(|c| c.0).sum();
    let to_loss_ms = common::checked_time_to_loss(&mut tally, "epoch", &curve, spec.loss_target);
    let last = sim_epochs.last().expect("sim_epochs >= 1");
    let sim_seeds = built.dataset.train.len() * sim_epochs.len();

    let mut m = Ledger::new(&END_TO_END);
    t.fill(&mut m, setup_s, seeds);
    m.set("peak_heap_mb", peak_heap_mb);
    m.set("sim_epoch_ms", sim_total_ms / sim_epochs.len() as f64);
    m.set("sim_seeds_per_s", sim_seeds as f64 / (sim_total_ms / 1e3));
    m.set("sim_time_to_loss_ms", to_loss_ms);
    m.set("sim_p50_us", common::weighted_percentile(&sim_lat, 0.5));
    m.set("sim_p99_us", common::weighted_percentile(&sim_lat, 0.99));
    m.set("sim_dev_mem_mb", common::dev_mem_mb(built.pipe.machine()));
    m.set("accuracy", last.train_accuracy);
    println!("{t}");
    (m, tally)
}

/// Fixed op counts of the traced pass: counts in the ledger are totals
/// over exactly these ops, so they repeat exactly for a fixed seed (and
/// `--seconds` does not apply).
struct TracePlan {
    /// Traced (and replayed) epochs, two ops each.
    epochs: u64,
    /// Epochs of each twin of the traced ops: untraced, with the library's
    /// own probes on, and on the 2-worker pool.
    twin_epochs: u64,
    /// Kernel calls per family.
    kernel_reps: usize,
}

fn trace_plan(spec: &TrainSpec) -> TracePlan {
    if spec.hidden >= 128 {
        // ~2.4 s an op here: a handful is all a run can afford.
        TracePlan {
            epochs: 2,
            twin_epochs: 1,
            kernel_reps: 3,
        }
    } else {
        TracePlan {
            epochs: 10,
            twin_epochs: 10,
            kernel_reps: 5,
        }
    }
}

fn p50_ms(ops: &[Op], f: impl Fn(&Op) -> Duration) -> f64 {
    crate::stats::p50(&ops.iter().map(|o| common::ms(f(o))).collect::<Vec<_>>())
}

/// [`run_epoch`] for `epochs` whole epochs starting at `first`.
fn run_epochs(pipe: &mut Pipeline, first: u64, epochs: u64) -> Vec<Op> {
    (first..first + epochs)
        .flat_map(|e| run_epoch(pipe, e, || true).0)
        .collect()
}

pub fn run_traced(spec: &TrainSpec, seed: u64, host: (usize, usize)) -> (Ledger, Tally) {
    let plan = trace_plan(spec);
    let mut t = Traced::start(host);
    // Like the untraced pass, everything is timed on the sequential
    // reference schedule; only the last section runs on the pool.
    let (mut pipe, plain, next_epoch) =
        rayon::run_sequential(|| traced_on_reference_schedule(&mut t, spec, seed, &plan));

    // Pool speed-ups: the same stages on the 2-worker pool.
    let pooled = run_epochs(&mut pipe, next_epoch, plan.twin_epochs);
    for (k, name) in [
        "pool.speedup.sample",
        "pool.speedup.gather",
        "pool.speedup.train",
    ]
    .into_iter()
    .enumerate()
    {
        t.ledger.set(
            name,
            p50_ms(&plain, |o| o.walls[k]) / p50_ms(&pooled, |o| o.walls[k]),
        );
    }
    t.ledger.set(
        "pool.speedup.op",
        p50_ms(&plain, |o| o.host) / p50_ms(&pooled, |o| o.host),
    );
    t.finish(spec.name, seed)
}

/// The traced pass up to the pool comparison. Returns the pipeline, the
/// untraced twin ops (the comparison's sequential side) and the next
/// unused epoch.
fn traced_on_reference_schedule(
    t: &mut Traced,
    spec: &TrainSpec,
    seed: u64,
    plan: &TracePlan,
) -> (Pipeline, Vec<Op>, u64) {
    // Set-up, one span per layer call. The second store is the replay's.
    let root = t.rec.begin("setup");
    let (dataset, gen_ms) = t.timed("graph.gen", || Arc::new(dataset(spec, seed)));
    let (store, store_ms) = t.timed("graph.store_build", || Replay::store(&dataset, GPUS));
    let (mut pipe, _) = t.timed("pipeline.new", || pipeline(spec, seed, &dataset, true));
    t.rec.end(root);
    t.ledger.set("graph.gen_ms", gen_ms);
    t.ledger.set("graph.store_build_ms", store_ms);
    let mut replay = Replay::new(pipe.config(), Arc::clone(&dataset), store);

    // The cold first iteration; the rest of epoch 0 is warm-up.
    let (cold, _) = run_epoch(&mut pipe, 0, || true);
    t.ledger
        .set("pipeline.first_iter_ms", common::ms(cold[0].host));
    pipe.reset_training_state();

    // Traced ops back to back, then their replays (interleaving the two
    // would have each evict the other's working set).
    let epoch_batches: Vec<_> = (0..plan.epochs).map(|e| pipe.epoch_batches(e)).collect();
    let ((traced, reports), counters) = Counters::over(|| {
        let mut traced: Vec<Op> = Vec::new();
        let mut reports = Vec::new();
        for (epoch, batches) in (0..).zip(&epoch_batches) {
            let (ops, report) = run_epoch_with(
                &mut pipe,
                batches,
                |pipe, iter, batch| {
                    t.rec.next_op();
                    let id = t.rec.begin("op");
                    let mut op = plain_op(pipe, epoch, iter, batch);
                    op.host = t.rec.end(id);
                    t.rec.add_phases(
                        id,
                        &[
                            ("pipeline.sample", op.walls[0]),
                            ("pipeline.gather", op.walls[1]),
                            ("pipeline.train", op.walls[2]),
                        ],
                    );
                    op
                },
                || true,
            );
            traced.extend(ops);
            reports.extend(report);
        }
        (traced, reports)
    });
    for op in &traced {
        t.tally.op(op.result.loss.is_finite());
    }
    library_counts(t, &counters, traced.len(), dataset.feature_dim * 4);
    sim_phases(t, &reports);
    let op_ms = pipeline_section(t, &traced);
    replay_section(t, &mut replay, &epoch_batches, &traced);
    for (name, v) in replay.kernels(
        &mut t.rec,
        spec.hidden,
        pipe.config().heads,
        plan.kernel_reps,
    ) {
        t.ledger.set(name, v);
    }
    drop(replay);

    // Untraced twins of the traced ops: the recorder's own cost.
    let mut next_epoch = plan.epochs;
    let plain = run_epochs(&mut pipe, next_epoch, plan.twin_epochs);
    next_epoch += plan.twin_epochs;
    let plain_ms = p50_ms(&plain, |o| o.host);
    t.ledger
        .set("trace.bench_overhead_share", op_ms / plain_ms - 1.0);

    // The library's own probes (spans and metrics) on against off.
    wg_trace::enable_all();
    let probed = run_epochs(&mut pipe, next_epoch, plan.twin_epochs);
    next_epoch += plan.twin_epochs;
    wg_trace::disable_all();
    wg_trace::drain();
    wg_trace::metrics::reset();
    t.ledger.set(
        "trace.probe_overhead_share",
        p50_ms(&probed, |o| o.host) / plain_ms - 1.0,
    );

    // One paper-config iteration per model family, on `train_paper` only
    // (whose own ops are the GAT row).
    if spec.model == ModelKind::Gat {
        t.ledger.set("gnn.gat.iter_ms", plain_ms);
        for (name, model) in [
            ("gnn.gcn.iter_ms", ModelKind::Gcn),
            ("gnn.sage.iter_ms", ModelKind::GraphSage),
        ] {
            let twin = TrainSpec { model, ..*spec };
            let mut p = pipeline(&twin, seed, &dataset, true);
            // Epoch 0's first op is cold; its second is the sample.
            let (ops, _) = run_epoch(&mut p, 0, || true);
            let warm = ops.last().expect("two ops per epoch");
            t.ledger.set(name, common::ms(warm.host));
        }
    }
    (pipe, plain, next_epoch)
}

/// `pipeline.*`: the three stage walls, the op, and how well they close.
/// Returns the traced op p50 in ms.
fn pipeline_section(t: &mut Traced, traced: &[Op]) -> f64 {
    let op_ms = p50_ms(traced, |o| o.host);
    t.ledger.set("pipeline.op_ms", op_ms);
    for (k, name) in [
        "pipeline.sample_ms",
        "pipeline.gather_ms",
        "pipeline.train_ms",
    ]
    .into_iter()
    .enumerate()
    {
        t.ledger.set(name, p50_ms(traced, |o| o.walls[k]));
    }
    // Gather is timed through the pipeline's own wall (see `replay.rs`).
    let gather_ms = t.ledger.get("pipeline.gather_ms");
    t.ledger.set("mem.gather_ms", gather_ms);
    t.ledger.set(
        "mem.gather_gbps",
        t.ledger.get("mem.algo_bytes") / (gather_ms * 1e-3) / 1e9,
    );
    let op_total: f64 = t.rec.durations_ms("op").iter().sum();
    let op_self: f64 = t.rec.self_ms("op").iter().sum();
    t.tally.check(
        &format!(
            "stage walls sum to the op within 2% (unattributed {:.3}%)",
            op_self / op_total * 100.0
        ),
        op_self <= 0.02 * op_total,
    );
    op_ms
}

/// Replay every traced op outside the pipeline: the fine split, and its
/// distance from the pipeline's own train wall.
fn replay_section(
    t: &mut Traced,
    replay: &mut Replay,
    epoch_batches: &[Vec<Vec<NodeId>>],
    traced: &[Op],
) {
    // One discarded replay first: its workspace pool fills on first use.
    replay.iteration(&mut Recorder::new(), 0, 0, &epoch_batches[0][0]);
    let mut stats_match = true;
    let mut train_allocs = u64::MAX;
    let mut pipeline_stats = traced.iter().map(|o| o.result.sample_stats);
    for (epoch, batches) in (0..).zip(epoch_batches) {
        for (iter, batch) in (0..).zip(batches) {
            let out = replay.iteration(&mut t.rec, epoch, iter, batch);
            let want = pipeline_stats.next().expect("one traced op per batch");
            stats_match &= out.stats.edges_sampled == want.edges_sampled
                && out.stats.keys_inserted == want.keys_inserted
                && out.stats.kernels == want.kernels;
            train_allocs = train_allocs.min(out.train_allocs);
        }
    }
    t.tally.check(
        "replayed SampleStats equal the pipeline's on every traced op",
        stats_match,
    );
    let minibatch_ms = t.p50_ms("sample.minibatch");
    t.ledger.set("sample.minibatch_ms", minibatch_ms);
    t.ledger.set(
        "sample.edges_per_s",
        t.ledger.get("sample.edges") / (minibatch_ms * 1e-3),
    );
    t.ledger
        .set("sample.append_unique_ms", t.p50_ms("sample.append_unique"));
    let mut replay_train = 0.0;
    for (metric, span) in [
        ("gnn.convert_ms", "gnn.convert"),
        ("gnn.forward_ms", "gnn.forward"),
        ("gnn.loss_ms", "gnn.loss"),
        ("autograd.backward_ms", "autograd.backward"),
        ("autograd.optimizer_ms", "autograd.optimizer"),
    ] {
        let v = t.p50_ms(span);
        t.ledger.set(metric, v);
        replay_train += v;
    }
    t.ledger
        .set("autograd.allocs_per_iter", train_allocs as f64);
    let train_ms = t.ledger.get("pipeline.train_ms");
    let gap = (replay_train - train_ms).abs() / train_ms;
    t.ledger.set("pipeline.replay_gap", gap);
    // A timing closure, not an output: reported and flagged, never a
    // failed op (a few 1.5 s samples a side cannot carry a hard limit).
    println!(
        "note        replayed train time is {:.1}% from the train wall{}",
        gap * 100.0,
        if gap <= 0.10 {
            ""
        } else {
            "  (above the 10% the ledger aims for)"
        }
    );
}
