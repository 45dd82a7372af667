//! `multinode_4`: executed data-parallel training on four simulated
//! machines through `MultiNode::train_epoch`, one op per cluster epoch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wg_gnn::ModelKind;
use wg_graph::{DatasetKind, SyntheticDataset};
use wg_sim::{Machine, MachineConfig};
use wholegraph::pipeline::EpochReport;
use wholegraph::prelude::{
    CacheMode, Framework, MultiNode, MultiNodeConfig, MultiNodeEpochReport, Pipeline,
    PipelineConfig, SyncConfig,
};

use crate::common::{self, HeapScope, OpTimes, Tally};
use crate::metrics::{Ledger, END_TO_END};
use crate::replay::Replay;
use crate::speed::SpeedRef;
use crate::workloads::trace::{library_counts, sim_phases, Counters, Traced};

pub const SCALE: u64 = 400;
pub const NODES: u32 = 4;
pub const BATCH: usize = 16;
/// Epochs per round; every round trains a fresh `MultiNode` from its
/// initial parameters, so all rounds do identical work.
pub const EPOCHS: usize = 8;
pub const LOSS_TARGET: f32 = 0.5;

pub fn dataset(seed: u64) -> Arc<SyntheticDataset> {
    Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnProducts,
        SCALE,
        common::sub_seed(seed, 1),
    ))
}

pub fn config(seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage)
        .with_seed(common::sub_seed(seed, 2));
    cfg.batch_size = BATCH;
    cfg.with_cache(0, CacheMode::Static).with_storage(0)
}

pub fn cluster(seed: u64, dataset: &Arc<SyntheticDataset>, nodes: u32) -> MultiNode {
    let cfg = MultiNodeConfig::new(nodes)
        .with_gpus(1)
        .with_sync(SyncConfig::default());
    MultiNode::new(Arc::clone(dataset), config(seed), cfg)
        .expect("the stand-in graph fits every simulated machine")
}

/// One round: [`EPOCHS`] epochs on `cluster`, timing each.
pub fn round(cluster: &mut MultiNode) -> Vec<(Duration, MultiNodeEpochReport)> {
    (0..EPOCHS as u64)
        .map(|e| {
            let t = Instant::now();
            let r = cluster.train_epoch(e);
            (t.elapsed(), r)
        })
        .collect()
}

fn loss_bits(r: &MultiNodeEpochReport) -> Vec<u32> {
    r.losses.iter().map(|l| l.to_bits()).collect()
}

/// The workload's correctness checks (all on fresh clusters).
pub fn checks(seed: u64, dataset: &Arc<SyntheticDataset>, tally: &mut Tally) {
    let pooled = cluster(seed, dataset, NODES).train_epoch(0);
    let sequential = rayon::run_sequential(|| cluster(seed, dataset, NODES).train_epoch(0));
    tally.check(
        "N=4 loss bits equal on the pool and under rayon::run_sequential (first epoch)",
        loss_bits(&pooled) == loss_bits(&sequential) && pooled.losses.len() >= 2,
    );
    let one = cluster(seed, dataset, 1).train_epoch(0);
    let machine = Machine::new(MachineConfig::dgx_like(1));
    let lone = Pipeline::new(machine, Arc::clone(dataset), config(seed))
        .expect("the stand-in graph fits the simulated machine")
        .train_epoch(0);
    tally.check(
        "N=1 MultiNode is bitwise a lone Pipeline (loss and simulated epoch time)",
        one.loss.to_bits() == lone.loss.to_bits()
            && one.epoch_time.as_secs().to_bits() == lone.epoch_time.as_secs().to_bits(),
    );
}

/// Simulated-clock summary of one round.
pub struct SimRound {
    pub curve: Vec<(f64, f32)>,
    pub total_ms: f64,
    /// Mean iteration latency per (node, epoch) in µs, weighted by the
    /// seeds that node trained that epoch — `MultiNode` reports nothing
    /// finer than a node's epoch.
    pub latencies: Vec<(f64, u64)>,
}

impl SimRound {
    pub fn of(reports: &[MultiNodeEpochReport]) -> SimRound {
        let curve: Vec<(f64, f32)> = reports
            .iter()
            .map(|r| (r.epoch_time.as_millis(), r.loss))
            .collect();
        let latencies = reports
            .iter()
            .flat_map(|r| &r.per_node)
            .filter_map(|n| {
                let rep = n.report?;
                let iters = n.iterations.max(1);
                Some((
                    rep.epoch_time.as_micros() / iters as f64,
                    (iters * BATCH) as u64,
                ))
            })
            .collect();
        SimRound {
            total_ms: curve.iter().map(|c| c.0).sum(),
            curve,
            latencies,
        }
    }
}

pub fn run_e2e(seed: u64, seconds: f64) -> (Ledger, Tally) {
    let mut tally = Tally::default();
    let mut speed = SpeedRef::new();
    let mut heap = HeapScope::open(speed.own_bytes());
    // Host-clock numbers are taken on the sequential reference schedule
    // (see the README's thread policy); only the checks use the pool.
    let ((dataset, first), setup_s) = rayon::run_sequential(|| {
        common::timed_setup(&mut speed, || {
            let d = dataset(seed);
            let c = cluster(seed, &d, NODES);
            (d, c)
        })
    });
    heap.pause();
    checks(seed, &dataset, &mut tally);
    heap.resume();

    let mut host: Vec<Duration> = Vec::new();
    let mut sim: Option<(SimRound, f64, f64)> = None;
    let mut next = Some(first);
    rayon::run_sequential(|| {
        let start = Instant::now();
        while sim.is_none() || start.elapsed().as_secs_f64() < seconds {
            let mut c = next
                .take()
                .unwrap_or_else(|| cluster(seed, &dataset, NODES));
            // One speed factor a round: an epoch (~17 ms) is too short to
            // bracket with 5 ms calibration samples of its own.
            speed.sample();
            let (timed, k) = speed.around(|| round(&mut c));
            // The first epoch of the first round warms every replica's pools.
            let skip = usize::from(sim.is_none());
            for (d, r) in &timed[skip..] {
                host.push(d.mul_f64(k));
                tally.op(r.loss.is_finite());
            }
            if sim.is_none() {
                let reports: Vec<MultiNodeEpochReport> = timed.into_iter().map(|t| t.1).collect();
                let accuracy = reports.last().expect("EPOCHS >= 1").train_accuracy;
                let mem = common::dev_mem_mb(c.pipeline(0).machine());
                sim = Some((SimRound::of(&reports), accuracy, mem));
            }
        }
    });
    let (round1, accuracy, mem) = sim.expect("at least one round ran");
    let to_loss_ms =
        common::checked_time_to_loss(&mut tally, "N=4 epoch", &round1.curve, LOSS_TARGET);

    let t = OpTimes::of(&host);
    let seeds_per_epoch = dataset.train.len();
    let mut m = Ledger::new(&END_TO_END);
    t.fill(&mut m, setup_s, seeds_per_epoch * t.n);
    m.set("peak_heap_mb", heap.peak_mb());
    m.set("sim_epoch_ms", round1.total_ms / EPOCHS as f64);
    m.set(
        "sim_seeds_per_s",
        (seeds_per_epoch * EPOCHS) as f64 / (round1.total_ms / 1e3),
    );
    m.set("sim_time_to_loss_ms", to_loss_ms);
    m.set(
        "sim_p50_us",
        common::weighted_percentile(&round1.latencies, 0.5),
    );
    m.set(
        "sim_p99_us",
        common::weighted_percentile(&round1.latencies, 0.99),
    );
    m.set("sim_dev_mem_mb", mem);
    m.set("accuracy", accuracy);
    println!("{t}");
    (m, tally)
}

/// p50 host ms of a round's epochs.
fn round_p50_ms(timed: &[(Duration, MultiNodeEpochReport)]) -> f64 {
    crate::stats::p50(&timed.iter().map(|t| common::ms(t.0)).collect::<Vec<_>>())
}

pub fn run_traced(seed: u64, host: (usize, usize)) -> (Ledger, Tally) {
    let mut t = Traced::start(host);
    // Like the untraced pass, everything is timed on the sequential
    // reference schedule; only the last section runs on the pool.
    let (dataset, plain_ms) = rayon::run_sequential(|| traced_on_reference_schedule(&mut t, seed));
    let pooled_ms = round_p50_ms(&round(&mut cluster(seed, &dataset, NODES)));
    t.ledger.set("pool.speedup.op", plain_ms / pooled_ms);
    t.finish("multinode_4", seed)
}

/// The traced pass up to the pool comparison. Returns the dataset and the
/// untraced twin round's p50 epoch ms (the comparison's sequential side).
fn traced_on_reference_schedule(t: &mut Traced, seed: u64) -> (Arc<SyntheticDataset>, f64) {
    let root = t.rec.begin("setup");
    let (dataset, gen_ms) = t.timed("graph.gen", || dataset(seed));
    // MultiNode::new builds its stores inside; time one on its own.
    let (_, store_ms) = t.timed("graph.store_build", || Replay::store(&dataset, 1));
    let (mut traced_cluster, _) = t.timed("multinode.new", || cluster(seed, &dataset, NODES));
    t.rec.end(root);
    t.ledger.set("graph.gen_ms", gen_ms);
    t.ledger.set("graph.store_build_ms", store_ms);

    // One traced round; the library's counters see exactly its epochs.
    let (reports, counters) = Counters::over(|| {
        (0..EPOCHS as u64)
            .map(|e| {
                t.rec.next_op();
                t.timed("op", || traced_cluster.train_epoch(e)).0
            })
            .collect::<Vec<MultiNodeEpochReport>>()
    });
    drop(traced_cluster);
    for r in &reports {
        t.tally.op(r.loss.is_finite());
    }
    let op_ms = t.p50_ms("op");
    t.ledger.set("pipeline.op_ms", op_ms);
    library_counts(t, &counters, EPOCHS, dataset.feature_dim * 4);

    // multinode.*: per-epoch means over the traced round.
    let n = EPOCHS as f64;
    let mean = |f: &dyn Fn(&MultiNodeEpochReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
    let l = &mut t.ledger;
    l.set("multinode.sim_sync_ms", mean(&|r| r.sync_time.as_millis()));
    l.set("multinode.sync_bytes", mean(&|r| r.sync_bytes as f64));
    l.set(
        "multinode.halo_rows",
        mean(&|r| r.per_node.iter().map(|p| p.halo_rows).sum::<u64>() as f64),
    );
    l.set(
        "multinode.halo_bytes",
        mean(&|r| r.per_node.iter().map(|p| p.halo_bytes).sum::<u64>() as f64),
    );
    l.set("multinode.waves", mean(&|r| r.waves as f64));
    let round4 = SimRound::of(&reports);
    l.set(
        "multinode.epochs_to_loss",
        common::time_to_loss(&round4.curve, LOSS_TARGET).map_or(0.0, |r| r.1 as f64),
    );
    let last = reports.last().expect("EPOCHS >= 1");
    l.set("multinode.final_loss", f64::from(last.loss));

    // sim.*: each epoch's slowest node sets the cluster epoch, so its
    // phases are the ones that sum to it.
    let slowest: Vec<EpochReport> = reports
        .iter()
        .map(|r| {
            r.per_node
                .iter()
                .filter_map(|p| p.report)
                .max_by(|a, b| a.epoch_time.as_secs().total_cmp(&b.epoch_time.as_secs()))
                .expect("some node trained")
        })
        .collect();
    sim_phases(t, &slowest);

    // The plain single-node run of the same task is the scaling baseline.
    let n1: Vec<MultiNodeEpochReport> = round(&mut cluster(seed, &dataset, 1))
        .into_iter()
        .map(|timed| timed.1)
        .collect();
    let n1_epoch_ms = SimRound::of(&n1).total_ms / n;
    t.ledger.set("multinode.n1_sim_epoch_ms", n1_epoch_ms);
    t.ledger.set(
        "multinode.sim_scaling_eff",
        n1_epoch_ms / (f64::from(NODES) * (round4.total_ms / n)),
    );

    // Untraced twin of the traced round: the recorder's own cost.
    let plain_ms = round_p50_ms(&round(&mut cluster(seed, &dataset, NODES)));
    t.ledger
        .set("trace.bench_overhead_share", op_ms / plain_ms - 1.0);
    (dataset, plain_ms)
}
