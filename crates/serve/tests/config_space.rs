//! The configuration space in one process: every combination of
//! framework × model × cache (off / static / CLOCK, small or covering the
//! working set) × storage residency (tier off, 1 row, ~25%, full), each
//! run on the work-stealing pool and again under `rayon::run_sequential`.
//! The tiers move cost, never values, and the thread schedule moves
//! nothing, so every case holds the same invariants:
//!
//! * loss bits, train accuracy and `infer` predictions equal the all-off
//!   baseline of its (framework, model);
//! * the full fingerprint — simulated times and `mem.*` counters
//!   included — is the same on the pool and on the sequential schedule;
//! * the disk tier's books: `bytes == rows × row bytes`, `requests <=
//!   rows`, `read_bytes >= bytes`, and no rows when the tier is off or
//!   holds everything;
//! * the cache's books: `hits + misses == rows`, and the bus bytes plus
//!   the bytes the cache saved lie between the uncached bus bytes at the
//!   same residency and with everything resident — equal to both when
//!   the disk serves nothing;
//! * on WholeGraph, the cluster executor at N=1 is the pipeline epoch,
//!   bit for bit;
//! * on every third configuration, a coalesced serve replay answers
//!   exactly as a sequential one, with `admitted + shed == offered`.
//!
//! The `mem.*` counters are process-global, so this binary holds one
//! test and runs its cases one after another.

use std::collections::HashMap;
use std::sync::Arc;

use wg_serve::{ArrivalProcess, Request, ServeConfig, ServeEngine, ServeReport, TrafficConfig};
use wholegraph::prelude::*;

/// Simulated GPUs per machine: two, so an epoch has several waves.
const GPUS: u32 = 2;
/// Cache slots per device in the "small" cache: far below the working
/// set, so CLOCK evicts constantly.
const SMALL_CACHE: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Residency {
    /// No disk tier.
    Off,
    /// One DSM-resident row: nearly every gather row is priced as a disk
    /// read.
    OneRow,
    /// About a quarter of the rows DSM-resident.
    Quarter,
    /// The tier is built but every row is resident.
    Full,
}

impl Residency {
    const ALL: [Residency; 4] = [
        Residency::Off,
        Residency::OneRow,
        Residency::Quarter,
        Residency::Full,
    ];

    fn budget_rows(self, nodes: usize) -> usize {
        match self {
            Residency::Off => 0,
            Residency::OneRow => 1,
            Residency::Quarter => nodes / 4,
            Residency::Full => usize::MAX,
        }
    }

    /// Whether the tier can serve a row from disk.
    fn spills(self) -> bool {
        matches!(self, Residency::OneRow | Residency::Quarter)
    }
}

/// A cache setting: `None` is off; otherwise the mode and whether the
/// cache covers the working set.
type Cache = Option<(CacheMode, bool)>;

const CACHES: [Cache; 5] = [
    None,
    Some((CacheMode::Static, false)),
    Some((CacheMode::Static, true)),
    Some((CacheMode::Clock, false)),
    Some((CacheMode::Clock, true)),
];

#[derive(Clone, Copy, Debug)]
struct Case {
    framework: Framework,
    model: ModelKind,
    cache: Cache,
    residency: Residency,
    /// Whether this configuration also replays serve traffic.
    serve: bool,
}

/// Every configuration, in a fixed order.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for framework in Framework::ALL {
        for model in ModelKind::ALL {
            for cache in CACHES {
                for residency in Residency::ALL {
                    // 3 is coprime to the 4 residencies, so the replays
                    // reach every one.
                    let serve = out.len() % 3 == 0;
                    out.push(Case {
                        framework,
                        model,
                        cache,
                        residency,
                        serve,
                    });
                }
            }
        }
    }
    out
}

/// The `mem.*` counters one case moves, as deltas over its epoch and
/// inference (host-clock counters excluded).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Counters {
    rows: u64,
    bus_bytes: u64,
    hits: u64,
    misses: u64,
    saved_bus_bytes: u64,
    storage: StorageIo,
}

impl Counters {
    fn read() -> Counters {
        let snap = wg_trace::metrics::snapshot();
        let c = |name: &str| {
            let v = snap.counters.iter().find(|(n, _)| n == name);
            v.map_or(0, |&(_, v)| v as u64)
        };
        Counters {
            rows: c("mem.gather.rows"),
            bus_bytes: c("mem.gather.bus_bytes"),
            hits: c("mem.cache.hits"),
            misses: c("mem.cache.misses"),
            saved_bus_bytes: c("mem.cache.saved_bus_bytes"),
            storage: StorageIo {
                rows: c("mem.storage.rows"),
                bytes: c("mem.storage.bytes"),
                requests: c("mem.storage.requests"),
                read_bytes: c("mem.storage.read_bytes"),
            },
        }
    }

    fn since(self, before: Counters) -> Counters {
        let s = self.storage;
        let b = before.storage;
        Counters {
            rows: self.rows - before.rows,
            bus_bytes: self.bus_bytes - before.bus_bytes,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            saved_bus_bytes: self.saved_bus_bytes - before.saved_bus_bytes,
            storage: StorageIo {
                rows: s.rows - b.rows,
                bytes: s.bytes - b.bytes,
                requests: s.requests - b.requests,
                read_bytes: s.read_bytes - b.read_bytes,
            },
        }
    }
}

/// Everything observable about one configuration's run, floats as bits.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    loss: u32,
    accuracy: u64,
    /// Epoch, sample, gather, train, comm, storage and exposed storage
    /// time, then the inference pass's sample, gather and compute time.
    times: [u64; 10],
    storage_io: StorageIo,
    iterations: usize,
    predictions: Vec<u32>,
    counters: Counters,
    /// The cluster executor's N=1 epoch (WholeGraph only): loss,
    /// accuracy and epoch-time bits, executed iterations.
    multinode: Option<[u64; 4]>,
    /// Coalesced replay: admitted and shed, then by request id the id,
    /// prediction, logits checksum and finish-time bits.
    serve: Option<Vec<u64>>,
}

struct Fixture {
    dataset: Arc<SyntheticDataset>,
    probe: Vec<u64>,
    traffic: Vec<Request>,
}

impl Fixture {
    fn new() -> Self {
        let dataset = Arc::new(SyntheticDataset::generate(
            DatasetKind::OgbnProducts,
            1500,
            5,
        ));
        let probe = dataset.val.iter().take(48).copied().collect();
        // A hard burst into a small queue: the coalesced replay sheds.
        let traffic = TrafficConfig {
            requests: 48,
            process: ArrivalProcess::Bursty {
                rate_qps: 200_000.0,
                burst: 24,
            },
            zipf_s: 1.1,
            num_nodes: dataset.num_nodes() as u64,
            seed: 29,
            deadline: None,
        }
        .generate();
        Fixture {
            dataset,
            probe,
            traffic,
        }
    }

    fn config(&self, case: &Case) -> PipelineConfig {
        let (mode, rows) = match case.cache {
            None => (CacheMode::default(), 0),
            Some((mode, false)) => (mode, SMALL_CACHE),
            Some((mode, true)) => (mode, self.dataset.num_nodes()),
        };
        let mut cfg = PipelineConfig::tiny(case.framework, case.model)
            .with_seed(13)
            .with_cache(rows, mode)
            .with_storage(case.residency.budget_rows(self.dataset.num_nodes()));
        cfg.batch_size = 32;
        cfg
    }

    fn pipeline(&self, cfg: PipelineConfig) -> Pipeline {
        let machine = Machine::new(MachineConfig::dgx_like(GPUS));
        Pipeline::new(machine, Arc::clone(&self.dataset), cfg).unwrap()
    }

    /// Train one epoch of `case`, infer the probe set, and (where the
    /// case says so) run the cluster executor at N=1 and replay serve
    /// traffic — on whatever schedule the caller runs this under.
    fn run(&self, case: &Case) -> Fingerprint {
        let cfg = self.config(case);
        let mut pipe = self.pipeline(cfg.clone());
        let before = Counters::read();
        let r = pipe.train_epoch(0);
        let (predictions, inf) = pipe.infer(&self.probe);
        let counters = Counters::read().since(before);
        let t = |s: SimTime| s.as_secs().to_bits();
        let multinode = (case.framework == Framework::WholeGraph).then(|| {
            let cluster = MultiNodeConfig::new(1).with_gpus(GPUS);
            let mut mn = MultiNode::new(Arc::clone(&self.dataset), cfg, cluster).unwrap();
            let m = mn.train_epoch(0);
            let (loss, accuracy) = (m.loss.to_bits() as u64, m.train_accuracy.to_bits());
            [
                loss,
                accuracy,
                t(m.epoch_time),
                m.executed_iterations as u64,
            ]
        });
        let serve = case.serve.then(|| self.serve(&mut pipe));
        Fingerprint {
            loss: r.loss.to_bits(),
            accuracy: r.train_accuracy.to_bits(),
            times: [
                t(r.epoch_time),
                t(r.sample_time),
                t(r.gather_time),
                t(r.train_time),
                t(r.comm_time),
                t(r.storage_time),
                t(r.storage_exposed_time),
                t(inf.sample_time),
                t(inf.gather_time),
                t(inf.compute_time),
            ],
            storage_io: r.storage_io,
            iterations: r.executed_iterations,
            predictions,
            counters,
            multinode,
            serve,
        }
    }

    /// Replay the burst sequentially, then coalesced into a 16-deep
    /// queue, and check the coalesced answers against the sequential
    /// ones request by request.
    fn serve(&self, pipe: &mut Pipeline) -> Vec<u64> {
        let replay = |pipe: &mut Pipeline, cfg: ServeConfig| -> ServeReport {
            let mut report = ServeEngine::new(cfg).run(pipe, &self.traffic);
            assert_eq!(report.admitted + report.shed, report.offered);
            assert_eq!(report.offered, self.traffic.len());
            assert_eq!(report.completions.len(), report.admitted);
            report.completions.sort_by_key(|c| c.id);
            report
        };
        let sequential = replay(pipe, ServeConfig::sequential());
        assert_eq!(sequential.shed, 0);
        let coalesced = replay(
            pipe,
            ServeConfig {
                queue_capacity: 16,
                ..ServeConfig::coalesced(8, SimTime::from_micros(50.0))
            },
        );
        assert!(coalesced.shed > 0, "the burst must overflow the queue");
        let mut bits = vec![coalesced.admitted as u64, coalesced.shed as u64];
        for c in &coalesced.completions {
            let s = sequential.completions[c.id as usize];
            assert_eq!(s.id, c.id);
            assert_eq!(s.pred, c.pred, "request {}", c.id);
            assert_eq!(s.logits_checksum, c.logits_checksum, "request {}", c.id);
            let finish = c.finish.as_secs().to_bits();
            bits.extend([c.id, c.pred as u64, c.logits_checksum, finish]);
        }
        bits
    }
}

/// The case's invariants against the all-off baseline of its (framework,
/// model) and the uncached counters at its residency and at full
/// residency.
fn check(
    case: &Case,
    fp: &Fingerprint,
    base: &Fingerprint,
    uncached: Counters,
    all_resident: Counters,
    row_bytes: u64,
) {
    let tag = format!("{case:?}");
    assert_eq!(fp.loss, base.loss, "{tag}: loss");
    assert_eq!(fp.accuracy, base.accuracy, "{tag}: accuracy");
    assert_eq!(fp.predictions, base.predictions, "{tag}: predictions");
    assert_eq!(fp.iterations, base.iterations, "{tag}: iterations");

    // The disk tier, as the epoch report and as the counters see it.
    let wholegraph = case.framework == Framework::WholeGraph;
    let c = fp.counters;
    for io in [fp.storage_io, c.storage] {
        assert_eq!(io.bytes, io.rows * row_bytes, "{tag}: {io:?}");
        assert!(io.requests <= io.rows, "{tag}: {io:?}");
        assert!(io.read_bytes >= io.bytes, "{tag}: {io:?}");
        if !(wholegraph && case.residency.spills()) {
            assert_eq!(io, StorageIo::default(), "{tag}: the disk served rows");
        }
    }
    if wholegraph && case.residency.spills() && case.cache.is_none() {
        assert!(fp.storage_io.rows > 0, "{tag}: the disk served nothing");
    }

    // The cache: hits and misses partition the rows; every bus byte the
    // uncached run at this residency paid is paid or saved here, and no
    // more than the all-resident run paid.
    assert_eq!(c.rows, all_resident.rows, "{tag}: gathered rows");
    if wholegraph && case.cache.is_some() {
        assert_eq!(c.hits + c.misses, c.rows, "{tag}: {c:?}");
    } else {
        assert_eq!((c.hits, c.misses, c.saved_bus_bytes), (0, 0, 0), "{tag}");
    }
    let paid = c.bus_bytes + c.saved_bus_bytes;
    assert!(
        uncached.bus_bytes <= paid && paid <= all_resident.bus_bytes,
        "{tag}: {c:?}"
    );
    if c.storage.rows == 0 {
        assert_eq!(paid, all_resident.bus_bytes, "{tag}: {c:?}");
    }

    // The cluster executor at N=1 is the pipeline epoch.
    if let Some(n1) = fp.multinode {
        let epoch = [
            fp.loss as u64,
            fp.accuracy,
            fp.times[0],
            fp.iterations as u64,
        ];
        assert_eq!(
            n1, epoch,
            "{tag}: N=1 loss, accuracy, epoch time, iterations"
        );
    }
}

#[test]
fn every_tier_and_schedule_combination_keeps_values_and_books() {
    rayon::init_threads(2);
    wg_trace::enable_metrics();
    let fx = Fixture::new();
    let row_bytes = (fx.dataset.feature_dim * 4) as u64;
    let all = cases();
    assert!(all.len() * 2 >= 256, "{} cases", all.len() * 2);

    // The all-off run of each (framework, model), and the uncached
    // counters of each (framework, model, residency).
    let mut baselines: HashMap<(Framework, ModelKind), Fingerprint> = HashMap::new();
    let mut uncached: HashMap<(Framework, ModelKind, Residency), Counters> = HashMap::new();
    for case in &all {
        let off = Case {
            cache: None,
            residency: Residency::Off,
            serve: false,
            ..*case
        };
        baselines
            .entry((case.framework, case.model))
            .or_insert_with(|| fx.run(&off));
        uncached
            .entry((case.framework, case.model, case.residency))
            .or_insert_with(|| {
                let at = Case {
                    residency: case.residency,
                    ..off
                };
                fx.run(&at).counters
            });
    }

    for case in &all {
        let pool = fx.run(case);
        let sequential = rayon::run_sequential(|| fx.run(case));
        assert_eq!(
            pool, sequential,
            "{case:?}: the schedule moved the fingerprint"
        );
        let key = (case.framework, case.model);
        check(
            case,
            &pool,
            &baselines[&key],
            uncached[&(key.0, key.1, case.residency)],
            uncached[&(key.0, key.1, Residency::Full)],
            row_bytes,
        );
    }
}
