//! End-to-end serving contracts:
//!
//! * **Bit-identity**: a coalesced micro-batch answers every request
//!   with exactly the bits sequential per-request execution produces —
//!   across cache modes and thread counts. Coalescing moves time, never
//!   values.
//! * **Admission accounting**: `admitted + shed == offered`, always.
//! * **Determinism**: a (pipeline seed, traffic seed, config) triple
//!   reproduces the entire report.
//! * **Throughput**: on a Zipf-skewed open-loop workload the coalesced
//!   engine sustains at least 2x the sequential QPS.

use std::sync::Arc;

use wg_serve::{ArrivalProcess, Request, ServeConfig, ServeEngine, TrafficConfig};
use wg_sim::SimTime;
use wholegraph::prelude::*;

fn dataset() -> Arc<SyntheticDataset> {
    Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnProducts,
        1500,
        5,
    ))
}

/// A serving pipeline with one short training epoch behind it (so the
/// logits are not the init weights), with the given cache (`None`: off).
fn pipeline(cache: Option<(usize, CacheMode)>) -> Pipeline {
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let (rows, mode) = cache.unwrap_or_default();
    let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage)
        .with_seed(11)
        .with_cache(rows, mode);
    let mut p = Pipeline::new(machine, dataset(), cfg).unwrap();
    p.train_epoch(0);
    p
}

fn zipf_traffic(requests: usize, rate_qps: f64, seed: u64) -> Vec<Request> {
    TrafficConfig {
        requests,
        process: ArrivalProcess::Poisson { rate_qps },
        zipf_s: 1.1,
        num_nodes: 1000,
        seed,
        deadline: None,
    }
    .generate()
}

/// Run the traffic through an engine and return completions sorted by
/// request id (dispatch order differs between modes).
fn run_sorted(pipe: &mut Pipeline, cfg: ServeConfig, traffic: &[Request]) -> wg_serve::ServeReport {
    let mut report = ServeEngine::new(cfg).run(pipe, traffic);
    report.completions.sort_by_key(|c| c.id);
    report
}

#[test]
fn coalesced_is_bit_identical_to_sequential_across_cache_modes() {
    let traffic = zipf_traffic(300, 4000.0, 7);
    let baseline = run_sorted(&mut pipeline(None), ServeConfig::sequential(), &traffic);
    assert_eq!(baseline.admitted, 300);
    for cache in [
        None,
        Some((256, CacheMode::Static)),
        Some((256, CacheMode::Clock)),
    ] {
        let coalesced = run_sorted(
            &mut pipeline(cache),
            ServeConfig::coalesced(64, SimTime::from_millis(5.0)),
            &traffic,
        );
        assert_eq!(coalesced.admitted, baseline.admitted, "{cache:?}");
        assert!(coalesced.batches < baseline.batches, "{cache:?}");
        for (a, b) in baseline.completions.iter().zip(&coalesced.completions) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.pred, b.pred, "request {} pred diverged ({cache:?})", a.id);
            assert_eq!(
                a.logits_checksum, b.logits_checksum,
                "request {} logits diverged ({cache:?})",
                a.id
            );
        }
    }
}

#[test]
fn coalesced_results_are_thread_count_invariant() {
    // The work-stealing pool promises bit-identical numerics at any
    // width; `run_sequential` pins one run to a single thread in-process
    // (`one_worker.rs` replays on a one-worker pool, and
    // `config_space.rs` replays under every cache and residency).
    let traffic = zipf_traffic(120, 4000.0, 17);
    let cfg = ServeConfig::coalesced(32, SimTime::from_millis(2.0));
    let parallel = run_sorted(&mut pipeline(None), cfg, &traffic);
    let sequential = rayon::run_sequential(|| run_sorted(&mut pipeline(None), cfg, &traffic));
    for (a, b) in parallel.completions.iter().zip(&sequential.completions) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.pred, b.pred, "request {} pred thread-variant", a.id);
        assert_eq!(
            a.logits_checksum, b.logits_checksum,
            "request {} logits thread-variant",
            a.id
        );
    }
}

#[test]
fn shed_accounting_balances_under_overload() {
    // A tiny queue under a hard burst must shed; the books must balance.
    let traffic = TrafficConfig {
        requests: 400,
        process: ArrivalProcess::Bursty {
            rate_qps: 100_000.0,
            burst: 50,
        },
        zipf_s: 1.1,
        num_nodes: 1000,
        seed: 3,
        deadline: None,
    }
    .generate();
    let mut pipe = pipeline(None);
    let report = ServeEngine::new(ServeConfig {
        max_batch: 8,
        max_delay: SimTime::from_micros(50.0),
        queue_capacity: 16,
    })
    .run(&mut pipe, &traffic);
    assert_eq!(report.offered, 400);
    assert_eq!(report.admitted + report.shed, report.offered);
    assert!(report.shed > 0, "overload with a 16-deep queue must shed");
    assert_eq!(report.completions.len(), report.admitted);
}

#[test]
fn deadlines_mark_late_requests_expired() {
    let traffic = TrafficConfig {
        requests: 200,
        process: ArrivalProcess::Bursty {
            rate_qps: 50_000.0,
            burst: 40,
        },
        zipf_s: 0.0,
        num_nodes: 1000,
        seed: 9,
        deadline: Some(SimTime::from_micros(1.0)),
    }
    .generate();
    let mut pipe = pipeline(None);
    let report = ServeEngine::new(ServeConfig::sequential()).run(&mut pipe, &traffic);
    // A 1 µs SLO under a 40-deep burst is unmeetable for queued requests.
    assert!(report.expired > 0);
    assert_eq!(
        report.expired,
        report.completions.iter().filter(|c| c.expired).count()
    );
    // Expired requests were still answered.
    assert_eq!(report.admitted + report.shed, report.offered);
}

#[test]
fn serving_is_deterministic_end_to_end() {
    let traffic = zipf_traffic(150, 3000.0, 21);
    let cfg = ServeConfig::coalesced(32, SimTime::from_millis(2.0));
    let a = run_sorted(&mut pipeline(None), cfg, &traffic);
    let b = run_sorted(&mut pipeline(None), cfg, &traffic);
    assert_eq!(a.admitted, b.admitted);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.makespan, b.makespan);
    for (x, y) in a.completions.iter().zip(&b.completions) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.pred, y.pred);
        assert_eq!(x.logits_checksum, y.logits_checksum);
        assert_eq!(x.finish, y.finish);
    }
}

#[test]
fn coalescing_doubles_sustained_qps_on_zipf_traffic() {
    // The tentpole claim at test scale: open-loop Zipf traffic hot
    // enough to queue behind sequential serving, where the coalescer's
    // shared passes amortize per-batch fixed costs and dedup hot nodes.
    let traffic = zipf_traffic(400, 50_000.0, 13);
    let seq = run_sorted(&mut pipeline(None), ServeConfig::sequential(), &traffic);
    let coal = run_sorted(
        &mut pipeline(None),
        ServeConfig::coalesced(64, SimTime::from_millis(2.0)),
        &traffic,
    );
    assert_eq!(seq.shed, 0);
    assert_eq!(coal.shed, 0);
    assert!(coal.dedup_factor() > 1.0, "Zipf window must dedup");
    assert!(
        coal.qps() >= 2.0 * seq.qps(),
        "coalesced {:.0} qps !>= 2x sequential {:.0} qps",
        coal.qps(),
        seq.qps()
    );
}
