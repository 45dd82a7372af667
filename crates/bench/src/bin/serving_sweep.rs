//! Serving sweep — the evidence behind the adaptive micro-batching
//! claim. Replays one seeded open-loop Zipf query stream through the
//! serving engine twice — sequential (one request per forward pass) and
//! coalesced (dedup + shared pass per window) — against identically
//! trained pipelines. The sweep gates itself — measure, [`gate`], write —
//! so a `BENCH_serving.json` on disk is one that passed: the coalesced
//! run answered every request with bit-identical predictions and logits
//! checksums, at >= 2x the sequential QPS and equal-or-better exact p99,
//! inside the absolute service bounds, with the shed books balanced and
//! no request started before it arrived or finished before it started.
//!
//! Latencies are reported two ways on purpose: exact order statistics
//! over the per-request completions (what the ≥2x-at-equal-p99 gate
//! compares) and interpolated estimates from the `serve.latency_us`
//! histogram (what a production scrape would see) — keeping the cheap
//! estimator honest against ground truth in the same artifact.
//!
//! A second short leg runs a hard burst into a tiny admission queue to
//! record shed accounting under overload: `admitted + shed == offered`
//! exactly, with `shed > 0`.
//!
//! `--trace <out.json>` re-runs the coalesced leg with span tracing on
//! and writes the Chrome trace (per-batch `serve.batch` spans over the
//! sample/gather/forward children).

use std::sync::Arc;

use wg_bench::{banner, flags, Table};
use wg_graph::{DatasetKind, SyntheticDataset};
use wg_serve::{ArrivalProcess, Request, ServeConfig, ServeEngine, ServeReport, TrafficConfig};
use wg_trace::metrics::HistogramSnapshot;
use wholegraph::prelude::*;

/// Requests in the main open-loop stream.
const REQUESTS: usize = 2000;
/// Offered rate — hot enough that sequential serving queues.
const RATE_QPS: f64 = 50_000.0;
/// Query-node skew (real serving traffic concentrates on hot entities).
const ZIPF_S: f64 = 1.1;
/// Traffic seed (pipeline seed stays the wallclock harness's 11).
const TRAFFIC_SEED: u64 = 13;
/// Coalescing window: at most this many requests per dispatch...
const MAX_BATCH: usize = 64;
/// ...waiting at most this long (µs) for company.
const MAX_DELAY_US: f64 = 2000.0;

/// The serving pipeline: ogbn-products stand-in at 1/1500, tiny
/// GraphSage warmed by one training epoch, 4 simulated GPUs, no cache
/// and no disk tier (bit-identity across cache modes and residency is
/// covered by the serve tests).
fn pipeline(dataset: &Arc<SyntheticDataset>) -> Pipeline {
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage).with_seed(11);
    let mut p = Pipeline::new(machine, Arc::clone(dataset), cfg).expect("pipeline");
    p.train_epoch(0);
    p
}

/// Run `traffic` through a fresh engine and sort completions by request
/// id (dispatch order differs between modes; identity is per-request).
fn run_mode(dataset: &Arc<SyntheticDataset>, cfg: ServeConfig, traffic: &[Request]) -> ServeReport {
    let mut pipe = pipeline(dataset);
    let mut report = ServeEngine::new(cfg).run(&mut pipe, traffic);
    report.completions.sort_by_key(|c| c.id);
    report
}

/// `serve.latency_us` bucket-count delta between two snapshots, as a
/// standalone histogram the interpolated quantile estimator runs on —
/// the registry is cumulative, so each mode's estimate needs its own
/// window.
fn latency_hist_delta(
    before: &wg_trace::metrics::Snapshot,
    after: &wg_trace::metrics::Snapshot,
) -> Option<HistogramSnapshot> {
    let find = |s: &wg_trace::metrics::Snapshot| {
        s.histograms
            .iter()
            .find(|h| h.name == "serve.latency_us")
            .cloned()
    };
    let a = find(after)?;
    let mut d = a.clone();
    if let Some(b) = find(before) {
        for (i, c) in b.buckets.iter().enumerate() {
            d.buckets[i] -= c;
        }
        d.count -= b.count;
        d.sum -= b.sum;
    }
    (d.count > 0).then_some(d)
}

/// One mode's JSON block.
fn mode_json(name: &str, r: &ServeReport, hist: Option<&HistogramSnapshot>) -> String {
    let us = |t: Option<SimTime>| t.map_or(0.0, |t| t.as_micros());
    format!(
        "  \"{name}\": {{\n    \"offered\": {}, \"admitted\": {}, \"shed\": {}, \
         \"expired\": {},\n    \"batches\": {}, \"batched_rows\": {}, \"unique_rows\": {}, \
         \"dedup_factor\": {:.6},\n    \"qps\": {:.3}, \"makespan_s\": {:.9},\n    \
         \"p50_us\": {:.3}, \"p99_us\": {:.3},\n    \
         \"hist_p50_us\": {:.3}, \"hist_p99_us\": {:.3},\n    \
         \"sample_s\": {:.9}, \"gather_s\": {:.9}, \"compute_s\": {:.9}\n  }}",
        r.offered,
        r.admitted,
        r.shed,
        r.expired,
        r.batches,
        r.batched_rows,
        r.unique_rows,
        r.dedup_factor(),
        r.qps(),
        r.makespan.as_secs(),
        us(r.p50()),
        us(r.p99()),
        hist.and_then(|h| h.p50()).unwrap_or(0.0),
        hist.and_then(|h| h.p99()).unwrap_or(0.0),
        r.sample_time.as_secs(),
        r.gather_time.as_secs(),
        r.compute_time.as_secs(),
    )
}

/// One main leg: its report and its window of the latency histogram.
type Leg<'a> = (&'a ServeReport, Option<&'a HistogramSnapshot>);

/// Every invariant the artifact claims, on the typed reports, before the write.
fn gate(bit_identical: bool, seq: Leg, coal: Leg, over: &ServeReport) {
    // Causality on every leg: a request starts no earlier than it
    // arrives and finishes no earlier than it starts.
    for (name, r) in [
        ("sequential", seq.0),
        ("coalesced", coal.0),
        ("overload", over),
    ] {
        for c in &r.completions {
            assert!(
                c.arrival <= c.start && c.start <= c.finish,
                "{name}: request {} not causal (arrival {}, start {}, finish {})",
                c.id,
                c.arrival,
                c.start,
                c.finish
            );
        }
    }
    // The tentpole invariant: coalescing moved time, not values.
    assert_eq!(seq.0.admitted, coal.0.admitted);
    assert!(bit_identical, "coalesced serving diverged from sequential");
    // Main legs: open-loop but not overloaded — every offered request
    // answered, none shed, so the two QPS figures cover identical work —
    // and the cheap histogram estimator is live beside the exact figures.
    for (name, (r, hist)) in [("sequential", seq), ("coalesced", coal)] {
        assert_eq!(r.shed, 0, "{name}: main leg shed requests");
        assert_eq!(r.admitted, r.offered, "{name}: admitted != offered");
        assert!(
            hist.and_then(|h| h.p50()) > Some(0.0) && hist.and_then(|h| h.p99()) > Some(0.0),
            "{name}: histogram quantile estimates missing"
        );
    }
    let (seq, coal) = (seq.0, coal.0);
    // The headline: >= 2x sustained QPS at equal-or-better exact p99.
    let (sq, cq) = (seq.qps(), coal.qps());
    let p99 = |r: &ServeReport| r.p99().expect("main legs answer requests");
    let (sp99, cp99) = (p99(seq), p99(coal));
    assert!(
        cq >= 2.0 * sq,
        "coalesced {cq:.0} qps < 2x sequential {sq:.0} qps"
    );
    assert!(
        cp99 <= sp99,
        "coalesced p99 {cp99} worse than sequential {sp99}"
    );
    // Absolute service-quality bounds: the coalesced engine must sustain
    // most of the offered rate, with tail latency bounded by a small
    // multiple of the coalescing window it deliberately introduces.
    assert!(
        cq >= 0.8 * RATE_QPS,
        "qps floor: coalesced {cq:.0} qps < 80% of offered {RATE_QPS:.0}"
    );
    assert!(
        cp99.as_micros() <= 4.0 * MAX_DELAY_US,
        "p99 ceiling: coalesced {cp99} > 4x the {MAX_DELAY_US}us window"
    );
    assert!(coal.dedup_factor() > 1.0, "no duplicate query collapsed");
    assert!(coal.batches < seq.batches, "dispatch count not reduced");
    // Overload leg: shedding happened and the books balance exactly.
    assert!(over.shed > 0, "overload leg shed nothing");
    assert_eq!(
        over.admitted + over.shed,
        over.offered,
        "overload books unbalanced"
    );
}

fn main() {
    let flags = flags(&["--trace"]);
    banner(
        "serving sweep",
        "sequential vs coalesced micro-batching on open-loop Zipf traffic",
    );
    wg_trace::enable_metrics();
    let dataset = Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnProducts,
        1500,
        5,
    ));
    let traffic = TrafficConfig {
        requests: REQUESTS,
        process: ArrivalProcess::Poisson { rate_qps: RATE_QPS },
        zipf_s: ZIPF_S,
        num_nodes: dataset.num_nodes() as u64,
        seed: TRAFFIC_SEED,
        deadline: None,
    }
    .generate();
    println!(
        "workload: {REQUESTS} requests, Poisson {RATE_QPS:.0} qps, Zipf({ZIPF_S}) over {} nodes\n",
        dataset.num_nodes()
    );

    let coalesced_cfg = ServeConfig::coalesced(MAX_BATCH, SimTime::from_micros(MAX_DELAY_US));
    let s0 = wg_trace::metrics::snapshot();
    let seq = run_mode(&dataset, ServeConfig::sequential(), &traffic);
    let s1 = wg_trace::metrics::snapshot();
    let coal = run_mode(&dataset, coalesced_cfg, &traffic);
    let s2 = wg_trace::metrics::snapshot();
    let seq_hist = latency_hist_delta(&s0, &s1);
    let coal_hist = latency_hist_delta(&s1, &s2);

    let bit_identical =
        seq.completions.iter().zip(&coal.completions).all(|(a, b)| {
            a.id == b.id && a.pred == b.pred && a.logits_checksum == b.logits_checksum
        });

    let mut t = Table::new(&["mode", "batches", "dedup", "qps", "p50", "p99", "shed"]);
    for (name, r) in [("sequential", &seq), ("coalesced", &coal)] {
        t.row(&[
            name.to_string(),
            r.batches.to_string(),
            format!("{:.2}x", r.dedup_factor()),
            format!("{:.0}", r.qps()),
            format!("{}", r.p50().unwrap_or(SimTime::ZERO)),
            format!("{}", r.p99().unwrap_or(SimTime::ZERO)),
            r.shed.to_string(),
        ]);
    }
    t.print();
    println!(
        "\ncoalescing speedup {:.2}x qps at {:.2}x p99",
        coal.qps() / seq.qps(),
        coal.p99().unwrap_or(SimTime::ZERO).as_secs()
            / seq.p99().unwrap_or(SimTime::ZERO).as_secs().max(1e-12),
    );

    // Overload leg: a 50-deep burst train into a 16-deep queue must shed,
    // and the books must balance exactly.
    let burst_traffic = TrafficConfig {
        requests: 400,
        process: ArrivalProcess::Bursty {
            rate_qps: 100_000.0,
            burst: 50,
        },
        zipf_s: ZIPF_S,
        num_nodes: dataset.num_nodes() as u64,
        seed: TRAFFIC_SEED ^ 0xb0,
        deadline: None,
    }
    .generate();
    let overload = run_mode(
        &dataset,
        ServeConfig {
            max_batch: 8,
            max_delay: SimTime::from_micros(50.0),
            queue_capacity: 16,
        },
        &burst_traffic,
    );
    println!(
        "\noverload leg: {} offered, {} admitted, {} shed",
        overload.offered, overload.admitted, overload.shed
    );

    gate(
        bit_identical,
        (&seq, seq_hist.as_ref()),
        (&coal, coal_hist.as_ref()),
        &overload,
    );
    println!(
        "\ngate: OK (causal, bit-identical, >= 2x qps at equal-or-better p99, shed books balance)"
    );

    if let Some(path) = flags.get("trace") {
        // A traced coalesced replay: per-batch serve.batch spans with
        // sample/gather/forward children on the simulated timeline.
        wg_trace::enable_all();
        let mut pipe = pipeline(&dataset);
        ServeEngine::new(coalesced_cfg).run(&mut pipe, &traffic);
        wg_trace::disable_all();
        wg_trace::enable_metrics();
        wholegraph::observability::write_chrome_trace(path, pipe.machine())
            .expect("write serving trace");
        println!("serving chrome trace written to {path}");
    }

    let json = format!(
        "{{\n  \"schema\": \"wg-serving-v1\",\n  \"dataset\": \"ogbn-products\",\n  \
         \"scale\": 1500,\n  \"pipeline_seed\": 11,\n  \"traffic\": {{\n    \
         \"requests\": {REQUESTS}, \"rate_qps\": {RATE_QPS}, \"zipf_s\": {ZIPF_S}, \
         \"seed\": {TRAFFIC_SEED}\n  }},\n  \"coalescing\": {{\n    \
         \"max_batch\": {MAX_BATCH}, \"max_delay_us\": {MAX_DELAY_US}, \
         \"queue_capacity\": 4096\n  }},\n  \"bit_identical\": {bit_identical},\n  \
         \"qps_speedup\": {:.6},\n{},\n{},\n  \"overload\": {{\n    \
         \"offered\": {}, \"admitted\": {}, \"shed\": {}, \"queue_capacity\": 16\n  }}\n}}\n",
        coal.qps() / seq.qps(),
        mode_json("sequential", &seq, seq_hist.as_ref()),
        mode_json("coalesced", &coal, coal_hist.as_ref()),
        overload.offered,
        overload.admitted,
        overload.shed,
    );
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("Wrote BENCH_serving.json");
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_serve::Completion;

    /// A report of requests served as `(arrival, start, finish)` in µs,
    /// `per_batch` to a dispatch, each batch querying one node.
    fn report(served: &[(f64, f64, f64)], per_batch: usize) -> ServeReport {
        let us = SimTime::from_micros;
        let completions: Vec<Completion> = served
            .iter()
            .enumerate()
            .map(|(i, &(arrival, start, finish))| Completion {
                id: i as u64,
                node: 0,
                arrival: us(arrival),
                start: us(start),
                finish: us(finish),
                batch: (i / per_batch) as u64,
                pred: 0,
                logits_checksum: 0,
                expired: false,
            })
            .collect();
        let batches = served.len().div_ceil(per_batch);
        ServeReport {
            offered: served.len(),
            admitted: served.len(),
            batches,
            batched_rows: served.len() as u64,
            unique_rows: batches as u64,
            makespan: completions
                .iter()
                .fold(SimTime::ZERO, |m, c| m.max(c.finish)),
            completions,
            ..ServeReport::default()
        }
    }

    /// Four requests 10 µs apart: one at a time (20 µs each), two at a
    /// time (10 µs each), and a burst that shed half of what it offered.
    fn legs() -> (ServeReport, ServeReport, ServeReport) {
        let arrivals = [0.0, 10.0, 20.0, 30.0];
        let seq: Vec<_> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, 20.0 * i as f64, 20.0 * (i + 1) as f64))
            .collect();
        let coal: Vec<_> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let start = if i < 2 { 10.0 } else { 30.0 };
                (a, start, start + 10.0)
            })
            .collect();
        let over = ServeReport {
            offered: 4,
            shed: 2,
            ..report(&coal[..2], 2)
        };
        (report(&seq, 1), report(&coal, 2), over)
    }

    fn hist() -> HistogramSnapshot {
        HistogramSnapshot {
            name: "serve.latency_us".into(),
            bounds: vec![100.0],
            buckets: vec![4, 0],
            count: 4,
            sum: 40.0,
        }
    }

    #[test]
    fn causal_legs_pass() {
        let ((seq, coal, over), h) = (legs(), hist());
        gate(true, (&seq, Some(&h)), (&coal, Some(&h)), &over);
    }

    #[test]
    #[should_panic(expected = "coalesced: request 2 not causal")]
    fn a_request_started_before_it_arrived_fails_the_gate() {
        let ((seq, mut coal, over), h) = (legs(), hist());
        coal.completions[2].start = SimTime::from_micros(15.0);
        gate(true, (&seq, Some(&h)), (&coal, Some(&h)), &over);
    }
}
