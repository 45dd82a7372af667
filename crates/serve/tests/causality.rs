//! Causality and the books, over a seeded grid of serving configurations:
//! offered rate × coalescing window × batch cap (1 included) × queue
//! capacity (one below the batch cap included) × Poisson or bursty
//! arrivals, on one trained in-memory pipeline. At the highest rate the
//! server is far slower than the arrivals, so windows fill while it is
//! busy and close early the moment it frees — the case an admission
//! pass that lets a batch start before its members arrive gets wrong.
//!
//! For every run:
//! * every completion has `arrival <= start <= finish`;
//! * `admitted + shed == offered` and one completion per admitted request;
//! * no batch holds more than `max_batch` requests, its members share one
//!   start and one finish, and each batch starts no earlier than the
//!   previous one finished (one server, batches never overlap).

use std::sync::Arc;

use wg_serve::{ArrivalProcess, ServeConfig, ServeEngine, ServeReport, TrafficConfig};
use wholegraph::prelude::*;

/// Requests per run: enough for several windows at every batch cap.
const REQUESTS: usize = 96;

fn check(tag: &str, max_batch: usize, r: &ServeReport) {
    assert_eq!(r.offered, REQUESTS, "{tag}");
    assert_eq!(r.admitted + r.shed, r.offered, "{tag}: books");
    assert_eq!(r.completions.len(), r.admitted, "{tag}: completions");
    for c in &r.completions {
        assert!(
            c.arrival <= c.start && c.start <= c.finish,
            "{tag}: request {} arrives {}, starts {}, finishes {}",
            c.id,
            c.arrival,
            c.start,
            c.finish
        );
    }
    // Completions come batch by batch, in dispatch order.
    let (mut prev_finish, mut batches) = (SimTime::ZERO, 0);
    for (seq, batch) in r
        .completions
        .chunk_by(|a, b| a.batch == b.batch)
        .enumerate()
    {
        let head = batch[0];
        assert_eq!(head.batch, seq as u64, "{tag}: batch order");
        assert!(
            batch.len() <= max_batch,
            "{tag}: batch {seq} holds {}",
            batch.len()
        );
        assert!(
            batch
                .iter()
                .all(|c| (c.start, c.finish) == (head.start, head.finish)),
            "{tag}: batch {seq} members disagree on start or finish"
        );
        assert!(
            head.start >= prev_finish,
            "{tag}: batch {seq} starts {} before the previous one finishes {prev_finish}",
            head.start
        );
        prev_finish = head.finish;
        batches += 1;
    }
    assert_eq!(r.batches, batches, "{tag}: batch count");
}

#[test]
fn every_request_starts_after_it_arrives_and_the_books_balance() {
    let dataset = Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnProducts,
        1500,
        5,
    ));
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage).with_seed(11);
    let mut pipe = Pipeline::new(machine, Arc::clone(&dataset), cfg).unwrap();
    pipe.train_epoch(0);

    let mut runs = 0;
    for (i, rate_qps) in [2_000.0, 50_000.0, 250_000.0].into_iter().enumerate() {
        for bursty in [false, true] {
            let process = if bursty {
                ArrivalProcess::Bursty { rate_qps, burst: 8 }
            } else {
                ArrivalProcess::Poisson { rate_qps }
            };
            let traffic = TrafficConfig {
                requests: REQUESTS,
                process,
                zipf_s: 1.1,
                num_nodes: dataset.num_nodes() as u64,
                seed: 7 + i as u64,
                deadline: None,
            }
            .generate();
            for max_delay_us in [0.0, 50.0, 2000.0] {
                for max_batch in [1, 4, 16] {
                    for queue_capacity in [(max_batch - 1).max(1), 64] {
                        let cfg = ServeConfig {
                            queue_capacity,
                            ..ServeConfig::coalesced(max_batch, SimTime::from_micros(max_delay_us))
                        };
                        let tag = format!(
                            "{process:?}, window {max_delay_us} us, max batch {max_batch}, \
                             queue {queue_capacity}"
                        );
                        let report = ServeEngine::new(cfg).run(&mut pipe, &traffic);
                        check(&tag, max_batch, &report);
                        runs += 1;
                    }
                }
            }
        }
    }
    assert_eq!(runs, 108);
}
