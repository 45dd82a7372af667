//! The serving engine: bounded admission queue, adaptive micro-batch
//! dispatch, and the discrete-event loop that lays requests onto the
//! simulated clock.
//!
//! # Queueing model
//!
//! One logical server (the inference GPU pool) processes batches one at
//! a time; batches round-robin across the machine's GPUs so each
//! device's feature cache sees its share of the query stream. Arrivals
//! are admitted in arrival order into a bounded queue; an arrival
//! finding the queue full is **shed** immediately (load-shedding beats
//! unbounded queueing collapse under open-loop overload).
//!
//! # Dispatch rule (deterministic)
//!
//! A batch launches at the earliest instant the server is free AND the
//! coalescing window has closed. The window opens when the head request
//! arrived and closes after `max_delay`, or *early* the moment the queue
//! holds `max_batch` requests. The engine keeps one launch bound per
//! batch and takes arrivals as its events, in time order:
//!
//! * the bound starts at `free.max(head + max_delay)` — or at
//!   `free.max(head)` when the queue already holds `max_batch` requests;
//! * each arrival strictly before the bound is admitted or shed (an
//!   arrival exactly at the bound misses the batch — the documented
//!   tie-break);
//! * an admitted arrival `r` that brings the queue to `max_batch`
//!   closes the window: the bound becomes `bound.min(free.max(r.arrival))`.
//!
//! The bound only moves earlier, and never before an admitted arrival,
//! so every request in the queue arrived before its batch launches:
//! `arrival <= start <= finish` holds by construction. The batch then
//! takes the first `min(queue, max_batch)` requests. Every quantity
//! involved is simulated time or queue arithmetic, so the schedule —
//! batch compositions, shed decisions, latencies — is a pure function of
//! the request timeline and the configuration.
//!
//! The per-request baseline is the degenerate window
//! ([`ServeConfig::sequential`]: `max_batch = 1`, `max_delay = 0`): one
//! request per forward pass. Because the pipeline's serving pass is
//! batch-composition-invariant (see
//! [`wholegraph::pipeline::Pipeline::serve_forward`]), coalesced and
//! sequential runs return bit-identical predictions and logits checksums
//! for every request — coalescing changes *when* answers arrive, never
//! *what* they are.

use std::collections::VecDeque;

use wg_sim::SimTime;
use wholegraph::{Pipeline, StorageIo};

use crate::coalesce::Coalescer;
use crate::request::{Completion, Request};

/// Engine configuration: the coalescing window and the admission queue.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Largest batch one dispatch may take (at least 1).
    pub max_batch: usize,
    /// Longest a head-of-line request may wait for company.
    pub max_delay: SimTime,
    /// Admission-queue capacity: an arrival finding this many requests
    /// queued is shed.
    pub queue_capacity: usize,
}

impl ServeConfig {
    /// Sequential serving — one request per forward pass, the baseline
    /// the coalescer is measured against — with a generous queue.
    pub fn sequential() -> Self {
        Self::coalesced(1, SimTime::ZERO)
    }

    /// Adaptive micro-batching with a generous queue: wait up to
    /// `max_delay` past the head request's arrival (or until `max_batch`
    /// requests are queued, whichever is first), then serve the whole
    /// window in one shared pass.
    pub fn coalesced(max_batch: usize, max_delay: SimTime) -> Self {
        ServeConfig {
            max_batch,
            max_delay,
            queue_capacity: 4096,
        }
    }
}

/// What a serving run did: per-request completions plus the aggregate
/// counters the gates check.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Requests the workload offered.
    pub offered: usize,
    /// Requests admitted and answered.
    pub admitted: usize,
    /// Requests shed at admission (queue full).
    pub shed: usize,
    /// Admitted requests that finished after their deadline.
    pub expired: usize,
    /// Forward passes dispatched.
    pub batches: usize,
    /// Query rows across all dispatched batches, before dedup.
    pub batched_rows: u64,
    /// Deduplicated frontier rows actually served.
    pub unique_rows: u64,
    /// When the last batch finished.
    pub makespan: SimTime,
    /// Summed simulated sampling time.
    pub sample_time: SimTime,
    /// Summed simulated gather time.
    pub gather_time: SimTime,
    /// Summed simulated forward time.
    pub compute_time: SimTime,
    /// Summed out-of-core storage-tier time (part of `gather_time`).
    pub storage_time: SimTime,
    /// Storage-tier traffic behind `storage_time`.
    pub storage_io: StorageIo,
    /// Per-request outcomes, in completion order (batch by batch).
    pub completions: Vec<Completion>,
}

impl ServeReport {
    /// Sustained throughput: answered requests per simulated second of
    /// makespan.
    pub fn qps(&self) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        self.admitted as f64 / self.makespan.as_secs()
    }

    /// Exact latency quantile (`0 ≤ q ≤ 1`) over the admitted requests:
    /// sorts a copy of the latencies and indexes the ceil(q·n)-th order
    /// statistic — no bucket interpolation, so the "equal p99" gate
    /// compares true order statistics. `None` if nothing completed.
    pub fn latency_quantile(&self, q: f64) -> Option<SimTime> {
        if self.completions.is_empty() {
            return None;
        }
        let mut lats: Vec<f64> = self
            .completions
            .iter()
            .map(|c| c.latency().as_secs())
            .collect();
        lats.sort_by(f64::total_cmp);
        let rank = ((q.clamp(0.0, 1.0) * lats.len() as f64).ceil() as usize).max(1);
        Some(SimTime::from_secs(lats[rank - 1]))
    }

    /// Median latency.
    pub fn p50(&self) -> Option<SimTime> {
        self.latency_quantile(0.5)
    }

    /// Tail latency.
    pub fn p99(&self) -> Option<SimTime> {
        self.latency_quantile(0.99)
    }

    /// Mean queried-rows-per-frontier-row: > 1 means the coalescer
    /// collapsed duplicate queries.
    pub fn dedup_factor(&self) -> f64 {
        if self.unique_rows == 0 {
            return 1.0;
        }
        self.batched_rows as f64 / self.unique_rows as f64
    }
}

/// Latency histogram bounds (µs): sub-ms serving through batch-queueing
/// tails.
static LATENCY_US_BUCKETS: [f64; 12] = [
    50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0, 25600.0, 51200.0, 102400.0,
];
/// Batch-size histogram bounds (requests per dispatch).
static BATCH_SIZE_BUCKETS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];
/// Queue-depth histogram bounds (requests queued at dispatch).
static QUEUE_DEPTH_BUCKETS: [f64; 9] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 256.0];

/// The request-driven inference engine.
pub struct ServeEngine {
    cfg: ServeConfig,
    coalescer: Coalescer,
    /// Pooled per-batch buffers (query nodes, preds, checksums), warm
    /// across dispatches.
    batch_nodes: Vec<u64>,
    preds: Vec<u32>,
    checksums: Vec<u64>,
}

impl ServeEngine {
    /// Build an engine.
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(cfg.max_batch > 0, "max batch must be positive");
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        ServeEngine {
            cfg,
            coalescer: Coalescer::default(),
            batch_nodes: Vec::new(),
            preds: Vec::new(),
            checksums: Vec::new(),
        }
    }

    /// Serve a request timeline (sorted by arrival) against a trained
    /// pipeline. Deterministic: the same pipeline state, timeline, and
    /// configuration reproduce the identical report.
    pub fn run(&mut self, pipe: &mut Pipeline, requests: &[Request]) -> ServeReport {
        debug_assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "request timeline must be sorted by arrival"
        );
        let _span = wg_trace::span!("serve.run");
        let ServeConfig {
            max_batch,
            max_delay,
            queue_capacity,
        } = self.cfg;
        let num_gpus = pipe.machine().num_gpus() as u64;

        let mut report = ServeReport {
            offered: requests.len(),
            ..ServeReport::default()
        };
        let mut queue: VecDeque<Request> = VecDeque::new();
        let mut next = 0usize; // next arrival to process
        let mut free = SimTime::ZERO; // when the server frees up
        let mut batch_seq = 0u64;

        while next < requests.len() || !queue.is_empty() {
            if queue.is_empty() {
                // Server idle: jump to the next arrival (an empty queue
                // never sheds).
                queue.push_back(requests[next]);
                next += 1;
            }
            let head = queue[0].arrival;
            // The window closes at head + max_delay — or immediately if
            // the batch is already full from the previous round.
            let mut launch = if queue.len() >= max_batch {
                free.max(head)
            } else {
                free.max(head + max_delay)
            };
            // Admit (or shed) arrivals strictly before the launch, in
            // time order. The one that fills the batch closes the window:
            // the launch moves up to it (or to `free`), never before it.
            while next < requests.len() && requests[next].arrival < launch {
                let r = requests[next];
                next += 1;
                if queue.len() >= queue_capacity {
                    report.shed += 1;
                    wg_trace::counter!("serve.shed", 1.0);
                    continue;
                }
                queue.push_back(r);
                if queue.len() == max_batch {
                    launch = launch.min(free.max(r.arrival));
                }
            }

            // Dispatch the head window.
            let take = queue.len().min(max_batch);
            wg_trace::histogram!("serve.batch_size", &BATCH_SIZE_BUCKETS, take as f64);
            wg_trace::histogram!(
                "serve.queue_depth",
                &QUEUE_DEPTH_BUCKETS,
                (queue.len() - take) as f64
            );
            self.batch_nodes.clear();
            self.batch_nodes
                .extend(queue.iter().take(take).map(|r| r.node));
            self.coalescer.coalesce(&self.batch_nodes);
            let rank = (batch_seq % num_gpus) as u32;
            self.preds.clear();
            self.checksums.clear();
            let times = {
                let _s = wg_trace::span!("serve.batch");
                pipe.serve_forward(
                    self.coalescer.unique(),
                    rank,
                    &mut self.preds,
                    &mut self.checksums,
                )
            };
            let finish = launch + times.total();
            report.sample_time += times.sample;
            report.gather_time += times.gather;
            report.compute_time += times.compute;
            report.storage_time += times.storage;
            report.storage_io += times.storage_io;
            report.batches += 1;
            report.batched_rows += take as u64;
            report.unique_rows += self.coalescer.unique().len() as u64;
            report.makespan = report.makespan.max(finish);
            for (i, r) in queue.drain(..take).enumerate() {
                debug_assert!(
                    r.arrival <= launch,
                    "request {} starts before it arrives",
                    r.id
                );
                let row = self.coalescer.map()[i] as usize;
                let expired = r.deadline.is_some_and(|d| finish > d);
                if expired {
                    report.expired += 1;
                }
                report.admitted += 1;
                let latency = finish - r.arrival;
                wg_trace::histogram!("serve.latency_us", &LATENCY_US_BUCKETS, latency.as_micros());
                report.completions.push(Completion {
                    id: r.id,
                    node: r.node,
                    arrival: r.arrival,
                    start: launch,
                    finish,
                    batch: batch_seq,
                    pred: self.preds[row],
                    logits_checksum: self.checksums[row],
                    expired,
                });
            }
            free = finish;
            batch_seq += 1;
        }
        debug_assert_eq!(report.admitted + report.shed, report.offered);
        report
    }
}
