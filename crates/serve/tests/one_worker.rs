//! The one-worker pool is a schedule of its own: every parallel op is
//! injected into a single worker thread while the caller parks — neither
//! the inline `rayon::run_sequential` schedule nor a wide pool. The split
//! tree depends on input lengths alone, so one training epoch per
//! framework and one coalesced serve replay must come out bit for bit as
//! they do under `run_sequential`. This binary requests its one worker
//! before anything else runs (an explicit `WG_THREADS` still takes
//! precedence).

use std::sync::Arc;

use wg_serve::{ArrivalProcess, ServeConfig, ServeEngine, TrafficConfig};
use wholegraph::prelude::*;

fn pipeline(fw: Framework) -> Pipeline {
    let dataset = Arc::new(SyntheticDataset::generate(
        DatasetKind::OgbnProducts,
        900,
        17,
    ));
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let cfg = PipelineConfig::tiny(fw, ModelKind::GraphSage).with_seed(33);
    Pipeline::new(machine, dataset, cfg).unwrap()
}

/// One epoch's loss, accuracy and simulated phase times as bits, then
/// the trained model's predictions on a probe set.
fn epoch(fw: Framework) -> Vec<u64> {
    let mut pipe = pipeline(fw);
    let r = pipe.train_epoch(0);
    let mut bits = vec![r.loss.to_bits() as u64, r.train_accuracy.to_bits()];
    let times = [
        r.epoch_time,
        r.sample_time,
        r.gather_time,
        r.train_time,
        r.comm_time,
    ];
    bits.extend(times.map(|t| t.as_secs().to_bits()));
    let probe: Vec<_> = pipe.dataset().val.iter().take(64).copied().collect();
    bits.extend(pipe.infer(&probe).0.into_iter().map(u64::from));
    bits
}

/// A coalesced replay on a trained WholeGraph pipeline: the batch count
/// and the admission books, then per request (by id) the prediction,
/// logits checksum, batch and finish-time bits.
fn replay() -> Vec<u64> {
    let mut pipe = pipeline(Framework::WholeGraph);
    pipe.train_epoch(0);
    let traffic = TrafficConfig {
        requests: 150,
        process: ArrivalProcess::Poisson { rate_qps: 4000.0 },
        zipf_s: 1.1,
        num_nodes: 900,
        seed: 21,
        deadline: None,
    }
    .generate();
    let cfg = ServeConfig::coalesced(32, SimTime::from_millis(2.0));
    let mut report = ServeEngine::new(cfg).run(&mut pipe, &traffic);
    assert_eq!(report.admitted + report.shed, report.offered);
    report.completions.sort_by_key(|c| c.id);
    let books = [report.batches, report.admitted, report.shed];
    let mut bits: Vec<u64> = books.map(|n| n as u64).to_vec();
    for c in &report.completions {
        let finish = c.finish.as_secs().to_bits();
        bits.extend([c.id, c.pred as u64, c.logits_checksum, c.batch, finish]);
    }
    bits
}

#[test]
fn one_worker_pool_matches_the_sequential_schedule() {
    let workers = rayon::init_threads(1);
    for fw in Framework::ALL {
        let sequential = rayon::run_sequential(|| epoch(fw));
        assert_eq!(epoch(fw), sequential, "{fw:?} on {workers} worker(s)");
    }
    let sequential = rayon::run_sequential(replay);
    assert_eq!(replay(), sequential, "serve replay on {workers} worker(s)");
}
