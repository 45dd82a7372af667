//! What the three traced passes share: the recorder/ledger/tally bundle,
//! the library-counter window, and the ledger sections that read the same
//! way on every workload.

use wholegraph::pipeline::EpochReport;

use crate::common::{ms, Tally};
use crate::metrics::{Ledger, PER_LAYER};
use crate::replay::host_copy_gbps;
use crate::span::Recorder;
use crate::speed::SpeedRef;

/// State of one traced pass.
pub struct Traced {
    pub ledger: Ledger,
    pub tally: Tally,
    pub rec: Recorder,
}

impl Traced {
    /// Open the pass and record the host it runs on (`host` is the pool
    /// width and the core count).
    pub fn start(host: (usize, usize)) -> Traced {
        let mut ledger = Ledger::new(&PER_LAYER);
        ledger.set("host.threads", host.0 as f64);
        ledger.set("host.cores", host.1 as f64);
        ledger.set("host.copy_gbps", host_copy_gbps());
        // The traced pass reports raw host times; this is what converts
        // them to the untraced pass's speed-normalised ones
        // (x `speed::REF_MS` / this).
        ledger.set("host.calibration_ms", SpeedRef::new().sample());
        Traced {
            ledger,
            tally: Tally::default(),
            rec: Recorder::new(),
        }
    }

    /// Run `f` under a span called `span`; returns its result and host ms.
    pub fn timed<R>(&mut self, span: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.rec.begin(span);
        let out = f();
        (out, ms(self.rec.end(id)))
    }

    /// p50 host ms over every closed span called `span`.
    pub fn p50_ms(&self, span: &str) -> f64 {
        crate::stats::p50(&self.rec.durations_ms(span))
    }

    /// Write the Chrome trace and hand back the ledger and tally.
    pub fn finish(self, workload: &str, seed: u64) -> (Ledger, Tally) {
        let path = format!("{}/trace_{workload}_seed{seed}.json", crate::OUT_DIR);
        match std::fs::write(&path, self.rec.chrome_trace(workload).to_string()) {
            Ok(()) => println!("chrome trace {path} ({} spans)", self.rec.spans().len()),
            Err(e) => println!("chrome trace {path}: {e}"),
        }
        (self.ledger, self.tally)
    }
}

/// The library's own `wg_trace` counters over one window of work.
pub struct Counters(wg_trace::metrics::Snapshot);

impl Counters {
    /// Run `f` with metric probes (not spans) on, so the counters cover
    /// exactly the work inside it.
    pub fn over<R>(f: impl FnOnce() -> R) -> (R, Counters) {
        wg_trace::metrics::reset();
        wg_trace::enable_metrics();
        let out = f();
        wg_trace::disable_all();
        let snap = wg_trace::metrics::snapshot();
        wg_trace::metrics::reset();
        (out, Counters(snap))
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// `sample.*` and `mem.*` counts per op from the library's counters over
/// `ops` ops, and the storage tier's closure: every disk row is one whole
/// feature row, and no more rows come from disk than were gathered.
pub fn library_counts(t: &mut Traced, c: &Counters, ops: usize, row_bytes: usize) {
    let n = ops as f64;
    let l = &mut t.ledger;
    l.set("sample.edges", c.get("sample.edges_sampled") / n);
    l.set("sample.keys_inserted", c.get("sample.keys_inserted") / n);
    l.set("sample.input_nodes", c.get("sample.input_nodes") / n);
    let rows = c.get("mem.gather.rows");
    l.set("mem.rows", rows / n);
    l.set("mem.remote_rows", c.get("mem.gather.remote_rows") / n);
    l.set("mem.algo_bytes", c.get("mem.gather.algo_bytes") / n);
    l.set("mem.bus_bytes", c.get("mem.gather.bus_bytes") / n);
    let (hits, misses) = (c.get("mem.cache.hits"), c.get("mem.cache.misses"));
    l.set("mem.cache_hit_share", hits / (hits + misses).max(1.0));
    let (ooc_rows, ooc_bytes) = (c.get("mem.storage.rows"), c.get("mem.storage.bytes"));
    l.set("mem.ooc_rows", ooc_rows / n);
    l.set("mem.ooc_bytes", ooc_bytes / n);
    t.tally.check(
        "mem.ooc_bytes == mem.ooc_rows x row bytes, and mem.ooc_rows <= mem.rows",
        ooc_bytes == ooc_rows * row_bytes as f64 && ooc_rows <= rows && rows > 0.0,
    );
}

/// `sim.*`: the simulated ledger per epoch, and its closure — under the
/// serial executor the four phases are the epoch, with nothing left over.
pub fn sim_phases(t: &mut Traced, reports: &[EpochReport]) {
    let n = reports.len() as f64;
    let mean = |f: fn(&EpochReport) -> wg_sim::SimTime| {
        reports.iter().map(|r| f(r).as_millis()).sum::<f64>() / n
    };
    let parts = [
        ("sim.sampling_ms", mean(|r| r.sample_time)),
        ("sim.gather_ms", mean(|r| r.gather_time)),
        ("sim.training_ms", mean(|r| r.train_time)),
        ("sim.comm_ms", mean(|r| r.comm_time)),
    ];
    let epoch_ms = mean(|r| r.epoch_time);
    let l = &mut t.ledger;
    for (name, v) in parts {
        l.set(name, v);
    }
    l.set("sim.epoch_ms", epoch_ms);
    l.set("sim.storage_ms", mean(|r| r.storage_time));
    l.set("sim.storage_exposed_ms", mean(|r| r.storage_exposed_time));
    l.set(
        "sim.gpu0_busy_share",
        reports
            .iter()
            .map(|r| r.occupancy.utilization())
            .sum::<f64>()
            / n,
    );
    let sum: f64 = parts.iter().map(|p| p.1).sum();
    t.tally.check(
        "sim.sampling + gather + training + comm == sim.epoch (serial executor)",
        (sum - epoch_ms).abs() <= 1e-9 * epoch_ms,
    );
}
