//! Residency-fraction sweep over the out-of-core storage tier — the
//! evidence behind the disk tier below the DSM (DESIGN.md §13). Runs the wallclock
//! harness's epoch workload shape (ogbn-products stand-in at 1/300 with
//! the power-law degree profile, tiny GraphSage, 4 simulated GPUs) once
//! with the tier off and then with only a fraction of the feature rows
//! DSM-resident (100% → 10%), and writes `BENCH_storage.json` with
//! per-point disk traffic — logical rows/bytes and the coalesced ranged
//! reads actually issued for them — NVMe time (blocking vs
//! prefetch-overlapped), host time spent in the fetches, and epoch
//! times.
//!
//! The sweep gates itself — measure, [`gate`], write — so a
//! `BENCH_storage.json` on disk is one that passed. Four invariants:
//!
//! * **Values never move** — every point's loss/accuracy bits equal the
//!   tier-off baseline's: the tier prices the non-resident rows' reads
//!   and the DSM serves them. Tiering changes cost, never numerics.
//! * **Bytes are conserved** — each point's gathered bytes split exactly
//!   into DSM-served and disk-served: `storage_bytes + dsm_bytes`
//!   equals the baseline's `algo_bytes`. No row is dropped or fetched
//!   twice at the accounting layer.
//! * **Priced I/O is issued I/O** — the tier coalesces file-adjacent
//!   rows into ranged reads, so it issues no more requests than rows
//!   (`storage_requests <= storage_rows`) and, bridging gaps, reads no
//!   fewer bytes than it delivers (`storage_read_bytes >=
//!   storage_bytes`); the blocking time is the price of those requests.
//! * **Prefetch overlaps** — the storage time left exposed after
//!   double-buffering each wave's NVMe reads against the previous
//!   wave's compute is *strictly* below the blocking sum whenever the
//!   tier actually serves rows from disk — and it must serve some at
//!   every point with <= 50% residency, none at full residency, and
//!   monotonically more as residency shrinks.
//!
//! Each configuration trains two epochs and reports the *second*, with
//! per-point traffic numbers taken as metric-registry deltas over
//! exactly that epoch. There is no feature cache, so the DSM/disk split
//! is not confounded by a third tier.

use std::sync::Arc;

use wg_bench::{banner, counter, flags, Table};
use wg_graph::{DatasetKind, DegreeProfile, SyntheticDataset};
use wholegraph::prelude::*;

/// DSM residency fractions swept, largest first. 1.0 keeps everything
/// resident (the tier is built but never read — its cost must be zero);
/// the 0.5 and smaller points must show the prefetch-overlap win.
const FRACTIONS: [f64; 4] = [1.0, 0.5, 0.25, 0.1];

/// One swept configuration's measurements (`frac` < 0 = tier-off
/// baseline).
#[derive(Default)]
struct Point {
    frac: f64,
    budget_rows: usize,
    /// Rows gathered over the measured epoch (all tiers combined).
    rows: u64,
    algo_bytes: u64,
    bus_bytes: u64,
    /// Rows / bytes served from the spill file.
    storage_rows: u64,
    storage_bytes: u64,
    /// Ranged reads issued to the spill file / bytes they transferred.
    storage_requests: u64,
    storage_read_bytes: u64,
    /// Host wall-clock spent inside the tier's fetches (sort, coalesce,
    /// range check — no bytes move there) over the measured epoch.
    fetch_host: f64,
    /// NVMe time charged as if every prefetch blocked its gather.
    blocking: SimTime,
    /// NVMe time left exposed after per-wave prefetch overlap.
    exposed: SimTime,
    epoch_time: SimTime,
    gather_time: SimTime,
    loss_bits: u32,
    accuracy_bits: u64,
}

/// Train two epochs of the wallclock-shaped pipeline with `budget_rows`
/// DSM-resident rows (`None` = tier off) and measure the second one.
fn run(dataset: &Arc<SyntheticDataset>, budget_rows: Option<usize>, frac: f64) -> Point {
    let machine = Machine::new(MachineConfig::dgx_like(4));
    let cfg = PipelineConfig::tiny(Framework::WholeGraph, ModelKind::GraphSage)
        .with_seed(3)
        .with_storage(budget_rows.unwrap_or(0));
    let mut pipe = Pipeline::new(machine, Arc::clone(dataset), cfg).expect("pipeline");
    pipe.train_epoch(0); // warm-up epoch: fills scratch pools
    let before = wg_trace::metrics::snapshot();
    let r = pipe.train_epoch(1);
    let after = wg_trace::metrics::snapshot();
    let delta_f = |name: &str| counter(&after, name) - counter(&before, name);
    let delta = |name: &str| delta_f(name).round() as u64;
    Point {
        frac,
        budget_rows: budget_rows.unwrap_or(0),
        rows: delta("mem.gather.rows"),
        algo_bytes: delta("mem.gather.algo_bytes"),
        bus_bytes: delta("mem.gather.bus_bytes"),
        storage_rows: delta("mem.storage.rows"),
        storage_bytes: delta("mem.storage.bytes"),
        storage_requests: delta("mem.storage.requests"),
        storage_read_bytes: delta("mem.storage.read_bytes"),
        fetch_host: delta_f("mem.storage.fetch_host_s"),
        blocking: r.storage_time,
        exposed: r.storage_exposed_time,
        epoch_time: r.epoch_time,
        gather_time: r.gather_time,
        loss_bits: r.loss.to_bits(),
        accuracy_bits: r.train_accuracy.to_bits(),
    }
}

fn point_json(p: &Point, row_bytes: u64) -> String {
    format!(
        "    {{\"frac\": {:.4}, \"budget_rows\": {}, \"rows\": {}, \
         \"algo_bytes\": {}, \"bus_bytes\": {}, \"storage_rows\": {}, \
         \"storage_bytes\": {}, \"dsm_bytes\": {}, \
         \"storage_requests\": {}, \"storage_read_bytes\": {}, \"fetch_ms\": {:.3}, \
         \"storage_blocking_s\": {:.9}, \"storage_exposed_s\": {:.9}, \
         \"epoch_time_s\": {:.9}, \"gather_time_s\": {:.9}, \
         \"loss_bits\": \"{:08x}\", \"accuracy_bits\": \"{:016x}\"}}",
        p.frac,
        p.budget_rows,
        p.rows,
        p.algo_bytes,
        p.bus_bytes,
        p.storage_rows,
        p.storage_bytes,
        (p.rows - p.storage_rows) * row_bytes,
        p.storage_requests,
        p.storage_read_bytes,
        p.fetch_host * 1e3,
        p.blocking.as_secs(),
        p.exposed.as_secs(),
        p.epoch_time.as_secs(),
        p.gather_time.as_secs(),
        p.loss_bits,
        p.accuracy_bits,
    )
}

/// Every invariant the artifact claims, on the typed points, before it
/// is written (`points` in [`FRACTIONS`] order, largest residency first).
fn gate(base: &Point, points: &[Point], row_bytes: u64) {
    for p in points {
        let at = format!("{:.0}% resident", p.frac * 100.0);
        // Values never move: the staged rows really came back from disk
        // bit-identical.
        assert_eq!(p.loss_bits, base.loss_bits, "{at}: loss diverged");
        assert_eq!(
            p.accuracy_bits, base.accuracy_bits,
            "{at}: accuracy diverged"
        );
        // Same gather work at every point...
        assert_eq!(p.rows, base.rows, "{at}: gathered row count moved");
        assert_eq!(
            p.algo_bytes, base.algo_bytes,
            "{at}: algorithmic bytes moved"
        );
        // ...split exactly between the DSM and the disk tier.
        assert_eq!(
            p.storage_bytes + (p.rows - p.storage_rows) * row_bytes,
            base.algo_bytes,
            "{at}: dsm + disk bytes != uncached total"
        );
        assert_eq!(p.storage_bytes, p.storage_rows * row_bytes);
        // Issued I/O vs logical traffic: coalescing only ever merges
        // requests and only ever adds gap bytes (a gather's rows are
        // unique, so none are saved).
        let (disk, requests) = (p.storage_rows, p.storage_requests);
        assert!(
            requests <= disk && (disk == 0 || requests > 0),
            "{at}: {requests} requests for {disk} disk rows"
        );
        assert!(
            p.storage_read_bytes >= p.storage_bytes,
            "{at}: read less than delivered"
        );
        assert!(p.fetch_host >= 0.0, "{at}: negative host fetch time");
        // The prefetch overlap must genuinely hide NVMe time behind
        // compute whenever the tier serves rows — and at <= 50% residency
        // it must be serving some.
        let (blocking, exposed) = (p.blocking, p.exposed);
        if disk > 0 {
            assert!(
                exposed < blocking,
                "{at}: prefetch-overlapped storage time {exposed} not strictly below blocking {blocking}"
            );
        } else {
            assert!(p.frac > 0.50, "{at}: no disk traffic at <= 50% residency");
            assert!(blocking.is_zero() && exposed.is_zero());
        }
    }
    // Lower residency → monotonically nondecreasing disk traffic, and a
    // fully-resident tier serves nothing from disk.
    assert_eq!(points[0].storage_rows, 0, "100% resident still hit disk");
    for w in points.windows(2) {
        assert!(
            w[1].storage_rows >= w[0].storage_rows,
            "disk rows not monotone in residency"
        );
    }
}

fn main() {
    flags(&[]); // takes none: any argument is an error
    banner(
        "storage sweep",
        "DSM residency fraction vs disk traffic and epoch time",
    );
    wg_trace::enable_metrics();
    // Same heavy-tailed stand-in the cache sweep uses: residency is
    // hotness-ranked, so the tail is what actually falls to disk.
    let dataset = Arc::new(SyntheticDataset::generate_with_profile(
        DatasetKind::OgbnProducts,
        300,
        8,
        DegreeProfile::PowerLaw { alpha: 1.05 },
    ));
    let total_rows = dataset.num_nodes();
    let row_bytes = (dataset.feature_dim * std::mem::size_of::<f32>()) as u64;
    println!(
        "dataset: ogbn-products stand-in at 1/300 (power-law degrees, alpha 1.05) — \
         {total_rows} nodes x {row_bytes} B rows; tiny GraphSage, 4 GPUs\n",
    );

    let baseline = run(&dataset, None, -1.0);
    let points: Vec<Point> = FRACTIONS
        .iter()
        .map(|&frac| {
            let rows = ((total_rows as f64 * frac).round() as usize).max(1);
            run(&dataset, Some(rows), frac)
        })
        .collect();

    let mut t = Table::new(&[
        "resident",
        "budget rows",
        "disk rows",
        "disk MB",
        "requests",
        "read MB",
        "fetch (host)",
        "blocking",
        "exposed",
        "gather",
        "epoch",
    ]);
    let row = |t: &mut Table, p: &Point| {
        t.row(&[
            if p.frac < 0.0 {
                "off".to_string()
            } else {
                format!("{:.0}%", p.frac * 100.0)
            },
            p.budget_rows.to_string(),
            p.storage_rows.to_string(),
            format!("{:.2}", p.storage_bytes as f64 / 1e6),
            p.storage_requests.to_string(),
            format!("{:.2}", p.storage_read_bytes as f64 / 1e6),
            format!("{:.2}ms", p.fetch_host * 1e3),
            format!("{}", p.blocking),
            format!("{}", p.exposed),
            format!("{}", p.gather_time),
            format!("{}", p.epoch_time),
        ]);
    };
    row(&mut t, &baseline);
    for p in &points {
        row(&mut t, p);
    }
    t.print();

    gate(&baseline, &points, row_bytes);
    println!("\ngate: OK (values pinned, dsm + disk bytes conserved, prefetch overlap strict)");

    let points_json: Vec<String> = points.iter().map(|p| point_json(p, row_bytes)).collect();
    let json = format!(
        "{{\n  \"schema\": \"wg-storage-sweep-v2\",\n  \"dataset\": \"ogbn-products\",\n  \
         \"scale\": 300,\n  \"seed\": 3,\n  \"total_rows\": {total_rows},\n  \
         \"row_bytes\": {row_bytes},\n  \"baseline\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
        point_json(&baseline, row_bytes),
        points_json.join(",\n")
    );
    std::fs::write("BENCH_storage.json", &json).expect("write BENCH_storage.json");
    println!("Wrote BENCH_storage.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROW_BYTES: u64 = 400;

    /// A point gathering 1000 rows, `disk_rows` of them from the spill
    /// file in a tenth as many ranged reads.
    fn point(frac: f64, disk_rows: u64) -> Point {
        let blocking = SimTime::from_secs(disk_rows as f64 * 1e-6);
        Point {
            frac,
            rows: 1000,
            algo_bytes: 1000 * ROW_BYTES,
            storage_rows: disk_rows,
            storage_bytes: disk_rows * ROW_BYTES,
            storage_requests: disk_rows.div_ceil(10),
            storage_read_bytes: 2 * disk_rows * ROW_BYTES,
            blocking,
            exposed: blocking / 2.0,
            ..Default::default()
        }
    }

    /// Tier-off baseline plus a full- and a half-residency point.
    fn passing() -> (Point, Vec<Point>) {
        (point(-1.0, 0), vec![point(1.0, 0), point(0.5, 300)])
    }

    #[test]
    #[should_panic(expected = "50% resident: dsm + disk bytes != uncached total")]
    fn gate_catches_a_row_missing_from_the_split() {
        let (b, mut p) = passing();
        // A disk row counted whose bytes never arrived.
        p[1].storage_rows += 1;
        gate(&b, &p, ROW_BYTES);
    }

    #[test]
    #[should_panic(expected = "50% resident: prefetch-overlapped storage time")]
    fn gate_catches_an_overlap_that_hides_nothing() {
        let (b, mut p) = passing();
        p[1].exposed = p[1].blocking;
        gate(&b, &p, ROW_BYTES);
    }
}
