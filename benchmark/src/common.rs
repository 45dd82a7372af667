//! Pieces every workload shares: seed derivation, the failed-op ledger,
//! set-up timing, and small numeric helpers.

use std::time::{Duration, Instant};

use wg_sim::{DeviceId, Machine};

use crate::alloc::HEAP;
use crate::metrics::Ledger;
use crate::speed::SpeedRef;
use crate::stats;

/// Cold constructions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Derive an independent stream seed from the run seed (splitmix64
/// finaliser), so dataset, model and traffic draws do not share a stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Ops attempted and failed, plus the correctness verdict. A tripped
/// correctness check is a failed op; any failed op makes the run
/// incorrect.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one op; `ok = false` marks it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count `n` ops of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// A correctness check: counted as an op, logged when it trips.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.op(ok);
        if ok {
            println!("check ok    {what}");
        } else {
            println!("check FAIL  {what}");
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Build the workload's state [`SETUP_REPEATS`] times from cold, dropping
/// each before the next so peak heap stays one copy, and return the last
/// one with the median build time in speed-normalised seconds.
pub fn timed_setup<T>(speed: &mut SpeedRef, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        speed.sample();
        let ((built, wall_s), k) = speed.around(|| {
            let t = Instant::now();
            let built = build();
            (built, t.elapsed().as_secs_f64())
        });
        last = Some(built);
        times.push(wall_s * k);
    }
    (last.expect("SETUP_REPEATS > 0"), stats::median(&times))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `peak_heap_mb`: the highest live heap over the stretches of a run that
/// are the workload itself — set-up and the measured ops. The correctness
/// checks in between build twin pipelines and clusters that a user never
/// holds, so the scope is paused around them.
pub struct HeapScope {
    highest: usize,
    /// Live bytes that are the benchmark's own (the calibration buffers).
    excluded: usize,
}

impl HeapScope {
    /// Start counting from the current live size, leaving `excluded`
    /// already-live bytes out of every reading.
    pub fn open(excluded: usize) -> Self {
        HEAP.reset_peak();
        HeapScope {
            highest: 0,
            excluded,
        }
    }

    /// Stop counting (keeping the peak so far).
    pub fn pause(&mut self) {
        self.highest = self.highest.max(HEAP.peak());
    }

    /// Count again from the current live size.
    pub fn resume(&mut self) {
        HEAP.reset_peak();
    }

    /// The peak over every counted stretch so far, MiB.
    pub fn peak_mb(&mut self) -> f64 {
        self.pause();
        self.highest.saturating_sub(self.excluded) as f64 / (1 << 20) as f64
    }
}

/// Host op-latency summary shared by every workload's end-to-end block.
pub struct OpTimes {
    pub p50_ms: f64,
    pub p75_ms: f64,
    pub n: usize,
    pub total_s: f64,
}

impl std::fmt::Display for OpTimes {
    /// The sample count beside the percentiles, and whether p75 has the
    /// ten samples beyond it that make it reportable.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ops n={} on the host clock; p75 {} ten samples beyond it",
            self.n,
            if stats::supported(self.n, 0.75) {
                "has"
            } else {
                "lacks"
            }
        )
    }
}

impl OpTimes {
    pub fn of(ops: &[Duration]) -> OpTimes {
        let v: Vec<f64> = ops.iter().map(|&d| ms(d)).collect();
        OpTimes {
            p50_ms: stats::percentile(&v, 0.5),
            p75_ms: stats::percentile(&v, 0.75),
            n: v.len(),
            total_s: ops.iter().map(Duration::as_secs_f64).sum(),
        }
    }
}

impl OpTimes {
    /// The host-clock block every workload's end-to-end ledger shares;
    /// `seeds` is what the ops completed between them.
    pub fn fill(&self, m: &mut Ledger, setup_s: f64, seeds: usize) {
        m.set("setup_s", setup_s);
        m.set("host_seeds_per_s", seeds as f64 / self.total_s);
        m.set("op_host_ms_p50", self.p50_ms);
        m.set("op_host_ms_p75", self.p75_ms);
    }
}

/// Cumulative simulated time until the epoch mean loss first reaches
/// `target`, interpolated linearly inside the crossing epoch so the value
/// moves continuously with the loss curve, and the 1-based epoch it was
/// reached in. `epochs` is `(simulated ms, mean loss)` per epoch. `None`
/// if never reached.
pub fn time_to_loss(epochs: &[(f64, f32)], target: f32) -> Option<(f64, usize)> {
    let mut elapsed = 0.0;
    let mut prev_loss: Option<f32> = None;
    for (k, &(ms, loss)) in epochs.iter().enumerate() {
        if loss <= target {
            let share = match prev_loss {
                Some(p) if p > loss => f64::from((p - target) / (p - loss)).clamp(0.0, 1.0),
                _ => 1.0,
            };
            return Some((elapsed + ms * share, k + 1));
        }
        elapsed += ms;
        prev_loss = Some(loss);
    }
    None
}

/// `sim_time_to_loss_ms` with its check: not reaching `target` within the
/// fixed epochs is a failed op, and the whole curve's time is reported.
pub fn checked_time_to_loss(
    tally: &mut Tally,
    what: &str,
    curve: &[(f64, f32)],
    target: f32,
) -> f64 {
    let reached = time_to_loss(curve, target);
    tally.check(
        &format!(
            "{what} mean loss reaches {target} within {} epochs (curve {:?})",
            curve.len(),
            curve.iter().map(|c| c.1).collect::<Vec<_>>()
        ),
        reached.is_some(),
    );
    reached.map_or(curve.iter().map(|c| c.0).sum(), |r| r.0)
}

/// Peak simulated device memory on GPU 0, MiB.
pub fn dev_mem_mb(machine: &Machine) -> f64 {
    machine.memory().pool(DeviceId::Gpu(0)).peak() as f64 / (1 << 20) as f64
}

/// Percentile over values that each stand for `weight` identical samples
/// (every seed of a minibatch shares its iteration's simulated latency).
pub fn weighted_percentile(samples: &[(f64, u64)], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n: u64 = v.iter().map(|s| s.1).sum();
    assert!(n > 0, "weighted percentile of an empty sample");
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
    let mut seen = 0;
    for (x, w) in v {
        seen += w;
        if seen >= rank {
            return x;
        }
    }
    unreachable!("ranks never exceed the total weight")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_stream_and_seed() {
        let a = sub_seed(11, 1);
        assert_eq!(a, sub_seed(11, 1));
        assert_ne!(a, sub_seed(11, 2));
        assert_ne!(a, sub_seed(12, 1));
    }

    #[test]
    fn weighted_percentile_expands_weights() {
        // 1024 seeds at 10.0, 896 at 20.0: the median seed sits in the
        // first batch, the 99th percentile in the second.
        let s = [(20.0, 896), (10.0, 1024)];
        assert_eq!(weighted_percentile(&s, 0.5), 10.0);
        assert_eq!(weighted_percentile(&s, 0.99), 20.0);
        assert_eq!(weighted_percentile(&[(3.0, 1)], 0.5), 3.0);
    }

    #[test]
    fn time_to_loss_interpolates_inside_the_crossing_epoch() {
        // 10 ms epochs, loss 2.0 -> 1.5 -> 0.5: target 1.0 is crossed
        // halfway through the third epoch.
        let curve = [(10.0, 2.0), (10.0, 1.5), (10.0, 0.5)];
        assert_eq!(time_to_loss(&curve, 1.0), Some((25.0, 3)));
        // Already below target in the first epoch: the whole epoch counts.
        assert_eq!(time_to_loss(&curve, 2.5), Some((10.0, 1)));
        assert_eq!(time_to_loss(&curve, 0.1), None);
        // A rising loss that still ends below target does not extrapolate.
        assert_eq!(
            time_to_loss(&[(4.0, 0.2), (4.0, 0.3)], 0.25),
            Some((4.0, 1))
        );
        // Unreached: the check trips and the whole curve's time is reported.
        let mut t = Tally::default();
        assert_eq!(checked_time_to_loss(&mut t, "epoch", &curve, 0.1), 30.0);
        assert!(!t.correct());
    }

    #[test]
    fn tally_counts_failed_checks() {
        let mut t = Tally::default();
        t.ops(10, 0);
        t.check("fine", true);
        assert!(t.correct());
        t.check("broken", false);
        assert_eq!((t.attempted, t.failed), (12, 1));
        assert!(!t.correct());
    }
}
