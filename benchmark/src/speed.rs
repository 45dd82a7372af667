//! Host-speed reference: the calibration kernel behind the untraced
//! pass's *speed-normalised* host clock.
//!
//! The machine this benchmark runs on does not hold one speed: a 2-vCPU
//! VM's throughput drifts by ±15–25% over minutes with what its host's
//! other tenants do, and no statistic taken inside a 10 s run sees through
//! that. A fixed single-threaded kernel — random row gathers from a 10 MB
//! table, then a small dense product over the gathered rows, the same mix
//! of memory and multiply-add work the workloads do — slows down with the
//! machine, so dividing by it cancels the drift: measured over the same
//! ten noisy minutes, `train_input`'s op p50 spread 17.3% raw and 6.1%
//! normalised, `serve_zipf`'s 24.0% and 8.1%.
//!
//! Every host time of the untraced pass is therefore reported as
//! `wall × REF_MS / calibration`, with the calibration sampled just before
//! and just after the timed work: milliseconds at the speed at which the
//! kernel takes [`REF_MS`]. The kernel is this package's own code and calls
//! nothing in the library, so a change to the library cannot move it.

use std::time::Instant;

use crate::alloc::HEAP;
use crate::common::ms;

/// Calibration time, ms, that defines speed 1.0 (this kernel on the
/// development VM in its calm state).
pub const REF_MS: f64 = 4.4;

const ROWS: usize = 25_000;
const DIM: usize = 100;
const PICKS: usize = 20_000;
const OUT: usize = 16;

pub struct SpeedRef {
    table: Vec<f32>,
    picks: Vec<u32>,
    gathered: Vec<f32>,
    weights: Vec<f32>,
    /// Heap bytes the buffers above hold — not the workload's, so
    /// `peak_heap_mb` leaves them out.
    own_bytes: usize,
    /// The most recent sample, ms.
    last_ms: f64,
}

impl SpeedRef {
    pub fn new() -> SpeedRef {
        let live_before = HEAP.live();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let picks = (0..PICKS)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((x >> 33) % ROWS as u64) as u32
            })
            .collect();
        let mut speed = SpeedRef {
            table: (0..ROWS * DIM).map(|i| (i % 97) as f32 * 0.01).collect(),
            picks,
            gathered: vec![0.0; PICKS * DIM],
            weights: vec![0.5; DIM * OUT],
            own_bytes: 0,
            last_ms: 0.0,
        };
        speed.own_bytes = HEAP.live().saturating_sub(live_before);
        // The first pass faults the buffers in; the second is a sample.
        speed.sample();
        speed.sample();
        speed
    }

    pub fn own_bytes(&self) -> usize {
        self.own_bytes
    }

    /// Run the kernel once; returns and remembers its time in ms.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        for (k, &row) in self.picks.iter().enumerate() {
            let row = row as usize;
            self.gathered[k * DIM..(k + 1) * DIM]
                .copy_from_slice(&self.table[row * DIM..(row + 1) * DIM]);
        }
        let mut acc = [0.0f32; OUT];
        for row in self.gathered.chunks_exact(DIM) {
            for (&x, w) in row.iter().zip(self.weights.chunks_exact(OUT)) {
                for (a, &wj) in acc.iter_mut().zip(w) {
                    *a += x * wj;
                }
            }
        }
        std::hint::black_box(acc);
        self.last_ms = ms(t.elapsed());
        self.last_ms
    }

    /// Run `f` and return its result with the factor that re-expresses a
    /// wall-clock duration measured inside it at the reference speed:
    /// `REF_MS` over the mean of the samples before and after. The sample
    /// before is the previous call's sample after when work is back to
    /// back; call [`sample`](Self::sample) first after a pause.
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.last_ms;
        let out = f();
        let after = self.sample();
        (out, REF_MS / ((before + after) / 2.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_reference_over_the_mean_sample() {
        let mut s = SpeedRef::new();
        assert!(s.own_bytes() >= (ROWS * DIM + PICKS * DIM) * 4);
        s.last_ms = 8.8;
        let ((), k) = s.around(|| ());
        // before = 8.8, after = whatever the kernel took just now.
        let expect = REF_MS / ((8.8 + s.last_ms) / 2.0);
        assert!((k - expect).abs() < 1e-12);
        assert!(s.last_ms > 0.0);
    }
}
