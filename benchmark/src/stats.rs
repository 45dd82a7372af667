//! Order statistics, spread, and the geometric bisection behind
//! `serve.sim_slo_qps`.

/// Exact order statistic: the `ceil(q·n)`-th smallest value (the same
/// convention `wg_serve::ServeReport::latency_quantile` uses — no
/// interpolation, so two runs compare true samples). Sorts a copy.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, q)
}

/// [`percentile`] over an already ascending slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based rank of the `q` order statistic among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// The ten-beyond rule: a percentile is reportable only when at least ten
/// samples lie beyond it.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= 10
}

/// Median by the same order-statistic convention.
pub fn p50(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Python's `statistics.quantiles(values, n=4)` (method "exclusive"):
/// the three cut points of the sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Arithmetic-mean median of a sample (Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m % 2 == 1 {
        v[m / 2]
    } else {
        (v[m / 2 - 1] + v[m / 2]) / 2.0
    }
}

/// Inter-quartile distance as a share of the median — the spread the
/// acceptance rule compares with a metric's bound. Zero for fewer than
/// two samples.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let q = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    (q[2] - q[0]) / med.abs()
}

/// Geometric bisection between a passing `lo` and a failing `hi`:
/// `steps` probes at the geometric midpoint, returning the highest value
/// seen to pass. `pass` must be monotone (true below the threshold).
pub fn bisect_geometric(
    mut lo: f64,
    mut hi: f64,
    steps: u32,
    mut pass: impl FnMut(f64) -> bool,
) -> f64 {
    assert!(0.0 < lo && lo < hi, "bisection needs 0 < lo < hi");
    for _ in 0..steps {
        let mid = (lo * hi).sqrt();
        if pass(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_the_ceil_rank_order_statistic() {
        let v: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.75), 75.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn ten_beyond_rule() {
        // p75 of 40 samples is rank 30: exactly ten beyond.
        assert!(supported(40, 0.75));
        assert!(!supported(39, 0.75));
        // p99 needs 1000 samples (rank 990); 4000 leaves forty beyond.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(4000, 0.99));
        // The median of 24 ops has twelve beyond; p75 only six.
        assert!(supported(24, 0.5));
        assert!(!supported(24, 0.75));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn bisection_finds_a_synthetic_step() {
        // Passes up to 37_000, fails above: ladder rungs 25k (pass) and
        // 50k (fail) bracket it; twelve steps resolve 2^(1/4096) ≈ 0.017%.
        let threshold = 37_000.0;
        let mut probes = 0;
        let got = bisect_geometric(25_000.0, 50_000.0, 12, |x| {
            probes += 1;
            x <= threshold
        });
        assert_eq!(probes, 12);
        assert!(got <= threshold);
        assert!(got > threshold * 0.9995, "{got}");
        // A threshold at the bracket's floor returns the floor itself.
        assert_eq!(bisect_geometric(10.0, 20.0, 8, |x| x <= 10.0), 10.0);
    }
}
