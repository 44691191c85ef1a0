//! Order statistics used for every reported number.

/// The value at quantile `q` (0..=1) of ascending `sorted`: the smallest
/// sample with at least `q` of the samples at or below it
/// (nearest-rank). Panics on an empty slice: a metric with no samples is
/// a benchmark bug, not a zero.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns the value at quantile `q`.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, q)
}

/// [`quantile`] that yields 0 for an empty sample: for per-layer
/// metrics of a layer the workload bypasses.
pub fn quantile_or_zero(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        quantile(samples, q)
    }
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The highest of p50 / p90 / p99 / p99.9 / p99.99 that still has at
/// least ten samples beyond it, as `(quantile, value)`. A percentile
/// resting on fewer samples is a handful of outliers, not a
/// distribution.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let mut best = 0.5;
    for q in [0.9, 0.99, 0.999, 0.9999] {
        let beyond = sorted.len() - ((q * sorted.len() as f64).ceil() as usize).min(sorted.len());
        if beyond >= 10 {
            best = q;
        }
    }
    (best, quantile_sorted(sorted, best))
}

/// Median, quartiles and spread of repeated runs. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method), the
/// rule the benchmark contract names; spread is (q3 - q1) / median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub spread: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: f64| -> f64 {
        if n == 1 {
            return v[0];
        }
        // Exclusive method: position p*(n+1) on a 1-based axis,
        // linearly interpolated and clamped to the data.
        let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    let (q1, median, q3) = (at(0.25), at(0.5), at(0.75));
    let spread = if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    };
    Summary {
        n,
        median,
        q1,
        q3,
        spread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(quantile_or_zero(&mut [], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 100 samples: p90 leaves 10 beyond, p99 leaves 1.
        assert_eq!(tail(&v(100)), (0.9, 90.0));
        // 999 samples: p99 leaves 9 beyond -> still p90.
        assert_eq!(tail(&v(999)).0, 0.9);
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(tail(&v(1000)), (0.99, 990.0));
        assert_eq!(tail(&v(10_000)).0, 0.999);
        // Too few for any tail: falls back to the median.
        assert_eq!(tail(&v(15)), (0.5, 8.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let s = summarize(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!((s.q1, s.median, s.q3), (15.0, 30.0, 45.0));
        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread), (7.0, 7.0, 7.0, 0.0));
    }
}
