//! Summary statistics for latency samples.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: `(percentile, value)`, or `None` with too few samples. With `n`
/// samples that is the `(n − 10)`-th smallest, at percentile
/// `100·(n − 10)/n`.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    (n > TAIL_BEYOND).then(|| {
        let rank = n - TAIL_BEYOND;
        (100.0 * rank as f64 / n as f64, sorted[rank - 1])
    })
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile(&sorted(values), 50.0)
}

/// Mean (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// An ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
