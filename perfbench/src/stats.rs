//! Percentiles under the benchmark's sampling rule, and small helpers.

use cut_engine::Histogram;
use cut_obs::{bucket_lower, bucket_upper};

/// Samples that must lie beyond a reported percentile: p50 needs 20
/// samples, p99 needs 1000.
pub const BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of ascending samples, or `None` when fewer
/// than [`BEYOND`] samples lie beyond it.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    (sorted.len() >= rank + BEYOND).then(|| sorted[rank - 1])
}

/// The `q`-quantile of a log2 registry histogram under the same rule,
/// interpolated linearly inside the bucket that holds it: the registry
/// keeps bucket counts only, and a bare bucket midpoint would read the
/// same from run to run.
pub fn hist_quantile(h: &Histogram, q: f64) -> Option<f64> {
    let rank = ((q * h.count() as f64).ceil() as u64).max(1);
    if h.count() < rank + BEYOND as u64 {
        return None;
    }
    let mut seen = 0;
    for (i, &count) in h.buckets().iter().enumerate() {
        if seen + count >= rank {
            let lower = bucket_lower(i) as f64;
            let width = bucket_upper(i) as f64 - lower + 1.0;
            return Some(lower + width * (rank - seen) as f64 / count as f64);
        }
        seen += count;
    }
    None
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `part / whole`; 0 when `whole` is 0.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
