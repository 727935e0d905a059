//! Order statistics over timing samples.

/// The percentiles a tail may be reported at, highest first.
pub const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples a percentile must have beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Linearly interpolated quantile (`q` in `[0, 1]`) of an ascending slice,
/// the same rule as numpy's default and Python's `statistics.quantiles`
/// with `method="inclusive"`. `NaN` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorted copy of `values` (`NaN`s order last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` (0–100) of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(values), p / 100.0)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples strictly beyond percentile `p` in a sample of `n`: those ranked
/// above `⌈n·p/100⌉` (the small slack absorbs binary rounding of `p`).
pub fn beyond(p: f64, n: usize) -> usize {
    let rank = ((n as f64) * p / 100.0 - 1e-9).ceil().max(0.0) as usize;
    n.saturating_sub(rank)
}

/// Whether percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn supported(p: f64, n: usize) -> bool {
    beyond(p, n) >= MIN_BEYOND
}

/// The highest of [`TAIL_PERCENTILES`] that `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_PERCENTILES.into_iter().find(|&p| supported(p, n))
}

/// Samples needed for percentile `p` to be supported.
pub fn samples_needed(p: f64) -> usize {
    (1..).find(|&n| supported(p, n)).expect("every percentile below 100 is reachable")
}
