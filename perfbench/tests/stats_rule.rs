//! The percentile rule: a percentile is reported only with at least ten
//! samples beyond it, and the highest such percentile is named.

use perfbench::stats::{beyond, highest_supported, percentile, quantile_sorted, samples_needed};

#[test]
fn samples_beyond_a_percentile() {
    assert_eq!(beyond(90.0, 100), 10);
    assert_eq!(beyond(90.0, 99), 9);
    assert_eq!(beyond(95.0, 200), 10);
    assert_eq!(beyond(99.9, 10_000), 10);
    assert_eq!(beyond(50.0, 3), 1);
}

#[test]
fn highest_supported_percentile_needs_ten_beyond() {
    assert_eq!(highest_supported(19), None);
    assert_eq!(highest_supported(20), Some(50.0));
    assert_eq!(highest_supported(99), Some(50.0));
    assert_eq!(highest_supported(100), Some(90.0));
    assert_eq!(highest_supported(199), Some(90.0));
    assert_eq!(highest_supported(200), Some(95.0));
    assert_eq!(highest_supported(1000), Some(99.0));
    assert_eq!(highest_supported(10_000), Some(99.9));
}

#[test]
fn sample_counts_for_the_reported_percentiles() {
    assert_eq!(samples_needed(90.0), 100);
    assert_eq!(samples_needed(95.0), 200);
    assert_eq!(perfbench::Scale::full().min_samples, samples_needed(95.0));
}

#[test]
fn interpolated_quantiles() {
    let v: Vec<f64> = (1..=5).map(f64::from).collect();
    assert_eq!(quantile_sorted(&v, 0.5), 3.0);
    assert_eq!(quantile_sorted(&v, 0.25), 2.0);
    assert_eq!(quantile_sorted(&v, 0.1), 1.4);
    assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
    assert!(quantile_sorted(&[], 0.5).is_nan());
}
