//! The repository's benchmark: three workloads that drive the
//! room-acoustics stack through its public entry points, check every
//! output against the pure-Rust golden model, and report end-to-end
//! metrics (untraced runs) or per-layer metrics (traced runs). See
//! `README.md` beside this crate for the workload → layer → metric map.

pub mod batchload;
pub mod check;
pub mod common;
pub mod rooms;
pub mod spans;
pub mod stats;
pub mod sys;

pub use common::{Layers, Metric, Outcome, Params, Scale, Workload};

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs one workload. A panic fails the run instead of aborting it.
pub fn run(p: &Params) -> Outcome {
    catch_unwind(AssertUnwindSafe(|| match p.workload {
        Workload::BatchMixed => batchload::run(p),
        _ => rooms::run(p),
    }))
    .unwrap_or_else(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        let mut out = Outcome::default();
        out.tally.attempt(1);
        out.tally.fail(1, format!("run panicked: {msg}"));
        out
    })
}

/// Cold set-up time of `workload` in seconds: meaningful only as the first
/// work of a fresh process.
pub fn setup_only(workload: Workload, seed: u64, scale: Scale) -> f64 {
    match workload {
        Workload::BatchMixed => batchload::setup_only(seed),
        room => rooms::setup_only(room, seed, scale.edge),
    }
}

/// The end-to-end metrics of an untraced run; `setup_s` is the median of
/// the set-up samples taken in fresh processes.
pub fn end_to_end(out: &Outcome, setup_samples: &[f64]) -> Vec<Metric> {
    let q = |p: f64| stats::percentile(&out.latency_ms, p);
    vec![
        common::metric("setup_s", stats::median(setup_samples), "s"),
        common::metric("mupd_per_s", out.mupd_per_s, "Mupd/s"),
        common::metric("latency_ms_p50", q(50.0), "ms"),
        common::metric("latency_ms_p90", q(90.0), "ms"),
        common::metric("peak_rss_mb", out.peak_rss_mb, "MiB"),
        common::metric("pass_rate", 1.0 - out.tally.error_rate(), "ratio"),
    ]
}

/// The result line: `correct`, `attempted`, `failed` and every metric by
/// name with its value and unit. Non-finite values, which JSON cannot
/// carry, are written as 0 and fail the run.
pub fn result_line(out: &Outcome, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0 && finite,
        out.tally.attempted.max(1),
        out.tally.failed,
        body.join(", ")
    )
}
