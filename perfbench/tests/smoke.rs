//! Tiny-size runs of every workload, untraced and traced. The registry
//! counters the checks read are process-wide, so the runs are serialized.

use perfbench::{end_to_end, result_line, run, Params, Scale, Workload};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, trace: bool) -> Params {
    Params {
        workload,
        seed: 5,
        seconds: 0.2,
        trace,
        scale: Scale { edge: 12, min_samples: 20, replay_jobs: 2 },
    }
}

fn smoke(workload: Workload) {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = run(&tiny(workload, false));
    assert_eq!(out.tally.failed, 0, "{:?}", out.tally.reasons);
    assert!(out.latency_ms.len() >= 20);
    let metrics = end_to_end(&out, &[out.setup_s]);
    assert!(metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0), "{metrics:?}");
    let line = result_line(&out, &metrics);
    assert!(line.starts_with("{\"correct\": true"), "{line}");

    let out = run(&tiny(workload, true));
    assert_eq!(out.tally.failed, 0, "{:?}", out.tally.reasons);
    let layers = out.layers.clone().expect("traced run reports layers");
    assert_eq!(layers.fallbacks, 0.0);
    assert!(layers.volume_ms > 0.0 && layers.readback_ms > 0.0, "{layers:?}");
    assert!(!out.spans.is_empty());
    let (_, table) = &out.tables[0];
    assert!((table.total_us() - table.wall_us).abs() <= 1e-6 * table.wall_us);
    assert!(
        table.remainder_share() <= perfbench::common::REMAINDER_BOUND,
        "remainder {:.4} of wall",
        table.remainder_share()
    );
    let names: Vec<&str> = layers.metrics().iter().map(|m| m.name).collect();
    let mut unique = names.clone();
    unique.dedup();
    assert_eq!(names, unique);
}

#[test]
fn lift_dome_fdmm_smoke() {
    smoke(Workload::LiftDomeFdmm);
}

#[test]
fn shard2_box_fimm_smoke() {
    smoke(Workload::Shard2BoxFimm);
}

#[test]
fn batch_mixed_smoke() {
    smoke(Workload::BatchMixed);
}
