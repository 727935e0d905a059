//! Fallback and divergence audit records stay deduped per job when a job's
//! devices step concurrently on pool threads (`VGPU_DEVICES=2`).
//!
//! Own test binary with a single test: `VGPU_DEVICES`, the trace mode and
//! the event buffer are process-global.

use batch::{BatchConfig, BatchExecutor, ScenarioGen};
use vgpu::telemetry::{self, Event, TraceMode};
use vgpu::Engine;

/// Two back-to-back sharded jobs of the same room each emit exactly one
/// divergence record for the slab volume kernel (whose wall-adjacent warps
/// diverge), however their two devices' launches were spread over threads.
/// The engine is pinned to compiled, the only executor with warps, so the
/// test holds under any `VGPU_ENGINE`.
#[test]
fn back_to_back_sharded_jobs_each_emit_their_own_record() {
    std::env::set_var("VGPU_DEVICES", "2");
    telemetry::set_mode(TraceMode::Json);
    let _ = telemetry::take_events();
    let room = ScenarioGen::new(7).take(1).remove(0);
    let results = BatchExecutor::new(BatchConfig {
        threads: 1,
        engine: Some(Engine::Compiled),
        ..Default::default()
    })
    .run_all(vec![room.clone(), room]);
    std::env::remove_var("VGPU_DEVICES");
    for r in &results {
        r.outcome.as_ref().unwrap_or_else(|e| panic!("{}: {e}", r.scenario.label()));
    }
    let records = telemetry::take_events()
        .into_iter()
        .filter(|e| {
            matches!(e, Event::WarpDivergence { kernel, .. } if kernel == "volume_handling_hand_slab")
        })
        .count();
    telemetry::set_mode(TraceMode::Off);
    assert_eq!(records, 2, "one divergence record per job");
}
