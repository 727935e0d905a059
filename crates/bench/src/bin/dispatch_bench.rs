//! Wall-clock step-loop timing for the FI cube workload on the tape engines.
//!
//! Criterion benches don't time under the offline stub harness, so this bin
//! is the measurement behind the dispatch-overhead numbers in
//! EXPERIMENTS.md: it runs the same leap-frog launch loop the sims run and
//! prints ms/step for fast and modeled execution on the scalar tape and the
//! compiled superinstruction engine (whose modeled launches run the scalar
//! tape), plus the launch-plan cache hit counters and the divergent-warp /
//! compiled-fallback audits, as one JSON record.
//!
//! Usage: `dispatch_bench [cube-edge] [steps]` (defaults 32, 60).

use lift::prelude::{ScalarKind, Value};
use room_acoustics::{
    handwritten, BoundaryModel, GridDims, MaterialAssignment, RoomShape, SimConfig, SimSetup,
};
use std::time::Instant;
use vgpu::{telemetry, Arg, BufId, Device, Engine, ExecMode};

struct FiRun {
    dev: Device,
    prep: vgpu::Prepared,
    bufs: [BufId; 3],
    scalars: Vec<Arg>,
    global: [usize; 3],
}

fn fi_run(n: usize, engine: Engine) -> FiRun {
    let dims = GridDims::cube(n);
    let setup = SimSetup::new(&SimConfig {
        dims,
        shape: RoomShape::Box,
        assignment: MaterialAssignment::Uniform,
        boundary: BoundaryModel::Fi { beta: 0.1 },
    });
    room_acoustics::contracts::register_all();
    let mut dev = Device::gtx780();
    dev.set_engine(engine);
    let prep = dev.compile(&handwritten::fi_single_kernel().resolve_real(ScalarKind::F32)).unwrap();
    let total = dims.total();
    let bufs = [
        dev.create_buffer_zeroed(ScalarKind::F32, total),
        dev.create_buffer_zeroed(ScalarKind::F32, total),
        dev.create_buffer_zeroed(ScalarKind::F32, total),
    ];
    let scalars = vec![
        Arg::Val(Value::F32(setup.l as f32)),
        Arg::Val(Value::F32(setup.l2 as f32)),
        Arg::Val(Value::F32(0.1)),
        Arg::Val(Value::I32(dims.nx as i32)),
        Arg::Val(Value::I32(dims.ny as i32)),
        Arg::Val(Value::I32(dims.nz as i32)),
    ];
    FiRun { dev, prep, bufs, scalars, global: [dims.nx, dims.ny, dims.nz] }
}

impl FiRun {
    fn step(&mut self, mode: ExecMode) {
        let mut args = vec![Arg::Buf(self.bufs[0]), Arg::Buf(self.bufs[1]), Arg::Buf(self.bufs[2])];
        args.extend_from_slice(&self.scalars);
        self.dev.launch(&self.prep, &args, &self.global, mode).unwrap();
        self.bufs.rotate_right(1);
    }

    /// Best-of-3 trials of `steps` steps; returns ms/step.
    fn measure(&mut self, steps: usize, mode: ExecMode) -> f64 {
        for _ in 0..steps.min(5) {
            self.step(mode); // warm-up
        }
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            for _ in 0..steps {
                self.step(mode);
            }
            best = best.min(t0.elapsed().as_secs_f64() * 1e3 / steps as f64);
            self.dev.clear_events();
        }
        best
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);
    let steps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(60);

    // Provenance: captured before any launch so the snapshot records what
    // the measured loops actually saw (this bin drives both engines
    // explicitly, so the engine field is fixed, not `VGPU_ENGINE`).
    let plan_cache = bench::provenance::plan_cache_state();
    let threads = bench::provenance::threads();
    let devices = bench::provenance::device_count();
    let sanitize = bench::provenance::sanitize_label();

    let fast = fi_run(n, Engine::Tape).measure(steps, ExecMode::Fast);
    let model = fi_run(n, Engine::Tape).measure(steps, ExecMode::Model { sample_stride: 1 });
    let reg = telemetry::registry();
    // The compiled engine must cover the FI kernel outright: any fallback
    // to a lower rung means the measurement below is not what it claims.
    let cfallback0 = reg.counter("vgpu.compiled.fallbacks").get();
    let divergent0 = reg.counter("vgpu.warp.divergent").get();
    let cfast = fi_run(n, Engine::Compiled).measure(steps, ExecMode::Fast);
    let divergent = reg.counter("vgpu.warp.divergent").get() - divergent0;
    let cmodel = fi_run(n, Engine::Compiled).measure(steps, ExecMode::Model { sample_stride: 1 });
    let cfallbacks = reg.counter("vgpu.compiled.fallbacks").get() - cfallback0;
    if cfallbacks > 0 {
        eprintln!("dispatch_bench: {cfallbacks} compiled-engine fallbacks during measurement");
        std::process::exit(1);
    }
    let record = format!(
        "{{\"bench\":\"dispatch\",\"cube\":{n},\"steps\":{steps},\
         \"engine\":\"tape+compiled\",\"ladder\":\"compiled\",\
         \"threads\":{threads},\"devices\":{devices},\
         \"plan_cache\":\"{plan_cache}\",\"sanitize\":\"{sanitize}\",\
         \"fast_ms_per_step\":{fast:.4},\"model_ms_per_step\":{model:.4},\
         \"compiled_fast_ms_per_step\":{cfast:.4},\"compiled_model_ms_per_step\":{cmodel:.4},\
         \"divergent_warps\":{divergent},\
         \"sites_proven\":{},\"sites_checked\":{},\
         \"plan_hits\":{},\"plan_misses\":{}}}",
        reg.counter("vgpu.compiled.sites_proven").get(),
        reg.counter("vgpu.compiled.sites_checked").get(),
        reg.counter("vgpu.plan.hits").get(),
        reg.counter("vgpu.plan.misses").get(),
    );
    println!("{record}");
    match serde_json::from_str(&record) {
        Ok(value) => {
            bench::run_report::emit("dispatch_bench", value);
        }
        Err(e) => eprintln!("cannot parse own record for run report: {e}"),
    }
}
