//! Wall-clock step-loop timing for the FI cube workload on the tape engines,
//! and the per-kernel generated-vs-hand-written comparison.
//!
//! Criterion benches don't time under the offline stub harness, so this bin
//! is the measurement behind the dispatch-overhead numbers in
//! EXPERIMENTS.md: it runs the same leap-frog launch loop the sims run and
//! prints ms/step for fast and modeled execution on the scalar tape and the
//! compiled superinstruction engine (whose modeled launches run the scalar
//! tape), plus the launch-plan cache hit counters and the divergent-warp /
//! compiled-fallback audits, as one JSON record.
//!
//! The record's `kernels` object is the paper's "on par" comparison measured
//! on this host: each of the naive FI kernel, the volume kernel and the
//! FI-MM and FD-MM boundary kernels, LIFT-generated vs hand-written, at the
//! given cube edge in f32 on the default engine. Generated and hand-written
//! launches alternate in repeated trials (the order flips every trial); each
//! side reports the median and quartiles of its per-trial ms/launch.
//!
//! Usage: `dispatch_bench [cube-edge] [steps]` (defaults 32, 60).

use lift::prelude::{ScalarKind, Value};
use lift_acoustics::{FiSingleLift, LiftBoundary, LiftSim};
use room_acoustics::{
    handwritten, BoundaryKernel, BoundaryModel, GridDims, HandwrittenSim, MaterialAssignment,
    Precision, RoomShape, SimConfig, SimSetup,
};
use std::time::{Duration, Instant};
use vgpu::{telemetry, Arg, BufId, Device, Engine, ExecMode};

struct FiRun {
    dev: Device,
    prep: vgpu::Prepared,
    bufs: [BufId; 3],
    scalars: Vec<Arg>,
    global: [usize; 3],
}

fn fi_setup(n: usize) -> SimSetup {
    SimSetup::new(&SimConfig {
        dims: GridDims::cube(n),
        shape: RoomShape::Box,
        assignment: MaterialAssignment::Uniform,
        boundary: BoundaryModel::Fi { beta: 0.1 },
    })
}

fn fi_run(n: usize, engine: Engine) -> FiRun {
    let dims = GridDims::cube(n);
    let setup = fi_setup(n);
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
    /// One step; returns the launch's wall time.
    fn step(&mut self, mode: ExecMode) -> Duration {
        let mut args = vec![Arg::Buf(self.bufs[0]), Arg::Buf(self.bufs[1]), Arg::Buf(self.bufs[2])];
        args.extend_from_slice(&self.scalars);
        let wall = self.dev.launch(&self.prep, &args, &self.global, mode).unwrap().wall;
        self.bufs.rotate_right(1);
        wall
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

/// Trials per generated-vs-hand-written kernel pair.
const KERNEL_TRIALS: usize = 9;

/// One side of a kernel pair: runs one step and returns the launch walls
/// of the kernels it ran, in [`KERNEL_ROWS`] slot order.
type Launch = Box<dyn FnMut() -> [Duration; 2]>;

fn sim_steps(mut step: impl FnMut() -> (vgpu::LaunchStats, vgpu::LaunchStats) + 'static) -> Launch {
    Box::new(move || {
        let (v, b) = step();
        [v.wall, b.wall]
    })
}

/// Record rows: (row name, kernel pair, which wall of the pair's launch).
const KERNEL_ROWS: [(&str, usize, usize); 4] =
    [("fi_single", 0, 0), ("volume", 1, 0), ("fimm_boundary", 1, 1), ("fdmm_boundary", 2, 1)];

/// `[q1, median, q3]` of `xs` (linear interpolation between ranks).
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let r = q * (v.len() - 1) as f64;
        let (lo, hi) = (r.floor() as usize, r.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (r - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Times every kernel LIFT-generated vs hand-written at cube edge `n`
/// (f32, default engine; boundary kernels on the dome) and returns the
/// record's `kernels` object.
fn kernel_leg(n: usize, launches: usize) -> String {
    let dims = GridDims::cube(n);
    let fimm = SimSetup::new(&SimConfig::fimm(dims, RoomShape::Dome));
    let fdmm = SimSetup::new(&SimConfig::fdmm(dims, RoomShape::Dome));
    let f32s = Precision::Single;
    let mut fi_lift = FiSingleLift::new(fi_setup(n), f32s, 0.1, Device::gtx780());
    let mut fi_hand = fi_run(n, Engine::from_env());
    let mut fimm_lift = LiftSim::new(fimm.clone(), f32s, LiftBoundary::FiMm, Device::gtx780());
    let fimm_kernel = BoundaryKernel::FiMm { beta_constant: false };
    let mut fimm_hand = HandwrittenSim::new(fimm, f32s, fimm_kernel, Device::gtx780());
    let mut fdmm_lift = LiftSim::new(fdmm.clone(), f32s, LiftBoundary::FdMm, Device::gtx780());
    let mut fdmm_hand = HandwrittenSim::new(fdmm, f32s, BoundaryKernel::FdMm, Device::gtx780());
    let mut pairs: [[Launch; 2]; 3] = [
        [
            Box::new(move || [fi_lift.step(ExecMode::Fast).wall, Duration::ZERO]),
            Box::new(move || [fi_hand.step(ExecMode::Fast), Duration::ZERO]),
        ],
        [
            sim_steps(move || fimm_lift.step(ExecMode::Fast)),
            sim_steps(move || fimm_hand.step(ExecMode::Fast)),
        ],
        [
            sim_steps(move || fdmm_lift.step(ExecMode::Fast)),
            sim_steps(move || fdmm_hand.step(ExecMode::Fast)),
        ],
    ];
    // samples[pair][side][trial] = mean ms/launch of each wall slot.
    let mut samples: Vec<[Vec<[f64; 2]>; 2]> = vec![[vec![], vec![]]; pairs.len()];
    for (p, pair) in pairs.iter_mut().enumerate() {
        for launch in pair.iter_mut() {
            for _ in 0..2 {
                launch(); // warm-up: plans, proof tables, page faults
            }
        }
        for trial in 0..KERNEL_TRIALS {
            for k in 0..2 {
                let side = if trial % 2 == 0 { k } else { 1 - k };
                let mut sum = [0.0f64; 2];
                for _ in 0..launches {
                    let w = pair[side]();
                    for (s, w) in sum.iter_mut().zip(w) {
                        *s += w.as_secs_f64() * 1e3;
                    }
                }
                samples[p][side].push(sum.map(|s| s / launches as f64));
            }
        }
    }
    let rows: Vec<String> = KERNEL_ROWS
        .iter()
        .map(|&(name, p, slot)| {
            let q = |side: usize| {
                quartiles(&samples[p][side].iter().map(|s| s[slot]).collect::<Vec<_>>())
            };
            let (lift, hand) = (q(0), q(1));
            format!(
                "\"{name}\":{{\"lift_ms_q1\":{:.4},\"lift_ms_median\":{:.4},\"lift_ms_q3\":{:.4},\
                 \"hand_ms_q1\":{:.4},\"hand_ms_median\":{:.4},\"hand_ms_q3\":{:.4},\
                 \"lift_over_hand\":{:.3}}}",
                lift[0],
                lift[1],
                lift[2],
                hand[0],
                hand[1],
                hand[2],
                lift[1] / hand[1],
            )
        })
        .collect();
    format!("{{\"trials\":{KERNEL_TRIALS},\"launches_per_trial\":{launches},{}}}", rows.join(","))
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
    // The FI loops' counters, read before the kernel leg launches more.
    let [sites_proven, sites_checked, plan_hits, plan_misses] = [
        "vgpu.compiled.sites_proven",
        "vgpu.compiled.sites_checked",
        "vgpu.plan.hits",
        "vgpu.plan.misses",
    ]
    .map(|c| reg.counter(c).get());
    let kernels = kernel_leg(n, (steps / 10).max(1));
    let record = format!(
        "{{\"bench\":\"dispatch\",\"cube\":{n},\"steps\":{steps},\
         \"engine\":\"tape+compiled\",\"ladder\":\"compiled\",\
         \"threads\":{threads},\"devices\":{devices},\
         \"plan_cache\":\"{plan_cache}\",\"sanitize\":\"{sanitize}\",\
         \"fast_ms_per_step\":{fast:.4},\"model_ms_per_step\":{model:.4},\
         \"compiled_fast_ms_per_step\":{cfast:.4},\"compiled_model_ms_per_step\":{cmodel:.4},\
         \"divergent_warps\":{divergent},\
         \"sites_proven\":{sites_proven},\"sites_checked\":{sites_checked},\
         \"plan_hits\":{plan_hits},\"plan_misses\":{plan_misses},\"kernels\":{kernels}}}"
    );
    println!("{record}");
    match serde_json::from_str(&record) {
        Ok(value) => {
            bench::run_report::emit("dispatch_bench", value);
        }
        Err(e) => eprintln!("cannot parse own record for run report: {e}"),
    }
}
