//! The room workloads: one large room stepped by one caller, who samples a
//! microphone after every step.
//!
//! `lift-dome-fdmm` steps an FD-MM dome through `LiftSim` (the
//! LIFT-generated kernels); `shard2-box-fimm` steps an FI-MM box through
//! `ShardedSim` on two virtual devices. Both run in single precision.

use crate::check::{self, Tally};
use crate::common::{
    compile_and_verify, fill_counter_layers, finish_trace, ratio, Layers, Outcome, Params, SeedRng,
    Snap, StepStats, Workload,
};
use crate::spans::{layer_table, Tracer};
use crate::stats;
use crate::sys;
use lift_acoustics::{programs, LiftBoundary, LiftSim};
use room_acoustics::{
    handwritten, BoundaryKernel, GridDims, Precision, RoomShape, ShardedSim, SimConfig, SimSetup,
};
use std::time::Instant;
use vgpu::{Device, ExecMode};

/// Precision of both room workloads.
pub const PRECISION: Precision = Precision::Single;

/// Devices `shard2-box-fimm` splits its box across.
pub const SHARDS: usize = 2;

/// A point in the grid.
pub type Point = (usize, usize, usize);

/// The generated input of a room workload: the room, where the impulse
/// starts, where the microphone listens, and how loud the impulse is.
#[derive(Debug, Clone, PartialEq)]
pub struct RoomInput {
    /// Room configuration.
    pub config: SimConfig,
    /// Impulse position.
    pub source: Point,
    /// Microphone position.
    pub mic: Point,
    /// Impulse amplitude.
    pub amp: f64,
}

/// Draws the input of `workload` from `seed` on an `edge`³ grid. The room
/// is fixed per workload; the seed places the source and microphone inside
/// it and sets the amplitude.
pub fn room_input(workload: Workload, seed: u64, edge: usize) -> RoomInput {
    let dims = GridDims::cube(edge);
    let config = match workload {
        Workload::LiftDomeFdmm => SimConfig::fdmm(dims, RoomShape::Dome),
        Workload::Shard2BoxFimm => SimConfig::fimm(dims, RoomShape::Box),
        Workload::BatchMixed => panic!("batch-mixed is not a room workload"),
    };
    let mut rng = SeedRng::new(seed);
    let mut inside = || loop {
        let p = (rng.below(edge), rng.below(edge), rng.below(edge));
        if config.shape.inside(&dims, p.0, p.1, p.2) {
            return p;
        }
    };
    let source = inside();
    let mic = inside();
    RoomInput { source, mic, amp: 0.5 + SeedRng::new(seed ^ 0xA5A5).range(0.0, 1.5), config }
}

/// The simulation driver a room workload steps.
enum Driver {
    Lift(Box<LiftSim>),
    Shard(Box<ShardedSim>),
}

impl Driver {
    fn new(workload: Workload, setup: SimSetup) -> Driver {
        match workload {
            Workload::LiftDomeFdmm => Driver::Lift(Box::new(LiftSim::new(
                setup,
                PRECISION,
                LiftBoundary::FdMm,
                Device::gtx780(),
            ))),
            _ => Driver::Shard(Box::new(ShardedSim::new(
                setup,
                PRECISION,
                BoundaryKernel::FiMm { beta_constant: true },
                (0..SHARDS).map(|_| Device::gtx780()).collect(),
            ))),
        }
    }

    fn impulse(&mut self, p: Point, amp: f64) {
        match self {
            Driver::Lift(s) => s.impulse(p.0, p.1, p.2, amp),
            Driver::Shard(s) => s.impulse(p.0, p.1, p.2, amp),
        }
    }

    fn step(&mut self) -> StepStats {
        let mut st = StepStats::default();
        match self {
            Driver::Lift(s) => {
                let (v, b) = s.step(ExecMode::Fast);
                st.add(&v, Some(&b));
            }
            Driver::Shard(s) => {
                for (v, b) in s.step(ExecMode::Fast) {
                    st.add(&v, b.as_ref());
                }
            }
        }
        st
    }

    fn sample(&self, p: Point) -> f64 {
        match self {
            Driver::Lift(s) => s.sample(p.0, p.1, p.2),
            Driver::Shard(s) => s.sample(p.0, p.1, p.2),
        }
    }

    fn field(&self) -> Vec<f64> {
        match self {
            Driver::Lift(s) => s.read_curr(),
            Driver::Shard(s) => s.read_curr(),
        }
    }

    fn halo_bytes_per_step(&self) -> u64 {
        match self {
            Driver::Lift(_) => 0,
            Driver::Shard(s) => s.halo_bytes_per_step(),
        }
    }

    /// Span name of a step's own time: launch dispatch on one device, or
    /// halo exchange plus the devices' dispatch when sharded.
    fn step_span(&self) -> &'static str {
        match self {
            Driver::Lift(_) => "device.dispatch",
            Driver::Shard(_) => "shard.overhead",
        }
    }
}

/// A room after set-up: built, impulse injected, first step taken and
/// sampled.
struct Built {
    setup: SimSetup,
    driver: Driver,
    first_sample: f64,
    setup_s: f64,
    sim_setup_ms: f64,
    first_dispatch_ms: f64,
}

/// Set-up as a user pays it: from the configuration to the end of the
/// first step and its sample (voxelisation, lowering, compilation,
/// verification, upload and lazy first-launch planning).
fn set_up(workload: Workload, input: &RoomInput, tr: &mut Tracer) -> Built {
    let root = tr.open("setup", None, 0);
    let t0 = Instant::now();
    let span = tr.open("acoustics.setup", root, 0);
    let setup = SimSetup::new(&input.config);
    tr.close(span);
    let sim_setup_ms = t0.elapsed().as_secs_f64() * 1e3;
    let span = tr.open("sim.new", root, 0);
    let mut driver = Driver::new(workload, setup.clone());
    tr.close(span);
    let span = tr.open("upload.impulse", root, 0);
    driver.impulse(input.source, input.amp);
    tr.close(span);
    let span = tr.open("device.first_step", root, 0);
    let ts = Instant::now();
    let st = driver.step();
    let first_dispatch_ms = (ts.elapsed().as_secs_f64() * 1e3 - st.kernel_us() / 1e3).max(0.0);
    tr.close(span);
    tr.record_inner(span, 0, &[("exec.volume", st.volume_us), ("exec.boundary", st.boundary_us)]);
    let span = tr.open("readback.sample", root, 0);
    let first_sample = driver.sample(input.mic);
    tr.close(span);
    let setup_s = t0.elapsed().as_secs_f64();
    tr.close(root);
    Built { setup, driver, first_sample, setup_s, sim_setup_ms, first_dispatch_ms }
}

/// Only the set-up, for the fresh processes that measure cold set-up time.
pub fn setup_only(workload: Workload, seed: u64, edge: usize) -> f64 {
    set_up(workload, &room_input(workload, seed, edge), &mut Tracer::new(false)).setup_s
}

/// When a step loop stops.
#[derive(Debug, Clone, Copy)]
enum Until {
    /// After `seconds`, and not before `min` steps.
    Time { seconds: f64, min: usize },
    /// After exactly this many steps.
    Steps(usize),
}

/// What a step loop measured.
#[derive(Debug, Default)]
struct Loop {
    pair_ms: Vec<f64>,
    step_ms: Vec<f64>,
    sample_ms: Vec<f64>,
    stats: Vec<StepStats>,
    ir: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    /// Peak resident memory once `min` steps were done (time-bounded
    /// loops only): a fixed amount of work, however fast it ran.
    rss_mb: f64,
}

fn step_loop(driver: &mut Driver, mic: Point, until: Until, tr: &mut Tracer, group0: u64) -> Loop {
    let mut lp = Loop::default();
    let root = tr.open("loop", None, group0);
    let step_name = driver.step_span();
    let cpu0 = sys::process_cpu_s();
    let t0 = Instant::now();
    loop {
        let n = lp.pair_ms.len();
        let done = match until {
            Until::Time { seconds, min } => {
                if n == min {
                    lp.rss_mb = sys::peak_rss_mib();
                }
                n >= min && t0.elapsed().as_secs_f64() >= seconds
            }
            Until::Steps(k) => n >= k,
        };
        if done {
            break;
        }
        let group = group0 + n as u64;
        let span = tr.open(step_name, root, group);
        let a = Instant::now();
        let st = driver.step();
        let b = Instant::now();
        tr.close(span);
        tr.record_inner(
            span,
            group,
            &[("exec.volume", st.volume_us), ("exec.boundary", st.boundary_us)],
        );
        let span = tr.open("readback.sample", root, group);
        lp.ir.push(driver.sample(mic));
        let c = Instant::now();
        tr.close(span);
        lp.step_ms.push((b - a).as_secs_f64() * 1e3);
        lp.sample_ms.push((c - b).as_secs_f64() * 1e3);
        lp.pair_ms.push((c - a).as_secs_f64() * 1e3);
        lp.stats.push(st);
    }
    lp.wall_s = t0.elapsed().as_secs_f64();
    lp.cpu_s = sys::process_cpu_s() - cpu0;
    tr.close(root);
    lp
}

/// Checks a run's microphone trace and final field against the golden
/// model, and its engine and halo accounting against the registry.
fn check_room(
    input: &RoomInput,
    built: &Built,
    ir: &[f64],
    before: &Snap,
    after: &Snap,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) {
    let steps = ir.len();
    tally.attempt(steps as u64);
    let (want_ir, want_field, _) =
        check::reference_run(&built.setup, PRECISION, input.source, input.mic, input.amp, steps);
    let tol = check::tolerance(PRECISION);
    let bad = check::mismatches(ir, &want_ir, tol);
    if let Some(&i) = bad.first() {
        tally.fail(bad.len() as u64, format!("impulse response leaves tolerance at step {i}"));
    }
    let field_bad = check::mismatches(&built.driver.field(), &want_field, tol);
    if let Some(&i) = field_bad.first() {
        tally.fail(steps as u64, format!("final field leaves tolerance at cell {i}"));
    }
    let fallbacks = after.fallbacks_since(before);
    if fallbacks > 0 {
        tally.fail(steps as u64, format!("{fallbacks} engine fallbacks"));
    }
    let halo = after.since(before, "vgpu.halo.bytes");
    let want_halo = built.driver.halo_bytes_per_step() * steps as u64;
    if halo != want_halo {
        tally.fail(steps as u64, format!("halo bytes {halo} != {want_halo} expected"));
    }
    notes.push(format!(
        "check: {steps} samples against ReferenceSim<f32> (tol {tol:e}), final field, \
         fallbacks {fallbacks}, halo bytes {halo}/{want_halo}"
    ));
}

/// Runs a room workload.
pub fn run(p: &Params) -> Outcome {
    let input = room_input(p.workload, p.seed, p.scale.edge);
    let mut out = Outcome::default();
    let cells = input.config.dims.total() as f64;
    out.notes.push(format!(
        "input: {:?} {}^3 {} f32, source {:?}, mic {:?}, amp {:.4}",
        input.config.shape,
        p.scale.edge,
        if p.workload == Workload::LiftDomeFdmm {
            "FD-MM via LiftSim"
        } else {
            "FI-MM via ShardedSim x2"
        },
        input.source,
        input.mic,
        input.amp
    ));
    let snap0 = Snap::take();
    let mut tr = Tracer::new(p.trace);
    let mut built = set_up(p.workload, &input, &mut tr);
    out.setup_s = built.setup_s;
    let mut ir = vec![built.first_sample];
    if !p.trace {
        let until = Until::Time { seconds: p.seconds, min: p.scale.min_samples };
        let lp = step_loop(&mut built.driver, input.mic, until, &mut tr, 1);
        out.peak_rss_mb = lp.rss_mb;
        out.mupd_per_s = cells * lp.pair_ms.len() as f64 / lp.wall_s / 1e6;
        out.notes.push(format!(
            "loop: {} steps in {:.3} s; highest supported percentile p{} of {} samples",
            lp.pair_ms.len(),
            lp.wall_s,
            stats::highest_supported(lp.pair_ms.len()).unwrap_or(0.0),
            lp.pair_ms.len()
        ));
        out.notes.push(format!(
            "step_ms_p50 = {:.4} ms; step_ms_p90 = {:.4} ms; step_ms_p95 = {:.4} ms \
             (step+sample pairs)",
            stats::percentile(&lp.pair_ms, 50.0),
            stats::percentile(&lp.pair_ms, 90.0),
            stats::percentile(&lp.pair_ms, 95.0),
        ));
        out.latency_ms = lp.pair_ms;
        ir.extend(lp.ir);
        check_room(&input, &built, &ir, &snap0, &Snap::take(), &mut out.tally, &mut out.notes);
        return out;
    }

    // Traced run: an untraced loop, then the same number of traced steps,
    // so that the difference in wall time is the tracing overhead.
    let until = Until::Time { seconds: p.seconds / 2.0, min: 10 };
    let plain = step_loop(&mut built.driver, input.mic, until, &mut Tracer::new(false), 1);
    let n = plain.pair_ms.len();
    let snap1 = Snap::take();
    let traced = step_loop(&mut built.driver, input.mic, Until::Steps(n), &mut tr, 1 + n as u64);
    let snap2 = Snap::take();
    ir.extend(plain.ir.iter().chain(&traced.ir));
    let mut layers = replay_setup_layers(p.workload);
    let per_step = |f: &dyn Fn(&StepStats) -> f64| {
        stats::mean(&traced.stats.iter().map(f).collect::<Vec<_>>())
    };
    let steps = n as f64;
    layers.setup_ms = built.sim_setup_ms;
    layers.first_step_ms = built.first_dispatch_ms;
    layers.volume_ms = per_step(&|s| s.volume_us / 1e3);
    layers.boundary_ms = per_step(&|s| s.boundary_us / 1e3);
    layers.flops = per_step(&|s| s.flops as f64);
    layers.bytes = per_step(&|s| s.bytes as f64);
    layers.divergent = per_step(&|s| s.divergent as f64);
    layers.cpu_per_wall = ratio(traced.cpu_s, traced.wall_s);
    let dispatch: Vec<f64> =
        traced.step_ms.iter().zip(&traced.stats).map(|(s, st)| s - st.kernel_us() / 1e3).collect();
    layers.dispatch_ms = stats::mean(&dispatch);
    if p.workload == Workload::Shard2BoxFimm {
        layers.shard_overhead_ms = layers.dispatch_ms;
    }
    layers.readback_ms = stats::mean(&traced.sample_ms);
    fill_counter_layers(&mut layers, &snap0, &snap1, &snap2, steps);
    out.tables.push((p.workload.name().to_string(), layer_table(tr.spans())));
    finish_trace(&mut layers, &mut out, plain.wall_s, traced.wall_s);
    out.notes.push(format!("traced: {n} untraced steps then {n} traced steps"));
    check_room(&input, &built, &ir, &snap0, &snap2, &mut out.tally, &mut out.notes);
    out.layers = Some(layers);
    out.spans = tr.spans().to_vec();
    out
}

/// Cold lowering, compilation and verification of the workload's kernels,
/// timed on the benchmark thread after the run's own set-up.
fn replay_setup_layers(workload: Workload) -> Layers {
    let real = PRECISION.kind();
    let mut layers = Layers::default();
    let kernels = match workload {
        Workload::LiftDomeFdmm => {
            let t = Instant::now();
            let lowered = [programs::volume_program(), programs::fdmm_program()]
                .map(|prog| prog.lower(real).expect("shipped program lowers").kernel);
            layers.lower_ms = t.elapsed().as_secs_f64() * 1e3;
            lowered.to_vec()
        }
        _ => vec![
            handwritten::volume_slab_kernel().resolve_real(real),
            handwritten::fimm_kernel(true).resolve_real(real),
        ],
    };
    let (compile_ms, verify_ms) = compile_and_verify(&kernels);
    layers.compile_ms = compile_ms;
    layers.verify_ms = verify_ms;
    layers
}
