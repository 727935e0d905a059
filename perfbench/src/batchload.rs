//! The `batch-mixed` workload: seeded small rooms of every kind through
//! `BatchExecutor`, two workers, two jobs in flight from one client thread
//! that waits for its jobs in submission order.

use crate::check::{self, Tally};
use crate::common::{
    compile_and_verify, fill_counter_layers, finish_trace, ratio, Layers, Outcome, Params, Snap,
    StepStats,
};
use crate::spans::{layer_table, Tracer};
use crate::stats;
use crate::sys;
use batch::{BatchConfig, BatchExecutor, Boundary, JobHandle, JobResult, Scenario, ScenarioGen};
use room_acoustics::{handwritten, HandwrittenSim, Precision, SimSetup};
use std::collections::VecDeque;
use std::time::Instant;
use vgpu::{Device, ExecMode};

/// Jobs the client keeps in flight.
pub const IN_FLIGHT: usize = 2;

/// Kernel classes: FI-MM (β in global or constant memory) and FD-MM
/// boundaries, each at both precisions.
pub const CLASSES: usize = 6;

/// The kernel class of a scenario, `0..CLASSES`.
pub fn class(sc: &Scenario) -> usize {
    let b = match sc.boundary {
        Boundary::FiMm { beta_constant: false } => 0,
        Boundary::FiMm { beta_constant: true } => 1,
        Boundary::FdMm => 2,
    };
    2 * b + usize::from(sc.precision == Precision::Double)
}

/// The first scenario of every kernel class in the generator's stream, in
/// stream order; the draws between them are skipped.
pub fn first_of_each_class(gen: &mut ScenarioGen) -> Vec<Scenario> {
    let mut seen = [false; CLASSES];
    let mut out = Vec::with_capacity(CLASSES);
    while out.len() < CLASSES {
        let sc = gen.next_scenario();
        if !std::mem::replace(&mut seen[class(&sc)], true) {
            out.push(sc);
        }
    }
    out
}

/// One completed job as the client saw it.
struct Done {
    scenario: Scenario,
    latency_ms: f64,
    result: JobResult,
}

/// Closed loop: keeps [`IN_FLIGHT`] jobs submitted, submitting the next
/// scenario `next` yields as each result arrives, until `next` runs dry
/// and every job is back.
fn closed_loop(
    exec: &BatchExecutor,
    mut next: impl FnMut(usize) -> Option<Scenario>,
    tr: &mut Tracer,
    root_name: &'static str,
) -> (Vec<Done>, f64) {
    let root = tr.open(root_name, None, 0);
    let t0 = Instant::now();
    let mut flight: VecDeque<(Scenario, Instant, JobHandle, Option<usize>)> = VecDeque::new();
    let mut done = Vec::new();
    let mut submitted = 0;
    let mut submit = |flight: &mut VecDeque<_>, tr: &mut Tracer, submitted: &mut usize| {
        if let Some(sc) = next(*submitted) {
            *submitted += 1;
            let span = tr.open("batch.job", root, sc.id);
            let at = Instant::now();
            let handle = exec.submit(sc.clone());
            flight.push_back((sc, at, handle, span));
        }
    };
    for _ in 0..IN_FLIGHT {
        submit(&mut flight, tr, &mut submitted);
    }
    while let Some((scenario, at, handle, span)) = flight.pop_front() {
        let result = handle.wait();
        let end = Instant::now();
        tr.close(span);
        if let Ok(o) = &result.outcome {
            let end_us = tr.at_us(end);
            tr.record("batch.step_loop", span, scenario.id, end_us - o.wall_ms * 1e3, end_us);
        }
        done.push(Done { scenario, latency_ms: (end - at).as_secs_f64() * 1e3, result });
        submit(&mut flight, tr, &mut submitted);
    }
    let wall = t0.elapsed().as_secs_f64();
    tr.close(root);
    (done, wall)
}

/// Checks every job's microphone trace and final energy against the golden
/// model; a job fails if it errored, if the verifier did not pass its
/// kernels, or if its output leaves the tolerance. The reference runs on
/// two threads, after the timed loop.
fn check_jobs(done: &[Done], tally: &mut Tally) {
    let half = done.len().div_ceil(2).max(1);
    let verdicts: Vec<Option<String>> = std::thread::scope(|s| {
        let parts: Vec<_> = done
            .chunks(half)
            .map(|part| s.spawn(move || part.iter().map(job_verdict).collect::<Vec<_>>()))
            .collect();
        parts.into_iter().flat_map(|h| h.join().expect("reference check thread")).collect()
    });
    for v in verdicts {
        tally.attempt(1);
        if let Some(why) = v {
            tally.fail(1, why);
        }
    }
}

/// Why one job failed, if it did.
fn job_verdict(d: &Done) -> Option<String> {
    let sc = &d.scenario;
    let out = match &d.result.outcome {
        Ok(o) => o,
        Err(e) => return Some(format!("{}: {e}", sc.label())),
    };
    if !out.verifier_clean {
        return Some(format!("{}: verifier did not prove the kernels", sc.label()));
    }
    let setup = SimSetup::new(&sc.config());
    let (ir, _, energy) =
        check::reference_run(&setup, sc.precision, sc.source, sc.mic, sc.amp, sc.steps);
    let tol = check::tolerance(sc.precision);
    if let Some(i) = check::mismatches(&out.impulse_response, &ir, tol).first() {
        return Some(format!("{}: impulse response leaves tolerance at step {i}", sc.label()));
    }
    if !check::mismatches(&[out.energy], &[energy], tol).is_empty() {
        return Some(format!("{}: energy {} vs {energy}", sc.label(), out.energy));
    }
    None
}

/// Set-up as a batch user pays it: from executor start until one job of
/// every kernel class has completed. Cold only in a fresh process.
fn set_up(gen: &mut ScenarioGen, tr: &mut Tracer) -> (BatchExecutor, Vec<Done>, f64) {
    let t0 = Instant::now();
    let exec = BatchExecutor::new(BatchConfig::default());
    let mut first = first_of_each_class(gen).into_iter();
    let (done, _) = closed_loop(&exec, |_| first.next(), tr, "setup");
    (exec, done, t0.elapsed().as_secs_f64())
}

/// Only the set-up, for the fresh processes that measure cold set-up time.
pub fn setup_only(seed: u64) -> f64 {
    set_up(&mut ScenarioGen::new(seed), &mut Tracer::new(false)).2
}

/// Runs `batch-mixed`.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let mut gen = ScenarioGen::new(p.seed);
    let snap0 = Snap::take();
    let mut tr = Tracer::new(p.trace);
    let (exec, setup_done, setup_s) = set_up(&mut gen, &mut tr);
    out.setup_s = setup_s;
    out.notes.push(format!(
        "input: ScenarioGen({}) rooms, {} workers, {IN_FLIGHT} in flight; set-up ran {} jobs",
        p.seed,
        exec.config().threads,
        setup_done.len()
    ));

    if !p.trace {
        let seconds = p.seconds;
        let min = p.scale.min_samples;
        let t0 = Instant::now();
        let cpu0 = sys::process_cpu_s();
        // Peak memory is read once `min` jobs were submitted: a fixed
        // amount of work, however fast it ran.
        let (done, wall) = closed_loop(
            &exec,
            |k| {
                if k == min {
                    out.peak_rss_mb = sys::peak_rss_mib();
                }
                (k < min || t0.elapsed().as_secs_f64() < seconds).then(|| gen.next_scenario())
            },
            &mut Tracer::new(false),
            "loop",
        );
        let cpu = sys::process_cpu_s() - cpu0;
        let updates: f64 =
            done.iter().map(|d| (d.scenario.dims.total() * d.scenario.steps) as f64).sum();
        out.mupd_per_s = updates / wall / 1e6;
        out.latency_ms = done.iter().map(|d| d.latency_ms).collect();
        let step_ms: Vec<f64> = done
            .iter()
            .filter_map(|d| {
                d.result.outcome.as_ref().ok().map(|o| o.wall_ms / d.scenario.steps as f64)
            })
            .collect();
        out.notes.push(format!(
            "loop: {} jobs in {wall:.3} s = {:.2} rooms/s; cpu/wall {:.3}; highest supported \
             percentile p{} of {} samples",
            done.len(),
            done.len() as f64 / wall,
            ratio(cpu, wall),
            stats::highest_supported(done.len()).unwrap_or(0.0),
            done.len()
        ));
        out.notes.push(format!(
            "rooms_per_s = {:.4} 1/s; job_ms_p50 = {:.4} ms; job_ms_p95 = {:.4} ms; \
             step_ms_p50 = {:.4} ms; step_ms_p90 = {:.4} ms (per-job mean step+sample)",
            done.len() as f64 / wall,
            stats::percentile(&out.latency_ms, 50.0),
            stats::percentile(&out.latency_ms, 95.0),
            stats::percentile(&step_ms, 50.0),
            stats::percentile(&step_ms, 90.0),
        ));
        check_fallbacks(&snap0, &mut out.tally);
        check_jobs(&setup_done, &mut out.tally);
        check_jobs(&done, &mut out.tally);
        return out;
    }

    // Traced run: an untraced loop over a list of scenarios, then the same
    // list traced, so that the difference in wall time is the tracing
    // overhead; then a sample of jobs replayed on this thread.
    let seconds = p.seconds / 2.0;
    let t0 = Instant::now();
    let mut list = Vec::new();
    let (plain, plain_wall) = closed_loop(
        &exec,
        |k| {
            (k < IN_FLIGHT || t0.elapsed().as_secs_f64() < seconds).then(|| {
                list.push(gen.next_scenario());
                list[list.len() - 1].clone()
            })
        },
        &mut Tracer::new(false),
        "loop",
    );
    let snap1 = Snap::take();
    let cpu0 = sys::process_cpu_s();
    let mut again = list.iter().cloned();
    let (traced, traced_wall) = closed_loop(&exec, |_| again.next(), &mut tr, "loop");
    let cpu = sys::process_cpu_s() - cpu0;
    let snap2 = Snap::take();
    drop(exec);

    let mut layers = Layers::default();
    let steps: usize = traced.iter().map(|d| d.scenario.steps).sum();
    fill_counter_layers(&mut layers, &snap0, &snap1, &snap2, steps as f64);
    let ok: Vec<(&Done, f64)> = traced
        .iter()
        .filter_map(|d| d.result.outcome.as_ref().ok().map(|o| (d, o.wall_ms)))
        .collect();
    layers.job_step_ms = stats::median(&ok.iter().map(|(_, w)| *w).collect::<Vec<_>>());
    layers.job_other_ms =
        stats::median(&ok.iter().map(|(d, w)| d.latency_ms - w).collect::<Vec<_>>());
    let launches: usize =
        traced.iter().filter_map(|d| d.result.outcome.as_ref().ok().map(|o| o.launches)).sum();
    layers.launches_per_s = launches as f64 / traced_wall;
    layers.batch_cpu_per_wall = ratio(cpu, traced_wall);
    out.tables.push((format!("{} client timeline", p.workload.name()), layer_table(tr.spans())));
    finish_trace(&mut layers, &mut out, plain_wall, traced_wall);

    let stride = (list.len() / p.scale.replay_jobs.max(1)).max(1);
    let sample: Vec<&Scenario> = list.iter().step_by(stride).take(p.scale.replay_jobs).collect();
    let mut rtr = Tracer::new(true);
    let replay = replay_jobs(&sample, &mut rtr, &mut layers);
    out.tables.push((format!("{} replay of {} jobs", p.workload.name(), sample.len()), replay));
    layers.queue_wait_ms = (layers.job_other_ms - layers.job_setup_ms).max(0.0);
    let real_kernels: Vec<_> = [Precision::Single, Precision::Double]
        .iter()
        .flat_map(|pr| {
            let real = pr.kind();
            [
                handwritten::volume_kernel().resolve_real(real),
                handwritten::fimm_kernel(false).resolve_real(real),
                handwritten::fimm_kernel(true).resolve_real(real),
                handwritten::fdmm_kernel().resolve_real(real),
            ]
        })
        .collect();
    (layers.compile_ms, layers.verify_ms) = compile_and_verify(&real_kernels);
    out.notes.push(format!(
        "traced: {} untraced jobs then the same {} traced; {} replayed",
        plain.len(),
        traced.len(),
        sample.len()
    ));
    check_fallbacks(&snap0, &mut out.tally);
    check_jobs(&setup_done, &mut out.tally);
    check_jobs(&plain, &mut out.tally);
    check_jobs(&traced, &mut out.tally);
    out.layers = Some(layers);
    out.spans = tr.spans().to_vec();
    out
}

/// Engine fallbacks anywhere in the run fail it: counters are process-wide,
/// so a fallback cannot be pinned on one job.
fn check_fallbacks(since: &Snap, tally: &mut Tally) {
    let n = Snap::take().fallbacks_since(since);
    if n > 0 {
        tally.attempt(1);
        tally.fail(1, format!("{n} engine fallbacks"));
    }
}

/// Replays the calls of sampled jobs on the benchmark thread, where each
/// one can be timed: `SimSetup::new`, `HandwrittenSim::new`, `step`,
/// `sample` and `energy`. Fills the set-up, per-step and readback layers
/// of the batch and returns the replay's layer table.
fn replay_jobs(
    sample: &[&Scenario],
    tr: &mut Tracer,
    layers: &mut Layers,
) -> crate::spans::LayerTable {
    let mut setup_ms = Vec::new();
    let mut sim_setup_ms = Vec::new();
    let mut first_ms = Vec::new();
    let mut steps: Vec<(StepStats, f64, f64)> = Vec::new();
    let cpu0 = sys::process_cpu_s();
    let t0 = Instant::now();
    for sc in sample {
        let g = sc.id;
        let root = tr.open("replay.job", None, g);
        let a = Instant::now();
        let span = tr.open("acoustics.setup", root, g);
        let setup = SimSetup::new(&sc.config());
        tr.close(span);
        sim_setup_ms.push(a.elapsed().as_secs_f64() * 1e3);
        let span = tr.open("sim.new", root, g);
        let mut sim =
            HandwrittenSim::new(setup, sc.precision, sc.boundary_kernel(), Device::gtx780());
        tr.close(span);
        let span = tr.open("upload.impulse", root, g);
        sim.impulse(sc.source.0, sc.source.1, sc.source.2, sc.amp);
        tr.close(span);
        setup_ms.push(a.elapsed().as_secs_f64() * 1e3);
        for i in 0..sc.steps {
            let span =
                tr.open(if i == 0 { "device.first_step" } else { "device.dispatch" }, root, g);
            let b = Instant::now();
            let (v, bs) = sim.step(ExecMode::Fast);
            let step_ms = b.elapsed().as_secs_f64() * 1e3;
            tr.close(span);
            let mut st = StepStats::default();
            st.add(&v, Some(&bs));
            tr.record_inner(
                span,
                g,
                &[("exec.volume", st.volume_us), ("exec.boundary", st.boundary_us)],
            );
            let span = tr.open("readback.sample", root, g);
            let c = Instant::now();
            std::hint::black_box(sim.sample(sc.mic.0, sc.mic.1, sc.mic.2));
            let sample_ms = c.elapsed().as_secs_f64() * 1e3;
            tr.close(span);
            if i == 0 {
                first_ms.push(step_ms - st.kernel_us() / 1e3);
            } else {
                steps.push((st, step_ms, sample_ms));
            }
        }
        let span = tr.open("readback.energy", root, g);
        std::hint::black_box(sim.energy());
        tr.close(span);
        tr.close(root);
    }
    let wall = t0.elapsed().as_secs_f64();
    layers.cpu_per_wall = ratio(sys::process_cpu_s() - cpu0, wall);
    let col = |f: &dyn Fn(&(StepStats, f64, f64)) -> f64| {
        stats::mean(&steps.iter().map(f).collect::<Vec<_>>())
    };
    layers.setup_ms = stats::median(&sim_setup_ms);
    layers.job_setup_ms = stats::median(&setup_ms);
    layers.first_step_ms = stats::median(&first_ms);
    layers.volume_ms = col(&|s| s.0.volume_us / 1e3);
    layers.boundary_ms = col(&|s| s.0.boundary_us / 1e3);
    layers.dispatch_ms = col(&|s| s.1 - s.0.kernel_us() / 1e3);
    layers.readback_ms = col(&|s| s.2);
    layers.flops = col(&|s| s.0.flops as f64);
    layers.bytes = col(&|s| s.0.bytes as f64);
    layers.divergent = col(&|s| s.0.divergent as f64);
    layer_table(tr.spans())
}
