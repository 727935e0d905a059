//! Parameters, results and helpers shared by the workloads.

use crate::check::Tally;
use crate::spans::{LayerTable, Span};
use std::time::Instant;
use vgpu::LaunchStats;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One FD-MM dome stepped through the LIFT-generated kernels.
    LiftDomeFdmm,
    /// One FI-MM box stepped across two virtual devices.
    Shard2BoxFimm,
    /// Seeded small rooms of every kind through the batch executor.
    BatchMixed,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] =
        [Workload::LiftDomeFdmm, Workload::Shard2BoxFimm, Workload::BatchMixed];

    /// The name passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LiftDomeFdmm => "lift-dome-fdmm",
            Workload::Shard2BoxFimm => "shard2-box-fimm",
            Workload::BatchMixed => "batch-mixed",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Sizes of a run. [`Scale::full`] is what the benchmark measures;
/// smaller scales exist for the benchmark's own smoke tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Grid cells per edge of the room workloads (halo included).
    pub edge: usize,
    /// Fewest timed steps or jobs an untraced run measures, whatever
    /// `--seconds` says, so that every reported percentile is supported.
    pub min_samples: usize,
    /// Jobs replayed on the benchmark thread by a traced batch run.
    pub replay_jobs: usize,
}

impl Scale {
    /// The benchmark's sizes: 48³ rooms; 200 samples, enough for a p95
    /// with ten samples beyond it.
    pub fn full() -> Scale {
        Scale { edge: 48, min_samples: 200, replay_jobs: 24 }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one
    /// (end-to-end metrics).
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Per-layer figures of a traced run. A layer a workload does not
/// exercise stays 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    pub setup_ms: f64,
    pub lower_ms: f64,
    pub compile_ms: f64,
    pub verify_ms: f64,
    pub artifact_hit_rate: f64,
    pub first_step_ms: f64,
    pub volume_ms: f64,
    pub boundary_ms: f64,
    pub cpu_per_wall: f64,
    pub flops: f64,
    pub bytes: f64,
    pub divergent: f64,
    pub sites_proven: f64,
    pub sites_checked: f64,
    pub fallbacks: f64,
    /// Launches per step on the compiled, vector, tape and tree engines.
    pub launches: [f64; 4],
    pub dispatch_ms: f64,
    pub launches_per_step: f64,
    pub plan_hits: f64,
    pub plan_misses: f64,
    pub shard_overhead_ms: f64,
    pub halo_bytes: f64,
    pub halo_copies: f64,
    pub readback_ms: f64,
    pub readback_bytes: f64,
    pub job_step_ms: f64,
    pub job_other_ms: f64,
    pub job_setup_ms: f64,
    pub queue_wait_ms: f64,
    pub launches_per_s: f64,
    pub batch_cpu_per_wall: f64,
    pub overhead_pct: f64,
    pub unattributed_pct: f64,
}

impl Layers {
    /// Every per-layer metric, by name and unit, in declaration order.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = metric;
        vec![
            m("acoustics.setup_ms", self.setup_ms, "ms"),
            m("core.lower_ms", self.lower_ms, "ms"),
            m("vgpu.compile_ms", self.compile_ms, "ms"),
            m("vgpu.verify_ms", self.verify_ms, "ms"),
            m("vgpu.artifact_hit_rate", self.artifact_hit_rate, "ratio"),
            m("device.first_step_ms", self.first_step_ms, "ms"),
            m("exec.volume_ms_per_step", self.volume_ms, "ms"),
            m("exec.boundary_ms_per_step", self.boundary_ms, "ms"),
            m("exec.cpu_per_wall", self.cpu_per_wall, "ratio"),
            m("exec.flops_per_step", self.flops, "count"),
            m("exec.bytes_per_step", self.bytes, "B"),
            m("exec.divergent_warps_per_step", self.divergent, "count"),
            m("exec.sites_proven", self.sites_proven, "count"),
            m("exec.sites_checked", self.sites_checked, "count"),
            m("exec.fallbacks", self.fallbacks, "count"),
            m("exec.launches.compiled", self.launches[0], "count/step"),
            m("exec.launches.vector", self.launches[1], "count/step"),
            m("exec.launches.tape", self.launches[2], "count/step"),
            m("exec.launches.tree", self.launches[3], "count/step"),
            m("device.dispatch_ms_per_step", self.dispatch_ms, "ms"),
            m("device.launches_per_step", self.launches_per_step, "count"),
            m("device.plan_hits", self.plan_hits, "count"),
            m("device.plan_misses", self.plan_misses, "count"),
            m("shard.overhead_ms_per_step", self.shard_overhead_ms, "ms"),
            m("shard.halo_bytes_per_step", self.halo_bytes, "B"),
            m("shard.halo_copies_per_step", self.halo_copies, "count"),
            m("readback.ms_per_step", self.readback_ms, "ms"),
            m("readback.bytes_per_step", self.readback_bytes, "B"),
            m("batch.job_step_ms_p50", self.job_step_ms, "ms"),
            m("batch.job_other_ms_p50", self.job_other_ms, "ms"),
            m("batch.job_setup_ms_p50", self.job_setup_ms, "ms"),
            m("batch.queue_wait_ms_p50", self.queue_wait_ms, "ms"),
            m("batch.launches_per_s", self.launches_per_s, "1/s"),
            m("batch.cpu_per_wall", self.batch_cpu_per_wall, "ratio"),
            m("trace.overhead_pct", self.overhead_pct, "%"),
            m("trace.unattributed_pct", self.unattributed_pct, "%"),
        ]
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Lines printed before the result (sample counts, checks).
    pub notes: Vec<String>,
    /// Cold set-up time of the run itself, seconds.
    pub setup_s: f64,
    /// Latency of every timed request: a step plus its microphone sample
    /// for a room, submit to result for a batch job.
    pub latency_ms: Vec<f64>,
    /// Grid-point updates per second of the timed loop, millions.
    pub mupd_per_s: f64,
    /// Peak resident memory after the timed loop, MiB.
    pub peak_rss_mb: f64,
    /// Per-layer figures (traced runs only).
    pub layers: Option<Layers>,
    /// Layer tables of a traced run, with titles.
    pub tables: Vec<(String, LayerTable)>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

/// Share of the layer table's wall time the unattributed remainder may
/// take; a traced run reports whether it stayed within.
pub const REMAINDER_BOUND: f64 = 0.05;

/// Deterministic input generator (SplitMix64): the benchmark derives every
/// generated input from `--seed` through it.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SeedRng {
        SeedRng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// Process-wide registry counters the benchmark reads around each layer.
pub const COUNTERS: [&str; 17] = [
    "vgpu.launches.compiled",
    "vgpu.launches.vector",
    "vgpu.launches.tape",
    "vgpu.launches.tree",
    "vgpu.plan.hits",
    "vgpu.plan.shared_hits",
    "vgpu.plan.misses",
    "vgpu.compiled.sites_proven",
    "vgpu.compiled.sites_checked",
    "vgpu.artifact.hits",
    "vgpu.artifact.misses",
    "vgpu.halo.bytes",
    "vgpu.halo.copies",
    "vgpu.xfer.to_host.bytes",
    "vgpu.tape.fallbacks",
    "vgpu.vector.fallbacks",
    "vgpu.compiled.fallbacks",
];

/// A snapshot of [`COUNTERS`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snap(Vec<u64>);

impl Snap {
    /// Reads every counter now.
    pub fn take() -> Snap {
        let reg = vgpu::telemetry::registry();
        Snap(COUNTERS.iter().map(|n| reg.counter(n).get()).collect())
    }

    fn at(&self, name: &str) -> u64 {
        let i = COUNTERS.iter().position(|n| *n == name);
        self.0[i.unwrap_or_else(|| panic!("counter {name} is not snapshotted"))]
    }

    /// Increase of `name` from `earlier` to `self`.
    pub fn since(&self, earlier: &Snap, name: &str) -> u64 {
        self.at(name) - earlier.at(name)
    }

    /// Launches on any engine since `earlier`.
    pub fn launches_since(&self, earlier: &Snap) -> u64 {
        ["compiled", "vector", "tape", "tree"]
            .iter()
            .map(|e| self.since(earlier, &format!("vgpu.launches.{e}")))
            .sum()
    }

    /// Engine fallbacks since `earlier`.
    pub fn fallbacks_since(&self, earlier: &Snap) -> u64 {
        ["vgpu.tape.fallbacks", "vgpu.vector.fallbacks", "vgpu.compiled.fallbacks"]
            .iter()
            .map(|n| self.since(earlier, n))
            .sum()
    }
}

/// `num ÷ den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Kernel-side figures of one step, summed over its launches.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StepStats {
    pub volume_us: f64,
    pub boundary_us: f64,
    pub flops: u64,
    pub bytes: u64,
    pub divergent: u64,
}

impl StepStats {
    pub fn add(&mut self, volume: &LaunchStats, boundary: Option<&LaunchStats>) {
        self.volume_us += volume.wall.as_secs_f64() * 1e6;
        for s in std::iter::once(volume).chain(boundary) {
            self.flops += s.counters.flops;
            self.bytes += s.counters.bytes_loaded + s.counters.bytes_stored;
            self.divergent += s.divergent_warps;
        }
        if let Some(b) = boundary {
            self.boundary_us += b.wall.as_secs_f64() * 1e6;
        }
    }

    pub fn kernel_us(&self) -> f64 {
        self.volume_us + self.boundary_us
    }
}

/// Counter-derived layers: whole-run totals from `start` to `end`, and
/// per-step rates over the traced loop from `loop_start` to `end`.
pub fn fill_counter_layers(
    layers: &mut Layers,
    start: &Snap,
    loop_start: &Snap,
    end: &Snap,
    steps: f64,
) {
    let hits = end.since(start, "vgpu.artifact.hits") as f64;
    let misses = end.since(start, "vgpu.artifact.misses") as f64;
    layers.artifact_hit_rate = ratio(hits, hits + misses);
    layers.sites_proven = end.since(start, "vgpu.compiled.sites_proven") as f64;
    layers.sites_checked = end.since(start, "vgpu.compiled.sites_checked") as f64;
    layers.fallbacks = end.fallbacks_since(start) as f64;
    layers.plan_hits =
        (end.since(start, "vgpu.plan.hits") + end.since(start, "vgpu.plan.shared_hits")) as f64;
    layers.plan_misses = end.since(start, "vgpu.plan.misses") as f64;
    for (i, e) in ["compiled", "vector", "tape", "tree"].iter().enumerate() {
        layers.launches[i] =
            ratio(end.since(loop_start, &format!("vgpu.launches.{e}")) as f64, steps);
    }
    layers.launches_per_step = ratio(end.launches_since(loop_start) as f64, steps);
    layers.halo_bytes = ratio(end.since(loop_start, "vgpu.halo.bytes") as f64, steps);
    layers.halo_copies = ratio(end.since(loop_start, "vgpu.halo.copies") as f64, steps);
    layers.readback_bytes = ratio(end.since(loop_start, "vgpu.xfer.to_host.bytes") as f64, steps);
}

/// Tracing overhead, and the remainder of the first layer table (the
/// measured timeline).
pub fn finish_trace(layers: &mut Layers, out: &mut Outcome, plain_s: f64, traced_s: f64) {
    layers.overhead_pct = 100.0 * ratio(traced_s - plain_s, plain_s);
    if let Some((_, t)) = out.tables.first() {
        layers.unattributed_pct = 100.0 * t.remainder_share();
    }
    out.notes.push(format!(
        "tracing overhead: traced {:.3} s - untraced {:.3} s = {:.3} s ({:+.2}%)",
        traced_s,
        plain_s,
        traced_s - plain_s,
        layers.overhead_pct
    ));
}

/// Cold `Device::compile` and `verify_cached` times of `kernels`, ms.
pub fn compile_and_verify(kernels: &[lift::kast::Kernel]) -> (f64, f64) {
    let device = vgpu::Device::gtx780();
    let t = Instant::now();
    let preps: Vec<_> =
        kernels.iter().map(|k| device.compile(k).expect("shipped kernel compiles")).collect();
    let compile_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    for prep in &preps {
        vgpu::verify_cached(prep);
    }
    (compile_ms, t.elapsed().as_secs_f64() * 1e3)
}
