//! Compiled-engine behaviour: bit-identity on the control-flow shapes the
//! masked fused executor reconverges in place (partial final warps,
//! divergent early-return guards, diamonds, nested multi-block arms,
//! divergent loop trip counts, returns inside nested arms, and the deepest
//! nesting a 32-lane warp can open), lane-dependent private indexing, the
//! POTENTIAL-site checked path, and the divergence-accounting regression
//! for grouped launches that fall back to the scalar tape.
//!
//! Counter-based tests serialise on [`TELEMETRY`] because the metric
//! registry is process-global.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::prelude::{BinOp, Lit, ScalarKind, Value};
use std::sync::Mutex;
use vgpu::{Arg, Backend, BufData, Device, Engine, ExecMode};

/// Serialises every test that moves or reads the process-global counters:
/// the divergent launches below bump `vgpu.warp.divergent`, which the
/// counter-delta tests read.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn gid() -> KExpr {
    KExpr::GlobalId(0)
}

/// Guard + diamond, the acoustics boundary shape: items past `N` return
/// early; survivors split on parity, both arms storing.
///
/// ```text
/// if (gid >= N) return;
/// if (gid % 2 == 0) out[gid] = x[gid] * 2; else out[gid] = x[gid] + 1;
/// ```
fn guard_diamond_kernel() -> Kernel {
    let even = KExpr::bin(BinOp::Eq, KExpr::bin(BinOp::Rem, gid(), KExpr::int(2)), KExpr::int(0));
    let ld = || KExpr::load(MemRef::Param(0), gid());
    Kernel {
        name: "ce_guard_diamond".into(),
        params: vec![
            KernelParam::global_buf("x", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
            KernelParam::scalar("N", ScalarKind::I32),
        ],
        body: vec![
            KStmt::return_if(KExpr::bin(BinOp::Ge, gid(), KExpr::var("N"))),
            KStmt::If {
                cond: even,
                then_: vec![KStmt::Store {
                    mem: MemRef::Param(1),
                    idx: gid(),
                    value: ld() * KExpr::Lit(Lit::f32(2.0)),
                }],
                else_: vec![KStmt::Store {
                    mem: MemRef::Param(1),
                    idx: gid(),
                    value: ld() + KExpr::Lit(Lit::f32(1.0)),
                }],
            },
        ],
        work_dim: 1,
    }
}

/// Runs `kernel` on a fresh device under `engine` and returns the output
/// buffer plus the launch stats. `x` seeds param 0; params are
/// `(x, out, N)` with `out` zero-filled at `x`'s length.
fn run_guard_diamond(
    engine: Engine,
    n: i32,
    gsize: usize,
    mode: ExecMode,
) -> (BufData, vgpu::LaunchStats) {
    let mut dev = Device::gtx780();
    dev.set_engine(engine);
    let prep = dev.compile(&guard_diamond_kernel()).unwrap();
    let xs: Vec<f32> = (0..gsize).map(|i| i as f32 * 0.25 - 3.0).collect();
    let x = dev.upload(BufData::from(xs));
    let out = dev.upload(BufData::from(vec![0.0f32; gsize]));
    let stats = dev
        .launch(&prep, &[Arg::Buf(x), Arg::Buf(out), Arg::Val(Value::I32(n))], &[gsize], mode)
        .unwrap();
    (dev.read(out), stats)
}

/// A partial final warp (45 items over 2 warps: 32 + 13) with the guard
/// diverging inside the last warp and the diamond diverging in every warp:
/// the compiled leg must stay on its own backend, report every divergent
/// warp, and produce bit-identical buffers and counters.
#[test]
fn partial_final_warp_and_divergence_bit_identical() {
    let _guard = TELEMETRY.lock().unwrap();
    let (tree, tstats) = run_guard_diamond(Engine::Tree, 45, 64, ExecMode::Fast);
    let (comp, cstats) = run_guard_diamond(Engine::Compiled, 45, 64, ExecMode::Fast);
    assert_eq!(comp, tree, "compiled buffers must match the tree oracle");
    assert_eq!(cstats.counters, tstats.counters);
    assert_eq!(cstats.backend, Backend::Compiled, "must not fall back");
    // Both warps diverge (warp 0 at the diamond, warp 1 at guard and
    // diamond) — the count the retired warp-vectorized engine reported.
    assert_eq!(cstats.divergent_warps, 2);
}

/// The differential engine cross-checks every leg internally: in Fast
/// mode tree, tape and compiled on a partial-warp divergent launch; in
/// Model mode (counters + warp transaction bytes) tree and tape, the
/// executor modeled launches run on.
#[test]
fn differential_covers_compiled_leg_and_model_mode() {
    let _guard = TELEMETRY.lock().unwrap();
    let (_, stats) = run_guard_diamond(Engine::Differential, 45, 64, ExecMode::Fast);
    assert_eq!(stats.backend, Backend::Compiled);
    assert_eq!(stats.divergent_warps, 2);
    let (_, stats) =
        run_guard_diamond(Engine::Differential, 45, 64, ExecMode::Model { sample_stride: 1 });
    assert_eq!(stats.backend, Backend::Tape);
    assert!(stats.transaction_bytes.is_some());
}

/// `gid % m == r` as a kernel condition.
fn gid_mod_is(m: i32, r: i32) -> KExpr {
    KExpr::bin(BinOp::Eq, KExpr::bin(BinOp::Rem, gid(), KExpr::int(m)), KExpr::int(r))
}

fn out_at() -> MemRef {
    MemRef::Param(1)
}

fn x_ld() -> KExpr {
    KExpr::load(MemRef::Param(0), gid())
}

fn out_ld() -> KExpr {
    KExpr::load(out_at(), gid())
}

fn store_out(value: KExpr) -> KStmt {
    KStmt::Store { mem: out_at(), idx: gid(), value }
}

fn f(v: f32) -> KExpr {
    KExpr::Lit(Lit::f32(v))
}

/// A kernel over `(x, out)` with the given body.
fn shape_kernel(name: &str, body: Vec<KStmt>) -> Kernel {
    Kernel {
        name: name.into(),
        params: vec![
            KernelParam::global_buf("x", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
        ],
        body,
        work_dim: 1,
    }
}

/// A diamond whose then-arm holds a nested diamond and continues past its
/// join — the multi-block arm shape of the LIFT-generated naive FI kernel.
///
/// ```text
/// if (gid % 2 == 0) {
///     if (gid % 4 == 0) out[gid] = x[gid] * 2; else out[gid] = x[gid] + 1;
///     out[gid] = out[gid] + 0.5;
/// } else {
///     out[gid] = x[gid] - 3;
/// }
/// ```
fn nested_diamond_kernel() -> Kernel {
    shape_kernel(
        "ce_nested_diamond",
        vec![KStmt::If {
            cond: gid_mod_is(2, 0),
            then_: vec![
                KStmt::If {
                    cond: gid_mod_is(4, 0),
                    then_: vec![store_out(x_ld() * f(2.0))],
                    else_: vec![store_out(x_ld() + f(1.0))],
                },
                store_out(out_ld() + f(0.5)),
            ],
            else_: vec![store_out(x_ld() - f(3.0))],
        }],
    )
}

/// A loop whose trip count differs per lane.
///
/// ```text
/// float acc = 0;
/// for (int i = 0; i < gid % 7; i++) acc = acc + x[gid] * (float)i;
/// out[gid] = acc;
/// ```
fn divergent_loop_kernel() -> Kernel {
    shape_kernel(
        "ce_divergent_loop",
        vec![
            KStmt::DeclScalar { name: "acc".into(), kind: ScalarKind::F32, init: Some(f(0.0)) },
            KStmt::For {
                var: "i".into(),
                begin: KExpr::int(0),
                end: KExpr::bin(BinOp::Rem, gid(), KExpr::int(7)),
                step: KExpr::int(1),
                body: vec![KStmt::Assign {
                    name: "acc".into(),
                    value: KExpr::var("acc")
                        + x_ld() * KExpr::Cast(ScalarKind::F32, Box::new(KExpr::var("i"))),
                }],
            },
            store_out(KExpr::var("acc")),
        ],
    )
}

/// A `return` inside a nested arm: the returning lanes leave the warp
/// while their siblings continue past both joins.
///
/// ```text
/// if (gid % 2 == 0) {
///     if (gid % 3 == 0) return;
///     out[gid] = x[gid] * 2;
/// }
/// out[gid] = out[gid] + 1;
/// ```
fn nested_return_kernel() -> Kernel {
    shape_kernel(
        "ce_nested_return",
        vec![
            KStmt::If {
                cond: gid_mod_is(2, 0),
                then_: vec![KStmt::return_if(gid_mod_is(3, 0)), store_out(x_ld() * f(2.0))],
                else_: vec![],
            },
            store_out(out_ld() + f(1.0)),
        ],
    )
}

/// `levels` nested divergent `if`s: level `k` admits the lanes with
/// `gid % 32 >= k`, so every level splits the warp again and a 32-lane warp
/// has 31 regions open at once at the innermost level.
///
/// ```text
/// if (gid % 32 >= 1) { out[gid] += 1; if (gid % 32 >= 2) { ... } out[gid] *= 1.5; }
/// ```
fn deep_nest_kernel(levels: i32) -> Kernel {
    let lane = || KExpr::bin(BinOp::Rem, gid(), KExpr::int(32));
    let mut body: Vec<KStmt> = Vec::new();
    for k in (1..=levels).rev() {
        let mut then_ = vec![store_out(out_ld() + f(1.0))];
        then_.append(&mut body);
        then_.push(store_out(out_ld() * f(1.5)));
        body = vec![KStmt::If {
            cond: KExpr::bin(BinOp::Ge, lane(), KExpr::int(k)),
            then_,
            else_: vec![],
        }];
    }
    body.push(store_out(out_ld() + x_ld()));
    shape_kernel("ce_deep_nest", body)
}

/// Runs a `(x, out)` shape kernel over `gsize` items under `engine` in Fast
/// mode; returns the output buffer and the launch stats.
fn run_shape(k: &Kernel, gsize: usize, engine: Engine) -> (BufData, vgpu::LaunchStats) {
    let mut dev = Device::gtx780();
    dev.set_engine(engine);
    let prep = dev.compile(k).unwrap();
    let xs: Vec<f32> = (0..gsize).map(|i| i as f32 * 0.375 - 5.0).collect();
    let x = dev.upload(BufData::from(xs));
    let out = dev.upload(BufData::from(vec![0.0f32; gsize]));
    let stats = dev.launch(&prep, &[Arg::Buf(x), Arg::Buf(out)], &[gsize], ExecMode::Fast).unwrap();
    (dev.read(out), stats)
}

/// Compiled vs tree on one shape over 70 items (two full warps and a
/// 6-lane partial one): bit-identical buffers, equal counters, no
/// fallback, and `divergent_warps` equal to what the retired
/// warp-vectorized engine reported for the same launch (3: every warp
/// splits). The differential engine must agree too.
fn assert_reconverges(k: &Kernel) {
    let (tree, tstats) = run_shape(k, 70, Engine::Tree);
    let (comp, cstats) = run_shape(k, 70, Engine::Compiled);
    assert_eq!(comp, tree, "{}: compiled buffers must match the tree oracle", k.name);
    assert_eq!(cstats.counters, tstats.counters, "{}", k.name);
    assert_eq!(cstats.backend, Backend::Compiled, "{}: must not fall back", k.name);
    assert_eq!(cstats.divergent_warps, 3, "{}", k.name);
    let (diff, dstats) = run_shape(k, 70, Engine::Differential);
    assert_eq!(diff, tree, "{}", k.name);
    assert_eq!(dstats.divergent_warps, 3, "{}", k.name);
}

#[test]
fn nested_diamond_reconverges_in_place() {
    let _guard = TELEMETRY.lock().unwrap();
    assert_reconverges(&nested_diamond_kernel());
}

#[test]
fn divergent_loop_trip_counts_reconverge_in_place() {
    let _guard = TELEMETRY.lock().unwrap();
    assert_reconverges(&divergent_loop_kernel());
}

#[test]
fn return_inside_nested_arm_drops_lanes() {
    let _guard = TELEMETRY.lock().unwrap();
    assert_reconverges(&nested_return_kernel());
}

/// 31 nested divergent levels — the deepest a 32-lane warp can split: each
/// level peels one lane off, and every lane reconverges at each enclosing
/// join.
#[test]
fn thirty_one_nested_levels_reconverge_in_place() {
    let _guard = TELEMETRY.lock().unwrap();
    assert_reconverges(&deep_nest_kernel(31));
}

/// Lane-dependent private indexing: each lane fills a private array in a
/// loop, then reads it back at a lane-dependent index.
///
/// ```text
/// int t[4];
/// for (int i = 0; i < 4; i++) t[i] = gid * 4 + i;
/// out[gid] = t[gid % 4];
/// ```
#[test]
fn lane_dependent_private_indexing_matches_tree() {
    let k = Kernel {
        name: "ce_priv_idx".into(),
        params: vec![KernelParam::global_buf("out", ScalarKind::I32)],
        body: vec![
            KStmt::DeclPrivArray { name: "t".into(), kind: ScalarKind::I32, len: KExpr::int(4) },
            KStmt::For {
                var: "i".into(),
                begin: KExpr::int(0),
                end: KExpr::int(4),
                step: KExpr::int(1),
                body: vec![KStmt::Store {
                    mem: MemRef::Priv("t".into()),
                    idx: KExpr::var("i"),
                    value: gid() * KExpr::int(4) + KExpr::var("i"),
                }],
            },
            KStmt::Store {
                mem: MemRef::Param(0),
                idx: gid(),
                value: KExpr::load(
                    MemRef::Priv("t".into()),
                    KExpr::bin(BinOp::Rem, gid(), KExpr::int(4)),
                ),
            },
        ],
        work_dim: 1,
    };
    let run = |engine: Engine| {
        let mut dev = Device::gtx780();
        dev.set_engine(engine);
        let prep = dev.compile(&k).unwrap();
        let out = dev.upload(BufData::from(vec![0i32; 50]));
        let stats = dev.launch(&prep, &[Arg::Buf(out)], &[50], ExecMode::Fast).unwrap();
        (dev.read(out), stats)
    };
    let (tree, _) = run(Engine::Tree);
    let (comp, cstats) = run(Engine::Compiled);
    assert_eq!(comp, tree);
    assert_eq!(cstats.backend, Backend::Compiled, "must not fall back");
    let want: Vec<f64> = (0..50).map(|g| (g * 4 + g % 4) as f64).collect();
    assert_eq!(comp.to_f64_vec(), want);
}

/// A data-dependent gather (`out[gid] = x[t[gid]]`) has no static proof —
/// the table's *values* are unknown to the verifier — so its site must stay
/// on the checked path (`vgpu.compiled.sites_checked` grows) while results
/// stay bit-identical to the tree oracle.
#[test]
fn potential_site_keeps_dynamic_check() {
    let _guard = TELEMETRY.lock().unwrap();
    let k = Kernel {
        name: "ce_gather".into(),
        params: vec![
            KernelParam::global_buf("t", ScalarKind::I32),
            KernelParam::global_buf("x", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
        ],
        body: vec![KStmt::Store {
            mem: MemRef::Param(2),
            idx: gid(),
            value: KExpr::load(MemRef::Param(1), KExpr::load(MemRef::Param(0), gid())),
        }],
        work_dim: 1,
    };
    let reg = vgpu::telemetry::registry();
    let checked0 = reg.counter("vgpu.compiled.sites_checked").get();
    let run = |engine: Engine| {
        let mut dev = Device::gtx780();
        dev.set_engine(engine);
        let prep = dev.compile(&k).unwrap();
        let t = dev.upload(BufData::from((0..32).rev().collect::<Vec<i32>>()));
        let x = dev.upload(BufData::from((0..32).map(|i| i as f32 * 1.5).collect::<Vec<f32>>()));
        let out = dev.upload(BufData::from(vec![0.0f32; 32]));
        let stats = dev
            .launch(&prep, &[Arg::Buf(t), Arg::Buf(x), Arg::Buf(out)], &[32], ExecMode::Fast)
            .unwrap();
        (dev.read(out), stats)
    };
    let (tree, _) = run(Engine::Tree);
    let (comp, cstats) = run(Engine::Compiled);
    assert_eq!(comp, tree);
    assert_eq!(cstats.backend, Backend::Compiled);
    let checked = reg.counter("vgpu.compiled.sites_checked").get() - checked0;
    assert!(checked > 0, "the value-dependent gather site must stay checked");
}

/// Regression (divergence over-counting): a grouped (barrier) launch falls
/// back to the scalar tape, which has no warps — `vgpu.warp.divergent`
/// must not move, even though the kernel branches per item, while the
/// engine's own fallback counter records the rerouted launch.
#[test]
fn grouped_fallback_counts_no_warp_divergence() {
    let _guard = TELEMETRY.lock().unwrap();
    let even = KExpr::bin(BinOp::Eq, KExpr::bin(BinOp::Rem, gid(), KExpr::int(2)), KExpr::int(0));
    let ld = || KExpr::load(MemRef::Param(0), gid());
    let k = Kernel {
        name: "ce_grouped_div".into(),
        params: vec![KernelParam::global_buf("out", ScalarKind::I32)],
        body: vec![
            KStmt::Store { mem: MemRef::Param(0), idx: gid(), value: KExpr::LocalId(0) },
            KStmt::Barrier,
            KStmt::If {
                cond: even,
                then_: vec![KStmt::Store {
                    mem: MemRef::Param(0),
                    idx: gid(),
                    value: ld() * KExpr::int(2),
                }],
                else_: vec![KStmt::Store {
                    mem: MemRef::Param(0),
                    idx: gid(),
                    value: ld() + KExpr::int(1),
                }],
            },
        ],
        work_dim: 1,
    };
    let reg = vgpu::telemetry::registry();
    let divergent0 = reg.counter("vgpu.warp.divergent").get();
    let fallbacks0 = reg.counter("vgpu.compiled.fallbacks").get();
    let mut dev = Device::gtx780();
    dev.set_engine(Engine::Compiled);
    let prep = dev.compile(&k).unwrap();
    let out = dev.upload(BufData::from(vec![0i32; 64]));
    let stats = dev.launch_wg(&prep, &[Arg::Buf(out)], &[64], Some(32), ExecMode::Fast).unwrap();
    assert_eq!(stats.backend, Backend::Tape, "grouped launches run the scalar tape");
    assert_eq!(stats.divergent_warps, 0, "the scalar tape has no warps");
    let want: Vec<f64> =
        (0..64).map(|g| if g % 2 == 0 { (g % 32) * 2 } else { g % 32 + 1 } as f64).collect();
    assert_eq!(dev.read(out).to_f64_vec(), want);
    assert_eq!(
        reg.counter("vgpu.warp.divergent").get() - divergent0,
        0,
        "scalar-tape fallback must not count warp divergence"
    );
    assert_eq!(
        reg.counter("vgpu.compiled.fallbacks").get() - fallbacks0,
        1,
        "the fallback itself is audited once per launch"
    );
}

/// Regression (proof-cache double count): devices that miss the proof
/// cache for one shape at the same time must count that shape's sites
/// once. Four threads, released together, launch one freshly compiled
/// kernel at one shape; `vgpu.compiled.sites_{proven,checked}` together
/// move by exactly the kernel's site count (one load, one store).
#[test]
fn concurrent_proof_cache_misses_count_sites_once() {
    let _guard = TELEMETRY.lock().unwrap();
    let k = Kernel {
        name: "ce_concurrent_miss".into(),
        params: vec![
            KernelParam::global_buf("x", ScalarKind::F32),
            KernelParam::global_buf("out", ScalarKind::F32),
        ],
        body: vec![KStmt::Store {
            mem: MemRef::Param(1),
            idx: gid(),
            value: KExpr::load(MemRef::Param(0), gid()) * KExpr::Lit(Lit::f32(2.0)),
        }],
        work_dim: 1,
    };
    let prep = Device::gtx780().compile(&k).unwrap();
    let reg = vgpu::telemetry::registry();
    let sites = || {
        reg.counter("vgpu.compiled.sites_proven").get()
            + reg.counter("vgpu.compiled.sites_checked").get()
    };
    let before = sites();
    let threads = 4;
    let start = std::sync::Barrier::new(threads);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut dev = Device::gtx780();
                dev.set_engine(Engine::Compiled);
                let x = dev.upload(BufData::from(vec![1.5f32; 64]));
                let out = dev.upload(BufData::from(vec![0.0f32; 64]));
                start.wait();
                let stats = dev
                    .launch(&prep, &[Arg::Buf(x), Arg::Buf(out)], &[64], ExecMode::Fast)
                    .unwrap();
                assert_eq!(stats.backend, Backend::Compiled);
                assert_eq!(dev.read(out).to_f64_vec(), vec![3.0; 64]);
            });
        }
    });
    assert_eq!(sites() - before, 2, "one shape, two sites, counted once");
}
