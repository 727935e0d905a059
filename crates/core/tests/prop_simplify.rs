//! Property tests for the post-lowering simplifier (`lift::simplify`):
//! for random sizes ≥ 1 and in-range work-item ids, a simplified kernel
//! must compute every scalar to the same `i32` value (with wrapping) and
//! the same truth value as the original, take the same early returns, and
//! perform the same loads at the same indices in the same order — also
//! after `Kernel::shift_gid`, the slab placement the sharded host program
//! applies to an already simplified kernel.
//!
//! Generated trees keep every intermediate value far inside `i32` (sizes
//! ≤ 4, products only by a leaf), so wrapping never occurs and the exact
//! integer reasoning of comparison folding applies; reassociation itself
//! is exact under wrapping anyway.

use lift::kast::{KExpr, KStmt, Kernel, KernelParam, MemRef};
use lift::scalar::{eval_bin, eval_intrinsic, BinOp, Intrinsic, Lit, UnOp, Value};
use lift::simplify::simplify_kernel;
use lift::types::ScalarKind;
use proptest::prelude::*;
use std::collections::BTreeMap;

const SIZES: [&str; 3] = ["Nx", "Ny", "Nz"];

/// A random integer tree.
#[derive(Debug, Clone)]
enum I {
    Cst(i32),
    Gid(u8),
    Size(u8),
    /// A previously declared integer scalar (`r0`).
    Local,
    Add(Box<I>, Box<I>),
    Sub(Box<I>, Box<I>),
    /// Product with a leaf (as index arithmetic scales by sizes), which
    /// keeps values bounded.
    MulLeaf(Box<I>, Box<I>),
    Neg(Box<I>),
    Div(Box<I>, i32),
    Rem(Box<I>, i32),
    Min(Box<I>, Box<I>),
    Max(Box<I>, Box<I>),
    /// A load from the integer table `a` (a site that must survive).
    Load(Box<I>),
}

/// A random condition.
#[derive(Debug, Clone)]
enum B {
    Cmp(BinOp, I, I),
    Or(Box<B>, Box<B>),
    And(Box<B>, Box<B>),
    Not(Box<B>),
}

fn int(v: i32) -> KExpr {
    KExpr::int(v)
}

impl I {
    fn build(&self) -> KExpr {
        match self {
            I::Cst(v) => int(*v),
            I::Gid(d) => KExpr::GlobalId(*d),
            I::Size(d) => KExpr::var(SIZES[*d as usize]),
            I::Local => KExpr::var("r0"),
            I::Add(a, b) => a.build() + b.build(),
            I::Sub(a, b) => a.build() - b.build(),
            I::MulLeaf(a, b) => a.build() * b.build(),
            I::Neg(a) => -a.build(),
            I::Div(a, c) => a.build() / int(*c),
            I::Rem(a, c) => KExpr::bin(BinOp::Rem, a.build(), int(*c)),
            I::Min(a, b) => KExpr::Call(Intrinsic::Min, vec![a.build(), b.build()]),
            I::Max(a, b) => KExpr::Call(Intrinsic::Max, vec![a.build(), b.build()]),
            I::Load(a) => KExpr::load(MemRef::Param(0), a.build()),
        }
    }
}

impl B {
    fn build(&self) -> KExpr {
        match self {
            B::Cmp(op, a, b) => KExpr::bin(*op, a.build(), b.build()),
            B::Or(a, b) => KExpr::bin(BinOp::Or, a.build(), b.build()),
            B::And(a, b) => KExpr::bin(BinOp::And, a.build(), b.build()),
            B::Not(a) => KExpr::Un(UnOp::Not, Box::new(a.build())),
        }
    }
}

fn leaf(locals: bool) -> BoxedStrategy<I> {
    let mut arms = vec![
        (-3i32..4).prop_map(I::Cst).boxed(),
        (0u8..3).prop_map(I::Gid).boxed(),
        (0u8..3).prop_map(I::Size).boxed(),
    ];
    if locals {
        arms.push(Just(I::Local).boxed());
    }
    proptest::strategy::Union::new(arms).boxed()
}

fn int_tree(locals: bool) -> BoxedStrategy<I> {
    let coeff = leaf(false);
    leaf(locals).prop_recursive(3, 16, 2, move |inner| {
        prop_oneof![
            inner.clone(),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| I::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| I::Sub(a.into(), b.into())),
            (inner.clone(), coeff.clone()).prop_map(|(a, b)| I::MulLeaf(a.into(), b.into())),
            inner.clone().prop_map(|a| I::Neg(a.into())),
            (inner.clone(), 1i32..4).prop_map(|(a, c)| I::Div(a.into(), c)),
            (inner.clone(), 1i32..4).prop_map(|(a, c)| I::Rem(a.into(), c)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| I::Min(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| I::Max(a.into(), b.into())),
            inner.prop_map(|a| I::Load(a.into())),
        ]
    })
}

const CMPS: [BinOp; 6] = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq, BinOp::Ne];

/// A leaf plus a small constant: the edge comparisons the facts decide
/// (or just fail to decide), such as `g < N − 1` against `g ≤ N − 1`.
fn near_leaf() -> BoxedStrategy<I> {
    (leaf(false), -2i32..3).prop_map(|(l, c)| I::Add(l.into(), I::Cst(c).into())).boxed()
}

fn cond_tree() -> BoxedStrategy<B> {
    let operand = prop_oneof![int_tree(true), near_leaf()].boxed();
    let cmp = (0usize..6, operand.clone(), operand).prop_map(|(op, a, b)| B::Cmp(CMPS[op], a, b));
    cmp.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            inner.clone(),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| B::Or(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| B::And(a.into(), b.into())),
            inner.prop_map(|a| B::Not(a.into())),
        ]
    })
}

/// `pad3(1)` read of `a` at stencil offset `o` from the work-item, written
/// the way view collapse writes it: window origin plus in-window offset,
/// guarded on both pad edges of every dimension, shifted back by the pad.
fn pad_read(o: [i32; 3]) -> KExpr {
    let g = |d: usize| KExpr::GlobalId(d as u8) + int(o[d] + 1);
    let n = |d: usize| KExpr::var(SIZES[d]);
    let outside = (0..3)
        .rev()
        .map(|d| {
            KExpr::bin(
                BinOp::Or,
                KExpr::bin(BinOp::Lt, g(d), int(1)),
                KExpr::bin(BinOp::Ge, g(d), int(1) + n(d)),
            )
        })
        .reduce(|a, b| KExpr::bin(BinOp::Or, a, b))
        .unwrap();
    let idx = (g(2) - int(1)) * (n(0) * n(1)) + (g(1) - int(1)) * n(0) + (g(0) - int(1));
    KExpr::select(outside, int(0), KExpr::load(MemRef::Param(0), idx))
}

fn decl(name: &str, kind: ScalarKind, init: KExpr) -> KStmt {
    KStmt::DeclScalar { name: name.into(), kind, init: Some(init) }
}

/// Guards, then `r0`, `r1`, a condition, a select, three pad reads and a
/// gather, in the shapes lowering emits.
fn kernel(r0: &I, r1: &I, c: &B, sel: (&B, &I, &I), pads: [[i32; 3]; 3], gather: &I) -> Kernel {
    let mut body: Vec<KStmt> = (0..3)
        .map(|d| {
            KStmt::return_if(KExpr::bin(
                BinOp::Ge,
                KExpr::GlobalId(d),
                KExpr::var(SIZES[d as usize]),
            ))
        })
        .collect();
    body.push(decl("r0", ScalarKind::I32, r0.build()));
    body.push(decl("r1", ScalarKind::I32, r1.build()));
    body.push(decl("c0", ScalarKind::Bool, c.build()));
    body.push(decl(
        "s0",
        ScalarKind::I32,
        KExpr::select(sel.0.build(), sel.1.build(), sel.2.build()),
    ));
    for (k, o) in pads.iter().enumerate() {
        body.push(decl(&format!("p{k}"), ScalarKind::I32, pad_read(*o)));
    }
    body.push(decl("g0", ScalarKind::I32, KExpr::load(MemRef::Param(0), gather.build())));
    let mut params = vec![KernelParam::global_buf("a", ScalarKind::I32)];
    params.extend(SIZES.iter().map(|s| KernelParam::scalar(*s, ScalarKind::I32)));
    Kernel { name: "prop".into(), params, body, work_dim: 3 }
}

/// What one work-item did: its declared scalars (`None` after an early
/// return) and the indices it loaded, in order.
#[derive(Debug, PartialEq)]
struct Trace {
    scalars: Option<BTreeMap<String, Value>>,
    loads: Vec<i32>,
}

/// A reference interpreter for the statements these kernels use, with the
/// device's operator semantics (`lift::scalar::eval_bin`: wrapping `i32`).
fn run(k: &Kernel, sizes: [i32; 3], gid: [i32; 3]) -> Trace {
    struct Ev {
        vars: BTreeMap<String, Value>,
        gid: [i32; 3],
        loads: Vec<i32>,
    }
    impl Ev {
        fn e(&mut self, e: &KExpr) -> Value {
            match e {
                KExpr::Lit(l) => l.to_value(ScalarKind::F32),
                KExpr::Var(n) => self.vars[n],
                KExpr::GlobalId(d) => Value::I32(self.gid[*d as usize]),
                KExpr::Load { idx, .. } => {
                    let i = self.e(idx).as_i64() as i32;
                    self.loads.push(i);
                    // Table contents: a small function of the index.
                    Value::I32(i.rem_euclid(7) - 3)
                }
                KExpr::Bin(op, a, b) => {
                    let (x, y) = (self.e(a), self.e(b));
                    eval_bin(*op, x, y)
                }
                KExpr::Un(UnOp::Neg, a) => Value::I32((self.e(a).as_i64() as i32).wrapping_neg()),
                KExpr::Un(UnOp::Not, a) => Value::Bool(!self.e(a).truthy()),
                KExpr::Select(c, t, f) => {
                    if self.e(c).truthy() {
                        self.e(t)
                    } else {
                        self.e(f)
                    }
                }
                KExpr::Call(i, args) => {
                    let vals: Vec<Value> = args.iter().map(|a| self.e(a)).collect();
                    eval_intrinsic(*i, &vals)
                }
                KExpr::Cast(kind, a) => self.e(a).cast(*kind),
                other => panic!("unexpected expression {other:?}"),
            }
        }
    }
    let mut ev = Ev { vars: BTreeMap::new(), gid, loads: Vec::new() };
    for (s, v) in SIZES.iter().zip(sizes) {
        ev.vars.insert(s.to_string(), Value::I32(v));
    }
    for st in &k.body {
        match st {
            KStmt::If { cond, then_, .. } if then_ == &[KStmt::Return] => {
                if ev.e(cond).truthy() {
                    return Trace { scalars: None, loads: ev.loads };
                }
            }
            KStmt::DeclScalar { name, kind, init: Some(init) } => {
                let v = ev.e(init).cast(*kind);
                ev.vars.insert(name.clone(), v);
            }
            other => panic!("unexpected statement {other:?}"),
        }
    }
    // Compare only the original kernel's names (the simplified one adds
    // its bound base index).
    ev.vars.retain(|n, _| !n.starts_with("base") && !SIZES.contains(&n.as_str()));
    Trace { scalars: Some(ev.vars), loads: ev.loads }
}

fn stencil() -> impl Strategy<Value = [i32; 3]> {
    (-1i32..2, -1i32..2, -1i32..2).prop_map(|(x, y, z)| [x, y, z])
}

/// The buffers of a kernel's access sites in the interpreter's numbering
/// order (a load after its index, a select's operands left to right).
fn sites(k: &Kernel) -> Vec<MemRef> {
    fn go(e: &KExpr, out: &mut Vec<MemRef>) {
        match e {
            KExpr::Load { mem, idx } => {
                go(idx, out);
                out.push(mem.clone());
            }
            KExpr::Bin(_, a, b) => {
                go(a, out);
                go(b, out);
            }
            KExpr::Un(_, a) | KExpr::Cast(_, a) => go(a, out),
            KExpr::Select(c, t, f) => [c, t, f].into_iter().for_each(|x| go(x, out)),
            KExpr::Call(_, args) => args.iter().for_each(|a| go(a, out)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    for st in &k.body {
        match st {
            KStmt::If { cond: e, .. } | KStmt::DeclScalar { init: Some(e), .. } => go(e, &mut out),
            _ => {}
        }
    }
    out
}

/// Every work-item of a small grid behaves identically under `a` and `b`,
/// and both have the same access sites.
fn same_behaviour(a: &Kernel, b: &Kernel, sizes: [i32; 3]) -> Result<(), String> {
    if sites(a) != sites(b) {
        return Err(format!("access sites differ: {:?} vs {:?}", sites(a), sites(b)));
    }
    for z in 0..sizes[2] {
        for y in 0..sizes[1] {
            for x in 0..sizes[0] {
                let (ta, tb) = (run(a, sizes, [x, y, z]), run(b, sizes, [x, y, z]));
                if ta != tb {
                    return Err(format!(
                        "item {:?} at sizes {sizes:?}: {ta:?} vs {tb:?}",
                        [x, y, z]
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Simplification preserves every value, truth value, early return and
    /// load of every in-range work-item.
    #[test]
    fn simplified_kernels_behave_identically(
        trees in (int_tree(false), int_tree(true), cond_tree(), int_tree(true)),
        sel in (cond_tree(), int_tree(true), int_tree(true)),
        pads in (stencil(), stencil(), stencil()),
        sizes in prop::array::uniform4(1i32..5),
    ) {
        let (r0, r1, c, gather) = trees;
        let k = kernel(&r0, &r1, &c, (&sel.0, &sel.1, &sel.2), [pads.0, pads.1, pads.2], &gather);
        let s = simplify_kernel(&k);
        let sizes = [sizes[0], sizes[1], sizes[2]];
        prop_assert!(same_behaviour(&k, &s, sizes).is_ok(), "{}", same_behaviour(&k, &s, sizes).unwrap_err());
    }

    /// Slab placement after simplification (`shift_gid(2, 1)`, as the
    /// sharded host program does) matches slab placement of the original.
    #[test]
    fn shift_gid_commutes_with_simplification(
        trees in (int_tree(false), int_tree(true), cond_tree(), int_tree(true)),
        pads in (stencil(), stencil(), stencil()),
        sizes in prop::array::uniform4(1i32..5),
    ) {
        let (r0, r1, c, gather) = trees;
        let k = kernel(&r0, &r1, &c, (&c, &r0, &r1), [pads.0, pads.1, pads.2], &gather);
        let shifted = k.shift_gid(2, 1, "_slab");
        let simplified_then_shifted = simplify_kernel(&k).shift_gid(2, 1, "_slab");
        // One halo plane above the owned planes, as the slab launch binds Nz.
        let sizes = [sizes[0], sizes[1], sizes[2] + 1];
        let r = same_behaviour(&shifted, &simplified_then_shifted, sizes);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

/// Cases worth keeping whatever the sampler draws.
mod pinned {
    use super::*;

    fn trace_all(k: &Kernel, sizes: [i32; 3]) {
        let s = simplify_kernel(k);
        same_behaviour(k, &s, sizes).unwrap();
    }

    /// Every pad edge on a 1×1×1 grid: all six guards fire for the one
    /// work-item, and the always-false centre guard folds away.
    #[test]
    fn single_cell_grid_takes_every_pad_edge() {
        let pads = [[-1, 0, 0], [1, 1, 1], [0, 0, 0]];
        let k = kernel(
            &I::Cst(0),
            &I::Local,
            &B::Cmp(BinOp::Lt, I::Gid(0), I::Cst(1)),
            (&B::Cmp(BinOp::Eq, I::Gid(2), I::Cst(0)), &I::Cst(1), &I::Cst(2)),
            pads,
            &I::Gid(0),
        );
        trace_all(&k, [1, 1, 1]);
        trace_all(&k, [3, 2, 1]);
    }

    /// `Eq`/`Ne` between a work-item id and its own bound: never equal
    /// past the guard, so both fold — but only past the guard.
    #[test]
    fn id_never_equals_its_bound_past_the_guard() {
        let eq = B::Cmp(BinOp::Eq, I::Gid(1), I::Size(1));
        let ne = B::Not(Box::new(B::Cmp(BinOp::Ne, I::Gid(1), I::Size(1))));
        let k = kernel(
            &I::Gid(1),
            &I::Local,
            &eq,
            (&ne, &I::Cst(1), &I::Load(Box::new(I::Gid(0)))),
            [[0; 3]; 3],
            &I::Gid(1),
        );
        trace_all(&k, [2, 3, 2]);
    }

    /// Negation and subtraction of loads never cancel: `-(a[x]) + a[x]`
    /// still performs both loads.
    #[test]
    fn loads_in_integer_trees_survive() {
        let ld = || I::Load(Box::new(I::Gid(0)));
        let r0 = I::Add(Box::new(I::Neg(Box::new(ld()))), Box::new(ld()));
        let k = kernel(
            &r0,
            &I::Local,
            &B::Cmp(BinOp::Ge, ld(), ld()),
            (&B::Cmp(BinOp::Lt, I::Gid(0), I::Cst(0)), &I::Cst(0), &ld()),
            [[1, 0, -1]; 3],
            &ld(),
        );
        trace_all(&k, [4, 1, 1]);
    }

    /// Every comparison between a work-item id and the edges of its
    /// range (`0`, `1`, `N − 2`, `N − 1`, `N`), where deciding a comparison
    /// off by one would show.
    #[test]
    fn comparisons_at_the_edges_of_the_facts() {
        let n1 = |c: i32| I::Add(I::Size(0).into(), I::Cst(c).into());
        let edges = [I::Cst(0), I::Cst(1), n1(-2), n1(-1), n1(0)];
        for op in CMPS {
            for e in &edges {
                for c in [B::Cmp(op, I::Gid(0), e.clone()), B::Cmp(op, e.clone(), I::Gid(0))] {
                    let k = kernel(
                        &I::Cst(0),
                        &I::Cst(0),
                        &c,
                        (&c, &I::Cst(1), &I::Cst(2)),
                        [[0; 3]; 3],
                        &I::Cst(0),
                    );
                    for nx in 1..5 {
                        trace_all(&k, [nx, 1, 1]);
                    }
                }
            }
        }
    }

    /// A select whose condition folds keeps a loading arm it does not
    /// take: dropping it would renumber every later access site.
    #[test]
    fn folded_select_keeps_an_untaken_loading_arm() {
        let always = B::Cmp(BinOp::Ge, I::Gid(0), I::Cst(0));
        let ld = I::Load(Box::new(I::Gid(0)));
        let k = kernel(
            &I::Cst(0),
            &I::Cst(0),
            &always,
            (&always, &I::Cst(1), &ld),
            [[0; 3]; 3],
            &I::Cst(0),
        );
        trace_all(&k, [2, 1, 1]);
    }

    /// A right-edge guard mixes a literal into the size side:
    /// `(g + 2) >= (1 + N)` is `g >= N − 1`, and must still fire on the
    /// last item only.
    #[test]
    fn right_edge_guard_fires_on_last_item_only() {
        let k = kernel(
            &I::Cst(0),
            &I::Cst(0),
            &B::Cmp(BinOp::Ge, I::Gid(0), I::Size(0)),
            (&B::Cmp(BinOp::Ge, I::Gid(0), I::Size(0)), &I::Cst(0), &I::Cst(0)),
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            &I::Cst(0),
        );
        trace_all(&k, [5, 4, 3]);
        let s = simplify_kernel(&k);
        let lit = |v: f64| KExpr::Lit(Lit { value: v, kind: ScalarKind::Bool });
        // The declared `c0 = g0 >= Nx` is always false past the guard.
        assert!(s.body.iter().any(|st| matches!(st,
            KStmt::DeclScalar { name, init: Some(e), .. } if name == "c0" && *e == lit(0.0))));
    }
}
