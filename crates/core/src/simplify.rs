//! Range-aware simplification of lowered kernels: the post-lowering pass
//! of [`crate::lower`].
//!
//! View collapse ([`crate::view`]) writes each access the way the view
//! chain composes it. A 3-D constant pad wraps every stencil load in the
//! full guard `(z+1) < 1 || (z+1) >= 1+Nz || …` and indexes it at
//! `((z+1)-1)*(Nx*Ny) + …`, so a generated stencil kernel executes several
//! times the integer work of its hand-written twin. LIFT removes such code
//! by simplifying index arithmetic with the value ranges of the work-item
//! ids (Steuwer et al., "Patterns and Rewrite Rules"). This pass does the
//! same, in three steps over every expression of the kernel:
//!
//! 1. **Normalise** integer `+`/`-`/`*` trees through [`ArithExpr`]:
//!    `(g + 1) - 1` becomes `g`. These operations reassociate exactly in
//!    wrapping `i32`, so values do not change. `/`, `%` and every other
//!    operator stay opaque leaves, and float expressions are never
//!    restructured. A normal form replaces a tree only when it has fewer
//!    operators.
//! 2. **Fold** the integer comparisons that interval analysis decides for
//!    every work-item reaching them, then the `||`, `&&`, `!` and `?:`
//!    around them: a pad guard keeps one comparison per real edge, and a
//!    select whose condition folds becomes its taken arm.
//! 3. **Bind** each compound base index (the work-item-dependent part of
//!    an access index) that several accesses share to one scalar declared
//!    after the kernel's early-return guards, and write each of those
//!    accesses as `base ± offset`, as hand-written stencils do.
//!
//! The facts used hold for every launch: `get_global_id(d) ≥ 0`, and after
//! a top-level `if (get_global_id(d) >= N) return;`, `get_global_id(d) ≤
//! N − 1` and `N ≥ 1`. Comparison folding, like [`crate::verify`], treats
//! index arithmetic as exact integers (no `i32` wrap-around). No rewrite
//! drops, duplicates or reorders a load or store, so access-site numbering,
//! buffers and counters are those of the unsimplified kernel. Because the
//! facts hold for any launch, [`Kernel::shift_gid`] with a non-negative
//! offset stays exact on a simplified kernel.

use crate::arith::{expand, ArithExpr, RangeEnv, SymRange};
use crate::kast::{KExpr, KStmt, Kernel, MemRef};
use crate::scalar::{BinOp, Intrinsic, Lit, UnOp};
use crate::types::ScalarKind;
use crate::verify::{apply_rel, gid_atom};
use std::collections::{BTreeMap, HashMap};

/// Name prefix of opaque leaves: sub-expressions a normalised integer tree
/// keeps verbatim (`%` never starts a kernel identifier).
const LEAF: &str = "%leaf";

/// Simplifies every integer index and guard expression of `kernel` (see
/// the module docs). The result computes the same values, performs the
/// same loads and stores in the same order, and never has more operators.
pub fn simplify_kernel(kernel: &Kernel) -> Kernel {
    let mut s = Simplifier::new(kernel);
    let guards = guard_prefix(&kernel.body);
    let mut body = Vec::with_capacity(kernel.body.len() + 1);
    for (i, st) in kernel.body.iter().enumerate() {
        if i == guards {
            body.extend(s.bind_bases(&kernel.body[guards..]));
        }
        body.push(s.stmt(st));
        if let Some(cond) = return_guard(st) {
            s.assume_false(cond);
        }
    }
    Kernel { body, ..kernel.clone() }
}

/// Integer operator nodes in `kernel`: integer `+ - * / %` and negation,
/// comparisons of integers, and the logical operators. The measure the
/// generated-vs-hand-written structure tests compare.
pub fn int_op_count(kernel: &Kernel) -> usize {
    let s = Simplifier::new(kernel);
    let mut n = 0;
    visit_exprs(&kernel.body, &mut |e| {
        n += match e {
            KExpr::Bin(op, a, b) if is_cmp(*op) => usize::from(s.is_int(a) && s.is_int(b)),
            KExpr::Bin(BinOp::And | BinOp::Or, _, _) | KExpr::Un(UnOp::Not, _) => 1,
            KExpr::Bin(_, _, _) | KExpr::Un(UnOp::Neg, _) => usize::from(s.is_int(e)),
            _ => 0,
        }
    });
    n
}

/// `cond` of a top-level `if (cond) return;`.
fn return_guard(s: &KStmt) -> Option<&KExpr> {
    match s {
        KStmt::If { cond, then_, else_ }
            if matches!(then_.as_slice(), [KStmt::Return]) && else_.is_empty() =>
        {
            Some(cond)
        }
        _ => None,
    }
}

/// Length of the leading run of early-return guards (and comments).
fn guard_prefix(body: &[KStmt]) -> usize {
    body.iter().take_while(|s| return_guard(s).is_some() || matches!(s, KStmt::Comment(_))).count()
}

fn is_cmp(op: BinOp) -> bool {
    matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
}

/// The comparison that holds with its operands swapped.
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// C's usual arithmetic conversions over resolved kinds (`None` for an
/// unresolved `Real`).
fn promote(a: ScalarKind, b: ScalarKind) -> Option<ScalarKind> {
    use ScalarKind::*;
    match (a, b) {
        (F64, _) | (_, F64) => Some(F64),
        (F32, _) | (_, F32) => Some(F32),
        (I32 | Bool, I32 | Bool) => Some(I32),
        _ => None,
    }
}

fn bool_lit(v: bool) -> KExpr {
    KExpr::Lit(Lit { value: if v { 1.0 } else { 0.0 }, kind: ScalarKind::Bool })
}

fn as_bool(e: &KExpr) -> Option<bool> {
    match e {
        KExpr::Lit(l) if l.kind == ScalarKind::Bool => Some(l.value != 0.0),
        _ => None,
    }
}

/// True when `e` contains a load (an access site that must survive).
fn has_load(e: &KExpr) -> bool {
    match e {
        KExpr::Load { .. } => true,
        KExpr::Bin(_, a, b) => has_load(a) || has_load(b),
        KExpr::Un(_, a) | KExpr::Cast(_, a) => has_load(a),
        KExpr::Select(c, t, f) => has_load(c) || has_load(t) || has_load(f),
        KExpr::Call(_, args) => args.iter().any(has_load),
        _ => false,
    }
}

/// Operator nodes of `e` (binary and unary operators).
fn ops(e: &KExpr) -> usize {
    match e {
        KExpr::Bin(_, a, b) => 1 + ops(a) + ops(b),
        KExpr::Un(_, a) => 1 + ops(a),
        KExpr::Load { idx: a, .. } | KExpr::Cast(_, a) => ops(a),
        KExpr::Select(c, t, f) => ops(c) + ops(t) + ops(f),
        KExpr::Call(_, args) => args.iter().map(ops).sum(),
        _ => 0,
    }
}

/// Calls `f` on every expression node of `stmts`, outermost first.
fn visit_exprs(stmts: &[KStmt], f: &mut impl FnMut(&KExpr)) {
    fn go(e: &KExpr, f: &mut impl FnMut(&KExpr)) {
        f(e);
        match e {
            KExpr::Load { idx: a, .. } | KExpr::Un(_, a) | KExpr::Cast(_, a) => go(a, f),
            KExpr::Bin(_, a, b) => {
                go(a, f);
                go(b, f);
            }
            KExpr::Select(c, t, e2) => {
                go(c, f);
                go(t, f);
                go(e2, f);
            }
            KExpr::Call(_, args) => args.iter().for_each(|a| go(a, f)),
            _ => {}
        }
    }
    for s in stmts {
        match s {
            KStmt::DeclScalar { init: Some(e), .. } | KStmt::Assign { value: e, .. } => go(e, f),
            KStmt::DeclPrivArray { len, .. } | KStmt::DeclLocalArray { len, .. } => go(len, f),
            KStmt::Store { idx, value, .. } => {
                go(idx, f);
                go(value, f);
            }
            KStmt::For { begin, end, step, body, .. } => {
                go(begin, f);
                go(end, f);
                go(step, f);
                visit_exprs(body, f);
            }
            KStmt::If { cond, then_, else_ } => {
                go(cond, f);
                visit_exprs(then_, f);
                visit_exprs(else_, f);
            }
            _ => {}
        }
    }
}

/// Terms of a normalised sum (`0` has none).
fn terms(a: &ArithExpr) -> Vec<ArithExpr> {
    match a {
        ArithExpr::Sum(ts) => ts.to_vec(),
        ArithExpr::Cst(0) => Vec::new(),
        other => vec![other.clone()],
    }
}

/// Constant coefficient of a normalised term.
fn coeff(t: &ArithExpr) -> i64 {
    match t {
        ArithExpr::Cst(c) => *c,
        ArithExpr::Prod(fs) => match fs.last() {
            Some(ArithExpr::Cst(c)) => *c,
            _ => 1,
        },
        _ => 1,
    }
}

fn negate(t: &ArithExpr) -> ArithExpr {
    ArithExpr::mul(vec![t.clone(), ArithExpr::Cst(-1)])
}

fn mentions_gid(t: &ArithExpr) -> bool {
    t.free_vars().iter().any(|v| v.starts_with("%gid"))
}

/// Splits an index into its work-item-dependent base (the terms that
/// mention a work-item id) and the offset terms.
fn split_base(a: &ArithExpr) -> (ArithExpr, Vec<ArithExpr>) {
    let (base, offset): (Vec<ArithExpr>, Vec<ArithExpr>) =
        terms(a).into_iter().partition(mentions_gid);
    (ArithExpr::add(base), offset)
}

struct Simplifier<'k> {
    kernel: &'k Kernel,
    /// Kind of every scalar name (parameters, declarations, loop
    /// variables); `None` for a name declared with two kinds.
    scalars: BTreeMap<String, Option<ScalarKind>>,
    /// Element kind of private and local arrays.
    arrays: BTreeMap<String, ScalarKind>,
    /// Integer scalar parameters the body never assigns or redeclares: the
    /// only names besides work-item ids a hoisted base may mention.
    stable: Vec<String>,
    /// Facts in force at the statement being simplified.
    env: RangeEnv,
    /// Opaque leaves of normalised trees, named `%leaf<i>`.
    leaves: Vec<KExpr>,
    /// Bound base indices and the scalar holding each.
    bases: Vec<(ArithExpr, String)>,
    /// Comparisons already decided under the current facts (pad guards
    /// repeat the same edge tests across loads).
    decided: HashMap<(BinOp, ArithExpr), Option<bool>>,
}

impl<'k> Simplifier<'k> {
    fn new(kernel: &'k Kernel) -> Self {
        let mut scalars: BTreeMap<String, Option<ScalarKind>> = BTreeMap::new();
        let mut arrays = BTreeMap::new();
        let mut declare = |name: &str, kind: ScalarKind| {
            let e = scalars.entry(name.to_string()).or_insert(Some(kind));
            if *e != Some(kind) {
                *e = None;
            }
        };
        for p in kernel.params.iter().filter(|p| !p.is_buffer) {
            declare(&p.name, p.kind);
        }
        let mut assigned = Vec::new();
        fn decls(
            stmts: &[KStmt],
            declare: &mut impl FnMut(&str, ScalarKind),
            arrays: &mut BTreeMap<String, ScalarKind>,
            assigned: &mut Vec<String>,
        ) {
            for s in stmts {
                match s {
                    KStmt::DeclScalar { name, kind, .. } => {
                        declare(name, *kind);
                        assigned.push(name.clone());
                    }
                    KStmt::DeclPrivArray { name, kind, .. }
                    | KStmt::DeclLocalArray { name, kind, .. } => {
                        arrays.insert(name.clone(), *kind);
                    }
                    KStmt::Assign { name, .. } => assigned.push(name.clone()),
                    KStmt::For { var, body, .. } => {
                        declare(var, ScalarKind::I32);
                        assigned.push(var.clone());
                        decls(body, declare, arrays, assigned);
                    }
                    KStmt::If { then_, else_, .. } => {
                        decls(then_, declare, arrays, assigned);
                        decls(else_, declare, arrays, assigned);
                    }
                    _ => {}
                }
            }
        }
        decls(&kernel.body, &mut declare, &mut arrays, &mut assigned);
        let stable = kernel
            .params
            .iter()
            .filter(|p| !p.is_buffer && p.kind == ScalarKind::I32 && !assigned.contains(&p.name))
            .map(|p| p.name.clone())
            .collect();
        let mut env = RangeEnv::new();
        for d in 0..3 {
            env.set_range(gid_atom(d), SymRange::at_least(ArithExpr::zero()));
        }
        Simplifier {
            kernel,
            scalars,
            arrays,
            stable,
            env,
            leaves: Vec::new(),
            bases: Vec::new(),
            decided: HashMap::new(),
        }
    }

    fn kind(&self, e: &KExpr) -> Option<ScalarKind> {
        use ScalarKind::{Bool, I32};
        match e {
            KExpr::Lit(l) => Some(l.kind),
            KExpr::Var(n) => self.scalars.get(n).copied().flatten(),
            KExpr::GlobalId(_)
            | KExpr::GlobalSize(_)
            | KExpr::LocalId(_)
            | KExpr::LocalSize(_)
            | KExpr::GroupId(_) => Some(I32),
            KExpr::Load { mem: MemRef::Param(i), .. } => self.kernel.params.get(*i).map(|p| p.kind),
            KExpr::Load { mem: MemRef::Priv(n) | MemRef::Local(n), .. } => {
                self.arrays.get(n).copied()
            }
            KExpr::Bin(op, _, _) if is_cmp(*op) || matches!(op, BinOp::And | BinOp::Or) => {
                Some(Bool)
            }
            KExpr::Bin(_, a, b) => promote(self.kind(a)?, self.kind(b)?),
            KExpr::Un(UnOp::Neg, a) => self.kind(a),
            KExpr::Un(UnOp::Not, _) => Some(Bool),
            KExpr::Select(_, t, f) => match (self.kind(t)?, self.kind(f)?) {
                (x, y) if x == y => Some(x),
                (x, y) => promote(x, y),
            },
            KExpr::Call(Intrinsic::Min | Intrinsic::Max, args) => match &args[..] {
                [a, b] => promote(self.kind(a)?, self.kind(b)?),
                _ => None,
            },
            KExpr::Call(..) => None,
            KExpr::Cast(k, _) => Some(*k),
        }
    }

    fn is_int(&self, e: &KExpr) -> bool {
        self.kind(e) == Some(ScalarKind::I32)
    }

    // ---- integer trees <-> ArithExpr ----

    /// An integer tree as (its own shape, its normal form), with every
    /// sub-expression that is not an integer literal, variable, work-item
    /// id, `+`, `-`, `*` or negation simplified once and kept as an opaque
    /// leaf of both.
    fn int_tree(&mut self, e: &KExpr) -> (KExpr, ArithExpr) {
        match e {
            KExpr::Lit(l) if l.kind == ScalarKind::I32 => {
                (e.clone(), ArithExpr::Cst(l.value as i64))
            }
            KExpr::Var(n) if self.is_int(e) => (e.clone(), ArithExpr::var(n.as_str())),
            KExpr::GlobalId(d) => (e.clone(), ArithExpr::var(gid_atom(*d))),
            KExpr::Bin(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul), a, b)
                if self.is_int(a) && self.is_int(b) =>
            {
                let ((ka, x), (kb, y)) = (self.int_tree(a), self.int_tree(b));
                let normal = match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    _ => x * y,
                };
                (KExpr::bin(*op, ka, kb), normal)
            }
            KExpr::Un(UnOp::Neg, a) if self.is_int(a) => {
                let (ka, x) = self.int_tree(a);
                (KExpr::Un(UnOp::Neg, Box::new(ka)), ArithExpr::zero() - x)
            }
            _ => {
                let leaf = self.simp(e);
                self.leaves.push(leaf.clone());
                (leaf, ArithExpr::var(format!("{LEAF}{}", self.leaves.len() - 1)))
            }
        }
    }

    /// The normal form of an integer tree over work-item ids, literals and
    /// stable size parameters only (`None` otherwise). Creates no leaves.
    fn pure_arith(&self, e: &KExpr) -> Option<ArithExpr> {
        fn raw(s: &Simplifier, e: &KExpr) -> Option<ArithExpr> {
            Some(match e {
                KExpr::Lit(l) if l.kind == ScalarKind::I32 => ArithExpr::Cst(l.value as i64),
                KExpr::Var(n) if s.stable.contains(n) => ArithExpr::var(n.as_str()),
                KExpr::GlobalId(d) => ArithExpr::var(gid_atom(*d)),
                KExpr::Bin(BinOp::Add, a, b) => raw(s, a)? + raw(s, b)?,
                KExpr::Bin(BinOp::Sub, a, b) => raw(s, a)? - raw(s, b)?,
                KExpr::Bin(BinOp::Mul, a, b) => raw(s, a)? * raw(s, b)?,
                KExpr::Un(UnOp::Neg, a) => ArithExpr::zero() - raw(s, a)?,
                _ => return None,
            })
        }
        raw(self, e).map(|a| expand(&a))
    }

    fn atom(&self, name: &str) -> KExpr {
        if let Some(d) = name.strip_prefix("%gid") {
            KExpr::GlobalId(d.parse().expect("work-item id atom"))
        } else if let Some(i) = name.strip_prefix(LEAF) {
            self.leaves[i.parse::<usize>().expect("leaf atom")].clone()
        } else {
            KExpr::var(name)
        }
    }

    fn render(&self, a: &ArithExpr) -> KExpr {
        match a {
            ArithExpr::Cst(c) => KExpr::int(*c as i32),
            ArithExpr::Var(n) => self.atom(n),
            ArithExpr::Sum(ts) => self.render_sum(ts),
            ArithExpr::Prod(fs) => {
                fs.iter().map(|f| self.render(f)).reduce(|x, y| x * y).expect("non-empty product")
            }
            other => unreachable!("normalised integer trees keep `{other}` as a leaf"),
        }
    }

    /// Renders a sum with the positive terms first and every negative term
    /// subtracted, so `x + -1` prints as `x - 1`.
    fn render_sum(&self, ts: &[ArithExpr]) -> KExpr {
        let (pos, neg): (Vec<&ArithExpr>, Vec<&ArithExpr>) = ts.iter().partition(|t| coeff(t) > 0);
        let mut acc = pos.into_iter().map(|t| self.render(t)).reduce(|x, y| x + y);
        for t in neg {
            acc = Some(match acc {
                None => self.render(t),
                Some(x) => x - self.render(&negate(t)),
            });
        }
        acc.unwrap_or_else(|| KExpr::int(0))
    }

    // ---- facts ----

    /// Records what a work-item that passed `if (cond) return;` knows.
    fn assume_false(&mut self, cond: &KExpr) {
        match cond {
            KExpr::Bin(BinOp::Or, a, b) => {
                self.assume_false(a);
                self.assume_false(b);
            }
            KExpr::Bin(op, a, b) if is_cmp(*op) => {
                let (Some(x), Some(y)) = (self.pure_arith(a), self.pure_arith(b)) else { return };
                self.decided.clear();
                apply_rel(*op, false, &x, &y, &mut self.env);
                // 0 ≤ gid ≤ N − 1 for every item that gets past `gid >= N`.
                if let (BinOp::Ge, KExpr::GlobalId(_), ArithExpr::Var(n)) = (op, &**a, &y) {
                    self.env.set_range(n.to_string(), SymRange::at_least(ArithExpr::one()));
                }
            }
            _ => {}
        }
    }

    /// The truth value of `d OP 0` when the facts decide it.
    fn decide(&mut self, op: BinOp, d: &ArithExpr) -> Option<bool> {
        if let Some(v) = self.decided.get(&(op, d.clone())) {
            return *v;
        }
        let v = self.prove(op, d);
        self.decided.insert((op, d.clone()), v);
        v
    }

    fn prove(&self, op: BinOp, d: &ArithExpr) -> Option<bool> {
        let at_most = |k: i64| self.env.prove_le(d, &ArithExpr::Cst(k));
        let at_least = |k: i64| self.env.prove_le(&ArithExpr::Cst(k), d);
        let nonzero = || at_least(1) || at_most(-1);
        let zero = || *d == ArithExpr::zero();
        // (holds, fails), each tried only when needed.
        let (yes, no): (&dyn Fn() -> bool, &dyn Fn() -> bool) = match op {
            BinOp::Lt => (&|| at_most(-1), &|| at_least(0)),
            BinOp::Le => (&|| at_most(0), &|| at_least(1)),
            BinOp::Gt => (&|| at_least(1), &|| at_most(0)),
            BinOp::Ge => (&|| at_least(0), &|| at_most(-1)),
            BinOp::Eq => (&zero, &nonzero),
            BinOp::Ne => (&nonzero, &zero),
            _ => return None,
        };
        if yes() {
            Some(true)
        } else if no() {
            Some(false)
        } else {
            None
        }
    }

    // ---- base indices ----

    /// Chooses the compound base indices that several accesses in `rest`
    /// share, and returns their declarations.
    fn bind_bases(&mut self, rest: &[KStmt]) -> Vec<KStmt> {
        let mut seen: Vec<(ArithExpr, usize)> = Vec::new();
        visit_exprs(rest, &mut |e| {
            let KExpr::Load { idx, .. } = e else { return };
            self.count_base(idx, &mut seen);
        });
        fn stores(stmts: &[KStmt], f: &mut impl FnMut(&KExpr)) {
            for s in stmts {
                match s {
                    KStmt::Store { idx, .. } => f(idx),
                    KStmt::For { body, .. } => stores(body, f),
                    KStmt::If { then_, else_, .. } => {
                        stores(then_, f);
                        stores(else_, f);
                    }
                    _ => {}
                }
            }
        }
        stores(rest, &mut |idx| self.count_base(idx, &mut seen));
        let mut decls = Vec::new();
        for (base, uses) in seen {
            if uses < 2 {
                continue;
            }
            let name = self.fresh_name("base");
            decls.push(KStmt::DeclScalar {
                name: name.clone(),
                kind: ScalarKind::I32,
                init: Some(self.render(&base)),
            });
            self.scalars.insert(name.clone(), Some(ScalarKind::I32));
            self.bases.push((base, name));
        }
        decls
    }

    fn count_base(&self, idx: &KExpr, seen: &mut Vec<(ArithExpr, usize)>) {
        let Some(a) = self.pure_arith(idx) else { return };
        let (base, _) = split_base(&a);
        if matches!(base, ArithExpr::Var(_) | ArithExpr::Cst(_)) {
            return;
        }
        match seen.iter_mut().find(|(b, _)| same(b, &base)) {
            Some((_, n)) => *n += 1,
            None => seen.push((base, 1)),
        }
    }

    fn fresh_name(&self, stem: &str) -> String {
        let taken = |n: &str| {
            self.scalars.contains_key(n)
                || self.arrays.contains_key(n)
                || self.kernel.params.iter().any(|p| p.name == n)
        };
        (0..)
            .map(|i| if i == 0 { stem.to_string() } else { format!("{stem}_{i}") })
            .find(|n| !taken(n))
            .expect("unbounded name supply")
    }

    // ---- rewriting ----

    fn stmt(&mut self, s: &KStmt) -> KStmt {
        match s {
            KStmt::DeclScalar { name, kind, init } => KStmt::DeclScalar {
                name: name.clone(),
                kind: *kind,
                init: init.as_ref().map(|e| self.simp(e)),
            },
            KStmt::DeclPrivArray { name, kind, len } => {
                KStmt::DeclPrivArray { name: name.clone(), kind: *kind, len: self.simp(len) }
            }
            KStmt::DeclLocalArray { name, kind, len } => {
                KStmt::DeclLocalArray { name: name.clone(), kind: *kind, len: self.simp(len) }
            }
            KStmt::Assign { name, value } => {
                KStmt::Assign { name: name.clone(), value: self.simp(value) }
            }
            KStmt::Store { mem, idx, value } => {
                KStmt::Store { mem: mem.clone(), idx: self.index(idx), value: self.simp(value) }
            }
            KStmt::For { var, begin, end, step, body } => KStmt::For {
                var: var.clone(),
                begin: self.simp(begin),
                end: self.simp(end),
                step: self.simp(step),
                body: body.iter().map(|s| self.stmt(s)).collect(),
            },
            KStmt::If { cond, then_, else_ } => KStmt::If {
                cond: self.simp(cond),
                then_: then_.iter().map(|s| self.stmt(s)).collect(),
                else_: else_.iter().map(|s| self.stmt(s)).collect(),
            },
            KStmt::Barrier | KStmt::Return | KStmt::Comment(_) => s.clone(),
        }
    }

    /// An access index: `base ± offset` when its base is bound, otherwise
    /// the simplified expression.
    fn index(&mut self, idx: &KExpr) -> KExpr {
        if let Some(a) = self.pure_arith(idx) {
            let (base, offset) = split_base(&a);
            if let Some((_, name)) = self.bases.iter().find(|(b, _)| same(b, &base)) {
                let mut ts = vec![ArithExpr::var(name.as_str())];
                ts.extend(offset);
                return self.render_sum(&ts);
            }
        }
        self.simp(idx)
    }

    fn simp(&mut self, e: &KExpr) -> KExpr {
        match e {
            KExpr::Load { mem, idx } => KExpr::load(mem.clone(), self.index(idx)),
            KExpr::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul, _, _) | KExpr::Un(UnOp::Neg, _)
                if self.is_int(e) && !has_load(e) =>
            {
                let (kept, a) = self.int_tree(e);
                let normal = self.render(&expand(&a));
                if ops(&normal) < ops(&kept) {
                    normal
                } else {
                    kept
                }
            }
            KExpr::Bin(op, a, b)
                if is_cmp(*op) && self.is_int(a) && self.is_int(b) && !has_load(e) =>
            {
                self.compare(*op, a, b)
            }
            KExpr::Bin(op @ (BinOp::Or | BinOp::And), a, b) => {
                let (x, y) = (self.simp(a), self.simp(b));
                // `||` is absorbed by true and ignores false; `&&` dually.
                let absorbing = *op == BinOp::Or;
                let boolean = |e: &KExpr| self.kind(e) == Some(ScalarKind::Bool);
                match (as_bool(&x), as_bool(&y)) {
                    (Some(v), _) if v == absorbing && !has_load(&y) => bool_lit(v),
                    (_, Some(v)) if v == absorbing && !has_load(&x) => bool_lit(v),
                    (Some(v), _) if v != absorbing && boolean(&y) => y,
                    (_, Some(v)) if v != absorbing && boolean(&x) => x,
                    _ => KExpr::bin(*op, x, y),
                }
            }
            KExpr::Un(UnOp::Not, a) => {
                let x = self.simp(a);
                match as_bool(&x) {
                    Some(v) => bool_lit(!v),
                    None => KExpr::Un(UnOp::Not, Box::new(x)),
                }
            }
            KExpr::Select(c, t, f) => {
                let (c, t, f) = (self.simp(c), self.simp(t), self.simp(f));
                match as_bool(&c) {
                    Some(true) if !has_load(&f) => t,
                    Some(false) if !has_load(&t) => f,
                    _ => KExpr::select(c, t, f),
                }
            }
            _ => self.simp_children(e),
        }
    }

    fn simp_children(&mut self, e: &KExpr) -> KExpr {
        match e {
            KExpr::Load { mem, idx } => KExpr::load(mem.clone(), self.index(idx)),
            KExpr::Bin(op, a, b) => KExpr::bin(*op, self.simp(a), self.simp(b)),
            KExpr::Un(op, a) => KExpr::Un(*op, Box::new(self.simp(a))),
            KExpr::Select(c, t, f) => KExpr::select(self.simp(c), self.simp(t), self.simp(f)),
            KExpr::Call(i, args) => KExpr::Call(*i, args.iter().map(|a| self.simp(a)).collect()),
            KExpr::Cast(k, a) => KExpr::cast(*k, self.simp(a)),
            _ => e.clone(),
        }
    }

    /// An integer comparison: folded when the facts decide it, otherwise
    /// `per-item terms OP the rest` when that is shorter.
    fn compare(&mut self, op: BinOp, a: &KExpr, b: &KExpr) -> KExpr {
        let ((ka, x), (kb, y)) = (self.int_tree(a), self.int_tree(b));
        let kept = KExpr::bin(op, ka, kb);
        let d = expand(&(x - y));
        if let Some(v) = self.decide(op, &d) {
            return bool_lit(v);
        }
        let per_item = |t: &ArithExpr| t.free_vars().iter().any(|v| !self.stable.contains(v));
        let ts = terms(&d);
        let (mut lhs, mut rhs): (Vec<ArithExpr>, Vec<ArithExpr>) =
            ts.iter().cloned().partition(|t| per_item(t));
        if lhs.is_empty() {
            (lhs, rhs) = ts.into_iter().partition(|t| !t.is_const());
        }
        // `l + r OP 0` is `l OP −r`; an all-negative left side flips.
        let mut rhs: Vec<ArithExpr> = rhs.iter().map(negate).collect();
        let mut op = op;
        if !lhs.is_empty() && lhs.iter().all(|t| coeff(t) < 0) {
            lhs = lhs.iter().map(negate).collect();
            rhs = rhs.iter().map(negate).collect();
            op = flip(op);
        }
        let normal = KExpr::bin(op, self.render_sum(&lhs), self.render_sum(&rhs));
        if ops(&normal) < ops(&kept) {
            normal
        } else {
            kept
        }
    }
}

/// Two normalised expressions denote the same polynomial.
fn same(a: &ArithExpr, b: &ArithExpr) -> bool {
    expand(&(a.clone() - b.clone())) == ArithExpr::zero()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kast::KernelParam;

    fn gid(d: u8) -> KExpr {
        KExpr::GlobalId(d)
    }

    fn v(n: &str) -> KExpr {
        KExpr::var(n)
    }

    fn guarded(body: Vec<KStmt>) -> Kernel {
        let mut full = vec![KStmt::return_if(KExpr::bin(BinOp::Ge, gid(0), v("N")))];
        full.extend(body);
        Kernel {
            name: "t".into(),
            params: vec![
                KernelParam::global_buf("a", ScalarKind::F32),
                KernelParam::global_buf("out", ScalarKind::F32),
                KernelParam::scalar("N", ScalarKind::I32),
            ],
            body: full,
            work_dim: 1,
        }
    }

    fn store(idx: KExpr, value: KExpr) -> KStmt {
        KStmt::Store { mem: MemRef::Param(1), idx, value }
    }

    fn ld(idx: KExpr) -> KExpr {
        KExpr::load(MemRef::Param(0), idx)
    }

    #[test]
    fn cancels_pad_offsets() {
        let k = guarded(vec![store(gid(0), ld((gid(0) + KExpr::int(1)) - KExpr::int(1)))]);
        let s = simplify_kernel(&k);
        assert_eq!(s.body[1], store(gid(0), ld(gid(0))));
    }

    #[test]
    fn folds_decided_guards_and_keeps_real_edges() {
        // (g < 0 || g >= N) is false past the guard; g < 1 is a real edge.
        let outside = KExpr::bin(
            BinOp::Or,
            KExpr::bin(BinOp::Lt, gid(0), KExpr::int(0)),
            KExpr::bin(BinOp::Ge, gid(0), v("N")),
        );
        let edge =
            KExpr::bin(BinOp::Or, outside.clone(), KExpr::bin(BinOp::Lt, gid(0), KExpr::int(1)));
        let zero = || KExpr::Lit(Lit::f32(0.0));
        let k = guarded(vec![store(
            gid(0),
            KExpr::select(outside, zero(), ld(gid(0)))
                + KExpr::select(edge, zero(), ld(gid(0) - KExpr::int(1))),
        )]);
        let s = simplify_kernel(&k);
        let want = ld(gid(0))
            + KExpr::select(
                KExpr::bin(BinOp::Lt, gid(0), KExpr::int(1)),
                zero(),
                ld(gid(0) - KExpr::int(1)),
            );
        assert_eq!(s.body[1], store(gid(0), want));
    }

    #[test]
    fn right_edge_moves_constants_across() {
        // (g + 2) >= (1 + N)  →  g >= N - 1
        let c = KExpr::bin(BinOp::Ge, gid(0) + KExpr::int(2), KExpr::int(1) + v("N"));
        let k = guarded(vec![KStmt::If { cond: c, then_: vec![], else_: vec![] }]);
        let s = simplify_kernel(&k);
        let KStmt::If { cond, .. } = &s.body[1] else { panic!() };
        assert_eq!(*cond, KExpr::bin(BinOp::Ge, gid(0), v("N") - KExpr::int(1)));
    }

    #[test]
    fn shared_compound_base_is_bound_once() {
        let lin = |dx: i32| gid(1) * v("N") + gid(0) + KExpr::int(dx);
        let mut k = guarded(vec![store(lin(0), ld(lin(-1)) + ld(lin(1)))]);
        k.work_dim = 2;
        let s = simplify_kernel(&k);
        let KStmt::DeclScalar { name, init: Some(init), .. } = &s.body[1] else {
            panic!("expected a base declaration after the guard: {:?}", s.body)
        };
        assert_eq!(name, "base");
        assert_eq!(*init, gid(1) * v("N") + gid(0));
        let b = || v("base");
        assert_eq!(s.body[2], store(b(), ld(b() - KExpr::int(1)) + ld(b() + KExpr::int(1))));
    }

    #[test]
    fn loads_are_never_dropped_or_merged() {
        // `ld - ld` must not cancel, and a select whose dropped arm loads
        // is kept.
        let always = KExpr::bin(BinOp::Ge, gid(0), KExpr::int(0));
        let int_ld = |i: KExpr| KExpr::load(MemRef::Param(0), i);
        let mut k = guarded(vec![
            store(gid(0), KExpr::cast(ScalarKind::F32, int_ld(gid(0)) - int_ld(gid(0)))),
            store(
                gid(0),
                KExpr::select(
                    always,
                    KExpr::Lit(Lit::f32(1.0)),
                    KExpr::cast(ScalarKind::F32, ld(gid(0))),
                ),
            ),
        ]);
        k.params[0].kind = ScalarKind::I32;
        let s = simplify_kernel(&k);
        assert_eq!(s.body[1], k.body[1]);
        let KStmt::Store { value: KExpr::Select(c, _, _), .. } = &s.body[2] else {
            panic!("select with a loading arm must stay: {:?}", s.body[2])
        };
        assert_eq!(as_bool(c), Some(true));
    }

    #[test]
    fn float_and_division_stay_opaque() {
        let q = KExpr::bin(BinOp::Div, gid(0) + KExpr::int(1), KExpr::int(2));
        let k = guarded(vec![store(q.clone() - KExpr::int(0) * gid(0), v("x") * KExpr::real(1.0))]);
        let s = simplify_kernel(&k);
        let KStmt::Store { idx, value, .. } = &s.body[1] else { panic!() };
        assert_eq!(*idx, q);
        assert_eq!(*value, v("x") * KExpr::real(1.0));
    }
}
