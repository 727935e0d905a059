//! Shape of the generated stencil kernels after lowering: the pad guards
//! the view system writes (six disjuncts per load) reach the kernel
//! simplified to one comparison per real edge, so the generated volume and
//! naive-FI kernels stay within twice the integer operators of the
//! hand-written volume kernel (DESIGN.md §3, "on par").

use lift::kast::{KExpr, KStmt, Kernel};
use lift::scalar::BinOp;
use lift::simplify::int_op_count;
use lift::types::ScalarKind;
use lift_acoustics::programs;
use room_acoustics::handwritten;

/// `e` and its sub-expressions, outermost first.
fn subexprs(e: &KExpr) -> Vec<&KExpr> {
    let mut out = vec![e];
    match e {
        KExpr::Load { idx: a, .. } | KExpr::Un(_, a) | KExpr::Cast(_, a) => out.extend(subexprs(a)),
        KExpr::Bin(_, a, b) => [a, b].into_iter().for_each(|x| out.extend(subexprs(x))),
        KExpr::Select(c, t, f) => [c, t, f].into_iter().for_each(|x| out.extend(subexprs(x))),
        KExpr::Call(_, args) => args.iter().for_each(|a| out.extend(subexprs(a))),
        _ => {}
    }
    out
}

/// Every expression of `stmts`, outermost first.
fn exprs(stmts: &[KStmt]) -> Vec<&KExpr> {
    let mut out = Vec::new();
    for s in stmts {
        match s {
            KStmt::DeclScalar { init: Some(e), .. } | KStmt::Assign { value: e, .. } => {
                out.extend(subexprs(e))
            }
            KStmt::Store { idx, value, .. } => {
                [idx, value].into_iter().for_each(|x| out.extend(subexprs(x)))
            }
            KStmt::If { cond, then_, else_ } => {
                out.extend(subexprs(cond));
                out.extend(exprs(then_));
                out.extend(exprs(else_));
            }
            KStmt::For { begin, end, step, body, .. } => {
                [begin, end, step].into_iter().for_each(|x| out.extend(subexprs(x)));
                out.extend(exprs(body));
            }
            _ => {}
        }
    }
    out
}

fn is_cmp(op: &BinOp) -> bool {
    matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
}

/// Conditions of the pad guards: selects that yield the pad constant when
/// the condition holds and a load otherwise.
fn pad_guards(k: &Kernel) -> Vec<&KExpr> {
    exprs(&k.body)
        .into_iter()
        .filter_map(|e| match e {
            KExpr::Select(c, t, f)
                if matches!(**t, KExpr::Lit(_)) && matches!(**f, KExpr::Load { .. }) =>
            {
                Some(&**c)
            }
            _ => None,
        })
        .collect()
}

#[test]
fn generated_stencils_keep_one_comparison_per_real_edge() {
    for real in [ScalarKind::F32, ScalarKind::F64] {
        let hand = int_op_count(&handwritten::volume_kernel().resolve_real(real));
        for program in [programs::volume_program(), programs::fi_single_program()] {
            let k = program.lower(real).expect("lowers").kernel;
            let src = lift::opencl::emit_kernel(&k);
            let logic = exprs(&k.body)
                .into_iter()
                .filter(|e| matches!(e, KExpr::Bin(BinOp::Or | BinOp::And, _, _)))
                .count();
            assert_eq!(logic, 0, "{} ({real:?}) keeps `||`/`&&`:\n{src}", k.name);
            let guards = pad_guards(&k);
            assert_eq!(guards.len(), 6, "{} ({real:?}): one guard per face:\n{src}", k.name);
            for g in guards {
                let comparisons = subexprs(g)
                    .into_iter()
                    .filter(|e| matches!(e, KExpr::Bin(op, _, _) if is_cmp(op)))
                    .count();
                let rooted = matches!(g, KExpr::Bin(op, _, _) if is_cmp(op));
                assert!(
                    rooted && comparisons == 1,
                    "{} ({real:?}): guard `{g:?}` is not one comparison",
                    k.name
                );
            }
            let generated = int_op_count(&k);
            assert!(
                generated <= 2 * hand,
                "{} ({real:?}): {generated} integer operators vs {hand} hand-written:\n{src}",
                k.name
            );
        }
    }
}
