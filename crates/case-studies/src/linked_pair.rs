//! The "linked pair" (LP) tutorial case study (§7): a structure owning two
//! heap cells through raw pointers — the smallest example that requires
//! separation-logic reasoning about raw pointers.

use crate::Workload;
use gillian_engine::{Asrt, Pred};
use gillian_rust::compile::GHOST_MUTREF_AUTO_RESOLVE;
use gillian_rust::gilsonite::{lv, GilsoniteCtx, SpecMode};
use gillian_rust::state::POINTS_TO;
use gillian_rust::types::Types;
use gillian_solver::{Expr, Symbol};
use rust_ir::{AdtDef, AggregateKind, BodyBuilder, Operand, Place, Program, Ty};

/// Functions verified in this case study.
pub const FUNCTIONS: &[&str] = &["new", "set_both"];
/// Annotation lines.
pub const ALOC: usize = 7;
/// This case study's entry in the workload registry.
pub const WORKLOAD: Workload = Workload {
    name: "linked_pair",
    session_name: "LP",
    program,
    specs: gilsonite,
    functions: FUNCTIONS,
};

fn lp_ty() -> Ty {
    Ty::adt("LinkedPair", vec![])
}

/// Builds the mini-MIR program.
pub fn program() -> Program {
    let mut p = Program::new("linked_pair");
    p.add_adt(AdtDef::strukt(
        "LinkedPair",
        &[],
        vec![
            ("first", Ty::raw_ptr(Ty::usize())),
            ("second", Ty::raw_ptr(Ty::usize())),
        ],
    ));

    // fn new(a: usize, b: usize) -> LinkedPair
    let mut new = BodyBuilder::new("new", vec![("a", Ty::usize()), ("b", Ty::usize())], lp_ty());
    let pa = new.local("pa", Ty::raw_ptr(Ty::usize()));
    let pb = new.local("pb", Ty::raw_ptr(Ty::usize()));
    let b1 = new.new_block();
    let b2 = new.new_block();
    new.call(
        "box_new",
        vec![Ty::usize()],
        vec![Operand::local("a")],
        pa.clone(),
        b1,
    );
    new.switch_to(b1);
    new.call(
        "box_new",
        vec![Ty::usize()],
        vec![Operand::local("b")],
        pb.clone(),
        b2,
    );
    new.switch_to(b2);
    new.assign_aggregate(
        Place::local("_ret"),
        AggregateKind::Struct("LinkedPair".into(), vec![]),
        vec![Operand::copy(pa), Operand::copy(pb)],
    );
    new.ret();
    p.add_fn(new.unsafe_fn().finish());

    // fn set_both(self: &mut LinkedPair, a: usize, b: usize)
    let mut set = BodyBuilder::new(
        "set_both",
        vec![
            ("self", Ty::mut_ref("'a", lp_ty())),
            ("a", Ty::usize()),
            ("b", Ty::usize()),
        ],
        Ty::Unit,
    );
    let pa = set.local("pa", Ty::raw_ptr(Ty::usize()));
    let pb = set.local("pb", Ty::raw_ptr(Ty::usize()));
    let u = set.local("_u", Ty::Unit);
    let done = set.new_block();
    set.assign_use(
        pa.clone(),
        Operand::copy(Place::local("self").deref().field(0)),
    );
    set.assign_use(
        pb.clone(),
        Operand::copy(Place::local("self").deref().field(1)),
    );
    set.assign_use(Place::local("pa").deref(), Operand::local("a"));
    set.assign_use(Place::local("pb").deref(), Operand::local("b"));
    set.call(
        GHOST_MUTREF_AUTO_RESOLVE,
        vec![],
        vec![Operand::local("self")],
        u,
        done,
    );
    set.switch_to(done);
    set.ret_val(Operand::unit());
    p.add_fn(set.unsafe_fn().finish());

    p
}

/// Registers the ownership predicate and specifications.
pub fn gilsonite(types: &Types, mode: SpecMode) -> GilsoniteCtx {
    let mut g = GilsoniteCtx::new(types.clone(), mode);
    let usize_id = types.intern(&Ty::usize());
    // own LinkedPair: both cells are owned; repr = (a, b).
    let own_def = Asrt::star(vec![
        Asrt::pure(Expr::eq(
            lv("self"),
            Expr::ctor("struct::LinkedPair", vec![lv("p1"), lv("p2")]),
        )),
        Asrt::Core {
            name: Symbol::new(POINTS_TO),
            ins: vec![lv("p1"), usize_id.to_expr()],
            outs: vec![lv("a")],
        },
        Asrt::Core {
            name: Symbol::new(POINTS_TO),
            ins: vec![lv("p2"), usize_id.to_expr()],
            outs: vec![lv("b")],
        },
        Asrt::pure(Expr::eq(lv("repr"), Expr::tuple(vec![lv("a"), lv("b")]))),
    ]);
    g.register_own(
        &lp_ty(),
        Pred::new("own_LinkedPair", &["self", "repr"], 1, vec![own_def]),
    );

    let program = &types.program;
    let spec_new = g.fn_spec(
        &program.function("new").unwrap().clone(),
        vec![],
        vec![Expr::eq(
            lv("ret_repr"),
            Expr::tuple(vec![lv("a_repr"), lv("b_repr")]),
        )],
    );
    g.add_spec(spec_new);
    let spec_set = g.fn_spec(
        &program.function("set_both").unwrap().clone(),
        vec![],
        vec![Expr::eq(
            lv("self_fin"),
            Expr::tuple(vec![lv("a_repr"), lv("b_repr")]),
        )],
    );
    g.add_spec(spec_set);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use driver::BackendKind;

    /// Regression test for the seed's oldest bug: `new`/`set_both` used to
    /// fail FC with "observation not entailed" because the representation
    /// equalities of the parameters' pure ownership predicates (e.g.
    /// `own_usize(a, #a_repr)` holding `a == #a_repr`) stayed hidden inside
    /// the folded instances. Observation consumption now hands the
    /// observation back as a recovery hint, the engine unfolds the related
    /// predicates and retries — both functions verify cleanly, under every
    /// solver backend.
    #[test]
    fn new_and_set_both_verify_fc_under_every_backend() {
        for kind in BackendKind::ALL {
            let report = WORKLOAD
                .builder(SpecMode::FunctionalCorrectness)
                .backend(kind)
                .build()
                .unwrap()
                .verify_all();
            assert!(
                report.all_verified(),
                "LP (FC) under {kind}:\n{}",
                report.render_text()
            );
            for case in &report.cases {
                assert!(
                    case.diagnostic().is_none(),
                    "no diagnostic expected for {} under {kind}",
                    case.name()
                );
            }
        }
    }

    #[test]
    fn set_both_verifies_ts() {
        WORKLOAD
            .builder(SpecMode::TypeSafety)
            .build()
            .unwrap()
            .verify_fn("set_both")
            .expect_verified();
    }
}
