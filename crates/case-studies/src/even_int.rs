//! The `EvenInt` case study (App. C), originally from the RefinedRust
//! evaluation: a wrapper around an `i32` whose ownership invariant requires
//! the value to be even. `add` (unsafe) temporarily breaks the invariant;
//! `add_two` restores it and is specified functionally.

use crate::Workload;
use gillian_engine::{Asrt, Pred};
use gillian_rust::compile::GHOST_MUTREF_AUTO_RESOLVE;
use gillian_rust::gilsonite::{lv, GilsoniteCtx, SpecMode};
use gillian_rust::types::Types;
use gillian_solver::Expr;
use rust_ir::{AdtDef, AggregateKind, BinOp, BodyBuilder, IntTy, Operand, Place, Program, Ty};

/// Functions verified in this case study.
pub const FUNCTIONS: &[&str] = &["new_2", "new_3", "add_two"];
/// Annotation lines (ownership predicate plus specifications).
pub const ALOC: usize = 9;
/// This case study's entry in the workload registry.
pub const WORKLOAD: Workload = Workload {
    name: "even_int",
    session_name: "EvenInt",
    program,
    specs: gilsonite,
    functions: FUNCTIONS,
};

fn even_ty() -> Ty {
    Ty::adt("EvenInt", vec![])
}

/// Builds the mini-MIR program.
pub fn program() -> Program {
    let mut p = Program::new("even_int");
    p.add_adt(AdtDef::strukt("EvenInt", &[], vec![("num", Ty::i32())]));

    // unsafe fn new(x: i32) -> EvenInt  (no checks)
    let mut new = BodyBuilder::new("new", vec![("x", Ty::i32())], even_ty());
    new.assign_aggregate(
        Place::local("_ret"),
        AggregateKind::Struct("EvenInt".into(), vec![]),
        vec![Operand::local("x")],
    );
    new.ret();
    p.add_fn(new.unsafe_fn().finish());

    // fn new_2(x: i32) -> EvenInt  (rounds to an even value)
    let mut new2 = BodyBuilder::new("new_2", vec![("x", Ty::i32())], even_ty());
    let rem = new2.local("rem", Ty::i32());
    let is_even = new2.local("is_even", Ty::Bool);
    let small = new2.local("small", Ty::Bool);
    let adj = new2.local("adj", Ty::i32());
    let even_blk = new2.new_block();
    let odd_blk = new2.new_block();
    let add_blk = new2.new_block();
    let sub_blk = new2.new_block();
    let mk_adj = new2.new_block();
    new2.assign_binop(
        rem.clone(),
        BinOp::Rem,
        Operand::local("x"),
        Operand::i32(2),
    );
    new2.assign_binop(
        is_even.clone(),
        BinOp::Eq,
        Operand::copy(rem),
        Operand::i32(0),
    );
    new2.branch_if(Operand::copy(is_even), even_blk, odd_blk);
    new2.switch_to(even_blk);
    new2.assign_aggregate(
        Place::local("_ret"),
        AggregateKind::Struct("EvenInt".into(), vec![]),
        vec![Operand::local("x")],
    );
    new2.ret();
    new2.switch_to(odd_blk);
    new2.assign_binop(
        small.clone(),
        BinOp::Lt,
        Operand::local("x"),
        Operand::i32(1000),
    );
    new2.branch_if(Operand::copy(small), add_blk, sub_blk);
    new2.switch_to(add_blk);
    new2.assign_binop(
        adj.clone(),
        BinOp::Add,
        Operand::local("x"),
        Operand::i32(1),
    );
    new2.goto(mk_adj);
    new2.switch_to(sub_blk);
    new2.assign_binop(
        adj.clone(),
        BinOp::Sub,
        Operand::local("x"),
        Operand::i32(1),
    );
    new2.goto(mk_adj);
    new2.switch_to(mk_adj);
    new2.assign_aggregate(
        Place::local("_ret"),
        AggregateKind::Struct("EvenInt".into(), vec![]),
        vec![Operand::copy(adj)],
    );
    new2.ret();
    p.add_fn(new2.finish());

    // fn new_3(x: i32) -> Option<EvenInt>
    let mut new3 = BodyBuilder::new("new_3", vec![("x", Ty::i32())], Ty::option(even_ty()));
    let rem3 = new3.local("rem", Ty::i32());
    let is_even3 = new3.local("is_even", Ty::Bool);
    let y = new3.local("y", even_ty());
    let some_blk = new3.new_block();
    let none_blk = new3.new_block();
    let wrap = new3.new_block();
    new3.assign_binop(
        rem3.clone(),
        BinOp::Rem,
        Operand::local("x"),
        Operand::i32(2),
    );
    new3.assign_binop(
        is_even3.clone(),
        BinOp::Eq,
        Operand::copy(rem3),
        Operand::i32(0),
    );
    new3.branch_if(Operand::copy(is_even3), some_blk, none_blk);
    new3.switch_to(some_blk);
    new3.call("new", vec![], vec![Operand::local("x")], y.clone(), wrap);
    new3.switch_to(wrap);
    new3.assign_aggregate(
        Place::local("_ret"),
        AggregateKind::Some(even_ty()),
        vec![Operand::copy(y)],
    );
    new3.ret();
    new3.switch_to(none_blk);
    new3.assign_use(Place::local("_ret"), Operand::none(even_ty()));
    new3.ret();
    p.add_fn(new3.finish());

    // unsafe fn add(self: &mut EvenInt)  (breaks the invariant)
    let mut add = BodyBuilder::new(
        "add",
        vec![("self", Ty::mut_ref("'a", even_ty()))],
        Ty::Unit,
    );
    let n = add.local("n", Ty::i32());
    let n2 = add.local("n2", Ty::i32());
    add.assign_use(
        n.clone(),
        Operand::copy(Place::local("self").deref().field(0)),
    );
    add.assign_binop(n2.clone(), BinOp::Add, Operand::copy(n), Operand::i32(1));
    add.assign_use(Place::local("self").deref().field(0), Operand::copy(n2));
    add.ret_val(Operand::unit());
    p.add_fn(add.unsafe_fn().finish());

    // fn add_two(self: &mut EvenInt)
    let mut add2 = BodyBuilder::new(
        "add_two",
        vec![("self", Ty::mut_ref("'a", even_ty()))],
        Ty::Unit,
    );
    let u = add2.local("_u", Ty::Unit);
    let b1 = add2.new_block();
    let b2 = add2.new_block();
    let b3 = add2.new_block();
    add2.call("add", vec![], vec![Operand::local("self")], u.clone(), b1);
    add2.switch_to(b1);
    add2.call("add", vec![], vec![Operand::local("self")], u.clone(), b2);
    add2.switch_to(b2);
    add2.call(
        GHOST_MUTREF_AUTO_RESOLVE,
        vec![],
        vec![Operand::local("self")],
        u,
        b3,
    );
    add2.switch_to(b3);
    add2.ret_val(Operand::unit());
    p.add_fn(add2.finish());

    p
}

/// Registers the ownership predicate and specifications.
pub fn gilsonite(types: &Types, mode: SpecMode) -> GilsoniteCtx {
    let mut g = GilsoniteCtx::new(types.clone(), mode);
    // own EvenInt: the wrapped integer equals the representation, is even and
    // is a valid i32.
    let own_def = Asrt::star(vec![
        Asrt::pure(Expr::eq(
            lv("self"),
            Expr::ctor("struct::EvenInt", vec![lv("n")]),
        )),
        Asrt::pure(Expr::eq(lv("n"), lv("repr"))),
        Asrt::pure(Expr::eq(
            Expr::bin(gillian_solver::BinOp::Rem, lv("n"), Expr::Int(2)),
            Expr::Int(0),
        )),
        Asrt::pure(Expr::le(Expr::Int(IntTy::I32.min()), lv("n"))),
        Asrt::pure(Expr::le(lv("n"), Expr::Int(IntTy::I32.max()))),
    ]);
    g.register_own(
        &even_ty(),
        Pred::new("own_EvenInt", &["self", "repr"], 1, vec![own_def]),
    );

    let program = &types.program;
    // new_2 / new_3: type-safety style specifications (`ensures(true)`).
    let spec_new2 = g.fn_spec(&program.function("new_2").unwrap().clone(), vec![], vec![]);
    g.add_spec(spec_new2);
    let spec_new3 = g.fn_spec(&program.function("new_3").unwrap().clone(), vec![], vec![]);
    g.add_spec(spec_new3);
    // add_two: requires *self@ <= i32::MAX - 2, ensures ^self@ == *self@ + 2.
    let spec_add2 = g.fn_spec(
        &program.function("add_two").unwrap().clone(),
        vec![Expr::le(lv("self_cur"), Expr::Int(IntTy::I32.max() - 2))],
        vec![Expr::eq(
            lv("self_fin"),
            Expr::add(lv("self_cur"), Expr::Int(2)),
        )],
    );
    g.add_spec(spec_add2);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_two_verifies_fc() {
        WORKLOAD
            .builder(SpecMode::FunctionalCorrectness)
            .build()
            .unwrap()
            .verify_fn("add_two")
            .expect_verified();
    }

    #[test]
    fn constructors_verify() {
        let v = WORKLOAD
            .builder(SpecMode::FunctionalCorrectness)
            .build()
            .unwrap();
        v.verify_fn("new_2").expect_verified();
        v.verify_fn("new_3").expect_verified();
    }
}
