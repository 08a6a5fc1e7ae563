//! The workload registry: every program the batch driver, the daemon and
//! the `gillian` CLI can verify, each defined once.
//!
//! Each case-study module exports its entry as `WORKLOAD`; [`WORKLOADS`]
//! lists them plus a small `chain` demo program (`base`/`inc`/`inc2`, where
//! `inc2` is verified against `inc`'s *specification*, not its body) whose
//! call structure makes the dependency cone of a spec edit easy to observe
//! over the daemon's wire.

use crate::{even_int, linked_list, linked_pair, mini_vec};
use driver::{HybridSession, SessionBuilder};
use gillian_rust::gilsonite::{lv, GilsoniteCtx, SpecMode};
use gillian_rust::types::Types;
use gillian_solver::Expr;
use rust_ir::{BinOp, BodyBuilder, Operand, Program, Ty};

/// One verification workload.
pub struct Workload {
    /// Wire name (`{"cmd":"load","workload":...}`, `gillian lint NAME`).
    pub name: &'static str,
    /// Session display name (also the Table 1 row name).
    pub session_name: &'static str,
    /// Builds the mini-MIR program.
    pub program: fn() -> Program,
    /// Registers ownership predicates and specifications.
    pub specs: fn(&Types, SpecMode) -> GilsoniteCtx,
    /// Verification targets, in registration order.
    pub functions: &'static [&'static str],
}

/// The mode a `load` request or a `gillian lint`/`analyze` run uses when it
/// names none.
pub const DEFAULT_MODE: SpecMode = SpecMode::FunctionalCorrectness;

impl Workload {
    /// A session builder for this workload in `mode`: name, program, specs
    /// and targets are set, every other knob is at its default. To verify
    /// another target list, override `functions` with struct-update syntax
    /// (`Workload { functions: FUNCTIONS_FULL, ..WORKLOAD }`).
    pub fn builder(&self, mode: SpecMode) -> SessionBuilder {
        HybridSession::builder()
            .name(self.session_name)
            .program((self.program)())
            .mode(mode)
            .specs(self.specs)
            .verify_fns(self.functions.iter().copied())
    }
}

/// Every registered workload, in `gillian lint`/`analyze` order.
pub const WORKLOADS: &[Workload] = &[
    even_int::WORKLOAD,
    linked_pair::WORKLOAD,
    linked_list::WORKLOAD,
    mini_vec::WORKLOAD,
    Workload {
        name: "chain",
        session_name: "Chain",
        program: chain_program,
        specs: chain_gilsonite,
        functions: &["base", "inc", "inc2"],
    },
];

/// Looks up a workload by wire name (with a couple of aliases).
pub fn workload(name: &str) -> Option<&'static Workload> {
    let canonical = match name {
        "lp" => "linked_pair",
        "ll" | "list" => "linked_list",
        "vec" => "mini_vec",
        other => other,
    };
    WORKLOADS.iter().find(|w| w.name == canonical)
}

/// `base(x) = x`, `inc(x) = x + 1`, `inc2(x) = inc(inc(x))`.
///
/// `inc2` calls `inc` twice, and the engine resolves those calls through
/// `inc`'s registered specification — so editing `inc`'s spec must dirty
/// both `inc` (its own proof) and `inc2` (a spec-caller), while `base`
/// stays clean.
pub fn chain_program() -> Program {
    let mut p = Program::new("chain");

    let mut b = BodyBuilder::new("base", vec![("x", Ty::usize())], Ty::usize());
    b.ret_val(Operand::local("x"));
    p.add_fn(b.finish());

    let mut b = BodyBuilder::new("inc", vec![("x", Ty::usize())], Ty::usize());
    let y = b.local("y", Ty::usize());
    b.assign_binop(
        y.clone(),
        BinOp::Add,
        Operand::local("x"),
        Operand::usize(1),
    );
    b.ret_val(Operand::copy(y));
    p.add_fn(b.finish());

    let mut b = BodyBuilder::new("inc2", vec![("x", Ty::usize())], Ty::usize());
    let t1 = b.local("t1", Ty::usize());
    let t2 = b.local("t2", Ty::usize());
    let k1 = b.new_block();
    let k2 = b.new_block();
    b.call("inc", vec![], vec![Operand::local("x")], t1.clone(), k1);
    b.switch_to(k1);
    b.call("inc", vec![], vec![Operand::copy(t1)], t2.clone(), k2);
    b.switch_to(k2);
    b.ret_val(Operand::copy(t2));
    p.add_fn(b.finish());

    p
}

/// Functional-correctness specifications for the chain demo. The bounds on
/// `x` keep the `usize` additions provably in range; `inc2`'s proof only
/// goes through via `inc`'s contract.
pub fn chain_gilsonite(types: &Types, mode: SpecMode) -> GilsoniteCtx {
    let mut g = GilsoniteCtx::new(types.clone(), mode);
    let program = &types.program;

    let base = program.function("base").unwrap().clone();
    let spec = g.fn_spec(&base, vec![], vec![Expr::eq(lv("ret_repr"), lv("x_repr"))]);
    g.add_spec(spec);

    let inc = program.function("inc").unwrap().clone();
    let spec = g.fn_spec(
        &inc,
        vec![Expr::lt(lv("x_repr"), Expr::Int(1000))],
        vec![Expr::eq(
            lv("ret_repr"),
            Expr::add(lv("x_repr"), Expr::Int(1)),
        )],
    );
    g.add_spec(spec);

    let inc2 = program.function("inc2").unwrap().clone();
    let spec = g.fn_spec(
        &inc2,
        vec![Expr::lt(lv("x_repr"), Expr::Int(900))],
        vec![Expr::eq(
            lv("ret_repr"),
            Expr::add(lv("x_repr"), Expr::Int(2)),
        )],
    );
    g.add_spec(spec);

    g
}
