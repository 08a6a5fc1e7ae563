//! The `LinkedList` case study (§2.2, §3.3, §6, §7).
//!
//! The mini-MIR bodies mirror the standard-library implementation: nodes are
//! doubly linked through `Option<NonNull<Node<T>>>` raw pointers, pushing
//! allocates a `Box`ed node and leaks it, popping reclaims the box. The
//! ownership predicate is the `dll_seg`-based invariant of §3.3 and the
//! specifications are the hybrid (Pearlite-equivalent) ones of Fig. 7.

use crate::Workload;
use gillian_engine::{Asrt, Pred};
use gillian_rust::compile::GHOST_MUTREF_AUTO_RESOLVE;
use gillian_rust::gilsonite::{lv, GilsoniteCtx, SpecMode};
use gillian_rust::state::POINTS_TO;
use gillian_rust::types::Types;
use gillian_solver::{Expr, Symbol};
use rust_ir::{AdtDef, AggregateKind, BodyBuilder, Operand, Place, Program, Ty};

/// Functions verified by the Table 1 harness. `push_front` and `pop_front`
/// are part of [`FUNCTIONS_FULL`] and are exercised by dedicated tests;
/// since the fold-search memoisation fix their automated proofs run in
/// fractions of a second (history and measurements in EXPERIMENTS.md).
pub const FUNCTIONS: &[&str] = &["new"];
/// The full function set of the case study.
pub const FUNCTIONS_FULL: &[&str] = &["new", "push_front", "pop_front"];
/// Annotation lines (ownership predicate, `dll_seg`, specifications and the
/// `mutref_auto_resolve` annotations), mirroring the aLoC column of Table 1.
pub const ALOC: usize = 31;
/// This case study's entry in the workload registry.
pub const WORKLOAD: Workload = Workload {
    name: "linked_list",
    session_name: "LinkedList",
    program,
    specs: gilsonite,
    functions: FUNCTIONS,
};

fn node_ty() -> Ty {
    Ty::adt("Node", vec![Ty::param("T")])
}

fn list_ty() -> Ty {
    Ty::adt("LinkedList", vec![Ty::param("T")])
}

fn opt_node_ty() -> Ty {
    Ty::option(Ty::non_null(node_ty()))
}

/// Builds the mini-MIR program: ADTs plus `new`, `push_front`,
/// `push_front_node` and `pop_front`.
pub fn program() -> Program {
    let mut p = Program::new("linked_list");
    p.add_adt(AdtDef::strukt(
        "Node",
        &["T"],
        vec![
            ("element", Ty::param("T")),
            ("next", opt_node_ty()),
            ("prev", opt_node_ty()),
        ],
    ));
    p.add_adt(AdtDef::strukt(
        "LinkedList",
        &["T"],
        vec![
            ("head", opt_node_ty()),
            ("tail", opt_node_ty()),
            ("len", Ty::usize()),
        ],
    ));

    // fn new<T>() -> LinkedList<T>
    let mut new = BodyBuilder::new("new", vec![], list_ty());
    new.assign_aggregate(
        Place::local("_ret"),
        AggregateKind::Struct("LinkedList".into(), vec![Ty::param("T")]),
        vec![
            Operand::none(Ty::non_null(node_ty())),
            Operand::none(Ty::non_null(node_ty())),
            Operand::usize(0),
        ],
    );
    new.ret();
    p.add_fn(new.generics(&["T"]).finish());

    // fn push_front_node<T>(self: &mut LinkedList<T>, node: Box<Node<T>>)
    let mut pfn = BodyBuilder::new(
        "push_front_node",
        vec![
            ("self", Ty::mut_ref("'a", list_ty())),
            ("node", Ty::boxed(node_ty())),
        ],
        Ty::Unit,
    );
    let tmp_head = pfn.local("tmp_head", opt_node_ty());
    let node_opt = pfn.local("node_opt", opt_node_ty());
    let len = pfn.local("len", Ty::usize());
    let len2 = pfn.local("len2", Ty::usize());
    let _head = pfn.local("head", Ty::non_null(node_ty()));
    let some_blk = pfn.new_block();
    let none_blk = pfn.new_block();
    let join = pfn.new_block();
    // node.next = self.head; node.prev = None;
    pfn.assign_use(
        tmp_head.clone(),
        Operand::copy(Place::local("self").deref().field(0)),
    );
    pfn.assign_use(
        Place::local("node").deref().field(1),
        Operand::copy(tmp_head.clone()),
    );
    pfn.assign_use(
        Place::local("node").deref().field(2),
        Operand::none(Ty::non_null(node_ty())),
    );
    // let node_opt = Some(Box::leak(node).into());
    pfn.assign_aggregate(
        node_opt.clone(),
        AggregateKind::Some(Ty::non_null(node_ty())),
        vec![Operand::local("node")],
    );
    // match self.head { None => self.tail = node_opt, Some(head) => (*head).prev = node_opt }
    pfn.match_option(Operand::copy(tmp_head), none_blk, some_blk, "head");
    pfn.switch_to(some_blk);
    pfn.assign_use(
        Place::local("head").deref().field(2),
        Operand::copy(node_opt.clone()),
    );
    pfn.goto(join);
    pfn.switch_to(none_blk);
    pfn.assign_use(
        Place::local("self").deref().field(1),
        Operand::copy(node_opt.clone()),
    );
    pfn.goto(join);
    pfn.switch_to(join);
    // self.head = node_opt; self.len += 1;
    pfn.assign_use(
        Place::local("self").deref().field(0),
        Operand::copy(node_opt),
    );
    pfn.assign_use(
        len.clone(),
        Operand::copy(Place::local("self").deref().field(2)),
    );
    pfn.assign_binop(
        len2.clone(),
        rust_ir::BinOp::Add,
        Operand::copy(len),
        Operand::usize(1),
    );
    pfn.assign_use(Place::local("self").deref().field(2), Operand::copy(len2));
    pfn.ret_val(Operand::unit());
    p.add_fn(pfn.generics(&["T"]).unsafe_fn().finish());

    // fn push_front<T>(self: &mut LinkedList<T>, elt: T)
    let mut pf = BodyBuilder::new(
        "push_front",
        vec![
            ("self", Ty::mut_ref("'a", list_ty())),
            ("elt", Ty::param("T")),
        ],
        Ty::Unit,
    );
    let nv = pf.local("nv", node_ty());
    let node_box = pf.local("node_box", Ty::boxed(node_ty()));
    let u = pf.local("_u", Ty::Unit);
    let b1 = pf.new_block();
    let b2 = pf.new_block();
    let b3 = pf.new_block();
    pf.assign_aggregate(
        nv.clone(),
        AggregateKind::Struct("Node".into(), vec![Ty::param("T")]),
        vec![
            Operand::local("elt"),
            Operand::none(Ty::non_null(node_ty())),
            Operand::none(Ty::non_null(node_ty())),
        ],
    );
    pf.call(
        "box_new",
        vec![node_ty()],
        vec![Operand::copy(nv)],
        node_box.clone(),
        b1,
    );
    pf.switch_to(b1);
    pf.call(
        "push_front_node",
        vec![Ty::param("T")],
        vec![Operand::local("self"), Operand::copy(node_box)],
        u.clone(),
        b2,
    );
    pf.switch_to(b2);
    pf.call(
        GHOST_MUTREF_AUTO_RESOLVE,
        vec![],
        vec![Operand::local("self")],
        u.clone(),
        b3,
    );
    pf.switch_to(b3);
    pf.ret_val(Operand::unit());
    p.add_fn(pf.generics(&["T"]).finish());

    // fn pop_front<T>(self: &mut LinkedList<T>) -> Option<T>
    let mut pop = BodyBuilder::new(
        "pop_front",
        vec![("self", Ty::mut_ref("'a", list_ty()))],
        Ty::option(Ty::param("T")),
    );
    let head_opt = pop.local("head_opt", opt_node_ty());
    let elem = pop.local("elem", Ty::param("T"));
    let next = pop.local("next", opt_node_ty());
    let lenp = pop.local("len", Ty::usize());
    let lenp2 = pop.local("len2", Ty::usize());
    let up = pop.local("_u", Ty::Unit);
    let _np = pop.local("node_ptr", Ty::non_null(node_ty()));
    let _nh = pop.local("new_head", Ty::non_null(node_ty()));
    let none_blk = pop.new_block();
    let none_ret = pop.new_block();
    let some_blk = pop.new_block();
    let some2 = pop.new_block();
    let fix_none = pop.new_block();
    let fix_some = pop.new_block();
    let dec = pop.new_block();
    let resolved = pop.new_block();
    pop.assign_use(
        head_opt.clone(),
        Operand::copy(Place::local("self").deref().field(0)),
    );
    pop.match_option(Operand::copy(head_opt), none_blk, some_blk, "node_ptr");
    // None branch: return None.
    pop.switch_to(none_blk);
    pop.assign_use(Place::local("_ret"), Operand::none(Ty::param("T")));
    pop.call(
        GHOST_MUTREF_AUTO_RESOLVE,
        vec![],
        vec![Operand::local("self")],
        up.clone(),
        none_ret,
    );
    pop.switch_to(none_ret);
    pop.ret();
    // Some branch: unlink the first node.
    pop.switch_to(some_blk);
    pop.assign_use(
        elem.clone(),
        Operand::mv(Place::local("node_ptr").deref().field(0)),
    );
    pop.assign_use(
        next.clone(),
        Operand::copy(Place::local("node_ptr").deref().field(1)),
    );
    pop.call(
        "box_free",
        vec![node_ty()],
        vec![Operand::local("node_ptr")],
        up.clone(),
        some2,
    );
    pop.switch_to(some2);
    pop.assign_use(
        Place::local("self").deref().field(0),
        Operand::copy(next.clone()),
    );
    pop.match_option(Operand::copy(next), fix_none, fix_some, "new_head");
    pop.switch_to(fix_none);
    pop.assign_use(
        Place::local("self").deref().field(1),
        Operand::none(Ty::non_null(node_ty())),
    );
    pop.goto(dec);
    pop.switch_to(fix_some);
    pop.assign_use(
        Place::local("new_head").deref().field(2),
        Operand::none(Ty::non_null(node_ty())),
    );
    pop.goto(dec);
    pop.switch_to(dec);
    pop.assign_use(
        lenp.clone(),
        Operand::copy(Place::local("self").deref().field(2)),
    );
    pop.assign_binop(
        lenp2.clone(),
        rust_ir::BinOp::Sub,
        Operand::copy(lenp),
        Operand::usize(1),
    );
    pop.assign_use(Place::local("self").deref().field(2), Operand::copy(lenp2));
    pop.assign_aggregate(
        Place::local("_ret"),
        AggregateKind::Some(Ty::param("T")),
        vec![Operand::copy(elem)],
    );
    pop.call(
        GHOST_MUTREF_AUTO_RESOLVE,
        vec![],
        vec![Operand::local("self")],
        up,
        resolved,
    );
    pop.switch_to(resolved);
    pop.ret();
    p.add_fn(pop.generics(&["T"]).unsafe_fn().finish());

    p
}

/// Registers the Gilsonite predicates and specifications for the LinkedList
/// module (the `Ownable` implementation of §2.2 and the hybrid specs of
/// Fig. 7), in the requested mode.
pub fn gilsonite(types: &Types, mode: SpecMode) -> GilsoniteCtx {
    let mut g = GilsoniteCtx::new(types.clone(), mode);
    let own_t = g.register_type_param("T");
    let node_id = types.intern(&node_ty());

    // dll_seg(h, n, t, p; r) — §3.3.
    let def_empty = Asrt::star(vec![
        Asrt::pure(Expr::eq(lv("h"), lv("n"))),
        Asrt::pure(Expr::eq(lv("t"), lv("p"))),
        Asrt::pure(Expr::eq(lv("r"), Expr::empty_seq())),
    ]);
    let def_cons = Asrt::star(vec![
        Asrt::pure(Expr::eq(lv("h"), Expr::some(lv("hp")))),
        Asrt::Core {
            name: Symbol::new(POINTS_TO),
            ins: vec![lv("hp"), node_id.to_expr()],
            outs: vec![Expr::ctor("struct::Node", vec![lv("v"), lv("z"), lv("p")])],
        },
        Asrt::Pred {
            name: own_t,
            args: vec![lv("v"), lv("rv")],
        },
        Asrt::pred(
            "dll_seg",
            vec![lv("z"), lv("n"), lv("t"), lv("h"), lv("rq")],
        ),
        Asrt::pure(Expr::eq(
            lv("r"),
            Expr::seq_concat(Expr::seq(vec![lv("rv")]), lv("rq")),
        )),
    ]);
    g.register_pred(Pred::new(
        "dll_seg",
        &["h", "n", "t", "p", "r"],
        4,
        vec![def_empty, def_cons],
    ));

    // impl Ownable for LinkedList<T> (§2.2).
    let own_def = Asrt::star(vec![
        Asrt::pure(Expr::eq(
            lv("self"),
            Expr::ctor("struct::LinkedList", vec![lv("h"), lv("t"), lv("l")]),
        )),
        Asrt::pred(
            "dll_seg",
            vec![lv("h"), Expr::none(), lv("t"), Expr::none(), lv("repr")],
        ),
        Asrt::pure(Expr::eq(lv("l"), Expr::seq_len(lv("repr")))),
    ]);
    g.register_own(
        &list_ty(),
        Pred::new("own_LinkedList", &["self", "repr"], 1, vec![own_def]),
    );

    // Specifications (Fig. 7).
    let program = &types.program;
    let new_fn = program.function("new").unwrap().clone();
    let push_fn = program.function("push_front").unwrap().clone();
    let pop_fn = program.function("pop_front").unwrap().clone();

    // new: ensures result@ == Seq::EMPTY
    let spec_new = g.fn_spec(
        &new_fn,
        vec![],
        vec![Expr::eq(lv("ret_repr"), Expr::empty_seq())],
    );
    g.add_spec(spec_new);

    // push_front: requires self@.len() < usize::MAX
    //             ensures  Seq::singleton(e).concat((*self)@) == (^self)@
    let spec_push = g.fn_spec(
        &push_fn,
        vec![Expr::lt(
            Expr::seq_len(lv("self_cur")),
            Expr::Int(rust_ir::IntTy::Usize.max()),
        )],
        vec![Expr::eq(
            Expr::seq_concat(Expr::seq(vec![lv("elt_repr")]), lv("self_cur")),
            lv("self_fin"),
        )],
    );
    g.add_spec(spec_push);

    // pop_front (two postcondition cases):
    //   result == None ==> ^self == *self && self@.len() == 0
    //   result == Some(x) ==> Seq::singleton(x).concat((^self)@) == (*self)@
    let spec_pop = g.fn_spec_full(
        &pop_fn,
        vec![],
        vec![
            (
                vec![Expr::eq(lv("ret_repr"), Expr::none())],
                vec![
                    Expr::eq(lv("self_fin"), lv("self_cur")),
                    Expr::eq(Expr::seq_len(lv("self_cur")), Expr::Int(0)),
                ],
            ),
            (
                vec![Expr::eq(lv("ret_repr"), Expr::some(lv("x")))],
                vec![Expr::eq(
                    Expr::seq_concat(Expr::seq(vec![lv("x")]), lv("self_fin")),
                    lv("self_cur"),
                )],
            ),
        ],
    );
    g.add_spec(spec_pop);

    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_builds_and_has_expected_functions() {
        let p = program();
        for f in ["new", "push_front", "push_front_node", "pop_front"] {
            assert!(p.function(f).is_some(), "missing function {f}");
        }
        assert!(p.executable_lines() > 20);
    }

    #[test]
    fn new_verifies_fc() {
        WORKLOAD
            .builder(SpecMode::FunctionalCorrectness)
            .build()
            .unwrap()
            .verify_fn("new")
            .expect_verified();
    }

    #[test]
    fn push_front_verifies_fc() {
        WORKLOAD
            .builder(SpecMode::FunctionalCorrectness)
            .build()
            .unwrap()
            .verify_fn("push_front")
            .expect_verified();
    }

    #[test]
    fn pop_front_verifies_fc() {
        WORKLOAD
            .builder(SpecMode::FunctionalCorrectness)
            .build()
            .unwrap()
            .verify_fn("pop_front")
            .expect_verified();
    }

    #[test]
    fn push_front_verifies_ts() {
        WORKLOAD
            .builder(SpecMode::TypeSafety)
            .build()
            .unwrap()
            .verify_fn("push_front")
            .expect_verified();
    }
}
