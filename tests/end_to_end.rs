//! Cross-crate integration tests: the full pipeline from mini-MIR through the
//! Gillian-Rust state model to verified specifications, plus negative tests
//! checking that broken code or wrong specifications are rejected. All
//! sessions are driven through the `HybridSession` front door.

use case_studies::{even_int, linked_list, linked_pair, SpecMode, Workload};
use creusot_lite::{elaborate, ExternSpecs, Term};
use driver::HybridSession;
use gillian_rust::gilsonite::lv;
use gillian_rust::verifier::VerifyDiagnostic;
use gillian_solver::Expr;

#[test]
fn linked_list_functional_correctness_end_to_end() {
    let report = linked_list::WORKLOAD
        .builder(SpecMode::FunctionalCorrectness)
        .build()
        .unwrap()
        .verify_all();
    assert!(report.all_verified(), "{}", report.render_text());
}

/// The full LinkedList API (push_front/pop_front). These proofs took ~100 s
/// each before the fold-search memoisation fix; they now run in fractions
/// of a second (history in EXPERIMENTS.md), so they live in the default
/// suite.
#[test]
fn linked_list_full_api_end_to_end() {
    let full = Workload {
        functions: linked_list::FUNCTIONS_FULL,
        ..linked_list::WORKLOAD
    };
    let report = full
        .builder(SpecMode::FunctionalCorrectness)
        .build()
        .unwrap()
        .verify_all();
    assert!(report.all_verified(), "{}", report.render_text());
}

#[test]
fn even_int_end_to_end() {
    let report = even_int::WORKLOAD
        .builder(SpecMode::FunctionalCorrectness)
        .build()
        .unwrap()
        .verify_all();
    assert!(report.all_verified(), "{}", report.render_text());
}

#[test]
fn linked_pair_end_to_end() {
    let report = linked_pair::WORKLOAD
        .builder(SpecMode::TypeSafety)
        .build()
        .unwrap()
        .verify_all();
    assert!(report.all_verified(), "{}", report.render_text());
}

#[test]
fn elaborated_pearlite_matches_gilsonite_spec_of_push_front() {
    // The hybrid bridge: the Pearlite postcondition of Fig. 7 elaborates to
    // exactly the expression the Gilsonite specification of the LinkedList
    // case study uses.
    let registry = ExternSpecs::linked_list();
    let pearlite = &registry.get("push_front").unwrap().ensures[0];
    let elaborated = elaborate(pearlite);
    let expected = Expr::eq(
        Expr::seq_concat(Expr::seq(vec![lv("elt_repr")]), lv("self_cur")),
        lv("self_fin"),
    );
    assert_eq!(elaborated, expected);
}

#[test]
fn pearlite_requires_elaborates_to_observation_body() {
    let registry = ExternSpecs::linked_list();
    let req = &registry.get("push_front").unwrap().requires[0];
    let elaborated = elaborate(req);
    assert!(matches!(
        elaborated,
        Expr::BinOp(gillian_solver::BinOp::Lt, _, _)
    ));
}

#[test]
fn failure_injection_wrong_length_invariant_is_rejected() {
    // Break the LinkedList ownership predicate (claim the length is repr+1):
    // push_front must now fail to verify — guarding against vacuous proofs.
    use gillian_engine::{Asrt, Pred};
    use gillian_rust::state::POINTS_TO;
    use gillian_solver::Symbol;
    use rust_ir::Ty;

    let session = HybridSession::builder()
        .name("LinkedList (broken invariant)")
        .program(linked_list::program())
        .mode(SpecMode::FunctionalCorrectness)
        .specs(|types, mode| {
            let mut g = gillian_rust::gilsonite::GilsoniteCtx::new(types.clone(), mode);
            let own_t = g.register_type_param("T");
            let node_ty = Ty::adt("Node", vec![Ty::param("T")]);
            let node_id = types.intern(&node_ty);
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
            // Broken invariant: len == |repr| + 1.
            let own_def = Asrt::star(vec![
                Asrt::pure(Expr::eq(
                    lv("self"),
                    Expr::ctor("struct::LinkedList", vec![lv("h"), lv("t"), lv("l")]),
                )),
                Asrt::pred(
                    "dll_seg",
                    vec![lv("h"), Expr::none(), lv("t"), Expr::none(), lv("repr")],
                ),
                Asrt::pure(Expr::eq(
                    lv("l"),
                    Expr::add(Expr::seq_len(lv("repr")), Expr::Int(1)),
                )),
            ]);
            g.register_own(
                &Ty::adt("LinkedList", vec![Ty::param("T")]),
                Pred::new("own_LinkedList", &["self", "repr"], 1, vec![own_def]),
            );
            let push = types.program.function("push_front").unwrap().clone();
            let spec = g.fn_spec(
                &push,
                vec![Expr::lt(
                    Expr::seq_len(lv("self_cur")),
                    Expr::Int(rust_ir::IntTy::Usize.max()),
                )],
                vec![Expr::eq(
                    Expr::seq_concat(Expr::seq(vec![lv("elt_repr")]), lv("self_cur")),
                    lv("self_fin"),
                )],
            );
            g.add_spec(spec);
            g
        })
        .verify_fn("push_front")
        .build()
        .unwrap();
    let report = session.verify_all();
    assert!(
        !report.all_verified(),
        "push_front must NOT verify against a broken ownership predicate"
    );
}

#[test]
fn failure_injection_missing_requires_is_rejected() {
    // Dropping the `len < usize::MAX` precondition makes the overflow panic
    // reachable and functional-correctness verification must fail.
    let session = HybridSession::builder()
        .name("LinkedList (missing requires)")
        .program(linked_list::program())
        .mode(SpecMode::FunctionalCorrectness)
        .specs(linked_list::gilsonite)
        .configure(|g| {
            let push = g.types.program.function("push_front").unwrap().clone();
            // Overwrite the spec with one missing the requires clause.
            let weak_spec = g.fn_spec(
                &push,
                vec![],
                vec![Expr::eq(
                    Expr::seq_concat(Expr::seq(vec![lv("elt_repr")]), lv("self_cur")),
                    lv("self_fin"),
                )],
            );
            g.add_spec(weak_spec);
        })
        .verify_fn("push_front")
        .build()
        .unwrap();
    let report = session.verify_all();
    assert!(
        !report.all_verified(),
        "overflow must be reported without the requires clause"
    );
}

#[test]
fn layout_independence_of_verification() {
    // Verification results do not depend on the layout the compiler picks
    // (§3.1): run the LinkedPair study under all three field orderings.
    use rust_ir::{LayoutChoice, LayoutOracle};
    for choice in [
        LayoutChoice::DeclarationOrder,
        LayoutChoice::LargestFirst,
        LayoutChoice::SmallestFirst,
    ] {
        let report = HybridSession::builder()
            .name("LinkedPair (layout sweep)")
            .program(linked_pair::program())
            .layout(LayoutOracle::new(choice))
            .mode(SpecMode::TypeSafety)
            .specs(linked_pair::gilsonite)
            .verify_fns(linked_pair::FUNCTIONS.iter().copied())
            .build()
            .unwrap()
            .verify_all();
        assert!(report.all_verified(), "{}", report.render_text());
    }
}

#[test]
fn pearlite_permutation_is_decided_by_bags() {
    // The permutation reasoning needed by the Merge Sort client (§6).
    let ctx = gillian_solver::Solver::new().ctx();
    let t = Term::permutation_of(Term::cur_model("l"), Term::fin_model("l"));
    let goal = elaborate(&t);
    ctx.assert_expr(&Expr::eq(lv("l_fin"), lv("l_cur")));
    // The logical variables stand for themselves as opaque constants.
    assert!(ctx.entails(&goal));
}

#[test]
fn failure_injection_wrong_even_int_postcondition_is_rejected() {
    // A wrong functional postcondition (add_two adds 3) must be rejected,
    // and the rejection must carry a structured spec-mismatch diagnostic.
    let session = HybridSession::builder()
        .name("EvenInt (broken postcondition)")
        .program(even_int::program())
        .mode(SpecMode::FunctionalCorrectness)
        .specs(even_int::gilsonite)
        .configure(|g| {
            let add_two = g.types.program.function("add_two").unwrap().clone();
            let wrong = g.fn_spec(
                &add_two,
                vec![Expr::le(lv("self_cur"), Expr::Int(1000))],
                vec![Expr::eq(
                    lv("self_fin"),
                    Expr::add(lv("self_cur"), Expr::Int(3)),
                )],
            );
            g.add_spec(wrong);
        })
        .verify_fn("add_two")
        .build()
        .unwrap();
    let report = session.verify_all();
    let case = report.case("add_two").unwrap();
    assert!(!case.verified());
    let diag = case
        .diagnostic()
        .expect("a structured diagnostic is attached");
    assert!(
        matches!(diag, VerifyDiagnostic::SpecMismatch { .. }),
        "expected spec-mismatch, got {diag:?}"
    );
}
