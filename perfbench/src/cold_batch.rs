//! `cold_batch`: the paper's batch user. Every pass builds a fresh session
//! for each case study and mode and runs `verify_all`.

use crate::sessions::{self, Recipe};
use crate::stats::{Rng, Samples};
use crate::trace::Tracer;
use crate::verdicts::{self, Expect, PUSH_FRONT_NO_REQUIRES};
use crate::{counts_digest, Config, Layers, Outcome};
use case_studies::{linked_list, SpecMode};
use driver::HybridSession;
use gillian_engine::{Asrt, Pred};
use gillian_rust::gilsonite::{lv, GilsoniteCtx};
use gillian_rust::state::POINTS_TO;
use gillian_rust::types::Types;
use gillian_solver::{Expr, Symbol};
use rust_ir::Ty;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const FC: SpecMode = SpecMode::FunctionalCorrectness;

/// Every session of a pass, in the order the seed picks, each with its
/// targets in the order the seed picks.
fn recipes(rng: &mut Rng) -> Vec<Recipe> {
    let mut out = sessions::case_studies(true);
    let mut hybrid = Recipe::new(
        "LinkedList (hybrid)",
        FC,
        linked_list::program,
        linked_list::gilsonite,
        linked_list::FUNCTIONS_FULL,
    );
    hybrid.extern_specs = true;
    out.push(hybrid);
    out.push(Recipe::new(
        "LinkedList (broken invariant)",
        FC,
        linked_list::program,
        broken_invariant_specs,
        &["push_front"],
    ));
    let mut missing = Recipe::new(
        "LinkedList (missing requires)",
        FC,
        linked_list::program,
        linked_list::gilsonite,
        &["push_front"],
    );
    missing.edit = Some(&PUSH_FRONT_NO_REQUIRES);
    out.push(missing);

    rng.shuffle(&mut out);
    for r in &mut out {
        rng.shuffle(&mut r.targets);
    }
    out
}

/// The "broken invariant" mutant of tests/end_to_end.rs: the LinkedList
/// ownership predicate claims `len == |repr| + 1`, so `push_front` must
/// not verify.
fn broken_invariant_specs(types: &Types, mode: SpecMode) -> GilsoniteCtx {
    let mut g = GilsoniteCtx::new(types.clone(), mode);
    let own_t = g.register_type_param("T");
    let node_id = types.intern(&Ty::adt("Node", vec![Ty::param("T")]));
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
    let own_def = Asrt::star(vec![
        Asrt::pure(Expr::eq(
            lv("self"),
            Expr::ctor("struct::LinkedList", vec![lv("h"), lv("t"), lv("l")]),
        )),
        Asrt::pred(
            "dll_seg",
            vec![lv("h"), Expr::none(), lv("t"), Expr::none(), lv("repr")],
        ),
        // The broken clause: len == |repr| + 1.
        Asrt::pure(Expr::eq(
            lv("l"),
            Expr::add(Expr::seq_len(lv("repr")), Expr::Int(1)),
        )),
    ]);
    g.register_own(
        &Ty::adt("LinkedList", vec![Ty::param("T")]),
        Pred::new("own_LinkedList", &["self", "repr"], 1, vec![own_def]),
    );
    let push = types
        .program
        .function("push_front")
        .expect("LinkedList has push_front")
        .clone();
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
}

/// One row of the per-target table.
#[derive(Default)]
struct Row {
    class: Option<Expect>,
    proved: bool,
    time: Samples,
    /// Traced passes: kernel time, time to verdict, and call time not
    /// covered by the time to verdict.
    kernel_s: f64,
    traced_s: f64,
    residual_s: f64,
    traced: u32,
}

#[derive(Default)]
struct State {
    rows: BTreeMap<(String, &'static str, String), Row>,
    /// Per session: the verdict-and-count digest of its first pass.
    digests: BTreeMap<(String, &'static str), String>,
    mismatches: Vec<String>,
    tally: verdicts::Tally,
    batch_overhead: Samples,
}

struct PassTimes {
    setup: Duration,
    verify: Duration,
    /// Untraced passes: the time of every `verify_all` call.
    calls: Vec<Duration>,
}

impl State {
    fn check_digest(&mut self, r: &Recipe, digest: String) {
        let key = (r.session.to_string(), r.mode_label());
        match self.digests.get(&key) {
            None => {
                self.digests.insert(key, digest);
            }
            Some(first) if *first != digest => self.mismatches.push(format!(
                "{} {}: {first} then {digest}",
                r.session,
                r.mode_label()
            )),
            Some(_) => {}
        }
    }

    fn verdict(&mut self, r: &Recipe, target: &str, proved: bool, elapsed: Duration) {
        let class = verdicts::expect(r.session, r.mode_label(), target);
        if !self.tally.check(class, proved) && class == Expect::MustFail {
            crate::soundness_bug(&format!(
                "{} {} {target} is known false and was proved",
                r.session,
                r.mode_label()
            ));
        }
        let row = self
            .rows
            .entry((r.session.to_string(), r.mode_label(), target.to_string()))
            .or_default();
        row.class = Some(class);
        row.proved = proved;
        row.time.push(elapsed);
    }
}

/// Untraced: the batch exactly as a user runs it.
fn verify_batch(r: &Recipe, session: &HybridSession, st: &mut State) -> Duration {
    let t0 = Instant::now();
    let report = session.verify_all();
    let took = t0.elapsed();
    st.batch_overhead
        .push(report.wall_time.saturating_sub(report.cpu_time()));
    let mut verdicts = Vec::new();
    for c in &report.cases {
        st.verdict(r, c.name(), c.verified(), c.report.elapsed);
        verdicts.push((c.name().to_string(), c.verified()));
    }
    st.check_digest(
        r,
        format!(
            "{verdicts:?} {}",
            counts_digest(&report.stats, &report.solver)
        ),
    );
    took
}

/// Traced: the same targets in the same order, one call each, with the
/// engine and solver counters read around every call so each target's
/// time to verdict splits into kernel time and engine self time.
fn verify_traced(r: &Recipe, session: &HybridSession, st: &mut State, tr: &mut Tracer) -> Duration {
    let v = session.verifier();
    let (e0, s0) = (v.stats(), v.solver_stats());
    let t0 = Instant::now();
    let mut verdicts = Vec::new();
    for t in session.targets() {
        let (e1, s1) = (v.stats(), v.solver_stats());
        let span = tr.begin("gillian.target");
        let call = Instant::now();
        let report = session.verify_fn(&t.name);
        let call = call.elapsed();
        tr.end(span);
        let (e, s) = (v.stats().since(e1), v.solver_stats().since(s1));
        let kernel = s.kernel_nanos as f64 * 1e-9;
        let elapsed = report.elapsed.as_secs_f64();
        let residual = call.as_secs_f64() - elapsed;
        tr.count("solver.kernel_s", kernel);
        tr.count("gillian.self_s", elapsed - kernel);
        tr.count("gillian.target_residual_s", residual);
        crate::count_engine(tr, &e, &s);
        st.verdict(r, &t.name, report.verified, report.elapsed);
        let row = st
            .rows
            .get_mut(&(r.session.to_string(), r.mode_label(), t.name.clone()))
            .expect("row recorded above");
        row.kernel_s += kernel;
        row.traced_s += elapsed;
        row.residual_s += residual;
        row.traced += 1;
        verdicts.push((t.name.clone(), report.verified));
    }
    let took = t0.elapsed();
    let (e, s) = (v.stats().since(e0), v.solver_stats().since(s0));
    st.check_digest(r, format!("{verdicts:?} {}", counts_digest(&e, &s)));
    took
}

fn pass(recipes: &[Recipe], st: &mut State, tr: &mut Tracer) -> PassTimes {
    tr.next_op();
    let mut times = PassTimes {
        setup: Duration::ZERO,
        verify: Duration::ZERO,
        calls: Vec::new(),
    };
    for r in recipes {
        let (session, setup) = sessions::build(r, tr, None);
        times.setup += setup;
        sessions::replay_setup(r, &session, tr);
        // A lint-blocked session fails fast inside `verify_all`; the traced
        // path must take the same route to reach the same verdicts.
        let blocked = session
            .lint_report()
            .is_some_and(|l| l.errors().next().is_some());
        if tr.enabled() && !blocked {
            times.verify += verify_traced(r, &session, st, tr);
        } else {
            let took = verify_batch(r, &session, st);
            times.verify += took;
            if !tr.enabled() {
                times.calls.push(took);
            }
        }
    }
    times
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let recipes = recipes(&mut Rng::new(cfg.seed));
    let mut st = State::default();
    let mut untraced = Tracer::new(false);
    // One untimed pass: interns every symbol and faults in the code, the
    // way a long-lived process would have.
    pass(&recipes, &mut st, &mut untraced);
    st.batch_overhead = Samples::default();

    let mut out = Outcome {
        tail_p: 75.0,
        ..Outcome::default()
    };
    let mut traced_verify = Samples::default();
    let start = Instant::now();
    let mut i = 0u64;
    out.boundary();
    while i < 2 || start.elapsed() < cfg.seconds {
        // The traced run alternates traced and untraced passes, so the
        // tracing overhead is measured under the same machine load.
        if tr.enabled() && i % 2 == 1 {
            traced_verify.push(pass(&recipes, &mut st, tr).verify);
        } else {
            let t = pass(&recipes, &mut st, &mut untraced);
            out.times.setup.push(t.setup);
            out.times.op.push(t.verify);
            for call in t.calls {
                out.times.req.push(call);
            }
            let done = out.times.op.len();
            out.note_rss(done);
        }
        out.boundary();
        i += 1;
    }
    out.tally = st.tally;
    out.mismatches = st.mismatches;
    out.op_name = "cold pass verify time (batch)";
    out.unit_name = "pass";
    out.work_unit = "pass";

    println!(
        "# per-target verdicts: study | mode | target | class | verdict | median time to \
         verdict | traced: kernel share of the time to verdict, mean call residual"
    );
    for ((session, mode, target), row) in &st.rows {
        let share = if row.traced > 0 {
            format!(
                "{:.1}% | {:.1} us",
                100.0 * row.kernel_s / row.traced_s,
                1e6 * row.residual_s / row.traced as f64
            )
        } else {
            "- | -".to_string()
        };
        println!(
            "row | {session} | {mode} | {target} | {} | {} | {:.3} ms | {share}",
            row.class.map_or("?", Expect::label),
            if row.proved { "proved" } else { "unproved" },
            row.time.median() * 1e3,
        );
    }

    if tr.enabled() {
        let passes = traced_verify.len() as f64;
        let mut layers = Layers::default();
        crate::engine_layers(tr, passes, &mut layers);
        sessions::setup_layers(tr, passes, &mut layers);
        layers.set(
            "gillian.target_residual_s",
            tr.counter("gillian.target_residual_s") / passes,
        );
        layers.set(
            "driver.batch_overhead_s",
            st.batch_overhead.sum() / out.times.op.len() as f64,
        );
        layers.set(
            "trace.overhead_frac",
            traced_verify.median() / out.times.op.median() - 1.0,
        );
        out.layers = layers;
    }
    out
}
