//! Session recipes and the timed session build every workload shares.
//!
//! A [`Recipe`] holds the public inputs of one session (program
//! constructor, spec constructor, optional Pearlite override, targets).
//! [`build`] times the build; [`replay_setup`] re-runs, on the same
//! inputs, the setup steps that are only reachable inside
//! `SessionBuilder::build`, so the traced run can attribute setup time to
//! the layers that own it.

use crate::trace::Tracer;
use crate::verdicts::Variant;
use case_studies::{even_int, linked_list, linked_pair, mini_vec};
use creusot_lite::{elaborate, parse_term, ExternSpecs};
use driver::{AnalysisOptions, CacheStore, HybridSession};
use gillian_absint::{analyze_prog, ActionBounds};
use gillian_rust::gilsonite::{GilsoniteCtx, SpecMode};
use gillian_rust::types::{TypeRegistry, Types};
use gillian_rust::verifier::{Verifier, VerifierOptions};
use rust_ir::{LayoutOracle, Program, Ty};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type SpecsFn = fn(&Types, SpecMode) -> GilsoniteCtx;

#[derive(Clone)]
pub struct Recipe {
    /// Session name; also the study column of the verdict table.
    pub session: &'static str,
    pub mode: SpecMode,
    pub program: fn() -> Program,
    pub specs: SpecsFn,
    /// Install the Fig. 7 Pearlite specs through `extern_specs`.
    pub extern_specs: bool,
    /// A Pearlite spec that replaces the shipped one of `edit.func`.
    pub edit: Option<&'static Variant>,
    /// Targets, in verification order.
    pub targets: Vec<&'static str>,
}

pub fn mode_label(mode: SpecMode) -> &'static str {
    match mode {
        SpecMode::TypeSafety => "TS",
        SpecMode::FunctionalCorrectness => "FC",
    }
}

impl Recipe {
    pub fn new(
        session: &'static str,
        mode: SpecMode,
        program: fn() -> Program,
        specs: SpecsFn,
        targets: &[&'static str],
    ) -> Recipe {
        Recipe {
            session,
            mode,
            program,
            specs,
            extern_specs: false,
            edit: None,
            targets: targets.to_vec(),
        }
    }

    pub fn mode_label(&self) -> &'static str {
        mode_label(self.mode)
    }
}

/// The four case studies of Table 1 (EvenInt, LP, LinkedList, MiniVec),
/// each in both modes. `full` selects the full LinkedList and MiniVec APIs
/// (`FUNCTIONS_FULL`) over the Table 1 targets (`FUNCTIONS`).
pub fn case_studies(full: bool) -> Vec<Recipe> {
    let (list, vec) = if full {
        (linked_list::FUNCTIONS_FULL, mini_vec::FUNCTIONS_FULL)
    } else {
        (linked_list::FUNCTIONS, mini_vec::FUNCTIONS)
    };
    let mut out = Vec::new();
    for mode in [SpecMode::TypeSafety, SpecMode::FunctionalCorrectness] {
        out.push(Recipe::new(
            "EvenInt",
            mode,
            even_int::program,
            even_int::gilsonite,
            even_int::FUNCTIONS,
        ));
        out.push(Recipe::new(
            "LP",
            mode,
            linked_pair::program,
            linked_pair::gilsonite,
            linked_pair::FUNCTIONS,
        ));
        out.push(Recipe::new(
            "LinkedList",
            mode,
            linked_list::program,
            linked_list::gilsonite,
            list,
        ));
        out.push(Recipe::new(
            "MiniVec",
            mode,
            mini_vec::program,
            mini_vec::gilsonite,
            vec,
        ));
    }
    out
}

/// Replaces the spec of `v.func` with the elaborated Pearlite clauses.
pub fn apply_variant(g: &mut GilsoniteCtx, v: &Variant) {
    let clauses = |srcs: &[&str]| -> Vec<_> {
        srcs.iter()
            .map(|src| elaborate(&parse_term(src).expect("variant clauses parse")))
            .collect()
    };
    let f = g
        .types
        .program
        .function(v.func)
        .expect("variant names a program function")
        .clone();
    let spec = g.fn_spec(&f, clauses(v.requires), clauses(v.ensures));
    g.add_spec(spec);
}

/// Builds the session (one worker, serial branch exploration) and returns
/// it with its setup time: program construction plus `build()`.
pub fn build(
    r: &Recipe,
    tr: &mut Tracer,
    cache: Option<Arc<dyn CacheStore>>,
) -> (HybridSession, Duration) {
    let start = Instant::now();
    let program = tr.time("rust-ir.program", r.program);
    let span = tr.begin("driver.build");
    let specs_interval: Rc<Cell<Option<(Instant, Instant)>>> = Rc::default();
    let cell = specs_interval.clone();
    let specs = r.specs;
    let mut builder = HybridSession::builder()
        .name(r.session)
        .program(program)
        .mode(r.mode)
        .specs(move |types, mode| {
            let t0 = Instant::now();
            let g = specs(types, mode);
            cell.set(Some((t0, Instant::now())));
            g
        })
        .verify_fns(r.targets.iter().copied())
        .workers(1)
        .branch_parallelism(1);
    if let Some(v) = r.edit {
        builder = builder.configure(move |g| apply_variant(g, v));
    }
    if r.extern_specs {
        builder = builder.extern_specs(ExternSpecs::linked_list());
    }
    if let Some(store) = cache {
        builder = builder.cache(store);
    }
    let session = builder.build().expect("benchmark sessions build");
    if let Some((t0, t1)) = specs_interval.get() {
        tr.record("core.specs", t0, t1);
    }
    tr.end(span);
    (session, start.elapsed())
}

/// The same action-bounds hook the driver installs: integer loads are
/// bounded by the machine-integer range of the loaded type.
fn typed_load_bounds(types: Types) -> ActionBounds {
    Arc::new(move |name, args| {
        if !matches!(name.as_str(), "load" | "load_move") {
            return None;
        }
        match types.resolve_expr(args.get(1)?)? {
            Ty::Int(i) => Some((i.min(), i.max())),
            _ => None,
        }
    })
}

/// Traced run only: replays the setup steps `build()` performs internally
/// (Pearlite elaboration, compilation to GIL, abstract interpretation,
/// lint) with the same public calls on the same inputs, each in its own
/// span under a `replay` span. `lint.vacuity_s` is read from the session's
/// own build-time lint report.
pub fn replay_setup(r: &Recipe, session: &HybridSession, tr: &mut Tracer) {
    if !tr.enabled() {
        return;
    }
    let replay = tr.begin("replay");
    let registry = ExternSpecs::linked_list();
    let variant_terms: Vec<_> = r
        .edit
        .iter()
        .flat_map(|v| v.requires.iter().chain(v.ensures.iter()))
        .map(|src| parse_term(src).expect("variant clauses parse"))
        .collect();
    tr.time("creusot-lite.elaborate", || {
        if r.extern_specs {
            for (_, h) in registry.iter() {
                for t in h.requires.iter().chain(h.ensures.iter()) {
                    black_box(elaborate(t));
                }
            }
        }
        for t in &variant_terms {
            black_box(elaborate(t));
        }
    });

    let types = TypeRegistry::new((r.program)(), LayoutOracle::default());
    let mut g = (r.specs)(&types, r.mode);
    if let Some(v) = r.edit {
        apply_variant(&mut g, v);
    }
    if r.extern_specs {
        for (name, h) in registry.iter() {
            let f = types
                .program
                .function(name)
                .expect("registry names")
                .clone();
            let requires = h.requires.iter().map(elaborate).collect();
            let ensures = h.ensures.iter().map(elaborate).collect();
            let spec = g.fn_spec(&f, requires, ensures);
            g.add_spec(spec);
        }
    }
    let opts = VerifierOptions {
        mode: r.mode,
        engine: session.verifier().engine.opts.clone(),
    };
    let compiled = tr.time("core.compile", || Verifier::new(types, g, opts));
    black_box(compiled.expect("replayed compile succeeds"));

    let prog = &session.verifier().engine.prog;
    let absint_opts = AnalysisOptions {
        action_bounds: Some(typed_load_bounds(session.verifier().types.clone())),
        ..AnalysisOptions::default()
    };
    black_box(tr.time("absint.analyze", || analyze_prog(prog, &absint_opts)));
    let lint_opts = session.lint_options();
    black_box(tr.time("lint.lint", || gillian_lint::lint_prog(prog, &lint_opts)));
    if let Some(report) = session.lint_report() {
        tr.count("lint.vacuity_s", report.vacuity_time.as_secs_f64());
    }
    tr.end(replay);
}

/// Setup-layer metrics from the spans and counters above, per operation.
pub fn setup_layers(tr: &Tracer, ops: f64, out: &mut crate::Layers) {
    let per = |v: f64| crate::stats::ratio(v, ops);
    let build = tr.total("driver.build");
    let inner = [
        "core.specs",
        "creusot-lite.elaborate",
        "core.compile",
        "absint.analyze",
        "lint.lint",
    ]
    .iter()
    .map(|n| tr.total(n))
    .sum::<f64>();
    out.set("rust-ir.program_s", per(tr.total("rust-ir.program")));
    out.set("core.specs_s", per(tr.total("core.specs")));
    out.set(
        "creusot-lite.elaborate_s",
        per(tr.total("creusot-lite.elaborate")),
    );
    out.set("core.compile_s", per(tr.total("core.compile")));
    out.set("absint.analyze_s", per(tr.total("absint.analyze")));
    out.set("lint.lint_s", per(tr.total("lint.lint")));
    out.set("lint.vacuity_s", per(tr.counter("lint.vacuity_s")));
    out.set("driver.build_s", per(build));
    out.set("driver.build_residual_s", per(build - inner));
}
