//! `daemon_edit`: the IDE user. A seeded request stream drives
//! `ServerCore::handle_line` over resident sessions for every Table 1
//! workload and mode plus `chain`: `load` switches, warm `verify`,
//! `update_spec` edits each followed by `verify`, forced `verify` of target
//! subsets, `update_fn` and `lint`.
//!
//! One epoch is a fresh daemon: load and verify every session (set-up and
//! the cold pass), then replay the whole stream. The stream is generated
//! once from the seed, so every epoch must answer it identically.

use crate::sessions::{self, Recipe};
use crate::stats::{ratio, Rng, Samples, Timings};
use crate::trace::Tracer;
use crate::verdicts::{self, Expect, Variant, ADD_TWO, BASE, INC, INC2, INC2_PROVES};
use crate::{Config, Layers, Outcome};
use gillian_server::{parse, parse_mode, workload, ServerCore, Value};
use std::time::{Duration, Instant};

/// `(wire workload, wire mode)` of every resident session, in load order.
const SESSIONS: [(&str, &str); 7] = [
    ("even_int", "fc"),
    ("linked_pair", "ts"),
    ("linked_pair", "fc"),
    ("linked_list", "ts"),
    ("linked_list", "fc"),
    ("mini_vec", "fc"),
    ("chain", "fc"),
];
const EVEN_INT: usize = 0;
const CHAIN: usize = 6;

/// Rounds in one epoch's stream.
const ROUNDS: usize = 40;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Load,
    Verify,
    UpdateSpec,
    UpdateFn,
    Lint,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Load => "server.load",
            Kind::Verify => "server.verify",
            Kind::UpdateSpec => "server.update_spec",
            Kind::UpdateFn => "server.update_fn",
            Kind::Lint => "server.lint",
        }
    }
}

struct Req {
    line: String,
    kind: Kind,
    /// Verify only: every target the response must list, with its class
    /// under the specs in force at that point of the stream.
    expect: Vec<(String, Expect)>,
    /// Verify only: it completes the edit sent just before it.
    completes_edit: bool,
}

fn targets(session: usize) -> &'static [&'static str] {
    workload(SESSIONS[session].0)
        .expect("known workload")
        .functions
}

fn load_line(session: usize) -> String {
    let (w, m) = SESSIONS[session];
    format!(r#"{{"cmd":"load","workload":"{w}","mode":"{m}","workers":1,"branch_parallelism":1}}"#)
}

fn quoted(items: &[&str]) -> String {
    let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", q.join(","))
}

/// Which spec variant each editable function carries.
#[derive(Clone, Copy, Default)]
struct Specs {
    base: usize,
    inc: usize,
    inc2: usize,
    add_two: usize,
}

impl Specs {
    fn class(&self, session: usize, target: &str) -> Expect {
        match (session, target) {
            (CHAIN, "base") => Expect::of(BASE[self.base].proves),
            (CHAIN, "inc") => Expect::of(INC[self.inc].proves),
            (CHAIN, "inc2") => Expect::of(INC2_PROVES[self.inc][self.inc2]),
            (EVEN_INT, "add_two") => Expect::of(ADD_TWO[self.add_two].proves),
            _ => {
                let (w, m) = SESSIONS[session];
                let name = workload(w).expect("known workload").session_name;
                verdicts::expect(
                    name,
                    sessions::mode_label(parse_mode(m).expect("mode")),
                    target,
                )
            }
        }
    }

    /// Moves `func` to another of its variants, picked by the seed.
    fn edit(&mut self, func: &str, rng: &mut Rng) -> &'static Variant {
        let (slot, variants): (&mut usize, &'static [Variant]) = match func {
            "base" => (&mut self.base, &BASE),
            "inc" => (&mut self.inc, &INC),
            "inc2" => (&mut self.inc2, &INC2),
            "add_two" => (&mut self.add_two, &ADD_TWO),
            other => unreachable!("{other} has no variants"),
        };
        *slot = (*slot + 1 + rng.below(variants.len() - 1)) % variants.len();
        &variants[*slot]
    }
}

/// The edits a round makes on `session`. Five per round, so the median
/// edit falls inside one kind (an `inc` edit, re-proving `inc` and `inc2`)
/// rather than between two.
fn editable(session: usize) -> &'static [&'static str] {
    match session {
        CHAIN => &["base", "inc", "inc2"],
        EVEN_INT => &["add_two", "add_two"],
        _ => &[],
    }
}

fn verify_req(
    session: usize,
    specs: &Specs,
    subset: Option<Vec<&str>>,
    completes_edit: bool,
) -> Req {
    let (line, names) = match subset {
        None => (r#"{"cmd":"verify"}"#.to_string(), targets(session).to_vec()),
        Some(names) => (
            format!(
                r#"{{"cmd":"verify","targets":{},"force":true}}"#,
                quoted(&names)
            ),
            names,
        ),
    };
    Req {
        line,
        kind: Kind::Verify,
        expect: names
            .iter()
            .map(|t| (t.to_string(), specs.class(session, t)))
            .collect(),
        completes_edit,
    }
}

fn plain(line: String, kind: Kind) -> Req {
    Req {
        line,
        kind,
        expect: Vec::new(),
        completes_edit: false,
    }
}

/// The seeded request stream: `ROUNDS` rounds of one fixed composition,
/// so every seed sends the same mix of request kinds and the medians do
/// not depend on how the seed happened to mix them. A round visits every
/// session once, in an order the seed picks: `load` it, `verify` (warm),
/// make its edits (`update_spec` to a seeded variant, then `verify`),
/// force-verify a seeded subset of its targets, `update_fn` a seeded
/// target, `lint`, and `verify` again (re-proving the `update_fn` cone).
fn stream(seed: u64) -> Vec<Req> {
    let mut rng = Rng::new(seed);
    let mut specs = Specs::default();
    let mut out = Vec::new();
    for _ in 0..ROUNDS {
        let mut order: Vec<usize> = (0..SESSIONS.len()).collect();
        rng.shuffle(&mut order);
        for s in order {
            out.push(plain(load_line(s), Kind::Load));
            out.push(verify_req(s, &specs, None, false));
            let mut fns = editable(s).to_vec();
            rng.shuffle(&mut fns);
            for f in fns {
                let v = specs.edit(f, &mut rng);
                out.push(plain(
                    format!(
                        r#"{{"cmd":"update_spec","fn":"{f}","requires":{},"ensures":{}}}"#,
                        quoted(v.requires),
                        quoted(v.ensures)
                    ),
                    Kind::UpdateSpec,
                ));
                out.push(verify_req(s, &specs, None, true));
            }
            let all = targets(s);
            let mut subset: Vec<&str> = all.iter().copied().filter(|_| rng.below(2) == 0).collect();
            if subset.is_empty() {
                subset.push(all[rng.below(all.len())]);
            }
            out.push(verify_req(s, &specs, Some(subset), false));
            let f = all[rng.below(all.len())];
            out.push(plain(
                format!(r#"{{"cmd":"update_fn","fn":"{f}"}}"#),
                Kind::UpdateFn,
            ));
            out.push(plain(r#"{"cmd":"lint"}"#.to_string(), Kind::Lint));
            out.push(verify_req(s, &specs, None, false));
        }
    }
    out
}

/// A response with every timing field removed: what must repeat exactly.
fn without_timings(v: &Value) -> Value {
    const TIMINGS: [&str; 4] = ["wall_seconds", "seconds", "kernel_nanos", "vacuity_seconds"];
    match v {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .filter(|(k, _)| !TIMINGS.contains(&k.as_str()))
                .map(|(k, x)| (k.clone(), without_timings(x)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(without_timings).collect()),
        other => other.clone(),
    }
}

fn names(v: &Value, field: &str) -> usize {
    v.get(field)
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len)
}

#[derive(Default)]
struct State {
    out: Outcome,
    /// Per stream position: the response of the first epoch.
    first: Vec<String>,
    epochs: u64,
    /// Traced epochs: edit sizes and cache reuse.
    edits: f64,
    reverified_in_edits: f64,
    dirtied: f64,
    cached: f64,
    answered: f64,
    arena_terms: Samples,
    requests_traced: f64,
}

impl State {
    /// Checks one response against the verdict table and, for stream
    /// requests, against the first epoch's answer at the same position.
    fn check(&mut self, req: &Req, resp: &str, at: Option<usize>) -> Value {
        let v = parse(resp).expect("the daemon answers with JSON");
        let refused = v.get("ok").and_then(Value::as_bool) != Some(true);
        if req.kind != Kind::Verify || refused {
            self.out.other_attempted += 1;
        }
        if refused {
            self.out.other_failed += 1;
            self.out
                .notes
                .push(format!("refused: {} -> {resp}", req.line));
        }
        if req.kind == Kind::Verify {
            let cases = v.get("cases").and_then(Value::as_array).unwrap_or(&[]);
            if cases.len() != req.expect.len() {
                self.out
                    .mismatches
                    .push(format!("{} answered {} cases", req.line, cases.len()));
            }
            for (case, (name, class)) in cases.iter().zip(&req.expect) {
                if case.get("name").and_then(Value::as_str) != Some(name.as_str()) {
                    self.out
                        .mismatches
                        .push(format!("{} answered out of order", req.line));
                }
                let proved = case.get("verified").and_then(Value::as_bool) == Some(true);
                if !self.out.tally.check(*class, proved) && *class == Expect::MustFail {
                    crate::soundness_bug(&format!("daemon proved {name} after {}", req.line));
                }
            }
        }
        if let Some(i) = at {
            let digest = without_timings(&v).to_string();
            match self.first.get(i) {
                None => self.first.push(digest),
                Some(d) if *d != digest => self.out.mismatches.push(format!(
                    "request {i} ({}) answered differently in epoch {}",
                    req.line, self.epochs
                )),
                Some(_) => {}
            }
        }
        v
    }
}

/// Sends one request; returns its latency and the parsed response.
/// Set-up requests (`at == None`) get spans of their own, so the
/// per-kind latencies cover the stream only.
fn send(
    core: &mut ServerCore,
    st: &mut State,
    tr: &mut Tracer,
    req: &Req,
    at: Option<usize>,
) -> (Duration, Value) {
    let span = tr.begin(if at.is_some() {
        req.kind.span()
    } else {
        "server.setup"
    });
    let t0 = Instant::now();
    let resp = core.handle_line(&req.line);
    let took = t0.elapsed();
    tr.end(span);
    (took, st.check(req, &resp, at))
}

/// Traced epochs: counters from one response.
fn attribute(
    st: &mut State,
    tr: &mut Tracer,
    req: &Req,
    took: Duration,
    v: &Value,
    prev_dirtied: f64,
) {
    st.requests_traced += 1.0;
    let mut proving = 0.0;
    if req.kind == Kind::Verify {
        let cases = v.get("cases").and_then(Value::as_array).unwrap_or(&[]);
        for c in cases {
            if c.get("cached").and_then(Value::as_bool) == Some(false) {
                proving += c.get("seconds").and_then(Value::as_f64).unwrap_or(0.0);
            }
        }
        let (reverified, cached) = (names(v, "reverified") as f64, names(v, "cached") as f64);
        st.cached += cached;
        st.answered += cached + reverified;
        if req.completes_edit {
            st.edits += 1.0;
            st.reverified_in_edits += reverified;
            st.dirtied += prev_dirtied;
        }
        let delta = v.get("solver_delta");
        let field = |name: &str| {
            delta
                .and_then(|d| d.get(name))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        let kernel = field("kernel_nanos") * 1e-9;
        tr.count("solver.kernel_s", kernel);
        tr.count("gillian.self_s", proving - kernel);
        tr.count("solver.leaf_cases", field("cases_explored"));
        tr.count(
            "solver.queries",
            field("unsat_queries") + field("entailment_queries"),
        );
        tr.count("solver.cache_hits", field("cache_hits"));
        tr.count("absint.pruned", field("branches_pruned_static"));
        tr.count("absint.facts_seeded", field("absint_facts_seeded"));
    }
    tr.count("server.dispatch_self_s", took.as_secs_f64() - proving);
}

fn epoch(stream: &[Req], st: &mut State, tr: &mut Tracer) -> Duration {
    tr.next_op();
    let mut core = ServerCore::new();
    let mut setup = Duration::ZERO;
    let specs = Specs::default();
    for s in 0..SESSIONS.len() {
        setup += send(&mut core, st, tr, &plain(load_line(s), Kind::Load), None).0;
        send(&mut core, st, tr, &verify_req(s, &specs, None, false), None);
    }
    let start = Instant::now();
    let mut spec_sent = None;
    let mut dirtied = 0.0;
    for (i, req) in stream.iter().enumerate() {
        let (took, v) = send(&mut core, st, tr, req, Some(i));
        if tr.enabled() {
            attribute(st, tr, req, took, &v, dirtied);
        } else {
            st.out.times.req.push(took);
        }
        match req.kind {
            Kind::UpdateSpec => {
                spec_sent = Some(took);
                dirtied = names(&v, "dirtied") as f64;
            }
            Kind::Verify if req.completes_edit => {
                let sent = spec_sent.take().expect("an edit precedes its verify");
                if !tr.enabled() {
                    st.out.times.op.push(sent + took);
                }
            }
            _ => {}
        }
    }
    let took = start.elapsed();
    if tr.enabled() {
        let stats = core.handle_line(r#"{"cmd":"stats"}"#);
        let v = parse(&stats).expect("stats answers with JSON");
        st.arena_terms
            .push_secs(v.get("arena_terms").and_then(Value::as_f64).unwrap_or(0.0));
        let replay = tr.begin("replay");
        for (w, m) in SESSIONS {
            let w = workload(w).expect("known workload");
            let r = Recipe::new(
                w.session_name,
                parse_mode(m).expect("mode"),
                w.program,
                w.specs,
                w.functions,
            );
            let (session, _) = sessions::build(&r, tr, None);
            sessions::replay_setup(&r, &session, tr);
        }
        tr.end(replay);
    } else {
        st.out.times.setup.push(setup);
        let done = st.out.times.setup.len();
        st.out.note_rss(done);
    }
    st.epochs += 1;
    took
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let stream = stream(cfg.seed);
    let mut st = State::default();
    let mut untraced = Tracer::new(false);
    // One unmeasured epoch: interns every symbol and records the responses
    // every later epoch must repeat.
    epoch(&stream, &mut st, &mut untraced);
    st.out.times = Timings::default();
    st.out.tail_p = 90.0;

    let mut traced_epochs = Samples::default();
    let mut untraced_epochs = Samples::default();
    let start = Instant::now();
    let mut i = 0u64;
    st.out.boundary();
    while i < 2 || start.elapsed() < cfg.seconds {
        if tr.enabled() && i % 2 == 1 {
            traced_epochs.push(epoch(&stream, &mut st, tr));
        } else {
            untraced_epochs.push(epoch(&stream, &mut st, &mut untraced));
        }
        st.out.boundary();
        i += 1;
    }
    let mut out = std::mem::take(&mut st.out);
    out.op_name = "edit: update_spec sent to the following verify answered";
    out.unit_name = "edit";
    out.work_unit = "epoch";
    out.notes.push(format!(
        "{} epochs of {} requests after 7 loads and a cold verify of each session",
        st.epochs,
        stream.len()
    ));

    if tr.enabled() {
        let ops = st.requests_traced;
        let mut layers = Layers::default();
        crate::engine_layers(tr, ops, &mut layers);
        sessions::setup_layers(tr, traced_epochs.len() as f64, &mut layers);
        for kind in [
            Kind::Load,
            Kind::Verify,
            Kind::UpdateSpec,
            Kind::UpdateFn,
            Kind::Lint,
        ] {
            let mut s = Samples::default();
            for d in tr.durations(kind.span()) {
                s.push_secs(d);
            }
            let name = match kind {
                Kind::Load => "server.load_s",
                Kind::Verify => "server.verify_s",
                Kind::UpdateSpec => "server.update_spec_s",
                Kind::UpdateFn => "server.update_fn_s",
                Kind::Lint => "server.lint_s",
            };
            layers.set(name, s.median());
        }
        layers.set(
            "server.dispatch_self_s",
            ratio(tr.counter("server.dispatch_self_s"), ops),
        );
        layers.set(
            "server.reverified_per_edit",
            ratio(st.reverified_in_edits, st.edits),
        );
        layers.set("server.dirtied_per_edit", ratio(st.dirtied, st.edits));
        layers.set("server.cached_ratio", ratio(st.cached, st.answered));
        layers.set("server.arena_terms", st.arena_terms.mean());
        layers.set(
            "trace.overhead_frac",
            traced_epochs.median() / untraced_epochs.median() - 1.0,
        );
        out.layers = layers;
    }
    out
}
