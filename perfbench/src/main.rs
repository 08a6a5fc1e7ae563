//! The repository benchmark: three seeded, closed-loop, single-client
//! workloads driven in-process through the public APIs of `driver`,
//! `server` and `proof-cache`.
//!
//! ```text
//! perfbench --workload <cold_batch|daemon_edit|cache_restart> --seed <n>
//!           --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it alternates traced and untraced operations and
//! reports the per-layer metrics, including the tracing overhead; the spans
//! are written to `<work-dir>/spans-<workload>-<seed>.tsv`. Every verdict
//! is checked against the table in `verdicts.rs`, and verdicts and counters
//! must repeat exactly across the repeats of a run. The last line of
//! standard output is one JSON object with the result. `LAYERS.md` maps
//! each per-layer metric to the end-to-end metric it should move.

mod cache_restart;
mod cold_batch;
mod daemon_edit;
mod sessions;
mod stats;
mod trace;
mod verdicts;

use driver::{EngineStats, SolverStats};
use gillian_server::Value;
use gillian_solver::Symbol;
use stats::{ratio, Timings};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use trace::Tracer;

pub struct Config {
    pub seed: u64,
    pub seconds: Duration,
    pub work_dir: PathBuf,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Set-up time of each pass, epoch or restart; the workload's
    /// operation (a cold pass, an edit, a warm restart); every top-level
    /// call (`verify_all` or `handle_line`).
    pub times: Timings,
    pub op_name: &'static str,
    pub unit_name: &'static str,
    /// One unit of measured work: a pass, an epoch, a cycle.
    pub work_unit: &'static str,
    /// The tail percentile of the operation, fixed per workload so that
    /// every run reports the same statistic.
    pub tail_p: f64,
    pub tally: verdicts::Tally,
    /// Peak resident set after [`RSS_EARLY_UNITS`] and [`RSS_LATE_UNITS`]
    /// units of measured work (see [`Outcome::note_rss`]).
    pub rss_early_mb: Option<f64>,
    pub rss_late_mb: Option<f64>,
    /// Symbols in the global interner at each unit boundary.
    pub symbols: Vec<u64>,
    /// Operations that failed other than by a verdict (refused requests,
    /// unexpected cache misses).
    pub other_failed: u64,
    pub other_attempted: u64,
    /// Determinism violations: verdicts or counters that did not repeat.
    pub mismatches: Vec<String>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
    pub layers: Layers,
}

impl Outcome {
    /// A boundary between units of measured work: calibrates the unit that
    /// ended (see [`Timings::boundary`]) and notes the interner's size.
    pub fn boundary(&mut self) {
        self.times.boundary();
        self.symbols.push(interned_symbols());
    }

    /// Reads the peak resident set once `done` measured units are done.
    pub fn note_rss(&mut self, done: usize) {
        if done == RSS_EARLY_UNITS {
            self.rss_early_mb = Some(peak_rss_mb());
        } else if done == RSS_LATE_UNITS {
            self.rss_late_mb = Some(peak_rss_mb());
        }
    }
}

/// Symbols the global interner holds, not counting this function's own
/// probes. Interning is append-only, so a new name's index is the count.
fn interned_symbols() -> u64 {
    static PROBES: AtomicU64 = AtomicU64::new(0);
    let k = PROBES.fetch_add(1, Ordering::Relaxed);
    Symbol::new(&format!("perfbench%probe%{k}")).index() as u64 - k
}

/// `(name, unit)` of every per-layer metric, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("solver.kernel_s", "s"),
    ("solver.leaf_cases", "count"),
    ("solver.queries", "count"),
    ("solver.cache_hit_ratio", "ratio"),
    ("gillian.self_s", "s"),
    ("gillian.target_residual_s", "s"),
    ("gillian.commands", "count"),
    ("gillian.branches", "count"),
    ("gillian.folds", "count"),
    ("gillian.unfolds", "count"),
    ("gillian.recoveries", "count"),
    ("gillian.consumer_calls", "count"),
    ("absint.pruned", "count"),
    ("absint.facts_seeded", "count"),
    ("rust-ir.program_s", "s"),
    ("core.specs_s", "s"),
    ("creusot-lite.elaborate_s", "s"),
    ("core.compile_s", "s"),
    ("absint.analyze_s", "s"),
    ("lint.lint_s", "s"),
    ("lint.vacuity_s", "s"),
    ("driver.build_s", "s"),
    ("driver.build_residual_s", "s"),
    ("driver.batch_overhead_s", "s"),
    ("server.load_s", "s"),
    ("server.verify_s", "s"),
    ("server.update_spec_s", "s"),
    ("server.update_fn_s", "s"),
    ("server.lint_s", "s"),
    ("server.dispatch_self_s", "s"),
    ("server.reverified_per_edit", "count"),
    ("server.dirtied_per_edit", "count"),
    ("server.cached_ratio", "ratio"),
    ("server.arena_terms", "count"),
    ("proof-cache.lookup_s", "s"),
    ("proof-cache.lookups", "count"),
    ("proof-cache.hit_ratio", "ratio"),
    ("proof-cache.bytes", "bytes"),
    ("proof-cache.insert_s", "s"),
    ("proof-cache.inserts", "count"),
    ("solver.symbols_interned", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer metric values; a layer a workload does not exercise reads 0.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }
}

/// Engine and solver counts that must repeat exactly (timings excluded).
pub fn counts_digest(e: &EngineStats, s: &SolverStats) -> String {
    format!(
        "cmd={} act={} br={} paths={} fold={} unfold={} rec={} cons={} prod={} | \
         unsat={} ent={} leaf={} hits={} incr={} pruned={} facts={}",
        e.commands_executed,
        e.actions,
        e.branches,
        e.paths_completed,
        e.folds,
        e.unfolds,
        e.recoveries,
        e.consumer_calls,
        e.producer_calls,
        s.unsat_queries,
        s.entailment_queries,
        s.cases_explored,
        s.cache_hits,
        s.incremental_hits,
        s.branches_pruned_static,
        s.absint_facts_seeded,
    )
}

/// Accumulates one call's engine and solver counts into the tracer.
pub fn count_engine(tr: &mut Tracer, e: &EngineStats, s: &SolverStats) {
    tr.count("gillian.commands", e.commands_executed as f64);
    tr.count("gillian.branches", e.branches as f64);
    tr.count("gillian.folds", e.folds as f64);
    tr.count("gillian.unfolds", e.unfolds as f64);
    tr.count("gillian.recoveries", e.recoveries as f64);
    tr.count("gillian.consumer_calls", e.consumer_calls as f64);
    tr.count("solver.leaf_cases", s.cases_explored as f64);
    tr.count(
        "solver.queries",
        (s.unsat_queries + s.entailment_queries) as f64,
    );
    tr.count("solver.cache_hits", s.cache_hits as f64);
    tr.count("absint.pruned", s.branches_pruned_static as f64);
    tr.count("absint.facts_seeded", s.absint_facts_seeded as f64);
}

/// Engine and solver layer metrics from the counters, per operation.
pub fn engine_layers(tr: &Tracer, ops: f64, out: &mut Layers) {
    for name in [
        "solver.kernel_s",
        "solver.leaf_cases",
        "solver.queries",
        "gillian.self_s",
        "gillian.commands",
        "gillian.branches",
        "gillian.folds",
        "gillian.unfolds",
        "gillian.recoveries",
        "gillian.consumer_calls",
        "absint.pruned",
        "absint.facts_seeded",
    ] {
        out.set(name, ratio(tr.counter(name), ops));
    }
    out.set(
        "solver.cache_hit_ratio",
        ratio(
            tr.counter("solver.cache_hits"),
            tr.counter("solver.queries"),
        ),
    );
}

/// A known-false target was proved: stop outright, printing no result.
pub fn soundness_bug(what: &str) -> ! {
    eprintln!("perfbench: SOUNDNESS BUG: {what}");
    std::process::exit(3);
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Measured units (passes, epochs, cycles) after which the peak resident
/// set is read: fixed amounts of work, so a faster program that fits more
/// units into a run is not charged for them. The difference between the
/// two reads is the growth of a resident process (see LAYERS.md).
const RSS_EARLY_UNITS: usize = 5;
const RSS_LATE_UNITS: usize = 25;

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0
}

fn parse_args() -> Result<(String, Config, bool), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work_dir = PathBuf::from("perfbench/target");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let cfg = Config {
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        work_dir,
    };
    Ok((
        workload.ok_or("--workload is required")?,
        cfg,
        trace.unwrap_or(false),
    ))
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".to_string(), Value::Float(value)),
        ("unit".to_string(), Value::str(unit)),
    ])
}

fn main() {
    let (workload, cfg, traced) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work_dir.display());
        std::process::exit(2);
    }
    let mut tr = Tracer::new(traced);
    let out = match workload.as_str() {
        "cold_batch" => cold_batch::run(&cfg, &mut tr),
        "daemon_edit" => daemon_edit::run(&cfg, &mut tr),
        "cache_restart" => cache_restart::run(&cfg, &mut tr),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let t = &out.times;
    let rss_early = out.rss_early_mb.unwrap_or_else(peak_rss_mb);
    let growth = match out.rss_late_mb {
        Some(late) => format!(
            "{late:.3} MiB after {RSS_LATE_UNITS} ({:.1} KiB per unit)",
            (late - rss_early) * 1024.0 / (RSS_LATE_UNITS - RSS_EARLY_UNITS) as f64
        ),
        None => format!(
            "{:.3} MiB at the end (fewer than {RSS_LATE_UNITS} units)",
            peak_rss_mb()
        ),
    };
    let units = out.symbols.len().saturating_sub(1) as f64;
    let symbols_per_unit = match (out.symbols.first(), out.symbols.last()) {
        (Some(first), Some(last)) => ratio((last - first) as f64, units),
        _ => 0.0,
    };

    let attempted = out.tally.checked + out.other_attempted;
    let failed = out.tally.unproved + out.other_failed;
    let tail_p = out.tail_p;
    println!(
        "# workload {workload}, seed {}, {:.0} s, trace {}, workers=1, branch_parallelism=1",
        cfg.seed,
        cfg.seconds.as_secs_f64(),
        traced as u8
    );
    let beyond = (t.op.len() as f64 * (100.0 - tail_p) / 100.0).floor();
    println!(
        "op = {}: {} x {} measured untraced; tail = p{tail_p} of those samples ({beyond} beyond it{})",
        out.op_name,
        t.op.len(),
        out.unit_name,
        if beyond < 10.0 { "; fewer than 10, the run is too short" } else { "" },
    );
    println!(
        "calibration: reference computation timed at {} unit boundaries, p50 {:.4} ms \
         (p10 {:.4}, p90 {:.4}); calibrated times are in seconds at the reference's \
         {:.1} ms",
        t.reference.len(),
        t.reference.median() * 1e3,
        t.reference.percentile(10.0) * 1e3,
        t.reference.percentile(90.0) * 1e3,
        stats::REFERENCE_S * 1e3,
    );
    println!(
        "memory: peak RSS {rss_early:.3} MiB after {RSS_EARLY_UNITS} units of work (unit: \
         {unit}), {growth}; {symbols_per_unit:.0} symbols interned per unit (never \
         freed)",
        unit = out.work_unit,
    );
    println!(
        "verdicts: {} checked, {} must_prove/open of which {} proved, {} must_prove unproved; \
         other operations: {} of {} failed; ops_failed_frac = {:.4}",
        out.tally.checked,
        out.tally.provable,
        out.tally.proved,
        out.tally.unproved,
        out.other_failed,
        out.other_attempted,
        ratio(failed as f64, attempted as f64)
    );
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.mismatches {
        println!("DETERMINISM MISMATCH: {m}");
    }
    let correct = out.mismatches.is_empty() && out.tally.unsound == 0;

    let mut metrics: Vec<(String, Value)> = Vec::new();
    let mut show = |name: &str, value: f64, unit: &str| {
        println!("metric {name} = {value:.6} {unit}");
        metrics.push((name.to_string(), metric(value, unit)));
    };
    if traced {
        let mut layers = out.layers;
        layers.set("solver.symbols_interned", symbols_per_unit);
        for (name, unit) in PER_LAYER {
            show(name, layers.0.get(name).copied().unwrap_or(0.0), unit);
        }
        let path = cfg
            .work_dir
            .join(format!("spans-{workload}-{}.tsv", cfg.seed));
        if let Err(e) = tr.write_spans(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("spans written to {}", path.display());
    } else {
        show("setup_s", t.cal_setup.median(), "s");
        show("op_p50_ms", t.cal_op.median() * 1e3, "ms");
        show("op_tail_ms", t.cal_op.percentile(tail_p) * 1e3, "ms");
        show("req_p50_ms", t.cal_req.median() * 1e3, "ms");
        show(
            "req_per_s",
            ratio(t.cal_req.len() as f64, t.cal_req.sum()),
            "1/s",
        );
        show("proved_frac", out.tally.proved_frac(), "ratio");
        show("peak_rss_mb", rss_early, "MiB");
        // The workload's own names for the figures above, as measured and
        // calibrated.
        let (p50, tail) = (t.op.median(), t.op.percentile(tail_p));
        let (cal_p50, cal_tail) = (t.cal_op.median(), t.cal_op.percentile(tail_p));
        let (scale, unit, names) = match workload.as_str() {
            "cold_batch" => (1.0, "s", ["batch_p50_s", "batch_tail_s"]),
            "daemon_edit" => (1e3, "ms", ["edit_p50_ms", "edit_tail_ms"]),
            _ => (1e3, "ms", ["restart_p50_ms", "restart_tail_ms"]),
        };
        let named = [
            (names[0], p50 * scale, cal_p50 * scale, unit),
            (names[1], tail * scale, cal_tail * scale, unit),
            (
                "req_p50_ms",
                t.req.median() * 1e3,
                t.cal_req.median() * 1e3,
                "ms",
            ),
            ("setup_s", t.setup.median(), t.cal_setup.median(), "s"),
        ];
        for (name, measured, calibrated, unit) in named {
            println!(
                "named {name} = {measured:.6} {unit} measured, {calibrated:.6} {unit} calibrated"
            );
        }
        println!(
            "named: the other workload-specific names (batch_*, edit_*, restart_*, \
             fill_p50_ms) belong to the other workloads; see LAYERS.md"
        );
    }
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Int(attempted as i64)),
        ("failed".to_string(), Value::Int(failed as i64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    println!("{result}");
}
