//! Static branch pruning over the Table 1 suite.
//!
//! Re-runs every Table 1 session with the abstract-interpretation oracle on
//! and off, plus the full LinkedList function set (`push_front`/`pop_front`
//! carry the compiled overflow checks the oracle residualises), comparing
//! wall time and kernel leaf-case counts.
//!
//! The run **asserts** the oracle's contract: identical verdicts and
//! diagnostic fingerprints with pruning on and off, pruned leaf cases never
//! above unpruned ones, and a strict reduction on at least one row. Results
//! are written to `BENCH_absint.json` at the workspace root (uploaded as a
//! CI artifact by the bench-smoke job).
//!
//! `BENCH_QUICK=1` runs a reduced suite (first three Table 1 rows plus the
//! full LinkedList row, still asserting the contract) so CI stays fast.

use case_studies::table1::{table1_cases, Table1Row};
use case_studies::{linked_list, SpecMode, Workload};
use driver::SolverStats;
use std::time::{Duration, Instant};

struct RowRun {
    row: Table1Row,
    solver: SolverStats,
}

struct PruneRun {
    prune: bool,
    wall: Duration,
    rows: Vec<RowRun>,
}

/// The full LinkedList set as an extra Table 1 row: the Table 1 entry only
/// verifies `new`, but the overflow checks live in `push_front`/`pop_front`.
fn full_linked_list(prune: bool) -> driver::HybridSession {
    Workload {
        functions: linked_list::FUNCTIONS_FULL,
        ..linked_list::WORKLOAD
    }
    .builder(SpecMode::FunctionalCorrectness)
    .static_prune(prune)
    .build()
    .unwrap()
}

fn run_suite(prune: bool, quick: bool) -> PruneRun {
    let mut cases = table1_cases();
    if quick {
        cases.truncate(3);
    }
    let start = Instant::now();
    let mut rows = Vec::new();
    for case in cases {
        let session = case
            .builder()
            .workers(1)
            .branch_parallelism(1)
            .static_prune(prune)
            .build()
            .unwrap();
        let report = session.verify_all();
        let solver = report.solver;
        rows.push(RowRun {
            row: case.row(&session, report),
            solver,
        });
    }
    {
        let session = full_linked_list(prune);
        let eloc = session.verifier().types.program.executable_lines();
        let report = session.verify_all();
        let solver = report.solver;
        rows.push(RowRun {
            row: Table1Row::from_report("LinkedList (full)", "FC", eloc, linked_list::ALOC, report),
            solver,
        });
    }
    PruneRun {
        prune,
        wall: start.elapsed(),
        rows,
    }
}

/// Per-target (verdict, diagnostic fingerprint) of a run, for the identity
/// check between pruned and unpruned suites.
fn outcomes(run: &PruneRun) -> Vec<(String, bool, Option<String>)> {
    run.rows
        .iter()
        .flat_map(|r| {
            let prefix = format!("{}/{}", r.row.name, r.row.property);
            r.row.reports.iter().map(move |c| {
                (
                    format!("{prefix}::{}", c.name),
                    c.verified,
                    c.diagnostic.as_ref().map(|d| d.fingerprint()),
                )
            })
        })
        .collect()
}

fn to_json(runs: &[PruneRun], quick: bool, identical: bool) -> String {
    let mut out = String::from("{");
    out.push_str("\"suite\":\"table1+linked_list_full\",");
    out.push_str("\"bench\":\"absint\",");
    out.push_str(&format!("\"quick\":{quick},"));
    out.push_str(&format!("\"outcomes_identical\":{identical},"));
    out.push_str("\"runs\":[");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"static_prune\":{},\"wall_seconds\":{:.6},\"rows\":[",
            run.prune,
            run.wall.as_secs_f64(),
        ));
        for (j, r) in run.rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"property\":\"{}\",\"all_verified\":{},\"cases_explored\":{},\"branches_pruned_static\":{},\"absint_facts_seeded\":{},\"seconds\":{:.6}}}",
                r.row.name,
                r.row.property,
                r.row.all_verified,
                r.solver.cases_explored,
                r.solver.branches_pruned_static,
                r.solver.absint_facts_seeded,
                r.row.time.as_secs_f64(),
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok();
    println!(
        "== absint (Table 1 suite + full LinkedList{}) ==",
        if quick { ", quick" } else { "" }
    );

    let runs: Vec<PruneRun> = [true, false]
        .iter()
        .map(|&prune| {
            let run = run_suite(prune, quick);
            println!(
                "  static_prune {:<5} wall {:>8.3}s",
                prune,
                run.wall.as_secs_f64()
            );
            for r in &run.rows {
                println!(
                    "    {:<20} {:<5} leaves {:>6}  pruned {:>4}  seeded {:>4}",
                    r.row.name,
                    r.row.property,
                    r.solver.cases_explored,
                    r.solver.branches_pruned_static,
                    r.solver.absint_facts_seeded,
                );
            }
            run
        })
        .collect();

    // The contract: the oracle changes work, never answers.
    let identical = outcomes(&runs[0]) == outcomes(&runs[1]);
    assert!(
        identical,
        "static pruning changed a Table 1 verdict or diagnostic"
    );
    for run in &runs {
        for r in &run.rows {
            assert!(
                r.row.all_verified,
                "prune={}: row {} ({}) regressed",
                run.prune, r.row.name, r.row.property
            );
        }
    }

    // Pruned leaf cases never exceed unpruned ones; at least one row is a
    // strict improvement (the full LinkedList row is the designed witness).
    let (on, off) = (&runs[0], &runs[1]);
    let mut any_strict = false;
    for (a, b) in on.rows.iter().zip(off.rows.iter()) {
        assert!(
            a.solver.cases_explored <= b.solver.cases_explored,
            "pruning added leaf cases on {} ({}): {} > {}",
            a.row.name,
            a.row.property,
            a.solver.cases_explored,
            b.solver.cases_explored
        );
        assert_eq!(b.solver.branches_pruned_static, 0, "{}", b.row.name);
        assert_eq!(b.solver.absint_facts_seeded, 0, "{}", b.row.name);
        if a.solver.cases_explored < b.solver.cases_explored {
            any_strict = true;
        }
    }
    assert!(
        any_strict,
        "no row explored strictly fewer leaf cases with pruning on"
    );

    let json = to_json(&runs, quick, identical);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_absint.json");
    std::fs::write(path, &json).expect("write BENCH_absint.json");
    println!("  outcomes identical with pruning on/off: {identical}");
    println!("  wrote {path}");
}
