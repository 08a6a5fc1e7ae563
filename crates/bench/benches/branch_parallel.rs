//! Branch-level parallelism over the Table 1 suite.
//!
//! Re-runs every Table 1 session at several branch-parallelism widths (the
//! engine's work-stealing scheduler distributing sibling branches of one
//! obligation) and compares wall time, per-engine branch counters and
//! verdicts.
//!
//! The run **asserts** the scheduler's contract: identical verdicts and
//! diagnostic fingerprints at every width — branch scheduling is an
//! implementation detail, never an observable one. Results are written to
//! `BENCH_engine.json` at the workspace root (uploaded as a CI artifact by
//! the bench-smoke job, next to `BENCH_solver.json`).
//!
//! `BENCH_QUICK=1` runs a reduced suite (first three rows, widths 1 and 4,
//! still asserting the contract) so CI stays fast.

use case_studies::table1::{table1_cases, Table1Row};
use driver::EngineStats;
use std::time::{Duration, Instant};

struct WidthRun {
    width: usize,
    wall: Duration,
    stats: EngineStats,
    rows: Vec<Table1Row>,
}

fn run_width(width: usize, quick: bool) -> WidthRun {
    let mut cases = table1_cases();
    if quick {
        cases.truncate(3);
    }
    let start = Instant::now();
    let mut stats = EngineStats::default();
    let mut rows = Vec::new();
    for case in cases {
        let session = case
            .builder()
            .workers(1)
            .branch_parallelism(width)
            .build()
            .unwrap();
        let report = session.verify_all();
        let s = report.stats;
        stats.branches += s.branches;
        stats.branches_stolen += s.branches_stolen;
        stats.max_live_branches = stats.max_live_branches.max(s.max_live_branches);
        stats.commands_executed += s.commands_executed;
        rows.push(case.row(&session, report));
    }
    WidthRun {
        width,
        wall: start.elapsed(),
        stats,
        rows,
    }
}

/// Per-target (verdict, diagnostic fingerprint) of a run, for the identity
/// check across widths.
fn outcomes(run: &WidthRun) -> Vec<(String, bool, Option<String>)> {
    run.rows
        .iter()
        .flat_map(|row| {
            let prefix = format!("{}/{}", row.name, row.property);
            row.reports.iter().map(move |r| {
                (
                    format!("{prefix}::{}", r.name),
                    r.verified,
                    r.diagnostic.as_ref().map(|d| d.fingerprint()),
                )
            })
        })
        .collect()
}

fn to_json(runs: &[WidthRun], quick: bool, identical: bool) -> String {
    let mut out = String::from("{");
    out.push_str("\"suite\":\"table1\",");
    out.push_str("\"bench\":\"branch_parallel\",");
    out.push_str(&format!("\"quick\":{quick},"));
    out.push_str(&format!("\"outcomes_identical\":{identical},"));
    out.push_str("\"widths\":[");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"branch_parallelism\":{},\"wall_seconds\":{:.6},\"commands\":{},\"branches\":{},\"branches_stolen\":{},\"max_live_branches\":{},\"rows\":[",
            run.width,
            run.wall.as_secs_f64(),
            run.stats.commands_executed,
            run.stats.branches,
            run.stats.branches_stolen,
            run.stats.max_live_branches,
        ));
        for (j, row) in run.rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"property\":\"{}\",\"all_verified\":{},\"seconds\":{:.6}}}",
                row.name,
                row.property,
                row.all_verified,
                row.time.as_secs_f64(),
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok();
    let widths: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4] };
    println!(
        "== branch_parallel (Table 1 suite{}) ==",
        if quick { ", quick" } else { "" }
    );

    let runs: Vec<WidthRun> = widths
        .iter()
        .map(|&width| {
            let run = run_width(width, quick);
            println!(
                "  width {:<3} wall {:>8.3}s  commands {:>7}  branches {:>5}  stolen {:>5}  max live {:>5}",
                run.width,
                run.wall.as_secs_f64(),
                run.stats.commands_executed,
                run.stats.branches,
                run.stats.branches_stolen,
                run.stats.max_live_branches,
            );
            run
        })
        .collect();

    // The contract: branch scheduling is never observable — identical
    // verdicts and diagnostic fingerprints at every width.
    let reference = outcomes(&runs[0]);
    let identical = runs.iter().all(|r| outcomes(r) == reference);
    assert!(
        identical,
        "branch widths disagree on Table 1 verdicts or diagnostics"
    );
    // Since the LP/FC fix the whole suite verifies; keep it that way.
    for run in &runs {
        for row in &run.rows {
            assert!(
                row.all_verified,
                "width {}: row {} ({}) regressed",
                run.width, row.name, row.property
            );
        }
    }

    let json = to_json(&runs, quick, identical);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    println!("  outcomes identical across widths: {identical}");
    println!("  wrote {path}");
}
