//! Branch-level parallelism: determinism and plumbing.
//!
//! The engine's work-stealing scheduler (`gillian_engine::schedule`) must be
//! an implementation detail: verdicts, diagnostics and solver work counters
//! have to be identical whatever the branch worker count or the obligation
//! worker count, because branches carry fork paths (results are reordered to
//! canonical depth-first order, failures resolve to the lexicographically
//! least failing branch) and the caching backend computes every distinct
//! query exactly once (concurrent askers park on the in-flight entry).

use case_studies::table1::{table1_cases, Table1Row};
use case_studies::{even_int, SpecMode};
use driver::{HybridSession, SolverStats};
use gillian_rust::gilsonite::lv;
use gillian_solver::Expr;

/// Runs the full Table 1 suite with the given obligation-worker and
/// branch-worker widths, returning each row plus its per-session solver
/// statistics (every row owns its solver hub, so the counters are
/// row-scoped and comparable across runs).
fn run_table1(workers: usize, branch_parallelism: usize) -> Vec<(Table1Row, SolverStats)> {
    table1_cases()
        .into_iter()
        .map(|case| {
            let session = case
                .builder()
                .workers(workers)
                .branch_parallelism(branch_parallelism)
                .build()
                .unwrap();
            let report = session.verify_all();
            let solver = report.solver;
            (case.row(&session, report), solver)
        })
        .collect()
}

fn assert_rows_identical(a: &[(Table1Row, SolverStats)], b: &[(Table1Row, SolverStats)]) {
    assert_eq!(a.len(), b.len());
    for ((ra, sa), (rb, sb)) in a.iter().zip(b.iter()) {
        assert_eq!(ra.name, rb.name);
        assert_eq!(ra.property, rb.property);
        assert_eq!(
            ra.all_verified, rb.all_verified,
            "verdict of row {} ({})",
            ra.name, ra.property
        );
        assert_eq!(ra.reports.len(), rb.reports.len());
        for (ca, cb) in ra.reports.iter().zip(rb.reports.iter()) {
            assert_eq!(ca.name, cb.name);
            assert_eq!(
                ca.verified, cb.verified,
                "case {} of row {}",
                ca.name, ra.name
            );
            let fp = |c: &gillian_rust::verifier::CaseReport| {
                c.diagnostic.as_ref().map(|d| d.fingerprint())
            };
            assert_eq!(fp(ca), fp(cb), "diagnostic of {} / {}", ra.name, ca.name);
        }
        // The caching backend computes each distinct query exactly once
        // (in-flight parking), so the kernel-work counter is exact whatever
        // the interleaving.
        assert_eq!(
            sa.cases_explored, sb.cases_explored,
            "solver leaf cases of row {} ({})",
            ra.name, ra.property
        );
    }
}

/// Acceptance: the full Table 1 suite is verdict-, diagnostic- and
/// leaf-case-identical with branch parallelism off and on.
#[test]
fn table1_branch_parallel_matches_serial() {
    let serial = run_table1(1, 1);
    let branchy = run_table1(1, 4);
    assert_rows_identical(&serial, &branchy);
    // Every row verifies since the LP/FC fix — keep it that way.
    for (row, _) in &serial {
        assert!(row.all_verified, "row {} ({})", row.name, row.property);
    }
}

/// The satellite determinism matrix: obligation workers 1 vs 4, with branch
/// parallelism on in both runs.
#[test]
fn table1_is_deterministic_across_worker_counts_with_branch_parallelism() {
    let one = run_table1(1, 4);
    let four = run_table1(4, 4);
    assert_rows_identical(&one, &four);
}

/// A mixed (passing + deliberately failing) batch: the failing branch is
/// selected deterministically (lexicographically least fork path), so the
/// structured diagnostic is identical at any branch width.
fn mixed_session(branch_parallelism: usize) -> HybridSession {
    HybridSession::builder()
        .name("EvenInt (mixed, branch-parallel)")
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
        .verify_fns(even_int::FUNCTIONS.iter().copied())
        .branch_parallelism(branch_parallelism)
        .build()
        .unwrap()
}

#[test]
fn failing_diagnostics_are_identical_at_any_branch_width() {
    let serial = mixed_session(1).verify_all();
    let branchy = mixed_session(4).verify_all();
    assert!(!serial.all_verified());
    assert_eq!(serial.cases.len(), branchy.cases.len());
    for (s, p) in serial.cases.iter().zip(branchy.cases.iter()) {
        assert_eq!(s.name(), p.name());
        assert_eq!(s.verified(), p.verified(), "verdict of {}", s.name());
        let fp = |c: &driver::CaseOutcome| c.diagnostic().map(|d| d.fingerprint());
        assert_eq!(fp(s), fp(p), "diagnostic of {}", s.name());
    }
}

/// The new knob and counters surface through the session and the report.
#[test]
fn branch_parallelism_knob_and_counters_are_reported() {
    let session = mixed_session(3);
    assert_eq!(session.branch_parallelism(), 3);
    let report = session.verify_all();
    assert_eq!(report.branch_parallelism, 3);
    assert!(
        report.stats.max_live_branches >= 1,
        "at least the root branch was live"
    );
    let json = report.to_json();
    assert!(json.contains("\"branch_parallelism\":3"));
    assert!(json.contains("\"branches_stolen\":"));
    assert!(json.contains("\"max_live_branches\":"));
    let text = report.render_text();
    assert!(text.contains("branch worker(s)"));
}
