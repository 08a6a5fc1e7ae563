//! Regeneration of the evaluation table of §7 (Table 1): for every internally
//! unsafe module, the verified property, executable lines of code, annotation
//! lines and verification time.
//!
//! Each row is a projection of the [`VerificationReport`] produced by running
//! that module's [`HybridSession`]; the whole table can therefore be
//! regenerated serially (`table1`) or across worker threads
//! (`table1_with_workers`) with identical verdicts.

use crate::{even_int, linked_list, linked_pair, mini_vec, Workload};
use driver::{parallel_map, HybridSession, SessionBuilder, VerificationReport};
use gillian_rust::gilsonite::SpecMode;
use gillian_rust::verifier::CaseReport;
use std::time::Duration;

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Case-study name as it appears in the paper.
    pub name: &'static str,
    /// Verified property ("TS" or "FC").
    pub property: &'static str,
    /// Executable lines of code.
    pub eloc: usize,
    /// Annotation lines of code.
    pub aloc: usize,
    /// Total verification time (CPU time: the sum of per-case times, so the
    /// column is comparable whatever the worker count).
    pub time: Duration,
    /// Whether every function of the module verified.
    pub all_verified: bool,
    /// The individual reports.
    pub reports: Vec<CaseReport>,
}

impl Table1Row {
    /// Projects a batch [`VerificationReport`] onto a table row.
    pub fn from_report(
        name: &'static str,
        property: &'static str,
        eloc: usize,
        aloc: usize,
        report: VerificationReport,
    ) -> Table1Row {
        Table1Row {
            name,
            property,
            eloc,
            aloc,
            time: report.cpu_time(),
            all_verified: report.all_verified(),
            reports: report.into_case_reports(),
        }
    }
}

/// One Table 1 entry: the static columns plus the workload and mode its
/// session is built from. Building the session (the mini-MIR program, spec
/// elaboration, compilation to GIL) is a sizeable share of a row's cost, so
/// callers build it where it runs, e.g. inside a worker thread.
pub struct Table1Case {
    pub name: &'static str,
    pub property: &'static str,
    pub aloc: usize,
    workload: &'static Workload,
    mode: SpecMode,
}

impl Table1Case {
    /// The row's session builder, every knob at its default; the caller
    /// sets workers, branch parallelism, backend, cache and so on.
    pub fn builder(&self) -> SessionBuilder {
        self.workload.builder(self.mode)
    }

    /// Projects `report`, a batch of `session` (built from
    /// [`Table1Case::builder`]), onto the row.
    pub fn row(&self, session: &HybridSession, report: VerificationReport) -> Table1Row {
        let eloc = session.verifier().types.program.executable_lines();
        Table1Row::from_report(self.name, self.property, eloc, self.aloc, report)
    }
}

/// The six Table 1 entries (EvenInt, LP ×2, LinkedList ×2, MiniVec).
pub fn table1_cases() -> Vec<Table1Case> {
    use SpecMode::{FunctionalCorrectness as FC, TypeSafety as TS};
    let case = |workload: &'static Workload, property, mode, aloc| Table1Case {
        name: workload.session_name,
        property,
        aloc,
        workload,
        mode,
    };
    vec![
        case(&even_int::WORKLOAD, "TS/FC", FC, even_int::ALOC),
        case(&linked_pair::WORKLOAD, "TS", TS, linked_pair::ALOC),
        case(&linked_pair::WORKLOAD, "FC", FC, linked_pair::ALOC),
        case(&linked_list::WORKLOAD, "TS", TS, linked_list::ALOC),
        case(&linked_list::WORKLOAD, "FC", FC, linked_list::ALOC),
        case(&mini_vec::WORKLOAD, "FC", FC, mini_vec::ALOC),
    ]
}

/// Runs every case study in both TS and FC mode and returns the table rows
/// (serial: one worker, rows run one after the other).
pub fn table1() -> Vec<Table1Row> {
    table1_with_workers(1)
}

/// Same table with `workers` threads. Rows are the coarse grain: up to
/// `workers` sessions run concurrently (each serial inside), which is where
/// the multi-core speedup of the batch driver comes from — the per-row
/// obligations are few and small, the rows are independent.
pub fn table1_with_workers(workers: usize) -> Vec<Table1Row> {
    parallel_map(table1_cases(), workers, |case| {
        let session = case
            .builder()
            .workers(1)
            .build()
            .expect("Table 1 case studies compile");
        case.row(&session, session.verify_all())
    })
}

/// Renders the table as text (used by the `table1_report` example).
pub fn render(rows: &[Table1Row]) -> String {
    let mut out =
        String::from("| Case | VP | eLoC | aLoC | Time | Verified |\n|---|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.3}s | {} |\n",
            r.name,
            r.property,
            r.eloc,
            r.aloc,
            r.time.as_secs_f64(),
            if r.all_verified { "yes" } else { "PARTIAL" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_rows_and_renders() {
        let rows = table1();
        assert_eq!(rows.len(), 6);
        let text = render(&rows);
        assert!(text.contains("LinkedList"));
        assert!(text.contains("MiniVec"));
    }

    #[test]
    fn parallel_table_matches_serial_verdicts() {
        let serial = table1();
        let parallel = table1_with_workers(4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.all_verified, p.all_verified);
        }
    }
}
