//! The daemon's program database: a loaded workload, its live
//! [`HybridSession`], and a side [`GilsoniteCtx`] used to re-elaborate
//! specifications on `update_spec` requests.
//!
//! The workloads themselves are the `case-studies` registry
//! ([`case_studies::WORKLOADS`]): the paper's Table 1 case studies plus the
//! small `chain` demo.

pub use case_studies::{chain_program, workload, Workload, DEFAULT_MODE, WORKLOADS};
use driver::HybridSession;
use gillian_rust::gilsonite::{GilsoniteCtx, SpecMode};

/// Parses a wire mode string.
pub fn parse_mode(s: &str) -> Option<SpecMode> {
    match s {
        "ts" | "type-safety" | "type_safety" => Some(SpecMode::TypeSafety),
        "fc" | "functional-correctness" | "functional_correctness" => {
            Some(SpecMode::FunctionalCorrectness)
        }
        _ => None,
    }
}

/// Renders a mode for responses.
pub fn mode_label(mode: SpecMode) -> &'static str {
    match mode {
        SpecMode::TypeSafety => "ts",
        SpecMode::FunctionalCorrectness => "fc",
    }
}

/// A loaded workload: the immutable program side (interned terms, layouts,
/// elaborated specs) lives inside the session's verifier and is shared by
/// every subsequent request; `side_ctx` re-elaborates updated specs against
/// the same type registry.
pub struct ProgramDb {
    pub workload: &'static Workload,
    pub mode: SpecMode,
    pub session: HybridSession,
    pub side_ctx: GilsoniteCtx,
}

impl ProgramDb {
    /// Builds the session (and the side elaboration context) for a workload.
    pub fn load(
        name: &str,
        mode: Option<SpecMode>,
        workers: Option<usize>,
        branch_parallelism: Option<usize>,
    ) -> Result<ProgramDb, String> {
        let w = workload(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (known: {})", known.join(", "))
        })?;
        let mode = mode.unwrap_or(DEFAULT_MODE);
        let mut builder = w.builder(mode);
        if let Some(n) = workers {
            builder = builder.workers(n);
        }
        if let Some(n) = branch_parallelism {
            builder = builder.branch_parallelism(n);
        }
        let session = builder.build().map_err(|e| e.to_string())?;
        let side_ctx = (w.specs)(&session.verifier().types, mode);
        Ok(ProgramDb {
            workload: w,
            mode,
            session,
            side_ctx,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_verifies_in_fc_mode() {
        let db = ProgramDb::load("chain", None, Some(1), Some(1)).unwrap();
        let report = db.session.verify_all();
        assert!(report.all_verified(), "{}", report.render_text());
        assert_eq!(report.cases.len(), 3);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let err = match ProgramDb::load("nope", None, None, None) {
            Err(e) => e,
            Ok(_) => panic!("load of an unknown workload must fail"),
        };
        assert!(err.contains("unknown workload"), "{err}");
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(workload("lp").unwrap().name, "linked_pair");
        assert_eq!(workload("vec").unwrap().name, "mini_vec");
    }

    #[test]
    fn mode_parsing_round_trips() {
        assert_eq!(parse_mode("ts"), Some(SpecMode::TypeSafety));
        assert_eq!(parse_mode("fc"), Some(SpecMode::FunctionalCorrectness));
        assert_eq!(
            parse_mode(mode_label(SpecMode::TypeSafety)),
            Some(SpecMode::TypeSafety)
        );
        assert!(parse_mode("nope").is_none());
    }
}
