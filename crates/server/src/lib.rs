//! # gillian-server
//!
//! `gillian serve` — a persistent verification daemon with
//! dependency-tracked incremental re-verification.
//!
//! A batch run pays the whole pipeline — program compilation, spec
//! elaboration, engine construction, every proof — on every invocation. The
//! daemon keeps the expensive immutable state alive between requests (the
//! hash-consing term arena, the compiled GIL program, the elaborated
//! specification context) and, crucially, *remembers which items each proof
//! read*: the engine's `Prog` lookups are recorded per verification target
//! and keyed by proof-cache's stable fingerprints (the ones on disk), so an
//! `update_spec` request dirties only the reverse-dependency cone of the
//! edited item and the next `verify` answers all other targets from the
//! retained outcome cache.
//!
//! The wire protocol is newline-delimited JSON over stdin/stdout (or a Unix
//! socket behind `--socket`); see [`protocol`] for request shapes and
//! [`server`] for the response fields.

pub mod db;
pub mod depgraph;
pub mod json;
pub mod protocol;
pub mod server;

pub use db::{
    chain_program, mode_label, parse_mode, workload, ProgramDb, Workload, DEFAULT_MODE, WORKLOADS,
};
pub use depgraph::{DepKey, DepTracker};
pub use json::{parse, JsonError, Value};
pub use protocol::{parse_request, Envelope, Request};
pub use server::{lint_array, serve_stdio_shared, serve_unix, DispatchError, ServerCore};

/// The item-fingerprint contract the daemon's dependency tracker relies on.
/// The tracker records proof-cache's stable fingerprints (the values written
/// to disk), so these tests pin, from the server's side, the properties of
/// [`proof_cache::stable_fingerprint_key`] that cone invalidation needs.
#[cfg(test)]
mod fingerprint {
    mod tests {
        use gillian_engine::gil::{Cmd, DepKind, Proc, Prog};
        use gillian_engine::{Asrt, Spec};
        use gillian_solver::{Expr, Symbol};
        use proof_cache::{stable_fingerprint_key, stable_proc, stable_spec};

        fn spec(delta: i128) -> Spec {
            Spec::new(
                "f",
                Asrt::pure(Expr::le(Expr::lvar("x"), Expr::Int(1000))),
                Asrt::pure(Expr::eq(
                    Expr::lvar("ret"),
                    Expr::add(Expr::lvar("x"), Expr::Int(delta)),
                )),
            )
        }

        #[test]
        fn identical_content_same_fingerprint() {
            assert_eq!(stable_spec(&spec(1)), stable_spec(&spec(1)));
        }

        #[test]
        fn different_content_different_fingerprint() {
            assert_ne!(stable_spec(&spec(1)), stable_spec(&spec(2)));
            assert_ne!(stable_spec(&spec(1)), stable_spec(&spec(1).trusted()));
        }

        #[test]
        fn absent_keys_are_stable_and_kind_distinct() {
            let prog = Prog::new();
            let name = Symbol::new("ghost");
            let a = stable_fingerprint_key(&prog, DepKind::Spec, name);
            let b = stable_fingerprint_key(&prog, DepKind::Spec, name);
            assert_eq!(a, b);
            assert_ne!(a, stable_fingerprint_key(&prog, DepKind::Proc, name));
        }

        #[test]
        fn adding_an_item_changes_its_key_fingerprint() {
            let mut prog = Prog::new();
            let name = Symbol::new("f");
            let before = stable_fingerprint_key(&prog, DepKind::Spec, name);
            prog.add_spec(spec(1));
            let after = stable_fingerprint_key(&prog, DepKind::Spec, name);
            assert_ne!(before, after);
        }

        #[test]
        fn absent_sentinels_are_pinned_golden_values() {
            // A recorded lookup miss is a dependency: the tracker stores the
            // per-kind sentinel, and records on disk carry the same value, so
            // it must reproduce bit-for-bit in every process and for every
            // name. If this test fails, the hasher or the sentinel changed —
            // bump CACHE_FORMAT_VERSION in proof-cache and repin.
            let prog = Prog::new();
            let got: Vec<String> = DepKind::ALL
                .iter()
                .map(|k| {
                    let fp = stable_fingerprint_key(&prog, *k, Symbol::new("ghost"));
                    assert_eq!(fp, stable_fingerprint_key(&prog, *k, Symbol::new("other")));
                    format!("{fp:016x}")
                })
                .collect();
            assert_eq!(
                got,
                [
                    "006e9c3121da53d7",
                    "a46d6af96207fc02",
                    "2701b32be4786abc",
                    "d4d43993540f885a",
                    "b963ab2fe4e54709",
                ]
            );
        }

        #[test]
        fn proc_fingerprint_tracks_body_changes() {
            let a = Proc::new("f", &["x"], vec![Cmd::Return(Expr::pvar("x"))]);
            let b = Proc::new(
                "f",
                &["x"],
                vec![Cmd::Return(Expr::add(Expr::pvar("x"), Expr::Int(1)))],
            );
            assert_eq!(stable_proc(&a), stable_proc(&a));
            assert_ne!(stable_proc(&a), stable_proc(&b));
        }
    }
}
