//! # case-studies
//!
//! The paper's evaluation subjects (§7), expressed in mini-MIR with their
//! Gilsonite ownership predicates and hybrid specifications:
//!
//! * [`even_int`] — the EvenInt structure from the RefinedRust evaluation;
//! * [`linked_pair`] — the "LP" tutorial structure;
//! * [`linked_list`] — the standard-library-style doubly-linked list;
//! * [`mini_vec`] — the simple vector used as a RefinedRust case study.
//!
//! Each module exports its program, specifications, target list and aLoC,
//! plus a `WORKLOAD` entry of the [`WORKLOADS`] registry, which the batch
//! driver, the daemon and the `gillian` CLI all build sessions from:
//! `linked_list::WORKLOAD.builder(mode)` returns a
//! [`SessionBuilder`] with name, program, specs and targets set.
//!
//! [`table1`] regenerates the evaluation table (verified property, eLoC,
//! aLoC, verification time) for all of them.

pub mod even_int;
pub mod linked_list;
pub mod linked_pair;
pub mod mini_vec;
pub mod table1;
pub mod workload;

pub use driver::{HybridSession, SessionBuilder, VerificationReport};
pub use gillian_rust::gilsonite::SpecMode;
pub use table1::{table1, table1_cases, table1_with_workers, Table1Case, Table1Row};
pub use workload::{chain_program, workload, Workload, DEFAULT_MODE, WORKLOADS};
