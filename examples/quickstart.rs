//! Quickstart: verify functional correctness of `LinkedList::push_front`
//! (the running example of the paper, §2.2 and Fig. 8) through the
//! `HybridSession` front door.
//!
//! A session bundles the mini-MIR program, its Gilsonite specifications, the
//! verified property and the engine configuration; `verify_all` then runs
//! every target (in parallel when there are several) and aggregates the
//! outcomes into a report.

use case_studies::{linked_list, SpecMode};

fn main() {
    let session = linked_list::WORKLOAD
        .builder(SpecMode::FunctionalCorrectness)
        .build()
        .expect("LinkedList case study compiles");
    let report = session.verify_all();
    print!("{}", report.render_text());

    // Individual obligations can still be driven one by one:
    let push = session.verify_fn("push_front");
    println!(
        "push_front: verified = {} in {:.3}s",
        push.verified,
        push.elapsed.as_secs_f64()
    );
    if let Some(diag) = push.diagnostic {
        println!("  diagnostic [{}]: {}", diag.category(), diag.message());
    }
}
