//! Runs a single proof of the full LinkedList API (the multi-minute
//! `push_front`/`pop_front` searches measured in EXPERIMENTS.md) and prints
//! the report plus the raw engine statistics — the instrument used to tune
//! the recovery heuristics.
//!
//! ```sh
//! cargo run --release --example linked_list_full -- push_front ts
//! cargo run --release --example linked_list_full -- pop_front fc
//! ```

use case_studies::{linked_list, SpecMode, Workload};

fn main() {
    let mut args = std::env::args().skip(1);
    let function = args.next().unwrap_or_else(|| "push_front".to_owned());
    let mode = match args.next().as_deref() {
        Some("ts") => SpecMode::TypeSafety,
        _ => SpecMode::FunctionalCorrectness,
    };
    let target = linked_list::FUNCTIONS_FULL
        .iter()
        .find(|f| **f == function)
        .unwrap_or_else(|| panic!("`{function}` is not in {:?}", linked_list::FUNCTIONS_FULL));
    let one = Workload {
        functions: std::slice::from_ref(target),
        ..linked_list::WORKLOAD
    };
    let session = one
        .builder(mode)
        .build()
        .expect("LinkedList case study compiles");
    let report = session.verify_all();
    print!("{}", report.render_text());
    println!("engine stats: {:#?}", report.stats);
    println!("solver stats: {:#?}", report.solver);
}
