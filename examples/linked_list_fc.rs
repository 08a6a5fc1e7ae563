//! Verifies type safety and functional correctness of the LinkedList case
//! study (the §7 LinkedList rows of Table 1) and prints the session reports.

use case_studies::{linked_list, SpecMode};

fn main() {
    for mode in [SpecMode::TypeSafety, SpecMode::FunctionalCorrectness] {
        let session = linked_list::WORKLOAD.builder(mode).build();
        let report = session
            .expect("LinkedList case study compiles")
            .verify_all();
        print!("{}", report.render_text());
    }
}
