//! Verifies the MiniVec case study (§7): laid-out nodes, symbolic pointer
//! arithmetic and growth by reallocation.

use case_studies::{mini_vec, SpecMode};

fn main() {
    let session = mini_vec::WORKLOAD
        .builder(SpecMode::FunctionalCorrectness)
        .build()
        .expect("MiniVec case study compiles");
    let report = session.verify_all();
    print!("{}", report.render_text());
    println!("\nJSON: {}", report.to_json());
}
