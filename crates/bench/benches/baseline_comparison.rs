//! E3 — comparison against the RefinedRust-style baseline: the same
//! verification obligations with the paper's automations disabled
//! (`SessionBuilder::baseline`). The paper reports orders-of-magnitude gaps
//! (EvenInt: 0.04 s vs 4 m 36 s; MiniVec: 1.35 s vs 30 m 40 s); here the
//! baseline mode fails to discharge the obligations automatically at all,
//! which we report as the time it takes to exhaust its search.

use case_studies::{even_int, SpecMode};
use driver::HybridSession;
use hybrid_bench::Criterion;

fn bench_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline_comparison");
    group.sample_size(10);
    group.bench_function("EvenInt/automated", |b| {
        b.iter(|| {
            let session = even_int::WORKLOAD.builder(SpecMode::FunctionalCorrectness);
            session.build().unwrap().verify_all()
        })
    });
    group.bench_function("EvenInt/baseline(no automation)", |b| {
        b.iter(|| {
            HybridSession::builder()
                .name("EvenInt (baseline)")
                .program(even_int::program())
                .mode(SpecMode::FunctionalCorrectness)
                .specs(even_int::gilsonite)
                .baseline()
                .verify_fns(even_int::FUNCTIONS.iter().copied())
                .workers(1)
                .build()
                .unwrap()
                .verify_all()
        })
    });
    group.finish();
}

fn main() {
    let mut c = Criterion::from_env();
    bench_baseline(&mut c);
}
