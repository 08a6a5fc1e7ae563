//! E5 — ablation of the borrow automation of §4.2: LinkedList verification
//! with the automatic borrow opening / heuristic unfolding on (the paper's
//! configuration) versus off. With the automation disabled the proofs fail,
//! so the measured quantity is time-to-failure; the number of automatic
//! borrow openings/closings is reported by the engine statistics.

use case_studies::{even_int, linked_list, SpecMode};
use driver::HybridSession;
use hybrid_bench::Criterion;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_borrows");
    group.sample_size(10);
    group.bench_function("LinkedList(new)/auto_borrows_on", |b| {
        b.iter(|| {
            let session = linked_list::WORKLOAD.builder(SpecMode::FunctionalCorrectness);
            session.build().unwrap().verify_all()
        })
    });
    group.bench_function("EvenInt/auto_borrows_on", |b| {
        b.iter(|| {
            let session = even_int::WORKLOAD.builder(SpecMode::FunctionalCorrectness);
            session.build().unwrap().verify_all()
        })
    });
    group.bench_function("LinkedList(new)/auto_borrows_off", |b| {
        b.iter(|| {
            HybridSession::builder()
                .name("LinkedList (ablation)")
                .program(linked_list::program())
                .mode(SpecMode::FunctionalCorrectness)
                .specs(linked_list::gilsonite)
                .baseline()
                .verify_fns(linked_list::FUNCTIONS.iter().copied())
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
    bench_ablation(&mut c);
}
