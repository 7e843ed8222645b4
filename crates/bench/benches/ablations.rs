//! Criterion wrappers for the ablation experiments (DESIGN.md §6) at
//! reduced trial counts; full artifacts come from
//! `cargo run -p bench --release --bin artifacts -- --regen all`.

use criterion::{criterion_group, criterion_main, Criterion};
use workloads::ablations;

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.bench_function("ports_trials2", |b| {
        b.iter(|| std::hint::black_box(ablations::ablation_ports(2)))
    });
    g.bench_function("message_size_trials2", |b| {
        b.iter(|| std::hint::black_box(ablations::ablation_message_size(2)))
    });
    g.bench_function("sensitivity_trials2", |b| {
        b.iter(|| std::hint::black_box(ablations::ablation_sensitivity(2)))
    });
    g.bench_function("optimality_trials2", |b| {
        b.iter(|| std::hint::black_box(ablations::ablation_optimality(2)))
    });
    g.bench_function("contention_trials2", |b| {
        b.iter(|| std::hint::black_box(ablations::ablation_contention(2)))
    });
    g.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
