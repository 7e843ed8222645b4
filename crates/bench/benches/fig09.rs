//! Criterion bench regenerating Figure 9 (stepwise, 6-cube) at a reduced
//! trial count. `cargo run -p bench --release --bin artifacts -- --regen
//! fig09` produces the full-trial artifact.

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_fig09(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig09");
    g.sample_size(10);
    g.bench_function("steps_6cube_trials3", |b| {
        b.iter(|| std::hint::black_box(workloads::figures::fig09(3)))
    });
    g.finish();
}

criterion_group!(benches, bench_fig09);
criterion_main!(benches);
