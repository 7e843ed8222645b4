//! Probe overhead: cost of the in-loop observability layer on the
//! fig11-style multicast workload (6-cube, all-port, 32 destinations,
//! 4 KB), comparing
//!
//! - `noop_probe` — [`wormsim::run`] with [`wormsim::NoopProbe`], the
//!   unobserved baseline (every observation point monomorphizes away),
//! - `event_recorder` — full ring-buffer + occupancy accounting,
//! - `metrics` — counter/histogram registry,
//! - `telemetry_probe` — the traffic flight recorder's blocking-interval
//!   sink ([`traffic::TelemetryProbe`]),
//! - `telemetry_full` — an entire observed traffic run
//!   ([`traffic::run_with_telemetry`]: span + time-series assembly) vs
//!   `traffic_plain`, the same run unobserved through [`traffic::run`]
//!   (the telemetry layer's end-to-end cost).

use criterion::{criterion_group, criterion_main, Criterion};
use hcube::{Cube, Ecube, NodeId, Resolution};
use hypercast::{Algorithm, PortModel};
use traffic::{
    ArrivalProcess, Arrivals, CubeTrees, DestPattern, TelemetryConfig, TelemetryProbe, TrafficSpec,
};
use wormsim::{
    multicast_workload, DepMessage, EngineScratch, EventRecorder, FaultPlan, Metrics, NoopProbe,
    Probe, RunResult, SimParams,
};

/// Fig. 11 operating point: 6-cube, 32 random destinations, 4 KB.
fn fig11_workload() -> (Cube, Resolution, SimParams, Vec<DepMessage>) {
    let cube = Cube::of(6);
    let resolution = Resolution::HighToLow;
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut rng = workloads::destsets::trial_rng("probe_overhead", 0, 0);
    let dests = workloads::destsets::random_dests(&mut rng, cube, NodeId(0), 32);
    let tree = Algorithm::UCube
        .build(cube, resolution, PortModel::AllPort, NodeId(0), &dests)
        .unwrap();
    (cube, resolution, params, multicast_workload(&tree, 4096))
}

/// One fault-free run of `workload` on a fresh scratch, observed by
/// `probe`.
fn observe<P: Probe>(
    cube: Cube,
    resolution: Resolution,
    params: &SimParams,
    workload: &[DepMessage],
    probe: &mut P,
) -> RunResult {
    let router = Ecube::new(cube, resolution);
    let mut scratch = EngineScratch::new();
    wormsim::run(
        router,
        params,
        workload,
        &FaultPlan::none(),
        probe,
        &mut scratch,
    )
    .unwrap()
}

fn bench_probe_overhead(c: &mut Criterion) {
    let (cube, resolution, params, workload) = fig11_workload();
    let mut g = c.benchmark_group("probe_overhead");

    g.bench_function("noop_probe", |b| {
        b.iter(|| {
            let mut probe = NoopProbe;
            std::hint::black_box(observe(cube, resolution, &params, &workload, &mut probe))
        })
    });
    g.bench_function("event_recorder", |b| {
        b.iter(|| {
            let mut probe = EventRecorder::new();
            std::hint::black_box(observe(cube, resolution, &params, &workload, &mut probe))
        })
    });
    g.bench_function("metrics", |b| {
        b.iter(|| {
            let mut probe = Metrics::new();
            std::hint::black_box(observe(cube, resolution, &params, &workload, &mut probe))
        })
    });
    g.bench_function("telemetry_probe", |b| {
        b.iter(|| {
            let mut probe = TelemetryProbe::new();
            let run = observe(cube, resolution, &params, &workload, &mut probe);
            std::hint::black_box((run, probe.take_intervals()))
        })
    });
    g.finish();
}

/// Open-loop operating point for the end-to-end comparison: a loaded
/// 5-cube pool run, small enough for criterion, contended enough that
/// the blocking-interval sink sees real traffic.
fn traffic_spec() -> TrafficSpec {
    let mut rng = workloads::destsets::trial_rng("probe_overhead", 1, 0);
    let pool = DestPattern::uniform_pool(&mut rng, &Cube::of(5), 4, 6);
    let mut spec = TrafficSpec::new(Arrivals::new(ArrivalProcess::Poisson, 20.0), pool, 40, 7);
    spec.cache_capacity = 8;
    spec
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let params = SimParams::ncube2(PortModel::AllPort);
    let wsort = CubeTrees::new(Cube::of(5), Resolution::HighToLow, Algorithm::WSort);
    let spec = traffic_spec();
    let cfg = TelemetryConfig::default();
    let mut g = c.benchmark_group("telemetry_overhead");

    g.bench_function("traffic_plain", |b| {
        b.iter(|| {
            let mut scratch = EngineScratch::new();
            std::hint::black_box(traffic::run(&spec, &wsort, &params, &mut scratch))
        })
    });
    g.bench_function("telemetry_full", |b| {
        b.iter(|| {
            let mut scratch = EngineScratch::new();
            std::hint::black_box(traffic::run_with_telemetry(
                &spec,
                &wsort,
                &params,
                &cfg,
                &mut scratch,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_probe_overhead, bench_telemetry_overhead);
criterion_main!(benches);
