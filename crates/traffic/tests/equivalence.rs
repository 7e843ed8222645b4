//! Zero-load anchoring: a one-session traffic run at `t = 0` must be
//! **byte-identical** to the single-shot simulation entry points, on
//! the hypercube and on the torus. This is what licenses comparing
//! loaded measurements against the validated single-shot model — the
//! traffic path adds scheduling machinery but no new physics.

use hcube::{Cube, NodeId, Resolution, Torus, TorusRouter};
use hypercast::{Algorithm, PortModel};
use traffic::{
    ArrivalProcess, Arrivals, CubeTrees, DestPattern, Separate, Source, TrafficReport, TrafficSpec,
};
use wormsim::{
    simulate_multicast, DepMessage, EngineScratch, FaultPlan, NoopProbe, SimParams, SimTime,
};

/// A traffic run on a fresh scratch.
fn run<S: Source>(spec: &TrafficSpec, source: &S, params: &SimParams) -> TrafficReport {
    traffic::run(spec, source, params, &mut EngineScratch::new())
}

fn one_shot_spec(source: NodeId, dests: Vec<NodeId>) -> TrafficSpec {
    let mut spec = TrafficSpec::new(
        Arrivals::new(ArrivalProcess::Poisson, 1.0),
        DestPattern::Fixed { source, dests },
        1,
        999, // seed is irrelevant: one arrival at t=0, fixed pattern
    );
    spec.warmup = 0;
    spec.horizon = SimTime::from_ms(10_000);
    spec
}

#[test]
fn zero_load_cube_run_matches_simulate_multicast_byte_for_byte() {
    let cube = Cube::of(6);
    let params = SimParams::ncube2(PortModel::AllPort);
    // Deliberately unsorted destination listing: the cache canonicalizes,
    // construction is order-insensitive, and the replay must not care.
    let dests: Vec<NodeId> = [45u32, 3, 17, 60, 9, 33, 12, 25]
        .into_iter()
        .map(NodeId)
        .collect();
    for algo in Algorithm::ALL {
        let tree = algo
            .build(
                cube,
                Resolution::HighToLow,
                params.port_model,
                NodeId(5),
                &dests,
            )
            .unwrap();
        let single = simulate_multicast(&tree, &params, 4096);

        let spec = one_shot_spec(NodeId(5), dests.clone());
        let trees = CubeTrees::new(cube, Resolution::HighToLow, algo);
        let report = run(&spec, &trees, &params);

        assert_eq!(report.sessions.len(), 1, "{algo:?}");
        let session = &report.sessions[0];
        assert!(session.delivered, "{algo:?}");
        assert_eq!(
            format!("{:?}", session.deliveries),
            format!("{:?}", single.deliveries),
            "{algo:?}: per-destination deliveries must be byte-identical"
        );
        assert_eq!(session.completion, single.max_delay, "{algo:?}");
        assert_eq!(
            format!("{:?}", report.net),
            format!("{:?}", single.stats),
            "{algo:?}: run-wide network statistics must be byte-identical"
        );
    }
}

#[test]
fn zero_load_torus_run_matches_simulate_on_byte_for_byte() {
    let torus = Torus::of(4, 3);
    let params = SimParams::ncube2(PortModel::AllPort);
    let source = NodeId(7);
    let dests: Vec<NodeId> = [30u32, 2, 55, 41, 19].into_iter().map(NodeId).collect();

    // The single-shot reference: a plain separate-addressing workload.
    let workload: Vec<DepMessage> = dests
        .iter()
        .map(|&dst| DepMessage {
            src: source,
            dst,
            bytes: 4096,
            deps: vec![],
            min_start: SimTime::ZERO,
        })
        .collect();
    let single = wormsim::run(
        TorusRouter::new(torus),
        &params,
        &workload,
        &FaultPlan::none(),
        &mut NoopProbe,
        &mut EngineScratch::new(),
    )
    .expect("separate addressing on the torus cannot deadlock");

    let spec = one_shot_spec(source, dests.clone());
    let report = run(&spec, &Separate(TorusRouter::new(torus)), &params);

    let session = &report.sessions[0];
    assert!(session.delivered);
    let expected: Vec<(NodeId, SimTime)> = dests
        .iter()
        .zip(&single.messages)
        .map(|(&d, m)| (d, m.delivered))
        .collect();
    assert_eq!(
        format!("{:?}", session.deliveries),
        format!("{expected:?}"),
        "per-destination deliveries must be byte-identical"
    );
    assert_eq!(
        format!("{:?}", report.net),
        format!("{:?}", single.stats),
        "run-wide network statistics must be byte-identical"
    );
}

#[test]
fn traffic_reports_are_byte_deterministic_across_backends() {
    let params = SimParams::ncube2(PortModel::AllPort);
    for process in [
        ArrivalProcess::Deterministic,
        ArrivalProcess::Poisson,
        ArrivalProcess::Bursty { mean_burst: 3 },
    ] {
        let spec = TrafficSpec::new(
            Arrivals::new(process, 2.0),
            DestPattern::UniformRandom { m: 5 },
            30,
            4242,
        );
        let wsort = CubeTrees::new(Cube::of(6), Resolution::HighToLow, Algorithm::WSort);
        let a = run(&spec, &wsort, &params);
        let b = run(&spec, &wsort, &params);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{process}");

        let torus = Separate(TorusRouter::new(Torus::of(4, 3)));
        let t1 = run(&spec, &torus, &params);
        let t2 = run(&spec, &torus, &params);
        assert_eq!(format!("{t1:?}"), format!("{t2:?}"), "{process}");
    }
}
