//! The session scheduler: converts an arrival schedule plus a
//! [`Source`] into one windowed dependency workload and attributes the
//! results back to sessions.
//!
//! Each arriving session becomes a batch of [`DepMessage`]s — one per
//! tree unicast, per destination, or per collective op, as its source
//! lays it out — whose `min_start` is the session's arrival time.
//! Forwarding dependencies stay *within* a session; across sessions the
//! only coupling is physical channel contention, exactly as in the
//! network. The whole run executes as one [`wormsim::run`] whose fault
//! plan holds only the spec's horizon as a global deadline, so a
//! saturated backlog is cut off at the horizon instead of extending the
//! run without bound.
//!
//! Tree sources build through one [`TreeCache`] per run: under
//! recurring destination patterns (the
//! [`DestPattern::Pool`] population) most
//! arrivals are pointer-clone cache hits rather than full `W-sort`
//! constructions; the report carries the cache counters.

use crate::arrivals::Arrivals;
use crate::patterns::DestPattern;
use crate::source::{CubeTrees, Separate, SessionSpan, Source};
use crate::stats::BatchMeans;
use hcube::{Cube, NodeId, Resolution, Router};
use hypercast::{Algorithm, CacheStats, PortModel, TreeCache};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wormsim::{
    DepMessage, EngineScratch, FaultPlan, NetStats, NoopProbe, Probe, RunResult, SimParams, SimTime,
};

/// Configuration of one open-loop traffic run.
#[derive(Clone, Debug)]
pub struct TrafficSpec {
    /// Arrival process and offered load.
    pub arrivals: Arrivals,
    /// Destination population.
    pub pattern: DestPattern,
    /// Number of sessions to inject.
    pub sessions: usize,
    /// Sessions discarded from the front before measuring (warmup
    /// truncation; must be `< sessions` for any statistics to exist).
    pub warmup: usize,
    /// Payload bytes per multicast.
    pub bytes: u32,
    /// Observation window: sessions unfinished at the horizon time out.
    pub horizon: SimTime,
    /// RNG seed; identical specs with identical seeds reproduce the
    /// report byte-for-byte.
    pub seed: u64,
    /// Tree-cache capacity (hypercube backends; 0 disables caching).
    pub cache_capacity: usize,
    /// Maximum batch count for the batch-means interval.
    pub max_batches: usize,
}

impl TrafficSpec {
    /// A spec with the common defaults: 4 KB payloads, 200 ms horizon,
    /// 64-tree cache, 10 batches, 10% warmup.
    #[must_use]
    pub fn new(
        arrivals: Arrivals,
        pattern: DestPattern,
        sessions: usize,
        seed: u64,
    ) -> TrafficSpec {
        TrafficSpec {
            arrivals,
            pattern,
            sessions,
            warmup: sessions / 10,
            bytes: 4096,
            horizon: SimTime::from_ms(200),
            seed,
            cache_capacity: 64,
            max_batches: 10,
        }
    }
}

/// One session's outcome inside a traffic run.
#[derive(Clone, Debug)]
pub struct SessionRecord {
    /// When the session entered the network.
    pub arrival: SimTime,
    /// When its last constituent message delivered (the horizon if the
    /// session was cut off).
    pub completion: SimTime,
    /// `completion − arrival`; only a latency in the usual sense when
    /// `delivered`.
    pub latency: SimTime,
    /// Whether every constituent message delivered inside the window.
    pub delivered: bool,
    /// Delivery time per destination, in tree order (empty entries are
    /// impossible; timed-out messages record their abort time).
    pub deliveries: Vec<(NodeId, SimTime)>,
}

/// Outcome of one open-loop traffic run: per-session records, the
/// steady-state measurement, cache counters, and run-wide network
/// statistics.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    /// Offered load, sessions per millisecond.
    pub offered_rate_per_ms: f64,
    /// One record per injected session, in arrival order.
    pub sessions: Vec<SessionRecord>,
    /// Sessions discarded before measurement.
    pub warmup: usize,
    /// Sessions included in the measurement (post-warmup).
    pub measured_sessions: usize,
    /// Measured sessions that completed inside the window.
    pub completed_measured: usize,
    /// `completed_measured / measured_sessions` (1.0 when nothing was
    /// measured).
    pub completion_ratio: f64,
    /// Batch-means statistics over measured completed-session latencies
    /// in milliseconds.
    pub latency: BatchMeans,
    /// Completed measured sessions per millisecond of measurement span.
    pub throughput_per_ms: f64,
    /// Tree-cache counters (all-zero for separate-addressing backends,
    /// which build no trees).
    pub cache: CacheStats,
    /// Network statistics of the single shared run.
    pub net: NetStats,
    /// The observation window the run executed under.
    pub horizon: SimTime,
}

/// A fully assembled traffic run, ready to simulate: the windowed
/// dependency workload plus the bookkeeping needed to attribute the
/// results back to sessions.
///
/// Produced by [`assemble`] and consumed (by reference — the same
/// assembly can be replayed any number of times) by
/// [`run_sessions_on_with_scratch`]. Splitting assembly from simulation
/// is what lets the benchmark harnesses time the engine hot path alone,
/// without tree construction or report assembly diluting the
/// measurement.
#[derive(Clone, Debug)]
pub struct SessionWorkload {
    workload: Vec<DepMessage>,
    pub(crate) spans: Vec<SessionSpan>,
    cache: CacheStats,
}

impl SessionWorkload {
    /// The flattened dependency workload (all sessions, arrival-ordered).
    #[must_use]
    pub fn messages(&self) -> &[DepMessage] {
        &self.workload
    }

    /// Number of sessions in the assembly.
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.spans.len()
    }

    /// Tree-cache counters accumulated during assembly (all zero for
    /// separate addressing).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
    }

    /// The `i`-th session extracted as a standalone workload: its slice
    /// of the flattened assembly with dependency indices rebased to the
    /// session (dependencies never cross sessions, so the rebase is
    /// exact) and `min_start` rebased to time zero. This is the
    /// "sessions replayed into one scratch" unit the `engine_bench`
    /// harness times: each session is a complete dependency workload of
    /// its own, so a worker can drive one engine run per session
    /// through a persistent [`EngineScratch`].
    ///
    /// # Panics
    /// If `i >= self.sessions()`.
    #[must_use]
    pub fn session_workload(&self, i: usize) -> Vec<DepMessage> {
        let span = &self.spans[i];
        self.workload[span.range.clone()]
            .iter()
            .map(|m| {
                let mut m = m.clone();
                for d in &mut m.deps {
                    *d -= span.range.start;
                }
                m.min_start = m.min_start.saturating_sub(span.arrival);
                m
            })
            .collect()
    }
}

/// The one schedule-and-draw loop of every traffic run: seeds the
/// spec's RNG, draws the arrival schedule, and hands each session to
/// `each` in arrival order — `(rng, index, arrival)`, with the RNG
/// positioned for that session's destination draw. Plain and chaos runs
/// of one spec therefore see the same sessions. Returns the schedule.
pub(crate) fn for_each_session(
    spec: &TrafficSpec,
    mut each: impl FnMut(&mut StdRng, usize, SimTime),
) -> Vec<SimTime> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let schedule = spec.arrivals.schedule(&mut rng, spec.sessions);
    for (i, &arrival) in schedule.iter().enumerate() {
        each(&mut rng, i, arrival);
    }
    schedule
}

/// Assembles the windowed workload of a traffic run without simulating
/// it: the arrival schedule, then every session laid out by `source`
/// (trees built for `port` through one [`TreeCache`] of the spec's
/// capacity).
///
/// Deterministic for identical inputs; [`run`] is exactly this followed
/// by [`run_sessions_on_with_scratch`].
///
/// # Panics
/// On invalid pattern draws (the [`DestPattern`] contracts) or a
/// malformed [`DestPattern::Fixed`] set (duplicate or
/// out-of-range destinations — the errors tree construction surfaces
/// through the cache).
#[must_use]
pub fn assemble<S: Source>(spec: &TrafficSpec, source: &S, port: PortModel) -> SessionWorkload {
    let mut cache = TreeCache::new(spec.cache_capacity);
    let mut workload: Vec<DepMessage> = Vec::new();
    let mut spans = Vec::with_capacity(spec.sessions);
    for_each_session(spec, |rng, i, arrival| {
        spans.push(source.session(spec, port, rng, i, arrival, &mut cache, &mut workload));
    });
    SessionWorkload {
        workload,
        spans,
        cache: cache.stats(),
    }
}

/// Runs open-loop traffic from `source`: every session of the spec is
/// laid out into one shared workload and simulated in one contended
/// network under the spec's observation window. Reusing `scratch`
/// across runs (the sweep hot path) is byte-invisible: the route memo
/// restamps itself when the router changes.
///
/// Fully deterministic: identical inputs give byte-identical reports.
///
/// # Panics
/// See [`assemble`].
#[must_use]
pub fn run<S: Source>(
    spec: &TrafficSpec,
    source: &S,
    params: &SimParams,
    scratch: &mut EngineScratch,
) -> TrafficReport {
    let sessions = assemble(spec, source, params.port_model);
    run_sessions_on_with_scratch(spec, source.router(), &sessions, params, scratch)
}

/// [`assemble`] of [`CubeTrees`]. Kept by name because the repository
/// benchmark (`perfbench/`) links it.
#[must_use]
pub fn assemble_cube_sessions(
    spec: &TrafficSpec,
    cube: Cube,
    resolution: Resolution,
    algo: Algorithm,
    params: &SimParams,
) -> SessionWorkload {
    assemble(
        spec,
        &CubeTrees::new(cube, resolution, algo),
        params.port_model,
    )
}

/// [`assemble`] of [`Separate`] addressing on `router`. Kept by name
/// because the repository benchmark (`perfbench/`) links it.
#[must_use]
pub fn assemble_separate_sessions_on<R: Router + Copy>(
    spec: &TrafficSpec,
    router: &R,
) -> SessionWorkload {
    // Separate addressing builds no trees, so the port model is unused.
    assemble(spec, &Separate(*router), PortModel::AllPort)
}

/// Simulates a pre-assembled [`SessionWorkload`] on `router` under the
/// spec's observation window, observed by `probe`.
pub(crate) fn simulate<R: Router, P: Probe>(
    spec: &TrafficSpec,
    router: R,
    sessions: &SessionWorkload,
    params: &SimParams,
    probe: &mut P,
    scratch: &mut EngineScratch,
) -> RunResult {
    wormsim::run(
        router,
        params,
        &sessions.workload,
        FaultPlan::none().deadline_all(spec.horizon),
        probe,
        scratch,
    )
    .expect("windowed traffic runs cannot deadlock")
}

/// Simulates a pre-assembled [`SessionWorkload`] under the spec's
/// observation window and attributes the results back to sessions: the
/// core runner behind [`run`].
///
/// This is the engine hot path in isolation: the same assembly can be
/// replayed any number of times (the `engine_bench` harness does
/// exactly that, cold vs warm), and replaying through one scratch is
/// byte-identical to a fresh run.
///
/// # Panics
/// If `sessions` references nodes outside `router`'s topology.
#[must_use]
pub fn run_sessions_on_with_scratch<R: Router>(
    spec: &TrafficSpec,
    router: R,
    sessions: &SessionWorkload,
    params: &SimParams,
    scratch: &mut EngineScratch,
) -> TrafficReport {
    let run = simulate(spec, router, sessions, params, &mut NoopProbe, scratch);
    report(spec, &run, &sessions.spans, sessions.cache)
}

/// Attributes a finished run back to its sessions and assembles the
/// report. `pub(crate)` so the telemetry layer can build the identical
/// report from an *observed* run of the same workload.
pub(crate) fn report(
    spec: &TrafficSpec,
    run: &RunResult,
    spans: &[SessionSpan],
    cache: CacheStats,
) -> TrafficReport {
    let sessions: Vec<SessionRecord> = spans
        .iter()
        .map(|span| {
            let msgs = &run.messages[span.range.clone()];
            let delivered = msgs.iter().all(|m| m.outcome.is_delivered());
            let completion = msgs
                .iter()
                .map(|m| m.delivered)
                .max()
                .unwrap_or(span.arrival);
            let deliveries = span
                .dests
                .iter()
                .zip(msgs)
                .map(|(&d, m)| (d, m.delivered))
                .collect();
            SessionRecord {
                arrival: span.arrival,
                completion,
                latency: completion.saturating_sub(span.arrival),
                delivered,
                deliveries,
            }
        })
        .collect();

    let measured = &sessions[spec.warmup.min(sessions.len())..];
    let completed: Vec<&SessionRecord> = measured.iter().filter(|s| s.delivered).collect();
    let latencies_ms: Vec<f64> = completed.iter().map(|s| s.latency.as_ms()).collect();
    let latency = BatchMeans::of(&latencies_ms, spec.max_batches);
    let completion_ratio = if measured.is_empty() {
        1.0
    } else {
        completed.len() as f64 / measured.len() as f64
    };
    let throughput_per_ms = match (
        measured.first(),
        completed.iter().map(|s| s.completion).max(),
    ) {
        (Some(first), Some(last)) => {
            let span_ms = last.saturating_sub(first.arrival).as_ms();
            if span_ms > 0.0 {
                completed.len() as f64 / span_ms
            } else {
                0.0
            }
        }
        _ => 0.0,
    };

    TrafficReport {
        offered_rate_per_ms: spec.arrivals.rate_per_ms,
        warmup: spec.warmup.min(sessions.len()),
        measured_sessions: measured.len(),
        completed_measured: completed.len(),
        completion_ratio,
        latency,
        throughput_per_ms,
        cache,
        net: run.stats.clone(),
        horizon: spec.horizon,
        sessions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use hcube::{Torus, TorusRouter};
    use hypercast::PortModel;

    fn spec(rate: f64, sessions: usize, seed: u64) -> TrafficSpec {
        TrafficSpec::new(
            Arrivals::new(ArrivalProcess::Poisson, rate),
            DestPattern::UniformRandom { m: 6 },
            sessions,
            seed,
        )
    }

    fn trees(algo: Algorithm) -> CubeTrees {
        CubeTrees::new(Cube::of(5), Resolution::HighToLow, algo)
    }

    /// A run on a fresh scratch.
    fn fresh<S: Source>(spec: &TrafficSpec, source: &S, params: &SimParams) -> TrafficReport {
        run(spec, source, params, &mut EngineScratch::new())
    }

    #[test]
    fn cube_run_is_byte_deterministic() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let s = spec(2.0, 40, 11);
        let a = fresh(&s, &trees(Algorithm::WSort), &params);
        let b = fresh(&s, &trees(Algorithm::WSort), &params);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.sessions.len(), 40);
        assert_eq!(a.measured_sessions, 36);
    }

    #[test]
    fn different_seeds_differ() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let a = fresh(&spec(2.0, 30, 1), &trees(Algorithm::WSort), &params);
        let b = fresh(&spec(2.0, 30, 2), &trees(Algorithm::WSort), &params);
        assert_ne!(format!("{:?}", a.sessions), format!("{:?}", b.sessions));
    }

    #[test]
    fn pool_pattern_produces_cache_hits() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let mut rng = StdRng::seed_from_u64(3);
        let pool = DestPattern::uniform_pool(&mut rng, &Cube::of(5), 4, 6);
        let mut s = TrafficSpec::new(Arrivals::new(ArrivalProcess::Poisson, 1.0), pool, 50, 7);
        s.cache_capacity = 16;
        let r = fresh(&s, &trees(Algorithm::WSort), &params);
        assert!(r.cache.hits > 0, "pool workload must hit the cache");
        assert!(r.cache.misses <= 4, "at most one miss per distinct group");
        assert!(r.cache.hit_rate() > 0.5);
    }

    #[test]
    fn light_load_completes_everything() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let r = fresh(&spec(0.5, 30, 5), &trees(Algorithm::WSort), &params);
        assert_eq!(r.completed_measured, r.measured_sessions);
        assert!((r.completion_ratio - 1.0).abs() < 1e-12);
        assert!(r.latency.mean > 0.0);
        assert!(r.throughput_per_ms > 0.0);
        assert_eq!(r.net.timed_out, 0);
    }

    #[test]
    fn crushing_load_saturates_the_window() {
        let params = SimParams::ncube2(PortModel::OnePort);
        let mut s = spec(2000.0, 200, 5);
        s.horizon = SimTime::from_ms(2);
        let source = CubeTrees::new(Cube::of(5), Resolution::HighToLow, Algorithm::Separate);
        let r = fresh(&s, &source, &params);
        assert!(
            r.completion_ratio < 1.0,
            "an impossible load must overflow the window (ratio {})",
            r.completion_ratio
        );
        assert!(r.net.timed_out > 0);
    }

    #[test]
    fn scratch_reuse_reports_are_byte_identical() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let s = spec(2.0, 40, 11);
        let fresh_run = fresh(&s, &trees(Algorithm::WSort), &params);
        let mut scratch = EngineScratch::new();
        for _ in 0..2 {
            let again = run(&s, &trees(Algorithm::WSort), &params, &mut scratch);
            assert_eq!(
                format!("{fresh_run:?}"),
                format!("{again:?}"),
                "scratch-reuse run diverged from the fresh-allocation run"
            );
        }
        assert!(
            scratch.route_memo().hits() > 0,
            "replayed sessions must hit the route memo"
        );
        // The same scratch then serves a *different* router type: the
        // memo restamps and the torus report still matches fresh.
        let torus = Separate(TorusRouter::new(Torus::of(4, 2)));
        let ts = spec(1.0, 25, 9);
        let fresh_run = fresh(&ts, &torus, &params);
        let again = run(&ts, &torus, &params, &mut scratch);
        assert_eq!(format!("{fresh_run:?}"), format!("{again:?}"));
    }

    #[test]
    fn session_extraction_rebases_deps_and_start_times() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let s = spec(2.0, 12, 11);
        let assembly = assemble(&s, &trees(Algorithm::WSort), params.port_model);
        let mut total = 0;
        for i in 0..assembly.sessions() {
            let w = assembly.session_workload(i);
            assert!(!w.is_empty());
            total += w.len();
            for (j, m) in w.iter().enumerate() {
                // Rebased deps stay inside the session and point
                // strictly backwards (the tree is parent-before-child).
                assert!(m.deps.iter().all(|&d| d < j), "session {i} msg {j}");
                assert_eq!(m.min_start, SimTime::ZERO);
                // The payload matches the flattened assembly.
                let flat = &assembly.messages()[assembly.spans[i].range.clone()][j];
                assert_eq!((m.src, m.dst, m.bytes), (flat.src, flat.dst, flat.bytes));
            }
            // A standalone session replay is a complete, runnable
            // workload: everything delivers on an uncontended network.
            let run = wormsim::run(
                hcube::Ecube::new(Cube::of(5), Resolution::HighToLow),
                &params,
                &w,
                &FaultPlan::none(),
                &mut NoopProbe,
                &mut EngineScratch::new(),
            )
            .expect("a session workload is well formed");
            assert!(run.messages.iter().all(|m| m.outcome.is_delivered()));
        }
        assert_eq!(total, assembly.messages().len());
    }

    #[test]
    fn torus_backend_runs_separate_addressing() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let torus = Separate(TorusRouter::new(Torus::of(4, 2)));
        let s = spec(1.0, 25, 9);
        let a = fresh(&s, &torus, &params);
        let b = fresh(&s, &torus, &params);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.cache, CacheStats::default(), "no trees, no cache traffic");
        assert!(a.completed_measured > 0);
    }
}
