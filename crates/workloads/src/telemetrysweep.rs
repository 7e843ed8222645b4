//! Telemetry sweep: the windowed time-series of a churn-and-recover
//! run, committed as an artifact.
//!
//! One series per (network × algorithm): the 64-node 6-cube under every
//! paper tree algorithm plus the 4-ary 3-cube torus under separate
//! addressing, each driven by Poisson multicast sessions while an
//! MTBF/MTTR churn process kills and revives links and nodes during the
//! first part of the window and then stops. The run goes through
//! [`traffic::run_chaos_with_telemetry`] — the flight recorder —
//! and each series commits its windowed time-series: offered/delivered
//! sessions, goodput, latency quantiles, cache hit counters, live fault
//! elements, and per-dimension head-flit blocked time, bucket by bucket.
//!
//! The artifact makes self-healing *visible*: goodput dips while faults
//! are live (sessions fail and back off) and refills after churn ends
//! as the retry tail drains — [`Artifact::check`] pins
//! exactly that shape, and CI validates the committed
//! `results/telemetry_sweep.{txt,json}` with it.
//!
//! Determinism: the time-series is a pure fold over one seeded run per
//! series, so identical configs regenerate the artifact byte-for-byte
//! at any worker count; the determinism suite pins it.

use crate::artifact::{record, Artifact};
use crate::chaossweep::churn_until;
use crate::sweep::default_workers;
use crate::trafficsweep::{pool, pool_spec, run_seed};
use hcube::{Cube, Resolution, Torus, TorusRouter};
use hypercast::{Algorithm, RetryPolicy};
use traffic::{
    ChaosReport, ChaosSpec, ChurnSpec, CubeTrees, DestPattern, Multicast, Quantiles, Separate,
    Telemetry, TelemetryConfig,
};
use wormsim::{Histogram, SimParams, SimTime};

/// Sweep dimensions, churn shape, and seeding.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySweepConfig {
    /// Sessions injected per series.
    pub sessions: usize,
    /// Recurring destination groups per network pool.
    pub pool_groups: usize,
    /// Destinations per multicast.
    pub m: usize,
    /// Payload bytes per multicast.
    pub bytes: u32,
    /// Master seed; every per-series seed derives from it.
    pub seed: u64,
    /// Offered load, sessions per millisecond.
    pub rate_per_ms: f64,
    /// Time-series buckets per window.
    pub buckets: usize,
    /// Per-link MTBF while churn is active.
    pub link_mtbf_ms: f64,
    /// Mean time to repair a failed link.
    pub link_mttr_ms: f64,
    /// Per-node MTBF as a multiple of the per-link MTBF.
    pub node_mtbf_factor: f64,
    /// Mean time to repair (reboot) a failed node.
    pub node_mttr_ms: f64,
    /// Fraction of the window during which new failures may strike;
    /// the remainder is the recovery tail the refill shows up in.
    pub churn_fraction: f64,
    /// Retry policy for faulted sessions (backoffs in µs of simulated
    /// time).
    pub retry: RetryPolicy,
}

impl TelemetrySweepConfig {
    /// The committed-artifact configuration.
    #[must_use]
    pub fn full() -> TelemetrySweepConfig {
        TelemetrySweepConfig {
            sessions: 240,
            pool_groups: 8,
            m: 8,
            bytes: 4096,
            seed: 211,
            // Light load: the series shows churn dynamics, not queueing.
            rate_per_ms: 0.5,
            buckets: 24,
            link_mtbf_ms: 400.0,
            link_mttr_ms: 4.0,
            node_mtbf_factor: 4.0,
            node_mttr_ms: 6.0,
            churn_fraction: 0.5,
            retry: RetryPolicy {
                max_retries: 3,
                base_backoff: 500,
                backoff_factor: 4,
            },
        }
    }

    /// A short configuration for CI smoke runs and debug-mode tests
    /// (same schema, same code paths, far less work).
    #[must_use]
    pub fn smoke() -> TelemetrySweepConfig {
        TelemetrySweepConfig {
            sessions: 48,
            pool_groups: 4,
            bytes: 1024,
            buckets: 12,
            link_mtbf_ms: 150.0,
            ..TelemetrySweepConfig::full()
        }
    }
}

/// One time-series bucket of one series (integer counters stay exact;
/// derived rates are recomputed on parse).
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryRow {
    /// Bucket start, ms.
    pub start_ms: f64,
    /// Sessions that arrived in this bucket.
    pub offered: u64,
    /// Delivered sessions that completed in this bucket.
    pub delivered: u64,
    /// Delivered per millisecond of bucket width.
    pub goodput_per_ms: f64,
    /// Median latency of sessions completing here, ms (`None` when
    /// none completed).
    pub p50_ms: Option<f64>,
    /// 95th-percentile latency, ms (`None` when none completed).
    pub p95_ms: Option<f64>,
    /// Tree-cache hits among lookups launched in this bucket.
    pub cache_hits: u64,
    /// Tree-cache lookups launched in this bucket.
    pub cache_lookups: u64,
    /// Fault elements down at the bucket's start.
    pub live_faults: u64,
    /// External-channel head-flit blocked time by dimension, ns.
    pub blocked_ns_per_dim: Vec<u64>,
}

/// One (network × algorithm) run: headline aggregates plus the full
/// windowed time-series.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySeries {
    /// Network name (`cube6`, `torus4x3`).
    pub network: String,
    /// Node count.
    pub nodes: usize,
    /// Tree algorithm name, or `Separate`.
    pub algorithm: String,
    /// Fraction of measured sessions fully delivered.
    pub delivery_ratio: f64,
    /// Mean delivered-session latency, ms.
    pub mean_latency_ms: f64,
    /// 95th-percentile delivered-session latency, ms.
    pub p95_ms: f64,
    /// Total simulate attempts across all sessions.
    pub attempts: u64,
    /// Sessions lost to retry exhaustion or the horizon.
    pub lost: u64,
    /// Fault/repair events in the churn timeline.
    pub fault_events: u64,
    /// Time from the last fault event to the last disrupted session's
    /// resolution, ms (`None` when nothing was disrupted).
    pub time_to_recover_ms: Option<f64>,
    /// End of the churn window, ms.
    pub churn_until_ms: f64,
    /// Observation window, ms.
    pub horizon_ms: f64,
    /// Bucket width, ms.
    pub bucket_ms: f64,
    /// The time-series, in time order.
    pub rows: Vec<TelemetryRow>,
}

/// The complete telemetry sweep result.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySweep {
    /// The configuration that produced it.
    pub config: TelemetrySweepConfig,
    /// All series, cube algorithms first, torus last.
    pub series: Vec<TelemetrySeries>,
}

/// One series, ready for any worker to execute on its source.
struct RunTask {
    network: &'static str,
    nodes: usize,
    algorithm: String,
    pattern: DestPattern,
    seed: u64,
}

fn chaos_spec_for(cfg: &TelemetrySweepConfig, task: &RunTask) -> ChaosSpec {
    let traffic = pool_spec(
        &task.pattern,
        cfg.rate_per_ms,
        cfg.sessions,
        cfg.bytes,
        cfg.pool_groups,
        task.seed,
    );
    let churn = ChurnSpec {
        link_mtbf_ms: cfg.link_mtbf_ms,
        link_mttr_ms: cfg.link_mttr_ms,
        node_mtbf_ms: cfg.link_mtbf_ms * cfg.node_mtbf_factor,
        node_mttr_ms: cfg.node_mttr_ms,
        churn_until: churn_until(traffic.horizon, cfg.churn_fraction),
    };
    ChaosSpec {
        traffic,
        churn,
        retry: cfg.retry,
    }
}

fn series_for(
    task: &RunTask,
    spec: &ChaosSpec,
    report: &ChaosReport,
    tel: &Telemetry,
) -> TelemetrySeries {
    let mut latency = Histogram::new();
    for s in &tel.sessions {
        if s.delivered {
            latency.observe(s.latency().as_ns());
        }
    }
    let q = Quantiles::from_latency_histogram(&latency);
    let rows = tel
        .series
        .buckets
        .iter()
        .map(|b| TelemetryRow {
            start_ms: b.start.as_ms(),
            offered: b.offered,
            delivered: b.delivered,
            goodput_per_ms: b.goodput_per_ms,
            p50_ms: (b.delivered > 0).then_some(b.quantiles.p50_ms),
            p95_ms: (b.delivered > 0).then_some(b.quantiles.p95_ms),
            cache_hits: b.cache_hits,
            cache_lookups: b.cache_lookups,
            live_faults: b.live_faults,
            blocked_ns_per_dim: b.blocked_ns_per_dim.clone(),
        })
        .collect();
    TelemetrySeries {
        network: task.network.into(),
        nodes: task.nodes,
        algorithm: task.algorithm.clone(),
        delivery_ratio: report.delivery_ratio,
        mean_latency_ms: report.latency.mean,
        p95_ms: q.p95_ms,
        attempts: tel.sessions.iter().map(|s| s.attempts.len() as u64).sum(),
        lost: report.lost,
        fault_events: report.fault_events as u64,
        time_to_recover_ms: report.time_to_recover.map(SimTime::as_ms),
        churn_until_ms: spec.churn.churn_until.as_ms(),
        horizon_ms: report.horizon.as_ms(),
        bucket_ms: tel.series.bucket_ns as f64 / 1e6,
        rows,
    }
}

/// Runs `tasks` in the trial pool: per-worker scratch (reuse across
/// runs is byte-invisible), task-indexed merge, so the sweep is
/// worker-count invariant.
fn run_tasks<S: Multicast + Sync>(
    cfg: &TelemetrySweepConfig,
    tasks: &[(S, RunTask)],
    workers: usize,
) -> Vec<TelemetrySeries> {
    let params = SimParams::ncube2(hypercast::PortModel::AllPort);
    let tcfg = TelemetryConfig::new(cfg.buckets);
    traffic::run_trials(workers, tasks.len(), |i, scratch| {
        let (source, task) = &tasks[i];
        let spec = chaos_spec_for(cfg, task);
        let (report, tel) =
            traffic::run_chaos_with_telemetry(&spec, source, &params, &tcfg, scratch);
        series_for(task, &spec, &report, &tel)
    })
}

/// Runs the full telemetry sweep on one worker per available core (at
/// most 32). Deterministic: identical configs give byte-identical JSON.
#[must_use]
pub fn telemetry_sweep(cfg: &TelemetrySweepConfig) -> TelemetrySweep {
    telemetry_sweep_with_workers(cfg, default_workers())
}

/// [`telemetry_sweep`] with a worker pool. Every series is an
/// independent seeded run writing into its own pre-assigned slot, so
/// the result is byte-identical for any worker count.
///
/// # Panics
/// Panics if `workers == 0` or a worker thread panics.
#[must_use]
pub fn telemetry_sweep_with_workers(cfg: &TelemetrySweepConfig, workers: usize) -> TelemetrySweep {
    assert!(workers > 0, "need at least one worker");

    let cube = Cube::of(6);
    let pattern = pool(cfg.seed, "cube6", &cube, cfg.pool_groups, cfg.m);
    let cube_tasks: Vec<_> = Algorithm::PAPER
        .iter()
        .enumerate()
        .map(|(i, &algo)| {
            let task = RunTask {
                network: "cube6",
                nodes: 64,
                algorithm: algo.name().into(),
                pattern: pattern.clone(),
                seed: run_seed(cfg.seed, "cube6", algo.name(), i),
            };
            (CubeTrees::new(cube, Resolution::HighToLow, algo), task)
        })
        .collect();
    let torus = Torus::of(4, 3);
    let torus_task = RunTask {
        network: "torus4x3",
        nodes: 64,
        algorithm: "Separate".into(),
        pattern: pool(cfg.seed, "torus4x3", &torus, cfg.pool_groups, cfg.m),
        seed: run_seed(cfg.seed, "torus4x3", "Separate", 0),
    };

    let mut series = run_tasks(cfg, &cube_tasks, workers);
    let torus_source = Separate(TorusRouter::new(torus));
    series.extend(run_tasks(cfg, &[(torus_source, torus_task)], workers));
    TelemetrySweep {
        config: cfg.clone(),
        series,
    }
}

// ----------------------------------------------------------------------
// The artifact: schema, `.txt` rendering, recovery-shape check.
// ----------------------------------------------------------------------

record!(TelemetrySweepConfig {
    sessions,
    pool_groups,
    m,
    bytes,
    seed,
    const "arrivals" = "poisson",
    rate_per_ms,
    buckets,
    link_mtbf_ms,
    link_mttr_ms,
    node_mtbf_factor,
    node_mttr_ms,
    churn_fraction,
    retry,
});
record!(TelemetryRow {
    start_ms,
    offered,
    delivered,
    goodput_per_ms,
    p50_ms,
    p95_ms,
    cache_hits,
    cache_lookups,
    live_faults,
    blocked_ns_per_dim,
});
record!(TelemetrySeries {
    network,
    nodes,
    algorithm,
    delivery_ratio,
    mean_latency_ms,
    p95_ms,
    attempts,
    lost,
    fault_events,
    time_to_recover_ms,
    churn_until_ms,
    horizon_ms,
    bucket_ms,
    "buckets" => rows,
});
record!(TelemetrySweep {
    const "id" = ID,
    const "title" = TITLE,
    config,
    series,
});

const ID: &str = "telemetry_sweep";
const TITLE: &str = "Windowed telemetry: goodput dip and refill across a churn-and-recover window";

impl Artifact for TelemetrySweep {
    fn id(&self) -> &str {
        ID
    }

    /// Checks the self-healing shape the artifact exists to show: in
    /// every series that saw fault events, (a) bucket sums reconcile
    /// with the session count, (b) some bucket had live faults, and
    /// (c) goodput *dips* while churn is active below the best
    /// *refill* bucket after churn ends — time-to-recover made visible.
    ///
    /// # Errors
    /// A message naming the first series violating the shape.
    fn check(&self) -> Result<(), String> {
        for s in &self.series {
            let offered: u64 = s.rows.iter().map(|r| r.offered).sum();
            if offered != self.config.sessions as u64 {
                return Err(format!(
                    "{} {}: bucket offered sum {} != {} sessions",
                    s.network, s.algorithm, offered, self.config.sessions
                ));
            }
            if s.fault_events == 0 {
                return Err(format!(
                    "{} {}: churn produced no fault events",
                    s.network, s.algorithm
                ));
            }
            if !s.rows.iter().any(|r| r.live_faults > 0) {
                return Err(format!(
                    "{} {}: no bucket saw a live fault",
                    s.network, s.algorithm
                ));
            }
            // Dip-and-refill: the worst churn-active bucket that had
            // arrivals must undershoot the best post-churn bucket.
            let dip = s
                .rows
                .iter()
                .filter(|r| r.start_ms < s.churn_until_ms && r.offered > 0)
                .map(|r| r.goodput_per_ms)
                .fold(f64::INFINITY, f64::min);
            let refill = s
                .rows
                .iter()
                .filter(|r| r.start_ms >= s.churn_until_ms)
                .map(|r| r.goodput_per_ms)
                .fold(0.0, f64::max);
            if !(dip.is_finite() && refill > dip) {
                return Err(format!(
                    "{} {}: goodput never refilled above the churn dip (dip {dip}, refill {refill})",
                    s.network, s.algorithm
                ));
            }
        }
        Ok(())
    }

    /// Renders the sweep as a plain-text report (the `.txt` artifact).
    fn render(&self) -> String {
        let c = &self.config;
        let mut out = String::new();
        out.push_str(TITLE);
        out.push('\n');
        out.push_str(&format!(
            "sessions/series = {}, pool = {} groups (m = {}), payload = {} B, seed = {}, {} /ms poisson\n",
            c.sessions, c.pool_groups, c.m, c.bytes, c.seed, c.rate_per_ms
        ));
        out.push_str(&format!(
            "churn: link MTBF = {} ms, MTTR = {} ms, node MTBF = {}x link, MTTR = {} ms, active first {:.0}% of window\n",
            c.link_mtbf_ms,
            c.link_mttr_ms,
            c.node_mtbf_factor,
            c.node_mttr_ms,
            c.churn_fraction * 100.0
        ));
        out.push_str(&format!(
            "retry: up to {} retries, backoff {} µs x{}\n",
            c.retry.max_retries, c.retry.base_backoff, c.retry.backoff_factor
        ));
        for s in &self.series {
            out.push('\n');
            let recover = match s.time_to_recover_ms {
                Some(t) => format!("{t:.3} ms"),
                None => "-".into(),
            };
            out.push_str(&format!(
                "== {} ({} nodes), {} ==\n",
                s.network, s.nodes, s.algorithm
            ));
            out.push_str(&format!(
                "deliver {:.4}, attempts {}, lost {}, events {}, recover {}, churn ends {:.1} ms, window {:.1} ms\n",
                s.delivery_ratio, s.attempts, s.lost, s.fault_events, recover, s.churn_until_ms, s.horizon_ms
            ));
            out.push_str(
                "   t ms   offered   delivered   goodput/ms   p50 ms   p95 ms   cache h/l   faults   blocked µs\n",
            );
            let quantile = |q: Option<f64>| q.map_or("     -".into(), |q| format!("{q:>6.3}"));
            for r in &s.rows {
                let (p50, p95) = (quantile(r.p50_ms), quantile(r.p95_ms));
                let blocked_us: f64 = r.blocked_ns_per_dim.iter().sum::<u64>() as f64 / 1000.0;
                out.push_str(&format!(
                    "  {:>5.1}   {:>7}   {:>9}   {:>10.4}   {}   {}   {:>9}   {:>6}   {:>10.3}\n",
                    r.start_ms,
                    r.offered,
                    r.delivered,
                    r.goodput_per_ms,
                    p50,
                    p95,
                    format!("{}/{}", r.cache_hits, r.cache_lookups),
                    r.live_faults,
                    blocked_us,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{from_json, to_json};

    fn tiny() -> TelemetrySweepConfig {
        TelemetrySweepConfig {
            sessions: 20,
            pool_groups: 3,
            bytes: 512,
            buckets: 10,
            link_mtbf_ms: 100.0,
            seed: 23,
            ..TelemetrySweepConfig::full()
        }
    }

    #[test]
    fn sweep_is_deterministic_and_round_trips() {
        let cfg = tiny();
        let a = telemetry_sweep(&cfg);
        let b = telemetry_sweep(&cfg);
        let json = to_json(&a).unwrap();
        assert_eq!(json, to_json(&b).unwrap());

        // 4 cube algorithms + the torus baseline.
        assert_eq!(a.series.len(), 5);
        for s in &a.series {
            assert_eq!(s.rows.len(), cfg.buckets, "{}", s.network);
            assert_eq!(
                s.rows.iter().map(|r| r.offered).sum::<u64>(),
                cfg.sessions as u64
            );
        }

        let parsed: TelemetrySweep = from_json(&json).unwrap();
        assert_eq!(to_json(&parsed).unwrap(), json, "JSON round-trip");
        assert_eq!(parsed.config, a.config);
    }

    #[test]
    fn worker_count_does_not_change_the_bytes() {
        let cfg = tiny();
        let serial = telemetry_sweep_with_workers(&cfg, 1);
        let pooled = telemetry_sweep_with_workers(&cfg, 4);
        assert_eq!(to_json(&serial).unwrap(), to_json(&pooled).unwrap());
        assert_eq!(serial.render(), pooled.render());
    }

    #[test]
    fn smoke_sweep_shows_the_recovery_shape() {
        let sweep = telemetry_sweep(&TelemetrySweepConfig::smoke());
        sweep.check().expect("dip-and-refill must hold");
    }

    #[test]
    fn from_json_rejects_schema_violations() {
        assert!(from_json::<TelemetrySweep>("{}").is_err());
        assert!(from_json::<TelemetrySweep>("[1]").is_err());
        assert!(from_json::<TelemetrySweep>("not json").is_err());
        let wrong_id = r#"{ "id": "chaos_sweep", "config": {}, "series": [] }"#;
        assert!(from_json::<TelemetrySweep>(wrong_id).is_err());
    }
}
