//! Fault-churn sweep: delivery degradation and self-healing recovery
//! under open-loop load.
//!
//! For each network (64-node 6-cube, 256-node 8-cube, 64-node 4-ary
//! 3-cube torus) and each tree algorithm, the sweep injects Poisson
//! multicast sessions at a small ladder of offered loads while an
//! MTBF/MTTR failure/repair process kills and revives links and nodes
//! (per-element MTBF, so larger networks churn proportionally more).
//! Faulted sessions retry under exponential backoff through
//! `hypercast::repair`-rebuilt trees; separate addressing on the torus
//! has no tree to repair and is the recovery baseline.
//!
//! Each series walks a churn ladder from no churn (infinite MTBF, the
//! anchor every rung is compared against) to the harshest rung, and each
//! point records delivery ratio, goodput, latency, the retry-attempt
//! histogram, losses, time-to-recover, and the full tree-cache counters
//! (epoch invalidations included).
//!
//! Everything is keyed off `ChaosSweepConfig::seed`: identical configs
//! regenerate `results/chaos_sweep.{txt,json}` byte-for-byte — with or
//! without worker threads — and the determinism suite pins it.

use crate::artifact::{record, Artifact};
use crate::sweep::default_workers;
use crate::trafficsweep::{pool, pool_spec, run_seed};
use hcube::{Cube, Resolution, Torus, TorusRouter};
use hypercast::{Algorithm, CacheStats, RetryPolicy};
use traffic::{ChaosReport, ChaosSpec, ChurnSpec, CubeTrees, DestPattern, Multicast, Separate};
use wormsim::{SimParams, SimTime};

/// Sweep dimensions, churn ladder, and seeding.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSweepConfig {
    /// Sessions injected per grid point.
    pub sessions: usize,
    /// Recurring destination groups per network pool.
    pub pool_groups: usize,
    /// Payload bytes per multicast.
    pub bytes: u32,
    /// Master seed; every per-run seed derives from it.
    pub seed: u64,
    /// Offered loads (sessions/ms) for the 64-node cube and the torus.
    pub loads_64: Vec<f64>,
    /// Offered loads (sessions/ms) for the 256-node cube.
    pub loads_256: Vec<f64>,
    /// Per-link MTBF ladder, calm to harsh; `None` (infinite MTBF) is
    /// the churn-free anchor rung.
    pub link_mtbf_ladder_ms: Vec<Option<f64>>,
    /// Mean time to repair a failed link.
    pub link_mttr_ms: f64,
    /// Per-node MTBF as a multiple of the rung's per-link MTBF.
    pub node_mtbf_factor: f64,
    /// Mean time to repair (reboot) a failed node.
    pub node_mttr_ms: f64,
    /// Fraction of the observation window during which new failures may
    /// strike; the remainder is the recovery tail.
    pub churn_fraction: f64,
    /// Retry policy for faulted sessions (backoffs in µs of simulated
    /// time).
    pub retry: RetryPolicy,
}

impl ChaosSweepConfig {
    /// The committed-artifact configuration.
    #[must_use]
    pub fn full() -> ChaosSweepConfig {
        ChaosSweepConfig {
            sessions: 120,
            pool_groups: 8,
            bytes: 4096,
            seed: 137,
            // Below every network's saturation point: the sweep isolates
            // churn effects, so the churn-free anchor rung must deliver
            // everything and queueing must stay light (sessions launched
            // in different fault epochs simulate in separate waves and do
            // not contend across the epoch boundary — a fine
            // approximation only while queues are short).
            loads_64: vec![0.25, 0.75],
            loads_256: vec![0.5, 1.0],
            link_mtbf_ladder_ms: vec![None, Some(3000.0), Some(1200.0), Some(500.0)],
            link_mttr_ms: 4.0,
            node_mtbf_factor: 4.0,
            node_mttr_ms: 6.0,
            churn_fraction: 0.6,
            retry: RetryPolicy {
                max_retries: 3,
                base_backoff: 500,
                backoff_factor: 4,
            },
        }
    }

    /// A short-horizon configuration for CI smoke runs and debug-mode
    /// tests (same schema, same code paths, far less work).
    #[must_use]
    pub fn smoke() -> ChaosSweepConfig {
        ChaosSweepConfig {
            sessions: 24,
            pool_groups: 4,
            bytes: 1024,
            seed: 137,
            loads_64: vec![1.0],
            loads_256: vec![1.0],
            link_mtbf_ladder_ms: vec![None, Some(500.0)],
            ..ChaosSweepConfig::full()
        }
    }
}

/// One measured (churn rung × offered load) point of one series.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosPoint {
    /// Offered load, sessions per millisecond.
    pub offered_per_ms: f64,
    /// The rung's per-link MTBF (`None`: infinite, no churn).
    pub link_mtbf_ms: Option<f64>,
    /// Fraction of measured sessions fully delivered (retries
    /// included).
    pub delivery_ratio: f64,
    /// Mean delivered-session latency in ms (all attempts included).
    pub mean_latency_ms: f64,
    /// Batch-means 95% CI half-width of the latency.
    pub ci_half_width_ms: f64,
    /// Delivered measured sessions per millisecond.
    pub goodput_per_ms: f64,
    /// `retry_histogram[k]` = sessions that made exactly `k + 1`
    /// attempts.
    pub retry_histogram: Vec<u64>,
    /// Sessions lost to retry exhaustion or a retry past the horizon.
    pub lost: u64,
    /// Sessions cut off by the horizon (terminal, never retried).
    pub window_cut: u64,
    /// Time from the last fault/repair event to the last disrupted
    /// session's resolution, in ms (`None` when there was no churn).
    pub time_to_recover_ms: Option<f64>,
    /// Fault epochs the window was partitioned into.
    pub epochs: u64,
    /// Fault/repair events in the generated timeline.
    pub fault_events: u64,
    /// Full tree-cache counters of the run (all zero for separate
    /// addressing).
    pub cache: CacheStats,
}

/// One (network × algorithm) curve over the churn × load grid.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSeries {
    /// Network name (`cube6`, `cube8`, `torus4x3`).
    pub network: String,
    /// Node count.
    pub nodes: usize,
    /// Tree algorithm name, or `Separate`.
    pub algorithm: String,
    /// Destinations per multicast.
    pub m: usize,
    /// Grid points, churn-ladder-major, load-minor.
    pub points: Vec<ChaosPoint>,
}

/// The complete chaos sweep result.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSweep {
    /// The configuration that produced it.
    pub config: ChaosSweepConfig,
    /// All series, cubes first, torus last.
    pub series: Vec<ChaosSeries>,
}

/// A fully-described grid point, ready for any worker to execute on
/// its series' source.
struct RunTask {
    pattern: DestPattern,
    rate: f64,
    link_mtbf_ms: Option<f64>,
    seed: u64,
}

fn chaos_spec_for(cfg: &ChaosSweepConfig, task: &RunTask) -> ChaosSpec {
    let traffic = pool_spec(
        &task.pattern,
        task.rate,
        cfg.sessions,
        cfg.bytes,
        cfg.pool_groups,
        task.seed,
    );
    let churn = match task.link_mtbf_ms {
        Some(mtbf) => ChurnSpec {
            link_mtbf_ms: mtbf,
            link_mttr_ms: cfg.link_mttr_ms,
            node_mtbf_ms: mtbf * cfg.node_mtbf_factor,
            node_mttr_ms: cfg.node_mttr_ms,
            churn_until: churn_until(traffic.horizon, cfg.churn_fraction),
        },
        None => ChurnSpec::quiet(),
    };
    ChaosSpec {
        traffic,
        churn,
        retry: cfg.retry,
    }
}

/// The end of the churn window: the first `fraction` of `horizon`.
pub(crate) fn churn_until(horizon: SimTime, fraction: f64) -> SimTime {
    SimTime::from_ns((horizon.as_ns() as f64 * fraction) as u64)
}

fn point_for(task: &RunTask, r: &ChaosReport) -> ChaosPoint {
    ChaosPoint {
        offered_per_ms: task.rate,
        link_mtbf_ms: task.link_mtbf_ms,
        delivery_ratio: r.delivery_ratio,
        mean_latency_ms: r.latency.mean,
        ci_half_width_ms: r.latency.ci_half_width,
        goodput_per_ms: r.goodput_per_ms,
        retry_histogram: r.retry_histogram.clone(),
        lost: r.lost,
        window_cut: r.window_cut,
        time_to_recover_ms: r.time_to_recover.map(SimTime::as_ms),
        epochs: r.epochs as u64,
        fault_events: r.fault_events as u64,
        cache: r.cache,
    }
}

/// Runs `tasks` in the trial pool: per-worker scratch (reuse across
/// runs is byte-invisible), task-indexed merge, so the sweep is
/// worker-count invariant.
fn run_tasks<S: Multicast + Sync>(
    cfg: &ChaosSweepConfig,
    tasks: &[(S, RunTask)],
    workers: usize,
) -> Vec<ChaosPoint> {
    let params = SimParams::ncube2(hypercast::PortModel::AllPort);
    traffic::run_trials(workers, tasks.len(), |i, scratch| {
        let (source, task) = &tasks[i];
        let spec = chaos_spec_for(cfg, task);
        point_for(task, &traffic::run_chaos(&spec, source, &params, scratch))
    })
}

/// Runs the full chaos sweep on one worker per available core (at
/// most 32). Deterministic: identical configs give byte-identical JSON.
#[must_use]
pub fn chaos_sweep(cfg: &ChaosSweepConfig) -> ChaosSweep {
    chaos_sweep_with_workers(cfg, default_workers())
}

/// [`chaos_sweep`] with a worker pool. Every grid point is an
/// independent seeded run writing into its own pre-assigned slot, so
/// the result is byte-identical for any worker count — the determinism
/// suite pins 1-worker and multi-worker bytes against each other.
///
/// # Panics
/// Panics if `workers == 0` or a worker thread panics.
#[must_use]
pub fn chaos_sweep_with_workers(cfg: &ChaosSweepConfig, workers: usize) -> ChaosSweep {
    assert!(workers > 0, "need at least one worker");

    // Lay out every series and its grid tasks up front, in output
    // order (cube series, then the torus); workers fill slots, never
    // append.
    let mut shells = Vec::new();
    let mut grid =
        |network: &str, nodes, m, algorithm: &str, pattern: &DestPattern, loads: &[f64]| {
            let mut tasks = Vec::new();
            for (ri, &link_mtbf_ms) in cfg.link_mtbf_ladder_ms.iter().enumerate() {
                for (li, &rate) in loads.iter().enumerate() {
                    let seed = run_seed(cfg.seed, network, algorithm, ri * loads.len() + li);
                    let pattern = pattern.clone();
                    tasks.push(RunTask {
                        pattern,
                        rate,
                        link_mtbf_ms,
                        seed,
                    });
                }
            }
            let shell = ChaosSeries {
                network: network.into(),
                nodes,
                algorithm: algorithm.into(),
                m,
                points: Vec::new(),
            };
            shells.push((shell, tasks.len()));
            tasks
        };
    let mut cube_tasks = Vec::new();
    for (network, dim, m, loads) in [
        ("cube6", 6u8, 8usize, &cfg.loads_64),
        ("cube8", 8u8, 16usize, &cfg.loads_256),
    ] {
        let cube = Cube::of(dim);
        let pattern = pool(cfg.seed, network, &cube, cfg.pool_groups, m);
        for algo in Algorithm::PAPER {
            let source = CubeTrees::new(cube, Resolution::HighToLow, algo);
            let tasks = grid(network, 1 << dim, m, algo.name(), &pattern, loads);
            cube_tasks.extend(tasks.into_iter().map(|t| (source, t)));
        }
    }
    let torus = Torus::of(4, 3);
    let pattern = pool(cfg.seed, "torus4x3", &torus, cfg.pool_groups, 8);
    let source = Separate(TorusRouter::new(torus));
    let tasks = grid("torus4x3", 64, 8, "Separate", &pattern, &cfg.loads_64);
    let torus_tasks: Vec<_> = tasks.into_iter().map(|t| (source, t)).collect();

    let mut points = run_tasks(cfg, &cube_tasks, workers)
        .into_iter()
        .chain(run_tasks(cfg, &torus_tasks, workers));
    let series = shells
        .into_iter()
        .map(|(shell, n)| ChaosSeries {
            points: points.by_ref().take(n).collect(),
            ..shell
        })
        .collect();
    ChaosSweep {
        config: cfg.clone(),
        series,
    }
}

// ----------------------------------------------------------------------
// The artifact: schema, `.txt` rendering.
// ----------------------------------------------------------------------

record!(RetryPolicy {
    max_retries,
    "base_backoff_us" => base_backoff,
    backoff_factor,
});
record!(ChaosSweepConfig {
    sessions,
    pool_groups,
    bytes,
    seed,
    const "arrivals" = "poisson",
    loads_64,
    loads_256,
    link_mtbf_ladder_ms,
    link_mttr_ms,
    node_mtbf_factor,
    node_mttr_ms,
    churn_fraction,
    retry,
});
record!(ChaosPoint {
    offered_per_ms,
    link_mtbf_ms,
    delivery_ratio,
    mean_latency_ms,
    ci_half_width_ms,
    goodput_per_ms,
    retry_histogram,
    lost,
    window_cut,
    time_to_recover_ms,
    epochs,
    fault_events,
    ..cache,
});
record!(ChaosSeries {
    network,
    nodes,
    algorithm,
    m,
    points,
});
record!(ChaosSweep {
    const "id" = ID,
    const "title" = TITLE,
    config,
    series,
});

const ID: &str = "chaos_sweep";
const TITLE: &str = "Fault churn: delivery degradation and self-healing recovery under load";

impl Artifact for ChaosSweep {
    fn id(&self) -> &str {
        ID
    }

    /// Renders the sweep as a plain-text report (the `.txt` artifact).
    fn render(&self) -> String {
        let c = &self.config;
        let mut out = String::new();
        out.push_str(TITLE);
        out.push('\n');
        out.push_str(&format!(
            "sessions/point = {}, pool = {} groups, payload = {} B, seed = {}, arrivals = poisson\n",
            c.sessions, c.pool_groups, c.bytes, c.seed
        ));
        out.push_str(&format!(
            "churn: link MTTR = {} ms, node MTBF = {}x link, node MTTR = {} ms, failures in first {:.0}% of window\n",
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
            out.push_str(&format!(
                "== {} ({} nodes), {}  [m = {}] ==\n",
                s.network, s.nodes, s.algorithm, s.m
            ));
            out.push_str(
                "  mtbf ms   load/ms   deliver   goodput   latency ms   attempts 1/2/3/4   lost   cut   recover ms   events   cache h/m/e/i\n",
            );
            for p in &s.points {
                let mtbf = match p.link_mtbf_ms {
                    Some(m) => format!("{m:>7.0}"),
                    None => "    inf".into(),
                };
                let mut hist = [0u64; 4];
                for (k, &n) in p.retry_histogram.iter().enumerate() {
                    hist[k.min(3)] += n;
                }
                let recover = match p.time_to_recover_ms {
                    Some(t) => format!("{t:>10.3}"),
                    None => "         -".into(),
                };
                out.push_str(&format!(
                    "  {}   {:>7.2}   {:>7.4}   {:>7.3}   {:>10.4}   {:>16}   {:>4}   {:>3}   {}   {:>6}   {}/{}/{}/{}\n",
                    mtbf,
                    p.offered_per_ms,
                    p.delivery_ratio,
                    p.goodput_per_ms,
                    p.mean_latency_ms,
                    format!("{}/{}/{}/{}", hist[0], hist[1], hist[2], hist[3]),
                    p.lost,
                    p.window_cut,
                    recover,
                    p.fault_events,
                    p.cache.hits,
                    p.cache.misses,
                    p.cache.evictions,
                    p.cache.invalidations,
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

    fn tiny() -> ChaosSweepConfig {
        ChaosSweepConfig {
            sessions: 12,
            pool_groups: 3,
            bytes: 512,
            seed: 11,
            loads_64: vec![2.0],
            loads_256: vec![4.0],
            link_mtbf_ladder_ms: vec![None, Some(400.0)],
            ..ChaosSweepConfig::full()
        }
    }

    #[test]
    fn sweep_is_deterministic_and_round_trips() {
        let cfg = tiny();
        let a = chaos_sweep(&cfg);
        let b = chaos_sweep(&cfg);
        let json = to_json(&a).unwrap();
        assert_eq!(
            json,
            to_json(&b).unwrap(),
            "sweep must regenerate bit-identically"
        );

        // 2 cubes x 4 algorithms + 1 torus series; 2 rungs x 1 load.
        assert_eq!(a.series.len(), 9);
        for s in &a.series {
            assert_eq!(s.points.len(), 2, "{}", s.network);
        }

        let parsed: ChaosSweep = from_json(&json).unwrap();
        assert_eq!(to_json(&parsed).unwrap(), json, "JSON round-trip");
        assert_eq!(parsed.config, a.config);
    }

    #[test]
    fn worker_count_does_not_change_the_bytes() {
        let cfg = tiny();
        let serial = chaos_sweep_with_workers(&cfg, 1);
        let pooled = chaos_sweep_with_workers(&cfg, 4);
        assert_eq!(to_json(&serial).unwrap(), to_json(&pooled).unwrap());
        assert_eq!(serial.render(), pooled.render());
    }

    #[test]
    fn quiet_rung_anchors_and_churny_rungs_degrade() {
        let sweep = chaos_sweep(&tiny());
        let mut disrupted_anywhere = false;
        for s in &sweep.series {
            for p in &s.points {
                if p.link_mtbf_ms.is_some() {
                    assert!(
                        p.fault_events > 0,
                        "{}: churn rung saw no events",
                        s.network
                    );
                    assert!(p.epochs > 1);
                    assert!(p.delivery_ratio > 0.0, "no cliff to zero");
                    disrupted_anywhere |= p.retry_histogram.len() > 1 || p.lost > 0;
                } else {
                    assert_eq!(p.fault_events, 0);
                    assert_eq!(p.epochs, 1);
                    assert_eq!(p.delivery_ratio, 1.0, "{}: quiet anchor", s.network);
                    assert_eq!(p.lost, 0);
                    assert_eq!(p.time_to_recover_ms, None);
                }
            }
        }
        assert!(
            disrupted_anywhere,
            "harsh rung must disrupt at least one session somewhere"
        );
    }

    #[test]
    fn from_json_rejects_schema_violations() {
        assert!(from_json::<ChaosSweep>("{}").is_err());
        assert!(from_json::<ChaosSweep>("[1]").is_err());
        assert!(from_json::<ChaosSweep>("not json").is_err());
        let wrong_id = r#"{ "id": "traffic_sweep", "config": {}, "series": [] }"#;
        assert!(from_json::<ChaosSweep>(wrong_id).is_err());
    }
}
