//! `mcast` — command-line front end: build, verify, and simulate one
//! multicast.
//!
//! ```text
//! cargo run -p bench --release --bin mcast -- \
//!     --n 6 --algo wsort --port all --source 0 --dests 3,9,17,33,60 \
//!     --bytes 4096 [--random 20] [--seed 7] [--trace] [--json] \
//!     [--faults K] [--fail-link V:D]... [--fail-node V]...
//! ```
//!
//! With any fault flag, each tree is additionally replayed over the
//! faulty network (delivery ratio, makespan) and then repaired with
//! `hypercast::repair` and replayed again.
//!
//! `--topology torus --arity K` switches to a k-ary n-cube: the tree
//! algorithms are hypercube-specific, so the torus path simulates
//! separate addressing (one dimension-ordered unicast per destination)
//! on the dateline-VC router and reports the same delay/utilization
//! summary. `--topology mesh --width W --height H` does the same on a
//! 2D mesh, where `--router ecube|adaptive` picks deterministic XY or
//! the west-first minimal-adaptive router. `--lanes N` runs any backend
//! with N virtual lanes per physical link (the torus needs an even N —
//! its lanes come in dateline pairs).

use hcube::{
    Cube, Dim, Ecube, Mesh, MeshXY, MinimalAdaptive, NodeId, Resolution, Router, Topology, Torus,
    TorusRouter,
};
use hypercast::contention::contention_witnesses;
use hypercast::oracle::verify_collective;
use hypercast::repair::{repair, NetworkFaults};
use hypercast::{Algorithm, CollectiveKind, CollectiveSchedule, PortModel, TreeFamily};
use traffic::{
    ArrivalProcess, ChaosReport, CubeCollective, CubeTrees, DestPattern, Multicast, Separate,
    SeparateCollective, Telemetry, TelemetryConfig, TrafficReport, TrafficSpec,
};
use wormsim::network::ChannelMap;
use wormsim::{
    ChannelTrace, DepMessage, EngineScratch, EventRecorder, FaultPlan, Metrics, NetStats,
    NoopProbe, Probe, RunResult, SimParams, SimTime, Tee,
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum TopologyKind {
    Cube,
    Torus,
    Mesh,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum RouterKind {
    /// Deterministic dimension-ordered routing (E-cube / XY).
    Ecube,
    /// West-first minimal-adaptive routing (mesh only).
    Adaptive,
}

struct Args {
    n: u8,
    topology: TopologyKind,
    arity: u16,
    width: u16,
    height: u16,
    router: RouterKind,
    lanes: Option<u8>,
    collective: Option<CollectiveKind>,
    bine: bool,
    algo: Option<Algorithm>,
    port: PortModel,
    source: u32,
    dests: Option<Vec<u64>>,
    random: Option<u64>,
    seed: u64,
    bytes: u32,
    trace: bool,
    json: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    spans_out: Option<String>,
    timeseries_out: Option<String>,
    faults: usize,
    fail_links: Vec<(u32, u8)>,
    fail_nodes: Vec<u32>,
    load: Option<f64>,
    arrivals: ArrivalProcess,
    sessions: usize,
    chaos: Option<(f64, f64)>,
    retries: u32,
    backoff_us: u64,
}

impl Args {
    /// Whether any fault injection flag was given.
    fn fault_flags(&self) -> bool {
        self.faults > 0 || !self.fail_links.is_empty() || !self.fail_nodes.is_empty()
    }

    /// Whether any single-shot trace flag was given.
    fn trace_flags(&self) -> bool {
        self.trace || self.trace_out.is_some() || self.metrics_out.is_some()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: 6,
        topology: TopologyKind::Cube,
        arity: 4,
        width: 4,
        height: 4,
        router: RouterKind::Ecube,
        lanes: None,
        collective: None,
        bine: false,
        algo: None,
        port: PortModel::AllPort,
        source: 0,
        dests: None,
        random: None,
        seed: 1,
        bytes: 4096,
        trace: false,
        json: false,
        trace_out: None,
        metrics_out: None,
        spans_out: None,
        timeseries_out: None,
        faults: 0,
        fail_links: Vec::new(),
        fail_nodes: Vec::new(),
        load: None,
        arrivals: ArrivalProcess::Poisson,
        sessions: 100,
        chaos: None,
        retries: 3,
        backoff_us: 500,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> Result<&str, String> {
            *i += 1;
            argv.get(*i)
                .map(String::as_str)
                .ok_or_else(|| format!("missing value for {}", argv[*i - 1]))
        };
        match argv[i].as_str() {
            "--n" => args.n = take(&mut i)?.parse().map_err(|e| format!("--n: {e}"))?,
            "--topology" => {
                args.topology = match take(&mut i)? {
                    "cube" | "hypercube" => TopologyKind::Cube,
                    "torus" => TopologyKind::Torus,
                    "mesh" => TopologyKind::Mesh,
                    other => return Err(format!("unknown topology {other}")),
                }
            }
            "--arity" => args.arity = take(&mut i)?.parse().map_err(|e| format!("--arity: {e}"))?,
            "--width" => args.width = take(&mut i)?.parse().map_err(|e| format!("--width: {e}"))?,
            "--height" => {
                args.height = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--height: {e}"))?
            }
            "--router" => {
                args.router = match take(&mut i)? {
                    "ecube" | "xy" | "deterministic" => RouterKind::Ecube,
                    "adaptive" | "west-first" => RouterKind::Adaptive,
                    other => return Err(format!("unknown router {other}")),
                }
            }
            "--lanes" => {
                let l: u8 = take(&mut i)?.parse().map_err(|e| format!("--lanes: {e}"))?;
                if l == 0 {
                    return Err("--lanes must be >= 1".into());
                }
                args.lanes = Some(l);
            }
            "--algo" => {
                let v = take(&mut i)?.to_lowercase();
                args.algo = Some(match v.as_str() {
                    "ucube" | "u-cube" => Algorithm::UCube,
                    "maxport" => Algorithm::Maxport,
                    "combine" => Algorithm::Combine,
                    "wsort" | "w-sort" => Algorithm::WSort,
                    "separate" => Algorithm::Separate,
                    "dimtree" => Algorithm::DimTree,
                    "bine" => {
                        args.bine = true;
                        args.algo = None;
                        i += 1;
                        continue;
                    }
                    "all" => {
                        args.algo = None;
                        i += 1;
                        continue;
                    }
                    other => return Err(format!("unknown algorithm {other}")),
                });
            }
            "--collective" => {
                args.collective = Some(match take(&mut i)?.to_lowercase().as_str() {
                    "allgather" => CollectiveKind::Allgather,
                    "reducescatter" | "reduce-scatter" => CollectiveKind::ReduceScatter,
                    "allreduce" => CollectiveKind::Allreduce,
                    other => return Err(format!("unknown collective {other}")),
                });
            }
            "--port" => {
                args.port = match take(&mut i)? {
                    "one" | "one-port" => PortModel::OnePort,
                    "all" | "all-port" => PortModel::AllPort,
                    other => return Err(format!("unknown port model {other}")),
                }
            }
            "--source" => {
                args.source = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--source: {e}"))?
            }
            "--dests" => {
                args.dests = Some(
                    take(&mut i)?
                        .split(',')
                        .map(|s| s.trim().parse().map_err(|e| format!("--dests: {e}")))
                        .collect::<Result<_, _>>()?,
                );
            }
            "--random" => {
                args.random = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|e| format!("--random: {e}"))?,
                )
            }
            "--seed" => args.seed = take(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--bytes" => args.bytes = take(&mut i)?.parse().map_err(|e| format!("--bytes: {e}"))?,
            "--trace" => args.trace = true,
            "--json" => args.json = true,
            "--trace-out" => args.trace_out = Some(take(&mut i)?.to_string()),
            "--metrics-out" => args.metrics_out = Some(take(&mut i)?.to_string()),
            "--spans-out" => args.spans_out = Some(take(&mut i)?.to_string()),
            "--timeseries-out" => args.timeseries_out = Some(take(&mut i)?.to_string()),
            "--faults" => {
                args.faults = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--faults: {e}"))?
            }
            "--fail-link" => {
                let v = take(&mut i)?;
                let (node, dim) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--fail-link: expected V:D, got {v}"))?;
                args.fail_links.push((
                    node.trim()
                        .parse()
                        .map_err(|e| format!("--fail-link node: {e}"))?,
                    dim.trim()
                        .parse()
                        .map_err(|e| format!("--fail-link dim: {e}"))?,
                ));
            }
            "--fail-node" => args.fail_nodes.push(
                take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--fail-node: {e}"))?,
            ),
            "--load" => {
                let rate: f64 = take(&mut i)?.parse().map_err(|e| format!("--load: {e}"))?;
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(format!("--load must be a positive rate, got {rate}"));
                }
                args.load = Some(rate);
            }
            "--arrivals" => args.arrivals = ArrivalProcess::parse(take(&mut i)?)?,
            "--chaos" => {
                let v = take(&mut i)?;
                let (mtbf, mttr) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--chaos: expected MTBF:MTTR in ms, got {v}"))?;
                let mtbf: f64 = mtbf
                    .trim()
                    .parse()
                    .map_err(|e| format!("--chaos mtbf: {e}"))?;
                let mttr: f64 = mttr
                    .trim()
                    .parse()
                    .map_err(|e| format!("--chaos mttr: {e}"))?;
                if !(mtbf > 0.0 && mttr > 0.0) {
                    return Err(format!("--chaos: MTBF and MTTR must be positive, got {v}"));
                }
                args.chaos = Some((mtbf, mttr));
            }
            "--retries" => {
                args.retries = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?
            }
            "--backoff" => {
                let b: u64 = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--backoff: {e}"))?;
                if b == 0 {
                    return Err("--backoff must be >= 1 µs".into());
                }
                args.backoff_us = b;
            }
            "--sessions" => {
                args.sessions = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--sessions: {e}"))?;
                if args.sessions == 0 {
                    return Err("--sessions must be >= 1".into());
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: mcast --n <dim> [--topology cube|torus|mesh] [--arity K]\n\
                     \x20             [--width W --height H] [--router ecube|adaptive] [--lanes N]\n\
                     \x20             [--algo ucube|maxport|combine|wsort|separate|dimtree|bine|all]\n\
                     \x20             [--collective allgather|reduce-scatter|allreduce]\n\
                     \x20             [--port one|all] [--source A] [--dests a,b,c | --random M [--seed S]]\n\
                     \x20             [--bytes B] [--trace] [--json]\n\
                     \x20             [--trace-out FILE.json] [--metrics-out FILE.prom|FILE.json]\n\
                     \x20             [--spans-out FILE.json] [--timeseries-out FILE.json]\n\
                     \x20             [--faults K] [--fail-link V:D]... [--fail-node V]...\n\
                     \x20             [--load R [--arrivals det|poisson|bursty[:B]] [--sessions N]]\n\
                     \x20             [--chaos MTBF:MTTR [--retries N] [--backoff B]]\n\
                     \x20      mcast serve [--max-inflight N]\n\
                     \n\
                     flag summary:\n\
                     \x20 topology    --n DIM, --topology cube|torus|mesh, --arity K (torus radix),\n\
                     \x20             --width W --height H (mesh shape)\n\
                     \x20 routing     --router ecube|adaptive (adaptive = west-first, mesh only),\n\
                     \x20             --lanes N (virtual lanes per link; torus needs an even N)\n\
                     \x20 multicast   --algo ..., --port one|all, --source A,\n\
                     \x20             --dests a,b,c | --random M, --seed S, --bytes B\n\
                     \x20 collective  --collective allgather|reduce-scatter|allreduce\n\
                     \x20             (--algo picks the tree family, bine = the Jacobsthal\n\
                     \x20              bine tree, default compares all; composes with --load)\n\
                     \x20 output      --json, --trace, --trace-out FILE, --metrics-out FILE,\n\
                     \x20             --spans-out FILE, --timeseries-out FILE (need --load)\n\
                     \x20 faults      --faults K, --fail-link V:D, --fail-node V\n\
                     \x20 open loop   --load R (sessions/ms), --arrivals det|poisson|bursty[:B],\n\
                     \x20             --sessions N\n\
                     \x20 churn       --chaos MTBF:MTTR (per-link, ms), --retries N, --backoff B (µs)\n\
                     \n\
                     observability: --trace-out writes a Chrome/Perfetto trace of the run's\n\
                     exact channel holds and blocking episodes (open in ui.perfetto.dev);\n\
                     --metrics-out writes the in-loop metrics registry, Prometheus text\n\
                     exposition if the file ends in .prom, JSON otherwise. On the cube both\n\
                     require a single --algo. --spans-out and --timeseries-out attach the\n\
                     session-level flight recorder to an open-loop run (they require\n\
                     --load, and a single --algo on the cube): spans-out writes one trace\n\
                     per session — every attempt with its exact queueing/blocked/transit\n\
                     decomposition, chained through retries — and timeseries-out writes the\n\
                     windowed series (goodput, latency quantiles, cache hit rate, live\n\
                     faults, per-dimension blocked time per bucket). Both compose with\n\
                     --chaos; the reported numbers are byte-identical with or without the\n\
                     recorder attached.\n\
                     \n\
                     collectives: --collective KIND builds the full-machine collective\n\
                     (allgather, reduce-scatter, or allreduce; --bytes is the per-node\n\
                     block, --source the allreduce root), certifies its data movement\n\
                     with the symbolic oracle, and replays it on the idle network —\n\
                     or, with --load R, injects whole collectives as open-loop sessions.\n\
                     On the cube --algo picks the tree family (including `bine`); the\n\
                     torus runs separate addressing. See DESIGN.md section 17.\n\
                     \n\
                     fault injection: --faults K kills K random directed links (seeded by --seed);\n\
                     --fail-link V:D kills the channel leaving node V in dimension D;\n\
                     --fail-node V kills node V. Each tree is then replayed over the faulty\n\
                     network, repaired with hypercast::repair, and replayed again.\n\
                     \n\
                     open-loop traffic: --load R switches from a single multicast to a\n\
                     sustained open-loop run at R sessions/ms (--arrivals picks the point\n\
                     process, default poisson; --sessions the session count, default 100;\n\
                     --seed the schedule seed). Each session replays the configured\n\
                     multicast (--dests => a fixed group, --random M => a fresh uniform\n\
                     draw per session); trees are built through the LRU tree cache and the\n\
                     report includes steady-state latency (batch-means 95% CI),\n\
                     completion ratio, throughput, and cache hit rate. Incompatible with\n\
                     fault and trace flags.\n\
                     \n\
                     fault churn: --chaos MTBF:MTTR (requires --load) runs the open-loop\n\
                     traffic under a seed-deterministic failure/repair process: each link\n\
                     fails with the given per-link MTBF and revives after ~MTTR ms (nodes\n\
                     churn too, at 4x the link MTBF and 1.5x the MTTR); failures strike in\n\
                     the first 60% of the window, then the network heals. Faulted sessions\n\
                     retry up to --retries times (default 3) under exponential backoff\n\
                     starting at --backoff µs (default 500, x4 per attempt); retries on the\n\
                     cube rebuild their trees through hypercast::repair. The report adds\n\
                     delivery ratio, goodput, the retry-attempt histogram, losses, and\n\
                     time-to-recover.\n\
                     \n\
                     service mode: `mcast serve` runs a long-lived daemon reading one JSON\n\
                     request per stdin line and writing one JSON response per line, in\n\
                     request order; --max-inflight N bounds the request queue (default 16,\n\
                     backpressures the client through the pipe) and --max-sessions N caps\n\
                     the sessions of one request (default 20000). Ops: traffic, chaos,\n\
                     multicast, stats, shutdown. See DESIGN.md section 16.\n\
                     \n\
                     --topology torus simulates separate addressing on a K-ary n-cube with\n\
                     dateline virtual channels; --topology mesh does the same on a WxH mesh\n\
                     under XY (--router ecube) or west-first minimal-adaptive routing\n\
                     (--router adaptive). Tree algorithms and fault repair are\n\
                     hypercube-specific. --lanes N threads every backend's physical links\n\
                     with N virtual lanes; the JSON report then carries per-lane\n\
                     utilization."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
        i += 1;
    }
    if let Some(rate) = args.load {
        workloads::serve::check_load(args.arrivals, rate, args.sessions)?;
    }
    Ok(args)
}

/// One-line network-statistics summary shared by the cube and torus
/// paths: per-dimension external-channel utilization plus the deepest
/// FIFO queue the run ever saw.
fn stats_line(stats: &NetStats) -> String {
    let util: Vec<String> = stats
        .dim_utilization()
        .iter()
        .map(|u| format!("{:.1}%", u * 100.0))
        .collect();
    format!(
        "dim util [{}], max queue depth {}",
        util.join(" "),
        stats.max_queue_depth
    )
}

/// Prints `error: <message>` and exits 2: the one way `mcast` refuses
/// its input.
fn usage(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Unwraps a usage-level result, or refuses the input with its error.
fn or_usage<T>(result: Result<T, impl std::fmt::Display>) -> T {
    result.unwrap_or_else(|e| usage(e))
}

/// The run's `--dests`/`--random` side, checked against a `nodes`-node
/// topology by the check serve requests go through too.
fn dest_pattern(args: &Args, nodes: usize) -> DestPattern {
    or_usage(workloads::serve::dest_pattern(
        args.source,
        args.dests.as_deref(),
        args.random,
        nodes,
        usize::MAX,
        |flag| format!("--{flag}"),
    ))
}

/// The destinations of a single-shot run on `topo`: the checked
/// `--dests`, or `--random` M drawn from the `--seed` stream.
fn single_shot_dests<T: Topology>(args: &Args, topo: &T) -> Vec<NodeId> {
    let pattern = dest_pattern(args, topo.node_count());
    workloads::serve::single_shot_dests(pattern, topo, NodeId(args.source), args.seed)
}

/// A fault-free engine run of `workload` observed by `probe`.
///
/// # Panics
/// On a malformed workload (a destination equal to the source).
fn replay<R: Router, P: Probe>(
    router: R,
    params: &SimParams,
    workload: &[DepMessage],
    probe: &mut P,
) -> RunResult {
    let mut scratch = EngineScratch::new();
    wormsim::run(
        router,
        params,
        workload,
        &FaultPlan::none(),
        probe,
        &mut scratch,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Re-runs the workload with an in-loop `Tee(EventRecorder, Metrics)`
/// probe and writes the requested observability artifacts: a
/// Chrome/Perfetto trace (`--trace-out`) and/or a metrics export
/// (`--metrics-out`; Prometheus text for `.prom`, JSON otherwise).
///
/// The observed replay is byte-deterministic, so its schedule is
/// identical to the reporting run that preceded it.
fn write_observability<R: Router + Copy>(
    router: R,
    params: &SimParams,
    workload: &[DepMessage],
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
) {
    let mut probe = Tee(EventRecorder::new(), Metrics::new());
    replay(router, params, workload, &mut probe);
    let Tee(recorder, metrics) = probe;
    if let Some(path) = trace_out {
        let map = ChannelMap::new(router);
        write_artifact(path, &recorder.to_chrome_trace(&map), "--trace-out");
        eprintln!(
            "[saved {path}: {} events ({} dropped from the ring), open in ui.perfetto.dev]",
            recorder.total_events(),
            recorder.dropped()
        );
    }
    if let Some(path) = metrics_out {
        let registry = metrics.snapshot();
        let text = if path.ends_with(".prom") {
            registry.to_prometheus_text()
        } else {
            registry.to_json()
        };
        write_artifact(path, &text, "--metrics-out");
        eprintln!("[saved {path}]");
    }
}

/// Writes the flight-recorder artifacts of an open-loop run: session
/// spans (`--spans-out`) and/or the windowed time-series
/// (`--timeseries-out`).
fn write_telemetry(args: &Args, tel: &Telemetry) {
    if let Some(path) = args.spans_out.as_deref() {
        write_artifact(path, &tel.spans_to_json_string(), "--spans-out");
        eprintln!(
            "[saved {path}: {} session traces across {} waves]",
            tel.sessions.len(),
            tel.waves
        );
    }
    if let Some(path) = args.timeseries_out.as_deref() {
        write_artifact(path, &tel.series.to_json_string(), "--timeseries-out");
        eprintln!(
            "[saved {path}: {} buckets of {:.3} ms]",
            tel.series.buckets.len(),
            tel.series.bucket_ns as f64 / 1e6
        );
    }
}

/// Writes an observability artifact, creating parent directories as
/// needed; exits with status 2 on I/O failure.
fn write_artifact(path: &str, contents: &str, flag: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                usage(format!("{flag} {path}: {e}"));
            }
        }
    }
    if let Err(e) = std::fs::write(path, contents) {
        usage(format!("{flag} {path}: {e}"));
    }
}

/// Simulates one-unicast-per-destination separate addressing on `router`
/// and prints the shared summary, JSON (with lane accounting), trace,
/// and observability artifacts. `json_head` carries the topology-shaped
/// JSON prefix (`"topology":...` fields, no trailing comma).
fn run_separate<R: Router + Copy>(router: R, args: &Args, dests: &[NodeId], json_head: &str) {
    let params = SimParams::ncube2(args.port);
    let source = NodeId(args.source);
    let workload: Vec<DepMessage> = dests
        .iter()
        .map(|&dst| DepMessage {
            src: source,
            dst,
            bytes: args.bytes,
            deps: vec![],
            min_start: SimTime::ZERO,
        })
        .collect();
    let run = replay(router, &params, &workload, &mut NoopProbe);
    let avg = SimTime(
        run.messages
            .iter()
            .map(|m| m.delivered.as_ns())
            .sum::<u64>()
            / run.messages.len() as u64,
    );
    println!(
        " separate: {} messages, sim avg {} max {} (blocks {})",
        run.messages.len(),
        avg,
        run.stats.makespan,
        run.stats.blocks
    );
    println!("           net: {}", stats_line(&run.stats));
    if args.json {
        let util: Vec<String> = run
            .stats
            .dim_utilization()
            .iter()
            .map(|u| format!("{u:.6}"))
            .collect();
        let lane_util: Vec<String> = run
            .stats
            .lane_utilization()
            .iter()
            .map(|u| format!("{u:.6}"))
            .collect();
        println!(
            "{{{json_head},\"dests\":{},\"bytes\":{},\
             \"avg_delay_ns\":{},\"makespan_ns\":{},\"blocks\":{},\
             \"dim_utilization\":[{}],\"lanes\":{},\"lane_utilization\":[{}],\
             \"max_queue_depth\":{}}}",
            dests.len(),
            args.bytes,
            avg.as_ns(),
            run.stats.makespan.as_ns(),
            run.stats.blocks,
            util.join(","),
            run.stats.lane_busy.len(),
            lane_util.join(","),
            run.stats.max_queue_depth
        );
    }
    if args.trace {
        let trace = ChannelTrace::reconstruct_on(router, &params, &workload, &run);
        println!("\n{}", trace.render_timeline(64));
        println!(
            "external-channel utilization: {:.1}% across {} channels",
            trace.utilization() * 100.0,
            trace.channels_used()
        );
    }
    if args.trace_out.is_some() || args.metrics_out.is_some() {
        write_observability(
            router,
            &params,
            &workload,
            args.trace_out.as_deref(),
            args.metrics_out.as_deref(),
        );
    }
}

/// Separate-addressing multicast on the k-ary n-cube torus backend.
fn run_torus(args: &Args) {
    if args.router == RouterKind::Adaptive {
        usage("--router adaptive is mesh-only (the torus routes dimension-ordered)");
    }
    let torus = or_usage(Torus::new(args.arity, args.n));
    let router = match args.lanes {
        None => TorusRouter::new(torus),
        Some(l) if l >= 2 && l % 2 == 0 => TorusRouter::with_lane_multiplier(torus, l / 2),
        Some(l) => usage(format!(
            "--lanes {l}: torus lanes come in dateline pairs (use an even N)"
        )),
    };
    let dests = single_shot_dests(args, &torus);
    println!(
        "{}-ary {}-cube torus | {} | source {} | {} destinations | {} bytes\n",
        args.arity,
        args.n,
        args.port.label(),
        torus.node_label(NodeId(args.source)),
        dests.len(),
        args.bytes
    );
    let json_head = format!(
        "\"topology\":\"torus\",\"arity\":{},\"n\":{}",
        args.arity, args.n
    );
    run_separate(router, args, &dests, &json_head);
}

/// Separate-addressing multicast on the 2D mesh backend, under XY or
/// west-first minimal-adaptive routing.
fn run_mesh(args: &Args) {
    let mesh = or_usage(Mesh::new(args.width, args.height));
    let lanes = args.lanes.unwrap_or(1);
    let dests = single_shot_dests(args, &mesh);
    let (router_name, router_key) = match args.router {
        RouterKind::Ecube => ("xy", "ecube"),
        RouterKind::Adaptive => ("west-first adaptive", "adaptive"),
    };
    println!(
        "{}x{} mesh | {router_name} | {} | source {} | {} destinations | {} bytes\n",
        args.width,
        args.height,
        args.port.label(),
        mesh.node_label(NodeId(args.source)),
        dests.len(),
        args.bytes
    );
    let json_head = format!(
        "\"topology\":\"mesh\",\"width\":{},\"height\":{},\"router\":\"{router_key}\"",
        args.width, args.height,
    );
    match args.router {
        RouterKind::Ecube => {
            run_separate(MeshXY::with_lanes(mesh, lanes), args, &dests, &json_head)
        }
        RouterKind::Adaptive => run_separate(
            MinimalAdaptive::with_lanes(mesh, lanes),
            args,
            &dests,
            &json_head,
        ),
    }
}

/// The tree families a `--collective` run compares: `--algo X` pins one,
/// `--algo bine` the bine tree, no flag sweeps the whole family set.
fn collective_families(args: &Args) -> Vec<TreeFamily> {
    if args.bine {
        vec![TreeFamily::Bine]
    } else {
        match args.algo {
            Some(a) => vec![TreeFamily::Alg(a)],
            None => TreeFamily::SWEEP.to_vec(),
        }
    }
}

/// Prints one collective schedule's idle-network measurement (and the
/// `--json` line), after certifying it with the data oracle.
fn report_collective(
    label: &str,
    sched: &CollectiveSchedule,
    report: &wormsim::SimReport,
    json: bool,
) {
    let verified = match verify_collective(sched) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("{label:>9}  ORACLE FAILURE: {e}");
            false
        }
    };
    println!(
        "{label:>9}: {} steps, {} ops, {} payload bytes, sim avg {} max {} (blocks {}), oracle {}",
        sched.steps,
        sched.ops.len(),
        sched.payload_bytes(),
        report.avg_delay,
        report.max_delay,
        report.blocks,
        if verified { "ok" } else { "FAIL" },
    );
    if json {
        println!(
            "{{\"collective\":\"{}\",\"family\":\"{label}\",\"nodes\":{},\"steps\":{},\
             \"ops\":{},\"payload_bytes\":{},\"avg_delay_ns\":{},\"makespan_ns\":{},\
             \"blocks\":{},\"verified\":{verified}}}",
            sched.kind.name(),
            sched.nodes,
            sched.steps,
            sched.ops.len(),
            sched.payload_bytes(),
            report.avg_delay.as_ns(),
            report.max_delay.as_ns(),
            report.blocks,
        );
    }
}

/// `--collective KIND` without `--load`: build, oracle-verify, and
/// replay one full-machine collective on the idle network.
fn run_collective(args: &Args, kind: CollectiveKind) {
    if args.fault_flags() || args.trace_flags() || args.lanes.is_some() {
        usage("--collective is incompatible with fault, trace, and lane flags");
    }
    let params = SimParams::ncube2(args.port);
    match args.topology {
        TopologyKind::Mesh => usage("--collective supports cube and torus backends"),
        TopologyKind::Torus => {
            let torus = or_usage(Torus::new(args.arity, args.n));
            if args.source >= torus.node_count() as u32 {
                usage(format!("--source {} outside the torus", args.source));
            }
            println!(
                "{}-ary {}-cube torus | {} | {} | block {} bytes\n",
                args.arity,
                args.n,
                args.port.label(),
                kind.name(),
                args.bytes
            );
            let sched = kind.build_separate(&torus, NodeId(args.source), args.bytes);
            let report = wormsim::simulate_collective_on(&sched, TorusRouter::new(torus), &params);
            report_collective("Separate", &sched, &report, args.json);
        }
        TopologyKind::Cube => {
            let cube = or_usage(Cube::new(args.n));
            if args.source >= cube.node_count() as u32 {
                usage(format!(
                    "--source {} outside the {}-cube",
                    args.source, args.n
                ));
            }
            println!(
                "{}-cube | {} | {} | block {} bytes\n",
                args.n,
                args.port.label(),
                kind.name(),
                args.bytes
            );
            for family in collective_families(args) {
                let root = NodeId(args.source);
                let res = Resolution::HighToLow;
                let built = kind.build(family, cube, res, args.port, root, args.bytes, None);
                let sched = or_usage(built);
                let report =
                    wormsim::simulate_collective(&sched, cube, Resolution::HighToLow, &params);
                report_collective(family.name(), &sched, &report, args.json);
            }
        }
    }
}

fn traffic_spec(args: &Args, rate: f64, pattern: DestPattern) -> TrafficSpec {
    workloads::serve::load_spec(
        args.arrivals,
        rate,
        pattern,
        args.sessions,
        args.seed,
        args.bytes,
    )
}

fn print_traffic_report(label: &str, r: &TrafficReport, json: bool) {
    println!(
        "{label:>9}: {} sessions ({} measured), completed {:.3}, \
         latency {:.4} ms ±{:.4} (95% CI), thru {:.3}/ms, cache hit {:.3}",
        r.sessions.len(),
        r.measured_sessions,
        r.completion_ratio,
        r.latency.mean,
        r.latency.ci_half_width,
        r.throughput_per_ms,
        r.cache.hit_rate(),
    );
    println!(
        "{:>9}  net: {} (timed out {})",
        "",
        stats_line(&r.net),
        r.net.timed_out
    );
    if json {
        println!("{}", workloads::serve::traffic_report_json(label, r, None));
    }
}

fn print_chaos_report(label: &str, r: &ChaosReport, json: bool) {
    let hist: Vec<String> = r
        .retry_histogram
        .iter()
        .enumerate()
        .map(|(k, n)| format!("{}x{n}", k + 1))
        .collect();
    let recover = match r.time_to_recover {
        Some(t) => format!("{t}"),
        None => "-".into(),
    };
    println!(
        "{label:>9}: {} sessions ({} measured), delivered {:.3}, goodput {:.3}/ms, \
         latency {:.4} ms ±{:.4} (95% CI)",
        r.sessions.len(),
        r.measured_sessions,
        r.delivery_ratio,
        r.goodput_per_ms,
        r.latency.mean,
        r.latency.ci_half_width,
    );
    println!(
        "{:>9}  churn: {} fault events over {} epochs, attempts [{}], \
         lost {}, window-cut {}, recover {}",
        "",
        r.fault_events,
        r.epochs,
        hist.join(" "),
        r.lost,
        r.window_cut,
        recover,
    );
    println!(
        "{:>9}  net: {} (timed out {}), cache {}h/{}m/{}e/{}i",
        "",
        stats_line(&r.net),
        r.net.timed_out,
        r.cache.hits,
        r.cache.misses,
        r.cache.evictions,
        r.cache.invalidations,
    );
    if json {
        println!("{}", workloads::serve::chaos_report_json(label, r, None));
    }
}

/// `--load R --collective KIND`: open-loop collective traffic — every
/// session is one full-machine collective (the destination flags are
/// irrelevant; allreduce roots rotate round-robin across sessions).
fn run_collective_traffic(args: &Args, rate: f64, kind: CollectiveKind) {
    if args.chaos.is_some() {
        usage("collective traffic does not support --chaos");
    }
    if args.spans_out.is_some() || args.timeseries_out.is_some() {
        usage("collective traffic does not support the flight recorder");
    }
    let params = SimParams::ncube2(args.port);
    // Collective sessions span the whole machine: the pattern slot of
    // the spec is unused but the engine needs one.
    let spec = traffic_spec(args, rate, DestPattern::UniformRandom { m: 1 });
    let mut scratch = EngineScratch::new();
    match args.topology {
        TopologyKind::Mesh => usage("--collective supports cube and torus backends"),
        TopologyKind::Torus => {
            let torus = or_usage(Torus::new(args.arity, args.n));
            println!(
                "{}-ary {}-cube torus | {} | open loop {}: {} arrivals at {} sessions/ms | block {} bytes\n",
                args.arity,
                args.n,
                args.port.label(),
                kind.name(),
                args.arrivals,
                rate,
                args.bytes
            );
            let router = TorusRouter::new(torus);
            let r = traffic::run(
                &spec,
                &SeparateCollective { router, kind },
                &params,
                &mut scratch,
            );
            print_traffic_report("Separate", &r, args.json);
        }
        TopologyKind::Cube => {
            let cube = or_usage(Cube::new(args.n));
            println!(
                "{}-cube | {} | open loop {}: {} arrivals at {} sessions/ms | block {} bytes\n",
                args.n,
                args.port.label(),
                kind.name(),
                args.arrivals,
                rate,
                args.bytes
            );
            for family in collective_families(args) {
                let source = CubeCollective {
                    cube,
                    resolution: Resolution::HighToLow,
                    kind,
                    family,
                };
                let r = traffic::run(&spec, &source, &params, &mut scratch);
                print_traffic_report(family.name(), &r, args.json);
            }
        }
    }
}

/// Runs open-loop traffic from a multicast `source` — plain or under
/// `--chaos` (the churn and retry conventions of [`workloads::serve`]),
/// with or without the flight recorder — and prints its report under
/// `label`.
fn report_traffic<S: Multicast>(args: &Args, label: &str, spec: TrafficSpec, source: &S) {
    let params = SimParams::ncube2(args.port);
    let recorder =
        (args.spans_out.is_some() || args.timeseries_out.is_some()).then(TelemetryConfig::default);
    let scratch = &mut EngineScratch::new();
    if let Some((mtbf, mttr)) = args.chaos {
        let spec = workloads::serve::chaos_wrap(spec, mtbf, mttr, args.retries, args.backoff_us);
        let (r, tel) = match recorder {
            None => (traffic::run_chaos(&spec, source, &params, scratch), None),
            Some(cfg) => {
                let (r, tel) =
                    traffic::run_chaos_with_telemetry(&spec, source, &params, &cfg, scratch);
                (r, Some(tel))
            }
        };
        print_chaos_report(label, &r, args.json);
        tel.inspect(|tel| write_telemetry(args, tel));
    } else {
        let (r, tel) = match recorder {
            None => (traffic::run(&spec, source, &params, scratch), None),
            Some(cfg) => {
                let (r, tel) = traffic::run_with_telemetry(&spec, source, &params, &cfg, scratch);
                (r, Some(tel))
            }
        };
        print_traffic_report(label, &r, args.json);
        tel.inspect(|tel| write_telemetry(args, tel));
    }
}

/// `--load R`: open-loop steady-state traffic instead of a single shot.
fn run_traffic(args: &Args, rate: f64) {
    if args.fault_flags() || args.trace_flags() {
        usage("--load is incompatible with fault and trace flags");
    }
    if args.lanes.is_some() {
        usage("--lanes applies to single-shot runs (drop --load)");
    }
    if let Some(kind) = args.collective {
        run_collective_traffic(args, rate, kind);
        return;
    }
    match args.topology {
        TopologyKind::Mesh => usage("--load supports cube and torus backends"),
        TopologyKind::Torus => {
            let torus = or_usage(Torus::new(args.arity, args.n));
            let spec = traffic_spec(args, rate, dest_pattern(args, torus.node_count()));
            println!(
                "{}-ary {}-cube torus | {} | open loop: {} arrivals at {} sessions/ms | {} bytes\n",
                args.arity,
                args.n,
                args.port.label(),
                args.arrivals,
                rate,
                args.bytes
            );
            report_traffic(args, "Separate", spec, &Separate(TorusRouter::new(torus)));
        }
        TopologyKind::Cube => {
            let cube = or_usage(Cube::new(args.n));
            let recorder = args.spans_out.is_some() || args.timeseries_out.is_some();
            if recorder && args.algo.is_none() {
                usage("--spans-out/--timeseries-out need a single --algo (not `all`)");
            }
            let pattern = dest_pattern(args, cube.node_count());
            let algos: Vec<Algorithm> = match args.algo {
                Some(a) => vec![a],
                None => Algorithm::PAPER.to_vec(),
            };
            println!(
                "{}-cube | {} | open loop: {} arrivals at {} sessions/ms | {} bytes\n",
                args.n,
                args.port.label(),
                args.arrivals,
                rate,
                args.bytes
            );
            for algo in algos {
                let spec = traffic_spec(args, rate, pattern.clone());
                let trees = CubeTrees::new(cube, Resolution::HighToLow, algo);
                report_traffic(args, algo.name(), spec, &trees);
            }
        }
    }
}

/// `mcast serve`: the long-running service mode. Flags after the
/// subcommand configure the queue and caps; the request loop itself
/// lives in [`workloads::serve`].
fn run_serve(flags: &[String]) {
    let mut opts = workloads::serve::ServeOptions::default();
    let mut i = 0;
    while i < flags.len() {
        let take = |i: &mut usize| -> &str {
            *i += 1;
            flags
                .get(*i)
                .map(String::as_str)
                .unwrap_or_else(|| usage(format!("missing value for {}", flags[*i - 1])))
        };
        match flags[i].as_str() {
            "--max-inflight" => {
                opts.max_inflight = take(&mut i)
                    .parse()
                    .unwrap_or_else(|e| usage(format!("--max-inflight: {e}")));
                if opts.max_inflight == 0 {
                    usage("--max-inflight must be >= 1");
                }
            }
            "--max-sessions" => {
                opts.max_sessions = take(&mut i)
                    .parse()
                    .unwrap_or_else(|e| usage(format!("--max-sessions: {e}")));
            }
            other => usage(format!(
                "unknown serve flag {other} (serve takes --max-inflight, --max-sessions)"
            )),
        }
        i += 1;
    }
    // StdinLock is !Send and the reader runs on its own thread, so wrap
    // the unlocked handle in a BufReader instead.
    let input = std::io::BufReader::new(std::io::stdin());
    let mut stdout = std::io::stdout().lock();
    match workloads::serve::serve_loop(input, &mut stdout, &opts) {
        Ok(summary) => {
            eprintln!(
                "mcast serve: {} served, {} errors, {}",
                summary.served,
                summary.errors,
                if summary.shutdown {
                    "shutdown requested"
                } else {
                    "input closed"
                }
            );
        }
        Err(e) => {
            eprintln!("error: serve output: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        run_serve(&argv[1..]);
        return;
    }
    let args = or_usage(parse_args());
    if let Some(rate) = args.load {
        run_traffic(&args, rate);
        return;
    }
    if args.chaos.is_some() {
        usage("--chaos requires --load (churn acts on open-loop traffic)");
    }
    if args.spans_out.is_some() || args.timeseries_out.is_some() {
        usage("--spans-out/--timeseries-out require --load (the flight recorder is session-level)");
    }
    if let Some(kind) = args.collective {
        run_collective(&args, kind);
        return;
    }
    if args.topology != TopologyKind::Cube && args.fault_flags() {
        usage("fault injection/repair flags are hypercube-only");
    }
    if args.topology == TopologyKind::Torus {
        run_torus(&args);
        return;
    }
    if args.topology == TopologyKind::Mesh {
        run_mesh(&args);
        return;
    }
    if args.router == RouterKind::Adaptive {
        usage("--router adaptive is mesh-only (the cube routes E-cube)");
    }
    let cube = or_usage(Cube::new(args.n));
    let dests = single_shot_dests(&args, &cube);

    // Assemble the fault plan, if any fault flag was given.
    let mut plan = FaultPlan::random_links(cube, args.faults, args.seed);
    for &(v, d) in &args.fail_links {
        if v >= cube.node_count() as u32 || d >= args.n {
            usage(format!("--fail-link {v}:{d} outside the {}-cube", args.n));
        }
        plan.fail_link(NodeId(v), Dim(d));
    }
    for &v in &args.fail_nodes {
        if v >= cube.node_count() as u32 {
            usage(format!("--fail-node {v} outside the {}-cube", args.n));
        }
        plan.fail_node(NodeId(v));
    }
    let faulty = !plan.is_empty();

    let params = SimParams::ncube2(args.port);
    if (args.trace_out.is_some() || args.metrics_out.is_some()) && args.algo.is_none() {
        usage("--trace-out/--metrics-out need a single --algo (not `all`)");
    }
    let algos: Vec<Algorithm> = match args.algo {
        Some(a) => vec![a],
        None => Algorithm::ALL.to_vec(),
    };
    println!(
        "{}-cube | {} | source {} | {} destinations | {} bytes\n",
        args.n,
        args.port.label(),
        NodeId(args.source).binary(args.n),
        dests.len(),
        args.bytes
    );
    for algo in algos {
        let tree = or_usage(algo.build(
            cube,
            Resolution::HighToLow,
            args.port,
            NodeId(args.source),
            &dests,
        ));
        let witnesses = contention_witnesses(&tree);
        let lanes = args.lanes.unwrap_or(1);
        let report = wormsim::simulate_multicast_lanes(&tree, &params, args.bytes, lanes);
        println!(
            "{:>9}: {} steps, {} messages, def-4 witnesses {}, sim avg {} max {} (blocks {})",
            algo.name(),
            tree.steps,
            tree.message_count(),
            witnesses.len(),
            report.avg_delay,
            report.max_delay,
            report.blocks
        );
        println!("{:>9}  net: {}", "", stats_line(&report.stats));
        if faulty {
            match wormsim::simulate_multicast_with_faults(&tree, &params, args.bytes, &plan) {
                Ok(r) => println!(
                    "{:>9}  faulty net: delivered {}/{} (ratio {:.3}), makespan {}",
                    "",
                    r.deliveries.len(),
                    r.deliveries.len() + r.lost.len(),
                    r.delivery_ratio,
                    r.makespan
                ),
                Err(e) => println!("{:>9}  faulty net: {e}", ""),
            }
            let fixed = repair(&tree, &NetworkFaults::from(&plan));
            match wormsim::simulate_multicast_with_faults(&fixed.tree, &params, args.bytes, &plan) {
                Ok(r) => println!(
                    "{:>9}  repaired:   delivered {}/{} (ratio {:.3}), makespan {}, \
                     {} rerouted, {} dropped, {} unreachable, +{} steps",
                    "",
                    r.deliveries.len(),
                    r.deliveries.len() + r.lost.len(),
                    r.delivery_ratio,
                    r.makespan,
                    fixed.rerouted.len(),
                    fixed.dropped.len(),
                    fixed.unreachable.len(),
                    fixed.extra_steps
                ),
                Err(e) => println!("{:>9}  repaired:   {e}", ""),
            }
        }
        if args.json {
            println!("{}", tree.to_json());
            println!(
                "{}",
                workloads::serve::multicast_report_json(algo.name(), &report, lanes)
            );
        }
        if args.algo.is_some() && !args.json {
            println!("\n{}", tree.render());
            if args.trace {
                let workload = wormsim::multicast_workload(&tree, args.bytes);
                let router = Ecube::with_lanes(cube, Resolution::HighToLow, lanes);
                let run = replay(router, &params, &workload, &mut NoopProbe);
                let trace = ChannelTrace::reconstruct_on(router, &params, &workload, &run);
                println!("{}", trace.render_timeline(64));
                println!(
                    "external-channel utilization: {:.1}% across {} channels",
                    trace.utilization() * 100.0,
                    trace.channels_used()
                );
            }
        }
        if args.trace_out.is_some() || args.metrics_out.is_some() {
            let workload = wormsim::multicast_workload(&tree, args.bytes);
            write_observability(
                Ecube::with_lanes(cube, Resolution::HighToLow, lanes),
                &params,
                &workload,
                args.trace_out.as_deref(),
                args.metrics_out.as_deref(),
            );
        }
    }
}
