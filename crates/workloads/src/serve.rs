//! Long-running service mode: the `mcast serve` request loop.
//!
//! The one-shot CLI pays the process spawn and argument parse on every
//! invocation. This module turns the same entry points into a daemon:
//! newline-delimited JSON requests on stdin and newline-delimited JSON
//! responses on stdout, each request simulated by the same contended
//! engine run the CLI makes.
//!
//! ## Protocol
//!
//! One request per line; one response line per request, in request
//! order. Every request needs an integer `id` (echoed back) and an
//! `op`; any request may also carry a string `tag`, echoed verbatim in
//! the success wrapper (`{"id":1,"tag":"…","ok":true,…}`) for client
//! correlation — arbitrary UTF-8 including non-BMP characters:
//!
//! ```text
//! {"id":1,"op":"traffic","n":6,"algo":"wsort","load":2.0,"random":8,"sessions":100,"seed":1}
//! {"id":2,"op":"chaos","n":6,"algo":"wsort","load":2.0,"random":8,"mtbf_ms":10.0,"mttr_ms":2.0}
//! {"id":3,"op":"multicast","n":6,"algo":"wsort","source":0,"dests":[3,9,17,33,60]}
//! {"id":4,"op":"stats"}
//! {"id":5,"op":"shutdown"}
//! ```
//!
//! Success wraps the *byte-identical* JSON object the one-shot CLI
//! prints for the same configuration:
//!
//! ```text
//! {"id":1,"ok":true,"result":{"mode":"traffic","algo":"W-sort",...}}
//! ```
//!
//! Failures are typed and never kill the daemon:
//!
//! ```text
//! {"id":null,"ok":false,"error":{"kind":"bad_json","message":"..."}}
//! ```
//!
//! with `kind` one of `bad_json` (the line is not JSON), `bad_request`
//! (unknown op / unknown field / invalid value, including an integer
//! too large for its field and a `load` whose schedule would overrun
//! simulated time), `oversized` (a value exceeds the server's
//! configured caps), or `deadline_exceeded` (the request carried a
//! `deadline_ms` and spent longer than that queued).
//!
//! ## Execution model
//!
//! A reader thread parses lines into a bounded channel
//! ([`ServeOptions::max_inflight`] entries); when the queue is full the
//! reader stops consuming stdin, which backpressures the client through
//! the pipe. A single executor drains the queue **in request order**,
//! so responses never interleave and the output order is
//! deterministic. `shutdown` answers after every request queued before
//! it (the reader stops at the shutdown line), making drain graceful
//! by construction.
//!
//! The load and destination checks ([`check_load`], [`dest_pattern`]),
//! the spec constructors ([`load_spec`], [`chaos_wrap`],
//! [`single_shot_dests`]) and report formatters ([`traffic_report_json`],
//! [`chaos_report_json`], [`multicast_report_json`]) are the *single
//! source* for both the one-shot CLI and the daemon, so serve-vs-CLI
//! equivalence is structural, not coincidental.

use std::io::{BufRead, Write};
use std::sync::mpsc;
use std::time::Instant;

use hcube::{Cube, NodeId, Resolution, Topology, Torus, TorusRouter};
use hypercast::{Algorithm, PortModel, RetryPolicy};
use traffic::{
    ArrivalProcess, Arrivals, ChaosReport, ChaosSpec, ChurnSpec, CubeTrees, DestPattern, Multicast,
    Separate, TrafficReport, TrafficSpec,
};
use wormsim::{json_escape, EngineScratch, SimParams, SimReport, SimTime};

use crate::json::{self, Value};

// ---------------------------------------------------------------------------
// Shared spec builders (single source for the CLI and the daemon)
// ---------------------------------------------------------------------------

/// The latest simulated instant, in nanoseconds, that a `--load` run's
/// arrival schedule or horizon may reach: a quarter of [`SimTime`]'s
/// range (about 146 years), which leaves the engine room to add
/// transfer times to any arrival without overflowing.
const LOAD_SPAN_LIMIT_NS: f64 = (1u64 << 62) as f64;

/// The horizon of a `--load` run in milliseconds: the nominal schedule
/// plus 25% slack and a 30 ms drain tail.
fn horizon_ms(rate: f64, sessions: usize) -> f64 {
    sessions as f64 / rate * 1.25 + 30.0
}

/// Checks that `sessions` arrivals at `rate` sessions/ms under
/// `arrivals` fit in simulated time: both the worst-case arrival
/// schedule ([`Arrivals::span_bound_ns`]) and the [`load_spec`]
/// horizon must stay within `LOAD_SPAN_LIMIT_NS`. Both front ends
/// call it before [`load_spec`].
///
/// # Errors
/// A human-readable message naming the load when it is too small for
/// the session count.
pub fn check_load(arrivals: ArrivalProcess, rate: f64, sessions: usize) -> Result<(), String> {
    if !(rate.is_finite() && rate > 0.0) {
        return Err(format!("load must be a positive rate, got {rate}"));
    }
    let schedule_ns = Arrivals::new(arrivals, rate).span_bound_ns(sessions);
    let horizon_ns = horizon_ms(rate, sessions) * 1e6;
    if schedule_ns.max(horizon_ns) > LOAD_SPAN_LIMIT_NS {
        return Err(format!(
            "load {rate} sessions/ms is too low for {sessions} sessions: \
             the schedule would overrun simulated time"
        ));
    }
    Ok(())
}

/// Checks the destination side of a run against a `nodes`-node
/// topology and returns its pattern. This is the one check `mcast` argv
/// and serve requests share, made before anything runs or prints, so
/// neither front end can hand the samplers or tree constructors a set they
/// would panic on. `source` must be a node, and exactly one of `dests`
/// and `random` is given: `dests` non-empty, every entry a node other
/// than the source and none twice; `random` at least 1 and at most
/// `nodes − 1`, because a draw excludes its source. Neither may ask for
/// more than `max_dests` destinations (serve's cap; `mcast` passes
/// `usize::MAX`). Messages name the three inputs through `name`, so
/// they read in the front end's terms (`` `random` `` or `--random`).
///
/// # Errors
/// The first violation, checked in this order: `source`; both or
/// neither given; then `random` (zero, cap, node count) or `dests`
/// (empty, cap, then each entry in turn). A cap violation is
/// `oversized`, every other one `bad_request`.
pub fn dest_pattern(
    source: u32,
    dests: Option<&[u64]>,
    random: Option<u64>,
    nodes: usize,
    max_dests: usize,
    name: impl Fn(&str) -> String,
) -> Result<DestPattern, Refusal> {
    let (s, d, r) = (name("source"), name("dests"), name("random"));
    if source as usize >= nodes {
        return Err(bad_request(format!(
            "{s} {source} outside the {nodes}-node topology"
        )));
    }
    match (dests, random) {
        (Some(_), Some(_)) => Err(bad_request(format!("give {d} or {r}, not both"))),
        (None, None) => Err(bad_request(format!("provide {d} or {r}"))),
        (None, Some(0)) => Err(bad_request(format!("{r} must be >= 1"))),
        (None, Some(m)) if m > max_dests as u64 => {
            Err(oversized(format!("{r} {m} exceeds the cap of {max_dests}")))
        }
        (None, Some(m)) if m >= nodes as u64 => Err(bad_request(format!(
            "{r} {m} needs {} candidates but the topology has {nodes} nodes",
            m + 1
        ))),
        (None, Some(m)) => Ok(DestPattern::UniformRandom { m: m as usize }),
        (Some([]), None) => Err(bad_request(format!("{d} must not be empty"))),
        (Some(dests), None) if dests.len() > max_dests => Err(oversized(format!(
            "{} dests exceed the cap of {max_dests}",
            dests.len()
        ))),
        (Some(dests), None) => {
            let mut out = Vec::with_capacity(dests.len());
            for &d in dests {
                if d >= nodes as u64 {
                    return Err(bad_request(format!(
                        "destination {d} outside the {nodes}-node topology"
                    )));
                }
                if d == u64::from(source) {
                    return Err(bad_request(format!("destination {d} is the source itself")));
                }
                let d = NodeId(d as u32);
                if out.contains(&d) {
                    return Err(bad_request(format!("duplicate destination {}", d.0)));
                }
                out.push(d);
            }
            Ok(DestPattern::Fixed {
                source: NodeId(source),
                dests: out,
            })
        }
    }
}

/// The destinations of a single-shot multicast from `source` on `topo`:
/// a [`dest_pattern`]-checked fixed set as given, or `random` m drawn
/// from the CLI's seeded stream, so `mcast --random M --seed S` and the
/// equivalent serve request build the same tree.
#[must_use]
pub fn single_shot_dests<T: Topology>(
    pattern: DestPattern,
    topo: &T,
    source: NodeId,
    seed: u64,
) -> Vec<NodeId> {
    match pattern {
        DestPattern::Fixed { dests, .. } => dests,
        DestPattern::UniformRandom { m } => {
            let mut rng = crate::destsets::trial_rng("mcast-cli", 0, seed as usize);
            crate::destsets::random_dests_on(&mut rng, topo, source, m)
        }
        _ => unreachable!("dest_pattern only builds Fixed or UniformRandom"),
    }
}

/// Builds the open-loop [`TrafficSpec`] of a `--load` run: `rate`
/// sessions/ms under `arrivals`, with the CLI's horizon convention —
/// enough simulated time for the nominal schedule plus 25% slack and a
/// 30 ms drain tail. Callers check the load with [`check_load`] first.
#[must_use]
pub fn load_spec(
    arrivals: ArrivalProcess,
    rate: f64,
    pattern: DestPattern,
    sessions: usize,
    seed: u64,
    bytes: u32,
) -> TrafficSpec {
    let mut spec = TrafficSpec::new(Arrivals::new(arrivals, rate), pattern, sessions, seed);
    spec.bytes = bytes;
    spec.horizon = SimTime::from_ms(horizon_ms(rate, sessions) as u64);
    spec
}

/// Wraps an open-loop spec with the `--chaos` churn process and retry
/// policy. Node churn rides along at 4x the link MTBF and 1.5x the
/// link MTTR (the sweep's convention); failures strike only in the
/// first 60% of the window so every run ends with a healed network.
#[must_use]
pub fn chaos_wrap(
    traffic: TrafficSpec,
    mtbf_ms: f64,
    mttr_ms: f64,
    retries: u32,
    backoff_us: u64,
) -> ChaosSpec {
    let churn = ChurnSpec {
        link_mtbf_ms: mtbf_ms,
        link_mttr_ms: mttr_ms,
        node_mtbf_ms: mtbf_ms * 4.0,
        node_mttr_ms: mttr_ms * 1.5,
        churn_until: SimTime::from_ns((traffic.horizon.as_ns() as f64 * 0.6) as u64),
    };
    ChaosSpec {
        traffic,
        churn,
        retry: RetryPolicy {
            max_retries: retries,
            base_backoff: backoff_us,
            backoff_factor: 4,
        },
    }
}

// ---------------------------------------------------------------------------
// Shared report formatters
// ---------------------------------------------------------------------------

fn fin(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Appends `,"workers":N` inside the closing brace when `workers` is
/// set. No run reports a worker count any more, so every caller in
/// this repository passes `None`; the parameter stays because the
/// repository benchmark's traced replay calls the report formatters
/// with it.
fn with_workers(mut line: String, workers: Option<usize>) -> String {
    if let Some(w) = workers {
        line.truncate(line.len() - 1);
        line.push_str(&format!(",\"workers\":{w}}}"));
    }
    line
}

/// The one-line JSON summary of an open-loop traffic report — the
/// exact object `mcast --load --json` prints (with `workers: None`;
/// see `with_workers`).
#[must_use]
pub fn traffic_report_json(label: &str, r: &TrafficReport, workers: Option<usize>) -> String {
    let line = format!(
        "{{\"mode\":\"traffic\",\"algo\":\"{label}\",\"offered_per_ms\":{},\
         \"sessions\":{},\"measured\":{},\"completion_ratio\":{},\
         \"mean_latency_ms\":{},\"ci_half_width_ms\":{},\"throughput_per_ms\":{},\
         \"cache_hit_rate\":{},\"timed_out\":{}}}",
        r.offered_rate_per_ms,
        r.sessions.len(),
        r.measured_sessions,
        r.completion_ratio,
        fin(r.latency.mean),
        fin(r.latency.ci_half_width),
        r.throughput_per_ms,
        r.cache.hit_rate(),
        r.net.timed_out,
    );
    with_workers(line, workers)
}

/// The one-line JSON summary of a chaos report — the exact object
/// `mcast --load --chaos --json` prints (with `workers: None`; see
/// `with_workers`).
#[must_use]
pub fn chaos_report_json(label: &str, r: &ChaosReport, workers: Option<usize>) -> String {
    let hist: Vec<String> = r.retry_histogram.iter().map(u64::to_string).collect();
    let line = format!(
        "{{\"mode\":\"chaos\",\"algo\":\"{label}\",\"offered_per_ms\":{},\
         \"sessions\":{},\"measured\":{},\"delivery_ratio\":{},\
         \"goodput_per_ms\":{},\"mean_latency_ms\":{},\"ci_half_width_ms\":{},\
         \"retry_histogram\":[{}],\"lost\":{},\"window_cut\":{},\
         \"time_to_recover_ms\":{},\"epochs\":{},\"fault_events\":{}}}",
        r.offered_rate_per_ms,
        r.sessions.len(),
        r.measured_sessions,
        r.delivery_ratio,
        r.goodput_per_ms,
        fin(r.latency.mean),
        fin(r.latency.ci_half_width),
        hist.join(","),
        r.lost,
        r.window_cut,
        r.time_to_recover
            .map_or("null".into(), |t| format!("{}", t.as_ms())),
        r.epochs,
        r.fault_events,
    );
    with_workers(line, workers)
}

/// The one-line JSON summary of a single-shot multicast — the exact
/// summary object `mcast --json` prints after the tree.
#[must_use]
pub fn multicast_report_json(label: &str, report: &SimReport, lanes: u8) -> String {
    let util: Vec<String> = report
        .stats
        .dim_utilization()
        .iter()
        .map(|u| format!("{u:.6}"))
        .collect();
    let lane_util: Vec<String> = report
        .stats
        .lane_utilization()
        .iter()
        .map(|u| format!("{u:.6}"))
        .collect();
    format!(
        "{{\"algo\":\"{label}\",\"avg_delay_ns\":{},\"max_delay_ns\":{},\"blocks\":{},\
         \"dim_utilization\":[{}],\"lanes\":{lanes},\"lane_utilization\":[{}],\
         \"max_queue_depth\":{}}}",
        report.avg_delay.as_ns(),
        report.max_delay.as_ns(),
        report.blocks,
        util.join(","),
        lane_util.join(","),
        report.stats.max_queue_depth
    )
}

// ---------------------------------------------------------------------------
// Server configuration and summary
// ---------------------------------------------------------------------------

/// Tunables of a [`serve_loop`]: the in-flight bound (backpressure) and
/// the size caps behind `oversized` refusals.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Parsed requests buffered between the reader and the executor;
    /// when full, the reader stops consuming input (backpressure).
    pub max_inflight: usize,
    /// Per-request session ceiling.
    pub max_sessions: usize,
    /// Topology size ceiling (nodes).
    pub max_nodes: usize,
    /// Destination-set size ceiling (explicit `dests` or `random` m).
    pub max_dests: usize,
    /// Request-line length ceiling in bytes.
    pub max_line_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_inflight: 16,
            max_sessions: 20_000,
            max_nodes: 1024,
            max_dests: 256,
            max_line_bytes: 1 << 20,
        }
    }
}

/// What a [`serve_loop`] did before it returned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Successful responses written.
    pub served: u64,
    /// Error responses written.
    pub errors: u64,
    /// `true` if the loop ended on a `shutdown` request (`false`: EOF).
    pub shutdown: bool,
}

// ---------------------------------------------------------------------------
// Request plumbing
// ---------------------------------------------------------------------------

struct Job {
    received: Instant,
    parsed: Result<Value, String>,
}

/// A typed refusal: becomes the `error` object of a response line (and,
/// from [`dest_pattern`], an `mcast` usage error).
#[derive(Debug)]
pub struct Refusal {
    /// `bad_request` or `oversized` (the response's `error.kind`).
    pub kind: &'static str,
    /// A human-readable message naming the violation.
    pub message: String,
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

fn bad_request(message: impl Into<String>) -> Refusal {
    Refusal {
        kind: "bad_request",
        message: message.into(),
    }
}

fn oversized(message: impl Into<String>) -> Refusal {
    Refusal {
        kind: "oversized",
        message: message.into(),
    }
}

/// Strict field cursor over a request object: every `get` marks the
/// key as consumed, and [`Fields::finish`] refuses the request if any
/// key was never consumed — unknown fields are errors, not silence.
struct Fields<'a> {
    entries: &'a [(String, Value)],
    used: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Value) -> Result<Fields<'a>, Refusal> {
        match v {
            Value::Object(entries) => Ok(Fields {
                used: vec![false; entries.len()],
                entries,
            }),
            _ => Err(bad_request("a request must be a JSON object")),
        }
    }

    fn get(&mut self, key: &str) -> Option<&'a Value> {
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if k == key {
                self.used[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn finish(self) -> Result<(), Refusal> {
        for (i, (k, _)) in self.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(bad_request(format!("unknown field `{k}`")));
            }
        }
        Ok(())
    }
}

/// A non-negative integer field (JSON numbers are `f64`; refuse
/// fractions and out-of-range magnitudes rather than truncating).
fn as_uint(v: &Value, key: &str) -> Result<u64, Refusal> {
    match v.as_f64() {
        Some(x) if x.fract() == 0.0 && (0.0..=9.0e15).contains(&x) => Ok(x as u64),
        _ => Err(bad_request(format!(
            "`{key}` must be a non-negative integer"
        ))),
    }
}

fn uint_field(f: &mut Fields, key: &str, default: u64) -> Result<u64, Refusal> {
    f.get(key).map_or(Ok(default), |v| as_uint(v, key))
}

/// A [`uint_field`] narrowed to `T`: a value that does not fit is
/// refused, as `mcast` refuses the same argv value, never truncated.
fn narrow_field<T: TryFrom<u64>>(f: &mut Fields, key: &str, default: u64) -> Result<T, Refusal> {
    let v = uint_field(f, key, default)?;
    T::try_from(v)
        .map_err(|_| bad_request(format!("`{key}`: number too large to fit in target type")))
}

/// The payload size in bytes: 1 to 2^32-1, default 4096.
fn bytes_field(f: &mut Fields) -> Result<u32, Refusal> {
    u32::try_from(uint_field(f, "bytes", 4096)?)
        .ok()
        .filter(|&b| b > 0)
        .ok_or_else(|| bad_request("`bytes` must be between 1 and 2^32-1"))
}

fn float_field(f: &mut Fields, key: &str) -> Result<Option<f64>, Refusal> {
    match f.get(key) {
        None => Ok(None),
        Some(v) => match v.as_f64() {
            Some(x) if x.is_finite() => Ok(Some(x)),
            _ => Err(bad_request(format!("`{key}` must be a finite number"))),
        },
    }
}

fn str_field<'a>(f: &mut Fields<'a>, key: &str) -> Result<Option<&'a str>, Refusal> {
    match f.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| bad_request(format!("`{key}` must be a string"))),
    }
}

fn parse_algorithm(name: &str) -> Result<Algorithm, Refusal> {
    Ok(match name {
        "ucube" | "u-cube" => Algorithm::UCube,
        "maxport" => Algorithm::Maxport,
        "combine" => Algorithm::Combine,
        "wsort" | "w-sort" => Algorithm::WSort,
        "separate" => Algorithm::Separate,
        "dimtree" => Algorithm::DimTree,
        other => return Err(bad_request(format!("unknown algorithm `{other}`"))),
    })
}

fn parse_port(f: &mut Fields) -> Result<PortModel, Refusal> {
    Ok(match str_field(f, "port")? {
        None | Some("all") | Some("all-port") => PortModel::AllPort,
        Some("one") | Some("one-port") => PortModel::OnePort,
        Some(other) => return Err(bad_request(format!("unknown port model `{other}`"))),
    })
}

/// The destination side of a request: explicit `dests` or `random` m,
/// validated by [`dest_pattern`] under the server's cap so tree
/// construction and the pattern samplers cannot panic on daemon input.
fn parse_pattern(
    f: &mut Fields,
    source: u32,
    nodes: usize,
    opts: &ServeOptions,
) -> Result<DestPattern, Refusal> {
    let random = f.get("random").map(|v| as_uint(v, "random")).transpose()?;
    let dests = match f.get("dests") {
        None => None,
        Some(v) => Some(
            v.as_array()
                .ok_or_else(|| bad_request("`dests` must be an array of node ids"))?
                .iter()
                .map(|d| as_uint(d, "dests"))
                .collect::<Result<Vec<u64>, _>>()?,
        ),
    };
    let name = |field: &str| format!("`{field}`");
    dest_pattern(
        source,
        dests.as_deref(),
        random,
        nodes,
        opts.max_dests,
        name,
    )
}

// ---------------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------------

enum Executed {
    Line(String),
    Shutdown(String),
}

fn request_id(v: &Value) -> Result<u64, Refusal> {
    match v.get("id") {
        Some(id) => as_uint(id, "id"),
        None => Err(bad_request("a request needs an integer `id`")),
    }
}

/// The traffic/chaos shared front half: topology + pattern + spec
/// fields, then the matching contended engine entry point.
fn run_load(chaos: bool, f: &mut Fields, opts: &ServeOptions) -> Result<String, Refusal> {
    let topology = str_field(f, "topology")?.unwrap_or("cube");
    let n: u8 = narrow_field(f, "n", 6)?;
    let rate = match float_field(f, "load")? {
        Some(r) if r > 0.0 => r,
        Some(_) => return Err(bad_request("`load` must be > 0 sessions/ms")),
        None => return Err(bad_request("`load` (sessions/ms) is required")),
    };
    let sessions: usize = narrow_field(f, "sessions", 100)?;
    if sessions == 0 {
        return Err(bad_request("`sessions` must be >= 1"));
    }
    if sessions > opts.max_sessions {
        return Err(oversized(format!(
            "{sessions} sessions exceed the cap of {}",
            opts.max_sessions
        )));
    }
    let arrivals = match str_field(f, "arrivals")? {
        None => ArrivalProcess::Poisson,
        Some(s) => ArrivalProcess::parse(s).map_err(bad_request)?,
    };
    check_load(arrivals, rate, sessions).map_err(bad_request)?;
    let seed = uint_field(f, "seed", 1)?;
    let bytes = bytes_field(f)?;
    let source: u32 = narrow_field(f, "source", 0)?;
    let port = parse_port(f)?;
    let params = SimParams::ncube2(port);
    let retry = if chaos {
        let mtbf = match float_field(f, "mtbf_ms")? {
            Some(x) if x > 0.0 => x,
            _ => return Err(bad_request("`mtbf_ms` must be a number > 0")),
        };
        let mttr = match float_field(f, "mttr_ms")? {
            Some(x) if x > 0.0 => x,
            _ => return Err(bad_request("`mttr_ms` must be a number > 0")),
        };
        let retries: u32 = narrow_field(f, "retries", 3)?;
        let backoff_us = uint_field(f, "backoff_us", 500)?;
        if backoff_us == 0 {
            return Err(bad_request("`backoff_us` must be >= 1"));
        }
        Some((mtbf, mttr, retries, backoff_us))
    } else {
        None
    };

    match topology {
        "cube" => {
            let algo = parse_algorithm(str_field(f, "algo")?.unwrap_or("wsort"))?;
            let cube = Cube::new(n).map_err(|e| bad_request(e.to_string()))?;
            if cube.node_count() > opts.max_nodes {
                return Err(oversized(format!(
                    "a {n}-cube ({} nodes) exceeds the cap of {} nodes",
                    cube.node_count(),
                    opts.max_nodes
                )));
            }
            let pattern = parse_pattern(f, source, cube.node_count(), opts)?;
            let spec = load_spec(arrivals, rate, pattern, sessions, seed, bytes);
            let trees = CubeTrees::new(cube, Resolution::HighToLow, algo);
            Ok(load_json(algo.name(), spec, &trees, &params, retry))
        }
        "torus" => {
            let arity: u16 = narrow_field(f, "arity", 4)?;
            let torus = Torus::new(arity, n).map_err(|e| bad_request(e.to_string()))?;
            if torus.node_count() > opts.max_nodes {
                return Err(oversized(format!(
                    "a {arity}-ary {n}-cube torus ({} nodes) exceeds the cap of {} nodes",
                    torus.node_count(),
                    opts.max_nodes
                )));
            }
            let pattern = parse_pattern(f, source, torus.node_count(), opts)?;
            let spec = load_spec(arrivals, rate, pattern, sessions, seed, bytes);
            let separate = Separate(TorusRouter::new(torus));
            Ok(load_json("Separate", spec, &separate, &params, retry))
        }
        other => Err(bad_request(format!(
            "unknown topology `{other}` (cube or torus)"
        ))),
    }
}

/// Runs one open-loop request from `source` — plain, or under churn
/// when `retry` carries `(mtbf_ms, mttr_ms, retries, backoff_us)` — and
/// returns the report object the CLI prints for the same run.
fn load_json<S: Multicast>(
    label: &str,
    spec: TrafficSpec,
    source: &S,
    params: &SimParams,
    retry: Option<(f64, f64, u32, u64)>,
) -> String {
    let mut scratch = EngineScratch::new();
    match retry {
        Some((mtbf, mttr, retries, backoff_us)) => {
            let spec = chaos_wrap(spec, mtbf, mttr, retries, backoff_us);
            let r = traffic::run_chaos(&spec, source, params, &mut scratch);
            chaos_report_json(label, &r, None)
        }
        None => {
            let r = traffic::run(&spec, source, params, &mut scratch);
            traffic_report_json(label, &r, None)
        }
    }
}

/// A single-shot multicast request: build the tree, replay it on an
/// idle network, return the CLI's summary object.
fn run_multicast(f: &mut Fields, opts: &ServeOptions) -> Result<String, Refusal> {
    let n: u8 = narrow_field(f, "n", 6)?;
    let cube = Cube::new(n).map_err(|e| bad_request(e.to_string()))?;
    if cube.node_count() > opts.max_nodes {
        return Err(oversized(format!(
            "a {n}-cube ({} nodes) exceeds the cap of {} nodes",
            cube.node_count(),
            opts.max_nodes
        )));
    }
    let algo = parse_algorithm(str_field(f, "algo")?.unwrap_or("wsort"))?;
    let source: u32 = narrow_field(f, "source", 0)?;
    let seed = uint_field(f, "seed", 1)?;
    let bytes = bytes_field(f)?;
    let lanes = u8::try_from(uint_field(f, "lanes", 1)?)
        .ok()
        .filter(|l| (1..=16).contains(l))
        .ok_or_else(|| bad_request("`lanes` must be between 1 and 16"))?;
    let port = parse_port(f)?;
    let pattern = parse_pattern(f, source, cube.node_count(), opts)?;
    let source = NodeId(source);
    let dests = single_shot_dests(pattern, &cube, source, seed);
    let tree = algo
        .build(cube, Resolution::HighToLow, port, source, &dests)
        .map_err(|e| bad_request(e.to_string()))?;
    let params = SimParams::ncube2(port);
    let report = wormsim::simulate_multicast_lanes(&tree, &params, bytes, lanes);
    Ok(multicast_report_json(algo.name(), &report, lanes))
}

fn execute(
    v: &Value,
    received: Instant,
    opts: &ServeOptions,
    summary: &ServeSummary,
) -> Result<(Option<String>, Executed), Refusal> {
    let mut f = Fields::new(v)?;
    let _ = f.get("id");
    // An optional client correlation string, echoed verbatim in the
    // response wrapper. Arbitrary UTF-8 (the parser combines UTF-16
    // surrogate pairs, so non-BMP tags survive the round trip).
    let tag = str_field(&mut f, "tag")?.map(str::to_string);
    let op = str_field(&mut f, "op")?
        .ok_or_else(|| bad_request("`op` is required (traffic/chaos/multicast/stats/shutdown)"))?;
    if let Some(deadline_ms) = float_field(&mut f, "deadline_ms")? {
        if deadline_ms < 0.0 {
            return Err(bad_request("`deadline_ms` must be >= 0"));
        }
        let waited_ms = received.elapsed().as_secs_f64() * 1e3;
        if waited_ms > deadline_ms {
            return Err(Refusal {
                kind: "deadline_exceeded",
                message: format!("request waited {waited_ms:.1} ms, deadline {deadline_ms} ms"),
            });
        }
    }
    let executed = match op {
        "traffic" | "chaos" => {
            let line = run_load(op == "chaos", &mut f, opts)?;
            f.finish()?;
            Executed::Line(line)
        }
        "multicast" => {
            let line = run_multicast(&mut f, opts)?;
            f.finish()?;
            Executed::Line(line)
        }
        "stats" => {
            f.finish()?;
            Executed::Line(format!(
                "{{\"mode\":\"stats\",\"served\":{},\"errors\":{}}}",
                summary.served, summary.errors
            ))
        }
        "shutdown" => {
            f.finish()?;
            Executed::Shutdown(format!(
                "{{\"mode\":\"shutdown\",\"served\":{},\"errors\":{}}}",
                summary.served, summary.errors
            ))
        }
        other => return Err(bad_request(format!("unknown op `{other}`"))),
    };
    Ok((tag, executed))
}

// ---------------------------------------------------------------------------
// The request loop
// ---------------------------------------------------------------------------

fn id_json(id: Option<u64>) -> String {
    id.map_or_else(|| "null".into(), |i| i.to_string())
}

/// The optional `,"tag":"…"` wrapper member: present only when the
/// request carried a tag, so untagged responses keep their exact bytes.
fn tag_json(tag: Option<&str>) -> String {
    tag.map_or_else(String::new, |t| format!(",\"tag\":\"{}\"", json_escape(t)))
}

/// The reader half: one parsed line per queue slot. Blank lines are
/// skipped; a `shutdown` op stops the reader after forwarding it, so
/// the executor drains everything queued before it and the loop's
/// thread scope joins cleanly.
fn read_requests(mut input: impl BufRead, tx: mpsc::SyncSender<Job>, max_line_bytes: usize) {
    let mut line = String::new();
    loop {
        line.clear();
        match input.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let parsed = if trimmed.len() > max_line_bytes {
            Err(format!(
                "request line of {} bytes exceeds the cap of {max_line_bytes}",
                trimmed.len()
            ))
        } else {
            json::parse(trimmed).map_err(|e| e.to_string())
        };
        let shutdown = matches!(
            &parsed,
            Ok(v) if v.get("op").and_then(Value::as_str) == Some("shutdown")
        );
        if tx
            .send(Job {
                received: Instant::now(),
                parsed,
            })
            .is_err()
        {
            break;
        }
        if shutdown {
            break;
        }
    }
}

/// Runs the daemon: reads requests from `input` until EOF or a
/// `shutdown` request, writing one response line per request to
/// `output` in request order. A malformed line (`bad_json`) is the
/// only way a request can fail without an echoed id.
///
/// # Errors
///
/// Propagates `output` write failures; request-level problems become
/// error response lines instead.
pub fn serve_loop<R, W>(
    input: R,
    output: &mut W,
    opts: &ServeOptions,
) -> std::io::Result<ServeSummary>
where
    R: BufRead + Send,
    W: Write,
{
    let (tx, rx) = mpsc::sync_channel::<Job>(opts.max_inflight.max(1));
    let max_line_bytes = opts.max_line_bytes;
    std::thread::scope(|scope| {
        scope.spawn(move || read_requests(input, tx, max_line_bytes));
        let mut summary = ServeSummary::default();
        for job in rx {
            let (id, outcome) = match &job.parsed {
                Err(e) => (
                    None,
                    Err(Refusal {
                        kind: "bad_json",
                        message: e.clone(),
                    }),
                ),
                Ok(v) => match request_id(v) {
                    Err(r) => (None, Err(r)),
                    Ok(id) => (Some(id), execute(v, job.received, opts, &summary)),
                },
            };
            match outcome {
                Ok((tag, Executed::Line(result))) => {
                    writeln!(
                        output,
                        "{{\"id\":{}{},\"ok\":true,\"result\":{result}}}",
                        id_json(id),
                        tag_json(tag.as_deref())
                    )?;
                    output.flush()?;
                    summary.served += 1;
                }
                Ok((tag, Executed::Shutdown(result))) => {
                    writeln!(
                        output,
                        "{{\"id\":{}{},\"ok\":true,\"result\":{result}}}",
                        id_json(id),
                        tag_json(tag.as_deref())
                    )?;
                    output.flush()?;
                    summary.served += 1;
                    summary.shutdown = true;
                    break;
                }
                Err(refusal) => {
                    writeln!(
                        output,
                        "{{\"id\":{},\"ok\":false,\"error\":{{\"kind\":\"{}\",\"message\":\"{}\"}}}}",
                        id_json(id),
                        refusal.kind,
                        json_escape(&refusal.message)
                    )?;
                    output.flush()?;
                    summary.errors += 1;
                }
            }
        }
        Ok(summary)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn serve(input: &str, opts: &ServeOptions) -> (Vec<String>, ServeSummary) {
        let mut out = Vec::new();
        let summary = serve_loop(Cursor::new(input.to_string()), &mut out, opts)
            .expect("writing to a Vec cannot fail");
        let lines = String::from_utf8(out)
            .expect("responses are UTF-8")
            .lines()
            .map(str::to_string)
            .collect();
        (lines, summary)
    }

    /// The response line of a successful request `id`.
    fn ok_line(id: u64, result: String) -> Vec<String> {
        vec![format!("{{\"id\":{id},\"ok\":true,\"result\":{result}}}")]
    }

    /// The spec serve builds for a Poisson request with 4 KB payloads.
    fn poisson(rate: f64, pattern: DestPattern, sessions: usize, seed: u64) -> TrafficSpec {
        load_spec(ArrivalProcess::Poisson, rate, pattern, sessions, seed, 4096)
    }

    /// The one-shot traffic report of `spec` on an all-port network.
    fn one_shot<S: Multicast>(spec: &TrafficSpec, source: &S) -> TrafficReport {
        let params = SimParams::ncube2(PortModel::AllPort);
        traffic::run(spec, source, &params, &mut EngineScratch::new())
    }

    /// The one-shot chaos report of `spec` on an all-port network.
    fn one_shot_chaos<S: Multicast>(spec: &ChaosSpec, source: &S) -> ChaosReport {
        let params = SimParams::ncube2(PortModel::AllPort);
        traffic::run_chaos(spec, source, &params, &mut EngineScratch::new())
    }

    fn wsort5() -> CubeTrees {
        CubeTrees::new(Cube::of(5), Resolution::HighToLow, Algorithm::WSort)
    }

    /// Separate addressing on the 4-ary 2-cube torus, the serve torus
    /// backend.
    fn torus42() -> Separate<TorusRouter> {
        Separate(TorusRouter::new(Torus::of(4, 2)))
    }

    const TRAFFIC: &str = "{\"id\":1,\"op\":\"traffic\",\"n\":5,\"algo\":\"wsort\",\"load\":2.0,\
         \"random\":6,\"sessions\":40,\"seed\":7}";

    #[test]
    fn traffic_response_matches_the_one_shot_engine() {
        let (lines, summary) = serve(TRAFFIC, &ServeOptions::default());
        let spec = poisson(2.0, DestPattern::UniformRandom { m: 6 }, 40, 7);
        let report = one_shot(&spec, &wsort5());
        assert_eq!(
            lines,
            ok_line(1, traffic_report_json("W-sort", &report, None))
        );
        assert_eq!(
            summary,
            ServeSummary {
                served: 1,
                errors: 0,
                shutdown: false
            }
        );
    }

    #[test]
    fn responses_are_interleaving_invariant() {
        let chaos = "{\"id\":2,\"op\":\"chaos\",\"n\":5,\"algo\":\"combine\",\"load\":1.5,\
                     \"random\":5,\"sessions\":30,\"seed\":3,\"mtbf_ms\":8.0,\"mttr_ms\":2.0}";
        let ab = serve(&format!("{TRAFFIC}\n{chaos}\n"), &ServeOptions::default()).0;
        let ba = serve(&format!("{chaos}\n{TRAFFIC}\n"), &ServeOptions::default()).0;
        assert_eq!(ab.len(), 2);
        assert_eq!(
            ab[0], ba[1],
            "the traffic response depends on its neighbors"
        );
        assert_eq!(ab[1], ba[0], "the chaos response depends on its neighbors");
    }

    #[test]
    fn chaos_response_matches_the_one_shot_engine() {
        let req = "{\"id\":4,\"op\":\"chaos\",\"n\":5,\"algo\":\"wsort\",\"load\":1.5,\
                   \"random\":5,\"sessions\":30,\"seed\":3,\"mtbf_ms\":8.0,\"mttr_ms\":2.0}";
        let (lines, _) = serve(req, &ServeOptions::default());
        let spec = poisson(1.5, DestPattern::UniformRandom { m: 5 }, 30, 3);
        let report = one_shot_chaos(&chaos_wrap(spec, 8.0, 2.0, 3, 500), &wsort5());
        assert_eq!(
            lines,
            ok_line(4, chaos_report_json("W-sort", &report, None))
        );
    }

    #[test]
    fn torus_traffic_response_matches_the_one_shot_engine() {
        let req = "{\"id\":5,\"op\":\"traffic\",\"topology\":\"torus\",\"arity\":4,\"n\":2,\
                   \"load\":1.0,\"dests\":[3,9,14],\"source\":1,\"sessions\":25,\"seed\":9}";
        let (lines, _) = serve(req, &ServeOptions::default());
        let dests = [3, 9, 14].map(NodeId).to_vec();
        let pattern = DestPattern::Fixed {
            source: NodeId(1),
            dests,
        };
        let report = one_shot(&poisson(1.0, pattern, 25, 9), &torus42());
        assert_eq!(
            lines,
            ok_line(5, traffic_report_json("Separate", &report, None))
        );
    }

    #[test]
    fn torus_chaos_response_matches_the_one_shot_engine() {
        let req = "{\"id\":6,\"op\":\"chaos\",\"topology\":\"torus\",\"arity\":4,\"n\":2,\
                   \"load\":1.0,\"random\":5,\"sessions\":30,\"seed\":3,\"mtbf_ms\":8.0,\
                   \"mttr_ms\":2.0,\"retries\":2,\"backoff_us\":200}";
        let (lines, _) = serve(req, &ServeOptions::default());
        let spec = poisson(1.0, DestPattern::UniformRandom { m: 5 }, 30, 3);
        let report = one_shot_chaos(&chaos_wrap(spec, 8.0, 2.0, 2, 200), &torus42());
        assert!(report.fault_events > 0, "this churn must strike the torus");
        assert_eq!(
            lines,
            ok_line(6, chaos_report_json("Separate", &report, None))
        );
    }

    #[test]
    fn multicast_response_matches_the_single_shot_replay() {
        let req = "{\"id\":9,\"op\":\"multicast\",\"n\":6,\"algo\":\"maxport\",\
                   \"dests\":[3,9,17,33,60]}";
        let (lines, _) = serve(req, &ServeOptions::default());
        let cube = Cube::of(6);
        let dests: Vec<NodeId> = [3, 9, 17, 33, 60].iter().map(|&d| NodeId(d)).collect();
        let tree = Algorithm::Maxport
            .build(
                cube,
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &dests,
            )
            .expect("a valid destination set builds");
        let report = wormsim::simulate_multicast_lanes(
            &tree,
            &SimParams::ncube2(PortModel::AllPort),
            4096,
            1,
        );
        assert_eq!(
            lines,
            ok_line(9, multicast_report_json("Maxport", &report, 1))
        );
    }

    #[test]
    fn tag_echo_round_trips_non_bmp_strings_through_a_live_cycle() {
        // A standards-compliant client escapes U+1F600 as a UTF-16
        // surrogate pair; the daemon must echo the combined scalar, not
        // two replacement characters.
        let req = "{\"id\":11,\"op\":\"stats\",\"tag\":\"grin \\ud83d\\ude00 done\"}";
        let (lines, _) = serve(req, &ServeOptions::default());
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].starts_with("{\"id\":11,\"tag\":\"grin 😀 done\",\"ok\":true"),
            "{}",
            lines[0]
        );
        // The response line itself parses, and the echoed field is the
        // exact original string — the full client-side round trip.
        let v = json::parse(&lines[0]).expect("response is valid JSON");
        assert_eq!(v["tag"], "grin 😀 done");
        assert_eq!(v["id"], 11.0);
    }

    #[test]
    fn untagged_responses_keep_their_exact_bytes() {
        let tagged = "{\"id\":1,\"op\":\"stats\",\"tag\":\"t\"}";
        let plain = "{\"id\":1,\"op\":\"stats\"}";
        let (with_tag, _) = serve(tagged, &ServeOptions::default());
        let (without, _) = serve(plain, &ServeOptions::default());
        assert_eq!(with_tag[0].replace(",\"tag\":\"t\"", ""), without[0]);
        assert!(!without[0].contains("\"tag\""));
    }

    #[test]
    fn lone_surrogate_requests_are_rejected_as_bad_json() {
        let req = "{\"id\":12,\"op\":\"stats\",\"tag\":\"broken \\ud83d\"}";
        let (lines, summary) = serve(req, &ServeOptions::default());
        assert!(lines[0].contains("\"kind\":\"bad_json\""), "{}", lines[0]);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn malformed_requests_get_typed_errors_and_the_daemon_stays_up() {
        let input = concat!(
            "this is not json\n",
            "{\"op\":\"traffic\",\"load\":1.0,\"random\":4}\n",
            "{\"id\":2,\"op\":\"warp\"}\n",
            "{\"id\":3,\"op\":\"traffic\",\"load\":1.0,\"random\":4,\"frobnicate\":1}\n",
            "{\"id\":4,\"op\":\"traffic\",\"load\":1.0,\"random\":4,\"sessions\":999999}\n",
            "{\"id\":5,\"op\":\"traffic\",\"load\":1.0,\"random\":4,\"deadline_ms\":0}\n",
            "{\"id\":6,\"op\":\"traffic\",\"load\":1.0,\"random\":4,\"sessions\":20,\"n\":5}\n",
            // Integers too large for their fields are refused, not
            // truncated (262 would wrap to a 6-cube, 65540 to arity 4).
            "{\"id\":7,\"op\":\"traffic\",\"load\":1.0,\"random\":4,\"n\":262}\n",
            "{\"id\":8,\"op\":\"multicast\",\"random\":4,\"n\":261}\n",
            "{\"id\":9,\"op\":\"traffic\",\"topology\":\"torus\",\"arity\":65540,\"n\":2,\
             \"load\":1.0,\"random\":4}\n",
            // A load so small that the schedule overruns simulated time.
            "{\"id\":10,\"op\":\"traffic\",\"n\":4,\"load\":1e-12,\"random\":2,\"sessions\":30}\n",
            // `workers` is not a request field.
            "{\"id\":11,\"op\":\"traffic\",\"load\":1.0,\"random\":4,\"sessions\":20,\"workers\":2}\n",
            "{\"id\":12,\"op\":\"shutdown\"}\n",
        );
        let (lines, summary) = serve(input, &ServeOptions::default());
        assert_eq!(lines.len(), 13);
        assert!(lines[0].starts_with("{\"id\":null,\"ok\":false,\"error\":{\"kind\":\"bad_json\""));
        assert!(
            lines[1].starts_with("{\"id\":null,\"ok\":false,\"error\":{\"kind\":\"bad_request\"")
        );
        assert!(lines[2].contains("\"kind\":\"bad_request\"") && lines[2].contains("unknown op"));
        assert!(lines[3].contains("\"kind\":\"bad_request\"") && lines[3].contains("frobnicate"));
        assert!(lines[4].contains("\"kind\":\"oversized\""));
        assert!(lines[5].contains("\"kind\":\"deadline_exceeded\""));
        assert!(
            lines[6].starts_with("{\"id\":6,\"ok\":true,"),
            "the daemon keeps serving after errors: {}",
            lines[6]
        );
        for (line, field) in [(7, "`n`"), (8, "`n`"), (9, "`arity`")] {
            assert!(
                lines[line].contains("\"kind\":\"bad_request\"")
                    && lines[line].contains(field)
                    && lines[line].contains("too large"),
                "{}",
                lines[line]
            );
        }
        assert!(
            lines[10].contains("\"kind\":\"bad_request\"") && lines[10].contains("too low"),
            "{}",
            lines[10]
        );
        assert!(
            lines[11].contains("\"kind\":\"bad_request\"")
                && lines[11].contains("unknown field `workers`"),
            "{}",
            lines[11]
        );
        assert!(lines[12].contains("\"mode\":\"shutdown\""));
        assert_eq!(
            summary,
            ServeSummary {
                served: 2,
                errors: 11,
                shutdown: true
            }
        );
    }

    #[test]
    fn destination_refusals_name_request_fields_in_check_order() {
        let req = |fields: &str| {
            format!("{{\"id\":1,\"op\":\"traffic\",\"load\":1.0,\"n\":6,{fields}}}\n")
        };
        let cases = [
            // The source is checked before the cap.
            (
                "\"source\":64,\"random\":999",
                "bad_request",
                "`source` 64 outside the 64-node topology",
            ),
            ("\"random\":0", "bad_request", "`random` must be >= 1"),
            (
                "\"random\":999",
                "oversized",
                "`random` 999 exceeds the cap of 256",
            ),
            (
                "\"random\":64",
                "bad_request",
                "`random` 64 needs 65 candidates but the topology has 64 nodes",
            ),
            (
                "\"sessions\":5",
                "bad_request",
                "provide `dests` or `random`",
            ),
            (
                "\"dests\":[1],\"random\":2",
                "bad_request",
                "give `dests` or `random`, not both",
            ),
            ("\"dests\":[]", "bad_request", "`dests` must not be empty"),
            ("\"dests\":[1,1]", "bad_request", "duplicate destination 1"),
        ];
        let input: String = cases.iter().map(|(fields, ..)| req(fields)).collect();
        let (lines, _) = serve(&input, &ServeOptions::default());
        for (line, (fields, kind, message)) in lines.iter().zip(cases) {
            let want = format!("\"kind\":\"{kind}\",\"message\":\"{message}\"");
            assert!(line.contains(&want), "{fields}: {line}");
        }
    }

    #[test]
    fn shutdown_drains_the_queue_and_ignores_later_lines() {
        let input = format!("{TRAFFIC}\n{{\"id\":8,\"op\":\"shutdown\"}}\n{TRAFFIC}\n");
        let (lines, summary) = serve(&input, &ServeOptions::default());
        assert_eq!(lines.len(), 2, "nothing after shutdown is served");
        assert!(lines[0].starts_with("{\"id\":1,\"ok\":true,"));
        assert!(lines[1].contains("\"mode\":\"shutdown\",\"served\":1,\"errors\":0"));
        assert!(summary.shutdown);
    }

    #[test]
    fn escape_handles_quotes_and_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
