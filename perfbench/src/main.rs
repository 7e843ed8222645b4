//! Traced in-process replay for the repository benchmark.
//!
//! `run.py --trace 1` feeds this program the exact inputs its untraced
//! runs gave `mcast`, as `mcast serve` request lines (a `--load` run is
//! replayed as the equivalent `traffic` request), and this program
//! times each layer from outside, around calls into the library's
//! public functions:
//!
//! 1. draws: `Arrivals::schedule` and `DestPattern::draw_cube`/`draw_on`;
//! 2. tree: `TreeCache::get_or_build`;
//! 3. wiring: `assemble_cube_sessions`/`assemble_separate_sessions_on`
//!    minus the replayed draws and tree builds;
//! 4. engine: `simulate_window_on_with_scratch`;
//! 5. report: `run_sessions_on_with_scratch` minus the engine;
//! 6. serialization: `workloads::json::parse` and the
//!    `workloads::serve::*_report_json` emitters.
//!
//! Chaos requests time `run_chaos_cube` whole, and single-shot
//! multicasts time the build, the idle-network replay and the emit.
//!
//! Counters come from a counting [`Probe`] on
//! `simulate_window_observed_on_with_scratch`, from
//! `EngineScratch::route_memo()`, from the tree cache, and from the
//! counting global allocator below. A warm-up pass over the first
//! requests lets lazy set-up finish; every later pass must repeat every
//! counter (see [`Counters::repeats`]), or the program exits non-zero.
//!
//! Input (stdin), one JSON object:
//! `{"seconds": S, "growth": [i, ...], "requests": ["<request line>", ...]}`.
//! `growth` lists the requests whose engine is also timed at a quarter
//! of their session count. Output (stdout), one JSON object: the
//! replayed result objects, the exact counters, per-pass layer times
//! and the median in-process time of each request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hcube::{Cube, Ecube, NodeId, Resolution, Router, Torus, TorusRouter};
use hypercast::{Algorithm, PortModel, TreeCache};
use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic::{ArrivalProcess, DestPattern, SessionWorkload, TrafficReport, TrafficSpec};
use workloads::json::{self, Value};
use workloads::serve;
use wormsim::{EngineScratch, Probe, SimParams, SimTime};

/// Heap allocations (`alloc`, `alloc_zeroed` and `realloc` calls) made
/// by this process.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Counts the engine's inject, request, grant, advance and deliver
/// callbacks.
#[derive(Default)]
struct CountingProbe {
    events: u64,
}

impl Probe for CountingProbe {
    fn on_injected(&mut self, _t: SimTime, _msg: usize, _route_len: usize) {
        self.events += 1;
    }
    fn on_channel_requested(&mut self, _t: SimTime, _msg: usize, _ch: usize, _hop: usize) {
        self.events += 1;
    }
    fn on_channel_granted(&mut self, _t: SimTime, _msg: usize, _ch: usize, _hop: usize) {
        self.events += 1;
    }
    fn on_header_advanced(&mut self, _t: SimTime, _msg: usize, _hop: usize) {
        self.events += 1;
    }
    fn on_delivered(&mut self, _t: SimTime, _msg: usize, _injected: SimTime) {
        self.events += 1;
    }
}

/// Work counts of one pass; see [`Counters::repeats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Counters {
    requests: u64,
    sessions: u64,
    unicasts: u64,
    quarter_unicasts: u64,
    tree_lookups: u64,
    tree_builds: u64,
    events: u64,
    blocks: u64,
    memo_hits: u64,
    memo_misses: u64,
    allocs_assemble: u64,
    allocs_engine: u64,
    /// Allocations of every request but chaos, whose count wanders by
    /// more than [`Counters::repeats`] allows.
    allocs_requests: u64,
    chaos_requests: u64,
    chaos_sessions: u64,
    chaos_epochs: u64,
    parse_calls: u64,
    emit_calls: u64,
}

impl Counters {
    /// Whether `other` repeats these counts: exactly, except that an
    /// allocation count may differ by 1 in 100 000 (plus 2). The tree
    /// cache and the chaos path evict from std hash maps, whose random
    /// per-process seeds decide where tombstones land and so when a
    /// table is reallocated.
    fn repeats(&self, other: &Counters) -> bool {
        self.fields()
            .iter()
            .zip(other.fields())
            .all(|(&(name, a), (_, b))| {
                if name.starts_with("allocs_") {
                    a.abs_diff(b) <= a / 100_000 + 2
                } else {
                    a == b
                }
            })
    }

    fn fields(&self) -> [(&'static str, u64); 18] {
        [
            ("requests", self.requests),
            ("sessions", self.sessions),
            ("unicasts", self.unicasts),
            ("quarter_unicasts", self.quarter_unicasts),
            ("tree_lookups", self.tree_lookups),
            ("tree_builds", self.tree_builds),
            ("events", self.events),
            ("blocks", self.blocks),
            ("memo_hits", self.memo_hits),
            ("memo_misses", self.memo_misses),
            ("allocs_assemble", self.allocs_assemble),
            ("allocs_engine", self.allocs_engine),
            ("allocs_requests", self.allocs_requests),
            ("chaos_requests", self.chaos_requests),
            ("chaos_sessions", self.chaos_sessions),
            ("chaos_epochs", self.chaos_epochs),
            ("parse_calls", self.parse_calls),
            ("emit_calls", self.emit_calls),
        ]
    }
}

/// Layer times of one pass in nanoseconds, summed over its requests.
#[derive(Default)]
struct Times {
    draw: u64,
    tree: u64,
    assemble: u64,
    engine: u64,
    run_sessions: u64,
    quarter_engine: u64,
    chaos: u64,
    parse: u64,
    emit: u64,
}

impl Times {
    fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("draw", self.draw),
            ("tree", self.tree),
            ("assemble", self.assemble),
            ("engine", self.engine),
            ("run_sessions", self.run_sessions),
            ("quarter_engine", self.quarter_engine),
            ("chaos", self.chaos),
            ("parse", self.parse),
            ("emit", self.emit),
        ]
    }
}

#[derive(Default)]
struct Pass {
    counters: Counters,
    times: Times,
    /// In-process time of each request's real path: parse, run, emit.
    request_ns: Vec<u64>,
    outputs: Vec<String>,
}

/// The real path of one request: the time and allocations of the calls
/// `mcast` itself makes, accumulated segment by segment.
#[derive(Default)]
struct RealPath {
    ns: u64,
    allocs: u64,
}

impl RealPath {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, u64) {
        let a = allocs();
        let t = Instant::now();
        let out = f();
        let ns = ns_since(t);
        self.ns += ns;
        self.allocs += allocs() - a;
        (out, ns)
    }
}

fn field_u64(v: &Value, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => match x.as_f64() {
            Some(f) if f >= 0.0 && f.fract() == 0.0 => Ok(f as u64),
            _ => Err(format!("`{key}` must be a non-negative integer")),
        },
    }
}

fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("`{key}` must be a number"))
}

fn field_str<'a>(v: &'a Value, key: &str, default: &'a str) -> Result<&'a str, String> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => x
            .as_str()
            .ok_or_else(|| format!("`{key}` must be a string")),
    }
}

fn algorithm(v: &Value) -> Result<Algorithm, String> {
    match field_str(v, "algo", "wsort")? {
        "wsort" | "w-sort" => Ok(Algorithm::WSort),
        "ucube" | "u-cube" => Ok(Algorithm::UCube),
        "maxport" => Ok(Algorithm::Maxport),
        "combine" => Ok(Algorithm::Combine),
        other => Err(format!("algorithm `{other}` is not replayed")),
    }
}

/// The destination side of a request, with `mcast serve`'s defaults.
fn pattern(v: &Value) -> Result<DestPattern, String> {
    let source = NodeId(field_u64(v, "source", 0)? as u32);
    if let Some(m) = v.get("random") {
        let m = m.as_f64().ok_or("`random` must be an integer")? as usize;
        return Ok(DestPattern::UniformRandom { m });
    }
    let dests = v
        .get("dests")
        .and_then(Value::as_array)
        .ok_or("provide `dests` or `random`")?
        .iter()
        .map(|d| {
            d.as_f64()
                .map(|x| NodeId(x as u32))
                .ok_or("`dests` must hold node ids")
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DestPattern::Fixed { source, dests })
}

/// An open-loop request's spec fields, with `mcast serve`'s defaults.
struct Load {
    arrivals: ArrivalProcess,
    rate: f64,
    pattern: DestPattern,
    sessions: usize,
    seed: u64,
    bytes: u32,
}

impl Load {
    fn parse(v: &Value) -> Result<Load, String> {
        if v.get("port").is_some() || v.get("workers").is_some() {
            return Err("`port` and `workers` are not replayed".into());
        }
        let arrivals = match v.get("arrivals") {
            None => ArrivalProcess::Poisson,
            Some(a) => ArrivalProcess::parse(a.as_str().ok_or("`arrivals` must be a string")?)?,
        };
        Ok(Load {
            arrivals,
            rate: field_f64(v, "load")?,
            pattern: pattern(v)?,
            sessions: field_u64(v, "sessions", 100)? as usize,
            seed: field_u64(v, "seed", 1)?,
            bytes: field_u64(v, "bytes", 4096)? as u32,
        })
    }

    fn spec(&self, sessions: usize) -> TrafficSpec {
        serve::load_spec(
            self.arrivals,
            self.rate,
            self.pattern.clone(),
            sessions,
            self.seed,
            self.bytes,
        )
    }
}

/// Layers 4 and 5 of one traffic request, plus the observed run that
/// counts engine events. Returns the report of the real path.
fn engine_and_report<R: Router + Copy>(
    spec: &TrafficSpec,
    router: R,
    sessions: &SessionWorkload,
    params: &SimParams,
    pass: &mut Pass,
    real: &mut RealPath,
) -> TrafficReport {
    let msgs = sessions.messages();
    // The observed run goes first: it also leaves the heap warm, so the
    // two timed runs below start from the same allocator state.
    let mut probe = CountingProbe::default();
    let observed = wormsim::simulate_window_observed_on_with_scratch(
        router,
        params,
        msgs,
        spec.horizon,
        &mut probe,
        &mut EngineScratch::new(),
    )
    .expect("windowed traffic runs cannot deadlock");
    pass.counters.events += probe.events;

    let mut scratch = EngineScratch::new();
    let a = allocs();
    let t = Instant::now();
    let run =
        wormsim::simulate_window_on_with_scratch(router, params, msgs, spec.horizon, &mut scratch)
            .expect("windowed traffic runs cannot deadlock");
    pass.times.engine += ns_since(t);
    pass.counters.allocs_engine += allocs() - a;
    assert_eq!(
        observed.stats, run.stats,
        "an observed run must equal the unobserved one"
    );
    pass.counters.memo_hits += scratch.route_memo().hits();
    pass.counters.memo_misses += scratch.route_memo().misses();
    pass.counters.unicasts += msgs.len() as u64;
    pass.counters.blocks += run.stats.blocks;
    drop((run, observed, scratch));

    let (report, ns) = real.time(|| {
        traffic::run_sessions_on_with_scratch(
            spec,
            router,
            sessions,
            params,
            &mut EngineScratch::new(),
        )
    });
    pass.times.run_sessions += ns;
    report
}

/// Times the engine alone on the same request at a quarter of its
/// session count (the denominator of `wormsim.engine.growth`).
fn quarter_engine<R: Router + Copy>(
    spec: &TrafficSpec,
    router: R,
    sessions: &SessionWorkload,
    params: &SimParams,
    pass: &mut Pass,
) {
    let msgs = sessions.messages();
    let t = Instant::now();
    let run = wormsim::simulate_window_on_with_scratch(
        router,
        params,
        msgs,
        spec.horizon,
        &mut EngineScratch::new(),
    )
    .expect("windowed traffic runs cannot deadlock");
    pass.times.quarter_engine += ns_since(t);
    pass.counters.quarter_unicasts += msgs.len() as u64;
    std::hint::black_box(run);
}

fn traffic_cube(
    v: &Value,
    load: &Load,
    growth: bool,
    pass: &mut Pass,
    real: &mut RealPath,
) -> Result<String, String> {
    let cube = Cube::new(field_u64(v, "n", 6)? as u8).map_err(|e| e.to_string())?;
    let algo = algorithm(v)?;
    let params = SimParams::ncube2(PortModel::AllPort);
    let spec = load.spec(load.sessions);

    // Layers 1 and 2, replayed with the RNG stream `assemble_cube_sessions` uses.
    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let schedule = spec.arrivals.schedule(&mut rng, spec.sessions);
    let draws: Vec<(NodeId, Vec<NodeId>)> = schedule
        .iter()
        .map(|_| spec.pattern.draw_cube(&mut rng, cube))
        .collect();
    pass.times.draw += ns_since(t);
    let mut cache = TreeCache::new(spec.cache_capacity);
    let t = Instant::now();
    for (source, dests) in &draws {
        let tree = cache
            .get_or_build(
                algo,
                cube,
                Resolution::HighToLow,
                params.port_model,
                *source,
                dests,
            )
            .map_err(|e| e.to_string())?;
        std::hint::black_box(tree);
    }
    pass.times.tree += ns_since(t);
    let stats = cache.stats();
    pass.counters.tree_lookups += stats.hits + stats.misses;
    pass.counters.tree_builds += stats.misses;

    let a = allocs();
    let (sessions, ns) = real.time(|| {
        traffic::assemble_cube_sessions(&spec, cube, Resolution::HighToLow, algo, &params)
    });
    pass.times.assemble += ns;
    pass.counters.allocs_assemble += allocs() - a;
    pass.counters.sessions += sessions.sessions() as u64;
    assert_eq!(
        sessions.cache_stats(),
        stats,
        "the replayed cache must match the real one"
    );

    let router = Ecube::new(cube, Resolution::HighToLow);
    let report = engine_and_report(&spec, router, &sessions, &params, pass, real);
    if growth {
        let quarter = load.spec(load.sessions / 4);
        let q =
            traffic::assemble_cube_sessions(&quarter, cube, Resolution::HighToLow, algo, &params);
        quarter_engine(&quarter, router, &q, &params, pass);
    }
    let (line, ns) = real.time(|| serve::traffic_report_json(algo.name(), &report, None));
    pass.times.emit += ns;
    pass.counters.emit_calls += 1;
    Ok(line)
}

fn traffic_torus(
    v: &Value,
    load: &Load,
    growth: bool,
    pass: &mut Pass,
    real: &mut RealPath,
) -> Result<String, String> {
    let torus = Torus::new(
        field_u64(v, "arity", 4)? as u16,
        field_u64(v, "n", 6)? as u8,
    )
    .map_err(|e| e.to_string())?;
    let router = TorusRouter::new(torus);
    let params = SimParams::ncube2(PortModel::AllPort);
    let spec = load.spec(load.sessions);

    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let schedule = spec.arrivals.schedule(&mut rng, spec.sessions);
    for _ in &schedule {
        std::hint::black_box(spec.pattern.draw_on(&mut rng, &torus));
    }
    pass.times.draw += ns_since(t);

    let a = allocs();
    let (sessions, ns) = real.time(|| traffic::assemble_separate_sessions_on(&spec, &router));
    pass.times.assemble += ns;
    pass.counters.allocs_assemble += allocs() - a;
    pass.counters.sessions += sessions.sessions() as u64;

    let report = engine_and_report(&spec, router, &sessions, &params, pass, real);
    if growth {
        let quarter = load.spec(load.sessions / 4);
        let q = traffic::assemble_separate_sessions_on(&quarter, &router);
        quarter_engine(&quarter, router, &q, &params, pass);
    }
    let (line, ns) = real.time(|| serve::traffic_report_json("Separate", &report, None));
    pass.times.emit += ns;
    pass.counters.emit_calls += 1;
    Ok(line)
}

fn chaos_cube(
    v: &Value,
    load: &Load,
    pass: &mut Pass,
    real: &mut RealPath,
) -> Result<String, String> {
    if field_str(v, "topology", "cube")? != "cube" {
        return Err("chaos is replayed on the cube only".into());
    }
    let cube = Cube::new(field_u64(v, "n", 6)? as u8).map_err(|e| e.to_string())?;
    let algo = algorithm(v)?;
    let params = SimParams::ncube2(PortModel::AllPort);
    let spec = serve::chaos_wrap(
        load.spec(load.sessions),
        field_f64(v, "mtbf_ms")?,
        field_f64(v, "mttr_ms")?,
        field_u64(v, "retries", 3)? as u32,
        field_u64(v, "backoff_us", 500)?,
    );
    let (report, ns) =
        real.time(|| traffic::run_chaos_cube(&spec, cube, Resolution::HighToLow, algo, &params));
    pass.times.chaos += ns;
    pass.counters.chaos_sessions += report.sessions.len() as u64;
    pass.counters.chaos_epochs += report.epochs as u64;
    let (line, ns) = real.time(|| serve::chaos_report_json(algo.name(), &report, None));
    pass.times.emit += ns;
    pass.counters.emit_calls += 1;
    Ok(line)
}

fn multicast(v: &Value, pass: &mut Pass, real: &mut RealPath) -> Result<String, String> {
    let cube = Cube::new(field_u64(v, "n", 6)? as u8).map_err(|e| e.to_string())?;
    let algo = algorithm(v)?;
    let seed = field_u64(v, "seed", 1)?;
    let bytes = field_u64(v, "bytes", 4096)? as u32;
    let lanes = field_u64(v, "lanes", 1)? as u8;
    let source = NodeId(field_u64(v, "source", 0)? as u32);
    let params = SimParams::ncube2(PortModel::AllPort);
    let dests = match pattern(v)? {
        DestPattern::Fixed { dests, .. } => dests,
        DestPattern::UniformRandom { m } => {
            let mut rng = workloads::destsets::trial_rng("mcast-cli", 0, seed as usize);
            workloads::destsets::random_dests(&mut rng, cube, source, m)
        }
        _ => unreachable!("pattern() builds Fixed or UniformRandom"),
    };
    let (report, _) = real.time(|| {
        algo.build(
            cube,
            Resolution::HighToLow,
            PortModel::AllPort,
            source,
            &dests,
        )
        .map(|tree| wormsim::simulate_multicast_lanes(&tree, &params, bytes, lanes))
    });
    let report = report.map_err(|e| e.to_string())?;
    let (line, ns) = real.time(|| serve::multicast_report_json(algo.name(), &report, lanes));
    pass.times.emit += ns;
    pass.counters.emit_calls += 1;
    Ok(line)
}

fn replay(line: &str, growth: bool, pass: &mut Pass) -> Result<(), String> {
    let mut real = RealPath::default();
    let (parsed, ns) = real.time(|| json::parse(line));
    pass.times.parse += ns;
    pass.counters.parse_calls += 1;
    let v = parsed.map_err(|e| e.to_string())?;
    let out = match field_str(&v, "op", "")? {
        "traffic" => {
            let load = Load::parse(&v)?;
            match field_str(&v, "topology", "cube")? {
                "cube" => traffic_cube(&v, &load, growth, pass, &mut real)?,
                "torus" => traffic_torus(&v, &load, growth, pass, &mut real)?,
                other => return Err(format!("unknown topology `{other}`")),
            }
        }
        "chaos" => chaos_cube(&v, &Load::parse(&v)?, pass, &mut real)?,
        "multicast" => multicast(&v, pass, &mut real)?,
        other => return Err(format!("op `{other}` is not replayed")),
    };
    pass.counters.requests += 1;
    if v.get("op").and_then(Value::as_str) == Some("chaos") {
        pass.counters.chaos_requests += 1;
    } else {
        pass.counters.allocs_requests += real.allocs;
    }
    pass.request_ns.push(real.ns);
    pass.outputs.push(out);
    Ok(())
}

fn run_pass(requests: &[String], growth: &[usize]) -> Result<Pass, String> {
    let mut pass = Pass::default();
    for (i, line) in requests.iter().enumerate() {
        replay(line, growth.contains(&i), &mut pass).map_err(|e| format!("request {i}: {e}"))?;
    }
    Ok(pass)
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| e.to_string())?;
    let plan = json::parse(&input).map_err(|e| e.to_string())?;
    let seconds = field_f64(&plan, "seconds")?;
    let requests: Vec<String> = plan
        .get("requests")
        .and_then(Value::as_array)
        .ok_or("the plan needs `requests`")?
        .iter()
        .map(|r| r.as_str().map(str::to_string).ok_or("requests are strings"))
        .collect::<Result<_, _>>()?;
    let growth: Vec<usize> = plan
        .get("growth")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|g| g.as_f64().map(|x| x as usize))
        .collect();
    if requests.is_empty() {
        return Err("the plan has no requests".into());
    }

    // Warm-up: lazy set-up inside the library allocates once per process.
    let warm = requests.len().min(32);
    run_pass(&requests[..warm], &[])?;

    let start = Instant::now();
    let mut passes = vec![run_pass(&requests, &growth)?];
    while passes.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let pass = run_pass(&requests, &growth)?;
        if !pass.counters.repeats(&passes[0].counters) {
            return Err(format!(
                "counters differ between passes: {:?} vs {:?}",
                passes[0].counters, pass.counters
            ));
        }
        if pass.outputs != passes[0].outputs {
            return Err("replayed outputs differ between passes".into());
        }
        passes.push(pass);
    }

    let mut out = String::from("{");
    out.push_str(&format!("\"passes\":{}", passes.len()));
    out.push_str(",\"counters\":{");
    let counters: Vec<String> = passes[0]
        .counters
        .fields()
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    out.push_str(&counters.join(","));
    out.push_str("},\"times_ns\":{");
    let mut times: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for pass in &passes {
        for (k, v) in pass.times.fields() {
            times.entry(k).or_default().push(v);
        }
    }
    let times: Vec<String> = times
        .iter()
        .map(|(k, v)| {
            let v: Vec<String> = v.iter().map(u64::to_string).collect();
            format!("\"{k}\":[{}]", v.join(","))
        })
        .collect();
    out.push_str(&times.join(","));
    let request_ns: Vec<String> = (0..requests.len())
        .map(|i| median(passes.iter().map(|p| p.request_ns[i]).collect()).to_string())
        .collect();
    out.push_str(&format!("}},\"request_ns\":[{}]", request_ns.join(",")));
    let outputs: Vec<String> = passes[0]
        .outputs
        .iter()
        .map(|o| format!("\"{}\"", wormsim::json_escape(o)))
        .collect();
    out.push_str(&format!(",\"outputs\":[{}]}}", outputs.join(",")));
    println!("{out}");
    Ok(())
}
