#!/usr/bin/env python3
"""The repository benchmark: `mcast --load` end to end, and the layers of
`mcast --load` and `mcast serve` one by one.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --pin     # rewrite perfbench/pins.json

Run from the repository root. The command builds the release `mcast`
binary and the `perfbench` replay binary (honouring CARGO_TARGET_DIR),
generates the workload's inputs from the seed, and runs them:

* `--trace 0` times the release `mcast` binary as a child process and
  prints the end-to-end metrics;
* `--trace 1` runs the same inputs untraced a few times, then replays
  them in-process through `perfbench`, which times each layer around the
  library's public functions and counts work. It also sends a
  100-request sample of `mcast serve` requests, drawn from the same
  seed, to a real `mcast serve` child and replays them in-process. It
  prints the per-layer metrics.

Every child output is checked against a digest pinned in `pins.json`
for the input seed (`seed % 32`); the traced replays must reproduce the
children's JSON byte for byte and repeat the pinned counters. Any
failure makes `correct` false and the exit code 1. The last line of
stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
See README.md for the metric definitions.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")

# Input seeds with pinned digests; `--seed N` runs input `N % INPUT_SEEDS`.
INPUT_SEEDS = 32
LOAD_SESSIONS = 20000
SERVE_SAMPLE = 100
SERVE_SESSIONS = 200

END_TO_END = {
    "sessions_per_s": "sessions/s",
    "req_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "traffic.sessions": "count",
    "traffic.draw.ns_per_session": "ns",
    "hypercast.tree.ns_per_session": "ns",
    "hypercast.tree.ns_per_build": "ns",
    "hypercast.tree.builds": "count",
    "hypercast.tree.lookups": "count",
    "hypercast.tree.hit_rate": "share",
    "traffic.assemble.ns_per_session": "ns",
    "traffic.wiring.ns_per_unicast": "ns",
    "traffic.assemble.allocs_per_session": "count",
    "wormsim.engine.unicasts": "count",
    "wormsim.engine.ns_per_unicast": "ns",
    "wormsim.engine.ns_per_event": "ns",
    "wormsim.engine.events": "count",
    "wormsim.engine.blocks": "count",
    "wormsim.engine.route_memo_hits": "count",
    "wormsim.engine.route_memo_misses": "count",
    "wormsim.engine.route_memo_hit_rate": "share",
    "wormsim.engine.allocs_per_unicast": "count",
    "wormsim.engine.growth": "ratio",
    "traffic.report.ns_per_session": "ns",
    "workloads.json.parse_ns": "ns",
    "workloads.json.emit_ns": "ns",
    "workloads.serve.requests": "count",
    "workloads.serve.traffic_p50_ms": "ms",
    "workloads.serve.torus_p50_ms": "ms",
    "workloads.serve.chaos_p50_ms": "ms",
    "workloads.serve.multicast_p50_ms": "ms",
    "workloads.serve.allocs_per_request": "count",
    "workloads.serve.overhead_ms": "ms",
    "traffic.chaos.ns_per_session": "ns",
    "traffic.chaos.epochs": "count",
    "trace.overhead": "ratio",
    "unattributed.share": "share",
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

MASK = (1 << 64) - 1


class Rng:
    """splitmix64: a generator whose stream no Python release can change."""

    def __init__(self, *key):
        digest = hashlib.sha256(repr(key).encode()).digest()
        self.state = int.from_bytes(digest[:8], "little")

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def shuffle(self, xs):
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]
        return xs

    def sample(self, population, k):
        return self.shuffle(list(population))[:k]


def request_line(**fields):
    return json.dumps(fields, separators=(",", ":"))


def load_request(n, rate, sessions, seed, random=None, source=0, dests=None):
    """The `mcast --load` argv of one run, and the equivalent serve
    request line the traced replay reads."""
    argv = ["--n", str(n), "--algo", "wsort"]
    fields = dict(id=1, op="traffic", n=n, algo="wsort", load=rate)
    if random is not None:
        argv += ["--random", str(random)]
        fields["random"] = random
    else:
        argv += ["--source", str(source), "--dests", ",".join(map(str, dests))]
        fields.update(source=source, dests=dests)
    argv += ["--load", str(rate), "--arrivals", "poisson", "--bytes", "4096",
             "--sessions", str(sessions), "--seed", str(seed), "--json"]
    fields.update(sessions=sessions, seed=seed, bytes=4096)
    return argv, request_line(**fields)


def cube8_random(inp):
    rng = Rng("cube8-random", inp)
    return load_request(8, 0.5, LOAD_SESSIONS, rng.below(1 << 31), random=16)


def cube8_hotgroup(inp):
    rng = Rng("cube8-hotgroup", inp)
    dests = rng.sample(range(1, 256), 32)
    return load_request(8, 0.4, LOAD_SESSIONS, rng.below(1 << 31), dests=dests)


# Kinds of the serve sample's requests, with their fixed shares.
SERVE_KINDS = [("cube6", 0.30), ("cube8-group", 0.20), ("torus", 0.20),
               ("chaos", 0.15), ("multicast", 0.15)]


def serve_requests(inp, count=SERVE_SAMPLE):
    """`count` serve request lines in a seed-drawn order, and their kinds."""
    rng = Rng("serve-mix", inp)
    group = rng.sample(range(1, 256), 16)
    kinds = []
    for kind, share in SERVE_KINDS:
        kinds += [kind] * round(count * share)
    rng.shuffle(kinds)
    lines = []
    for i, kind in enumerate(kinds):
        common = dict(id=i + 1, seed=rng.below(1 << 31), bytes=4096)
        if kind == "cube6":
            line = request_line(op="traffic", n=6, algo="wsort", load=2.0, random=8,
                                sessions=SERVE_SESSIONS, **common)
        elif kind == "cube8-group":
            line = request_line(op="traffic", n=8, algo="wsort", load=0.4, source=0,
                                dests=group, sessions=SERVE_SESSIONS, **common)
        elif kind == "torus":
            line = request_line(op="traffic", topology="torus", arity=4, n=3, load=1.0,
                                random=8, sessions=SERVE_SESSIONS, **common)
        elif kind == "chaos":
            line = request_line(op="chaos", n=6, algo="wsort", load=2.0, random=8,
                                mtbf_ms=200.0, mttr_ms=2.0, retries=3, backoff_us=500,
                                sessions=SERVE_SESSIONS, **common)
        else:
            line = request_line(op="multicast", n=8, algo="wsort", source=0, random=16,
                                **common)
        lines.append(line)
    return lines, kinds


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def reap(proc):
    """Waits for `proc`; returns (exit code, peak RSS in MiB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def stop(proc):
    if proc.returncode is None:
        proc.kill()
        reap(proc)


def load_run(mcast, argv):
    """One `mcast --load` child: setup (spawn to header line), work
    (header line to JSON line), wall (spawn to exit), exit code, peak
    RSS and its JSON line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([mcast] + argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    output, done = "", None
    try:
        proc.stdout.readline()
        setup = time.perf_counter() - t0
        for line in proc.stdout:
            if line.startswith(b"{"):
                output, done = line.decode(errors="replace").rstrip("\n"), time.perf_counter()
        code, rss = reap(proc)
        wall = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        stop(proc)
    work = (done - t0 if done else wall) - setup
    return dict(setup=setup, work=work, wall=wall, code=code, rss=rss, output=output)


def load_failed(run, pin):
    return run["code"] != 0 or digest(run["output"]) != pin


def serve_pass(cmd, lines):
    """One closed-loop client pass over a fresh serve child: the next
    request goes out only after the previous reply. Returns each
    request's latency and outcome, the reply transcript (shutdown reply
    included) and the exit code."""
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    latencies, ok, transcript = [], [], []
    try:
        for i, line in enumerate(lines + [request_line(id=len(lines) + 1, op="shutdown")]):
            t = time.perf_counter()
            proc.stdin.write(line.encode() + b"\n")
            proc.stdin.flush()
            reply = proc.stdout.readline().decode(errors="replace")
            latencies.append(time.perf_counter() - t)
            transcript.append(reply)
            ok.append(reply.startswith('{"id":%d,"ok":true,' % (i + 1)))
            if not reply:
                break
        proc.stdin.close()
        code, _ = reap(proc)
    except BrokenPipeError:
        code = -1
    finally:
        proc.stdout.close()
        stop(proc)
    ok = (ok + [False] * len(lines))[:len(lines)]
    return dict(latencies=latencies[:len(lines)], ok=ok, transcript="".join(transcript),
                code=code)


def serve_failures(run, pin):
    """Failed requests of one pass: refused or missing replies, and the
    whole pass when the transcript or the exit code is wrong."""
    if run["code"] != 0 or digest(run["transcript"]) != pin:
        return len(run["ok"])
    return run["ok"].count(False)


def replay(perfbench, requests, seconds, growth):
    plan = json.dumps(dict(seconds=seconds, growth=growth, requests=requests))
    out = subprocess.run([perfbench], input=plan.encode(), stdout=subprocess.PIPE,
                         check=True).stdout
    return json.loads(out)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def e2e(runs):
    """End-to-end metrics of `mcast --load` runs: medians over the runs,
    so a slow stretch of a shared host moves them less than a total
    would."""
    return {
        "sessions_per_s": statistics.median(LOAD_SESSIONS / r["wall"] for r in runs),
        "req_p50_ms": statistics.median(r["wall"] for r in runs) * 1e3,
        "setup_s": statistics.median(r["setup"] for r in runs),
        "peak_rss_mb": statistics.median(r["rss"] for r in runs),
    }


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(trace, sample, sample_kinds, untraced_rate, unattributed, client_ms):
    """Per-layer metrics. `trace` is the traced replay of one `mcast
    --load` run, whose untraced sessions/s is `untraced_rate` and whose
    untraced child spends the share `unattributed` of its wall time
    outside the simulating calls. `sample` replays the serve requests
    of `sample_kinds`, whose latencies through a real `mcast serve`
    child are `client_ms`."""
    c, sc = trace["counters"], sample["counters"]
    t = {k: statistics.median(v) for k, v in trace["times_ns"].items()}
    st = {k: statistics.median(v) for k, v in sample["times_ns"].items()}
    sessions = c["sessions"]
    sample_ms = [ns / 1e6 for ns in sample["request_ns"]]

    def kind_p50(kind):
        return statistics.median(ms for ms, k in zip(sample_ms, sample_kinds) if k == kind)

    replay_s = trace["request_ns"][0] / 1e9
    return {
        "traffic.sessions": sessions,
        "traffic.draw.ns_per_session": t["draw"] / sessions,
        "hypercast.tree.ns_per_session": t["tree"] / sessions,
        "hypercast.tree.ns_per_build": ratio(t["tree"], c["tree_builds"]),
        "hypercast.tree.builds": c["tree_builds"],
        "hypercast.tree.lookups": c["tree_lookups"],
        "hypercast.tree.hit_rate": ratio(c["tree_lookups"] - c["tree_builds"], c["tree_lookups"]),
        "traffic.assemble.ns_per_session": t["assemble"] / sessions,
        "traffic.wiring.ns_per_unicast": (t["assemble"] - t["draw"] - t["tree"]) / c["unicasts"],
        "traffic.assemble.allocs_per_session": c["allocs_assemble"] / sessions,
        "wormsim.engine.unicasts": c["unicasts"],
        "wormsim.engine.ns_per_unicast": t["engine"] / c["unicasts"],
        "wormsim.engine.ns_per_event": t["engine"] / c["events"],
        "wormsim.engine.events": c["events"],
        "wormsim.engine.blocks": c["blocks"],
        "wormsim.engine.route_memo_hits": c["memo_hits"],
        "wormsim.engine.route_memo_misses": c["memo_misses"],
        "wormsim.engine.route_memo_hit_rate": ratio(c["memo_hits"], c["memo_hits"] + c["memo_misses"]),
        "wormsim.engine.allocs_per_unicast": c["allocs_engine"] / c["unicasts"],
        "wormsim.engine.growth": (t["engine"] / c["unicasts"])
        / (t["quarter_engine"] / c["quarter_unicasts"]),
        "traffic.report.ns_per_session": (t["run_sessions"] - t["engine"]) / sessions,
        "workloads.json.parse_ns": st["parse"] / sc["parse_calls"],
        "workloads.json.emit_ns": st["emit"] / sc["emit_calls"],
        "workloads.serve.requests": sc["requests"],
        "workloads.serve.traffic_p50_ms": kind_p50("traffic"),
        "workloads.serve.torus_p50_ms": kind_p50("torus"),
        "workloads.serve.chaos_p50_ms": kind_p50("chaos"),
        "workloads.serve.multicast_p50_ms": kind_p50("multicast"),
        "workloads.serve.allocs_per_request": sc["allocs_requests"]
        / (sc["requests"] - sc["chaos_requests"]),
        "workloads.serve.overhead_ms": statistics.median(
            a - b for a, b in zip(client_ms, sample_ms)),
        "traffic.chaos.ns_per_session": st["chaos"] / sc["chaos_sessions"],
        "traffic.chaos.epochs": sc["chaos_epochs"],
        "trace.overhead": untraced_rate / (sessions / replay_s),
        "unattributed.share": unattributed,
    }


def replay_kind(kind):
    """The serve request type a serve-mix kind belongs to."""
    return {"cube6": "traffic", "cube8-group": "traffic"}.get(kind, kind)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def count(self, attempted, failed, note=None):
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


def counters_repeat(a, b):
    """The rule of `Counters::repeats` in src/main.rs: counts repeat
    exactly, allocation counts to 1 in 100 000 (plus 2)."""
    return a.keys() == b.keys() and all(
        abs(a[k] - b[k]) <= a[k] // 100000 + 2 if k.startswith("allocs_") else a[k] == b[k]
        for k in a)


def check_replay(res, trace, outputs, pins_counters, what):
    """The traced replay must reproduce the child's JSON byte for byte
    and repeat the pinned counters."""
    bad = sum(a != b for a, b in zip(trace["outputs"], outputs))
    bad += abs(len(trace["outputs"]) - len(outputs))
    res.count(len(outputs), bad, f"{what}: {bad} replayed outputs differ from the child's")
    if not counters_repeat(pins_counters, trace["counters"]):
        res.count(1, 1, f"{what}: counters differ from the pinned ones: {trace['counters']}")


def serve_sample(inp, bins, pins, res):
    """The serve sample: one closed-loop client pass over a real
    `mcast serve` child, then the in-process replay of the same
    requests, checked against each other and against the pins."""
    lines, kinds = serve_requests(inp)
    pin = pins["serve-sample"][str(inp)]
    p = serve_pass([bins["mcast"], "serve"], lines)
    res.count(len(lines), serve_failures(p, pin["digest"]), "serve sample: refused or wrong replies")
    traced = replay(bins["perfbench"], lines, 0.0, [])
    replies = p["transcript"].splitlines()[:-1]
    outputs = [r[r.find('"result":') + len('"result":'):-1] for r in replies]
    check_replay(res, traced, outputs, pin["counters"], "serve sample")
    return p, traced, [replay_kind(k) for k in kinds]


def run_workload(name, seed, seconds, trace, bins, pins):
    """`--trace 0`: `mcast --load` runs until `seconds` are spent, at
    least 5. `--trace 1`: 3 untraced runs, the traced replay of the same
    run, and the serve sample."""
    res = Result()
    inp = seed % INPUT_SEEDS
    argv, line = WORKLOADS[name](inp)
    pin = pins[name][str(inp)]
    runs = []
    start = time.perf_counter()
    while len(runs) < (3 if trace else 5) or (
            not trace and time.perf_counter() - start < seconds):
        run = load_run(bins["mcast"], argv)
        runs.append(run)
        res.count(1, int(load_failed(run, pin["digest"])),
                  f"{name}: child output or exit code wrong")
    metrics = e2e(runs)
    if not trace:
        return res, metrics, f"{len(runs)} runs of {LOAD_SESSIONS} sessions, one latency sample each"
    sample_pass, sample, sample_kinds = serve_sample(inp, bins, pins, res)
    left = max(0.0, seconds - (time.perf_counter() - start))
    traced = replay(bins["perfbench"], [line], left * 0.8, [0])
    check_replay(res, traced, [runs[0]["output"]], pin["counters"], name)
    unattributed = 1.0 - statistics.median(r["work"] for r in runs) / statistics.median(
        r["wall"] for r in runs)
    layers = layer_metrics(traced, sample, sample_kinds, metrics["sessions_per_s"], unattributed,
                           [x * 1e3 for x in sample_pass["latencies"]])
    return res, layers, (f"{len(runs)} untraced runs, {traced['passes']} traced passes, "
                         f"{len(sample_kinds)} serve requests")


WORKLOADS = {"cube8-random": cube8_random, "cube8-hotgroup": cube8_hotgroup}


# ---------------------------------------------------------------------------
# Build, pin, report
# ---------------------------------------------------------------------------

def build():
    """Builds both binaries from source; returns their paths."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or "target")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in (["-p", "bench", "--bin", "mcast"],
                  ["--manifest-path", os.path.join(HERE, "Cargo.toml")]):
        subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + extra,
                       cwd=ROOT, env=env, check=True, stdout=sys.stderr)
    release = os.path.join(target, "release")
    return {"mcast": os.path.join(release, "mcast"),
            "perfbench": os.path.join(release, "perfbench")}


def pin_all(bins):
    """Recomputes every pinned digest and counter set from the current
    build. Run only when an output change is intended."""
    pins = {}
    for inp in range(INPUT_SEEDS):
        for name, inputs in WORKLOADS.items():
            argv, line = inputs(inp)
            run = load_run(bins["mcast"], argv)
            if run["code"] != 0:
                sys.exit(f"{name} input {inp}: mcast exited {run['code']}")
            traced = replay(bins["perfbench"], [line], 0.0, [0])
            if traced["outputs"] != [run["output"]]:
                sys.exit(f"{name} input {inp}: replay differs from the child")
            pins.setdefault(name, {})[str(inp)] = dict(digest=digest(run["output"]),
                                                       counters=traced["counters"])
        lines, _ = serve_requests(inp)
        p = serve_pass([bins["mcast"], "serve"], lines)
        if p["code"] != 0 or not all(p["ok"]):
            sys.exit(f"serve sample input {inp}: a request failed")
        traced = replay(bins["perfbench"], lines, 0.0, [])
        pins.setdefault("serve-sample", {})[str(inp)] = dict(digest=digest(p["transcript"]),
                                                             counters=traced["counters"])
        print(f"pinned input {inp}", file=sys.stderr)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def benchmark_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="rewrite pins.json and exit")
    args = ap.parse_args(argv)
    try:
        bins = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.pin:
        pin_all(bins)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    with open(PINS) as f:
        pins = json.load(f)
    units = PER_LAYER if args.trace else END_TO_END
    res, metrics, how = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                     bins, pins)
    assert list(metrics) == list(units), "metric names drifted from the unit table"
    print(f"# {args.workload} seed {args.seed} (input {args.seed % INPUT_SEEDS}), "
          f"trace {args.trace}: {how}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    print(f"{'error_rate':40s} {ratio(res.failed, res.attempted):16.6f} share "
          f"({res.failed} of {res.attempted} operations)")
    for note in res.notes:
        print(f"FAILED: {note}")
    correct = res.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
