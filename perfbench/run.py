#!/usr/bin/env python3
"""The served-path benchmark: drives the epoll serving stack from outside
over loopback and prints every end-to-end metric (or, traced, every
per-layer metric) of one workload. See perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a source checkout: the first run builds the PROX
libraries and the two bench programs under $CARGO_TARGET_DIR (default
.bench_build). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exits 1 after printing it when any correctness check, counter invariant
or the generator's lag check failed ("correct": false), and non-zero
without printing a result when a build or set-up step fails.
"""

import argparse
import http.client
import itertools
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import oracle as ref  # noqa: E402

BUILD = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
WORK = os.path.join(BUILD, "work")
HOST = os.path.join(BUILD, "perfbench_host")
LOAD = os.path.join(BUILD, "perfbench_load")

WORKLOADS = ["cold_summarize", "routed_hits"]
SLO_MS = 100.0
ROUNDS = 5                  # rounds of the cold and interactive phases,
                            # each on a freshly set-up stack
INGEST_BURST = 96           # ingest phase: batches, one at a time
LAG_LIMIT_MS = 10.0         # generator p99 lag above this invalidates a run
# The offered load is assumed, not taken from traffic: the repository
# holds no recorded traffic. It is fixed rather than scaled to a measured
# capacity so that runs of different code offer the same load.
INTERACTIVE_RPS = 400       # offered interactive rate
BG_PERIOD_S = 1.2           # one background cold per period beside it

# The *_tail_ms percentile per workload: the highest of 50, 75, 90, 99
# and 99.9 with at least ten samples beyond it at --seconds 40 (sample
# counts in README.md). Ingest tails are reported traced only.
TAIL_PCT = {
    "cold_summarize": {"cold": 75, "hit": 99, "ingest": 75},
    "routed_hits": {"cold": 75, "hit": 99, "ingest": 75},
}

END_TO_END = [
    ("setup_s", "s"), ("cold_p50_ms", "ms"), ("cold_tail_ms", "ms"),
    ("cold_per_s", "1/s"), ("hit_p50_ms", "ms"), ("hit_tail_ms", "ms"),
    ("hit_slo_share", "share"), ("server_rss_mb", "MiB"),
]


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and processes
# ---------------------------------------------------------------------------

def build():
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "check": True}
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], **quiet)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4),
                    "--target", "perfbench_host", "perfbench_load"], **quiet)
    os.makedirs(WORK, exist_ok=True)


class Server:
    """One perfbench_host serving process."""

    def __init__(self, args):
        self.proc = subprocess.Popen([HOST, "serve"] + args,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.stop()
            raise RuntimeError("server failed to start: %s" % args)
        self.port = int(line[1])

    def get(self, target, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("POST" if body is not None else "GET", target,
                         body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.getheader("X-Prox-Cache"), \
                response.read()
        finally:
            conn.close()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Stack:
    """The serving processes of one set-up: `front` takes the load."""

    def __init__(self, routed, trace, index):
        self.servers = []
        self.replicas = []
        extra = ["--trace"] if trace else []
        try:
            if routed:
                snapshot = os.path.join(WORK, "warm-%d.snap" % index)
                keys = "".join(ref.body(k) + "\n" for k in ref.WARM_KEYS)
                subprocess.run([HOST, "snapshot", "--out=" + snapshot],
                               input=keys, text=True, check=True)
                for _ in range(2):
                    self.replicas.append(
                        self.add(["--snapshot=" + snapshot] + extra))
                self.front = self.add(
                    ["--role=balancer"] + extra +
                    ["--replica=127.0.0.1:%d" % r.port for r in self.replicas])
            else:
                self.front = self.add(extra)
                self.replicas = [self.front]
        except Exception:
            self.stop()
            raise

    def add(self, args):
        server = Server(args)
        self.servers.append(server)
        return server

    def stop(self):
        for server in reversed(self.servers):
            server.stop()
        self.servers = []


def metrics_of(server):
    """Counter and gauge values of one process's /metrics, summed over
    label sets."""
    status, _, text = server.get("/metrics")
    if status != 200:
        raise RuntimeError("/metrics answered %d" % status)
    values = {}
    for line in text.decode().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        match = re.match(r"([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)", line)
        if match:
            name = match.group(1)
            values[name] = values.get(name, 0.0) + float(match.group(3))
    return values


# ---------------------------------------------------------------------------
# Plans: lists of (stream, due_s or None, method, target, body, meta)
# ---------------------------------------------------------------------------

class Phase:
    """One load-generator invocation: streams of requests. `deadline`
    (seconds) cuts closed-loop streams, which are planned longer than they
    can run."""

    def __init__(self, name, deadline=None):
        self.name = name
        self.deadline = deadline
        self.streams = []   # [workers, [request], port or None]
        self.meta = []      # parallel to streams: [meta per request]

    def stream(self, workers, port=None):
        self.streams.append([workers, [], port])
        self.meta.append([])
        return len(self.streams) - 1

    def add(self, stream, due_s, method, target, body, meta):
        self.streams[stream][1].append((due_s, method, target, body))
        self.meta[stream].append(meta)


KEEP_BODY = {"cold", "background", "ingest", "groups", "evaluate"}


CALLS = itertools.count()   # numbers the load-generator invocations


def run_phase(phase, port, trace, rng):
    """Replays a phase through perfbench_load; one result dict per request
    sent (skipped closed-loop requests are dropped). Times are relative to
    the invocation's start; `call` numbers the invocation."""
    bodies, index, streams = [], {}, []
    trace_hi = "%016x" % rng.getrandbits(64)
    counter = 0
    for (workers, requests, stream_port), metas in zip(phase.streams,
                                                       phase.meta):
        rows = []
        for (due_s, method, target, body), meta in zip(requests, metas):
            b = -1
            if body is not None:
                b = index.setdefault(body, len(bodies))
                if b == len(bodies):
                    bodies.append(body)
            # Traced: every other request carries a sampled traceparent;
            # the rest carry none and take the shipped handler path.
            flag = 1 if trace and counter % 2 == 0 else 0
            counter += 1
            rows.append([-1 if due_s is None else int(due_s * 1e6), method,
                         target, b, meta[0] in KEEP_BODY, flag])
        streams.append({"workers": workers, "port": stream_port or port,
                        "requests": rows})
    plan = {"port": port, "trace_hi": trace_hi, "bodies": bodies,
            "streams": streams}
    if phase.deadline is not None:
        plan["deadline_us"] = int(phase.deadline * 1e6)
    out = subprocess.run([LOAD], input=json.dumps(plan), capture_output=True,
                         text=True, check=True)
    call = next(CALLS)
    results = []
    for s, i, due, free, send, end, status, cache, fnv, body in \
            json.loads(out.stdout)["rows"]:
        if status == -1:
            continue
        results.append({
            "phase": phase.name, "call": call, "kind": phase.meta[s][i][0],
            "key": phase.meta[s][i][1:],
            "open": streams[s]["requests"][i][0] >= 0,
            "due": due / 1e9, "free": free / 1e9, "send": send / 1e9,
            "end": end / 1e9, "status": status, "cache": cache, "fnv": fnv,
            "body": body, "sampled": streams[s]["requests"][i][5] == 1,
            "trace_id": trace_hi + "%016x" % ((s << 32 | i) + 1),
        })
    return results


def poisson_times(rng, rate, duration):
    times, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            return times
        times.append(t)


class ColdKeys:
    """Distinct cold knob sets: base b with a w_dist offset k used once."""

    def __init__(self, rng):
        self.ks = list(range(1, 1 << 16))
        rng.shuffle(self.ks)

    def body(self, base):
        return ref.body(ref.cold_knobs(base, self.ks.pop()))


WARM = [(i, ref.body(k)) for i, k in enumerate(ref.WARM_KEYS)]


def add_hit(rng, phase, stream, due):
    key, body = WARM[rng.randrange(len(WARM))]
    phase.add(stream, due, "POST", "/v1/summarize", body, ("hit", key))


def add_interactive(rng, phase, stream, due):
    """One request of the interactive mix: summarize hits on warm keys,
    the groups view, evaluate on the selection, and liveness. The shares
    are assumed (no recorded traffic exists): the cheap classes, hits and
    liveness, make up 85%, so the median falls among them while a quarter
    of the requests wait for a cold."""
    r = rng.random()
    if r < 0.7:
        add_hit(rng, phase, stream, due)
    elif r < 0.8:
        phase.add(stream, due, "GET", "/v1/summary/groups", None, ("groups",))
    elif r < 0.85:
        a = rng.randrange(len(ref.EVALUATE_ASSIGNMENTS))
        phase.add(stream, due, "POST", "/v1/evaluate",
                  ref.evaluate_body(ref.EVALUATE_ASSIGNMENTS[a]),
                  ("evaluate", a))
    else:
        phase.add(stream, due, "GET", "/healthz", None, ("healthz",))


def add_routed(rng, phase, stream, due):
    """routed_hits' mix, assumed like the interactive one: summarize hits,
    and liveness (which the balancer answers itself)."""
    if rng.random() < 0.7:
        add_hit(rng, phase, stream, due)
    else:
        phase.add(stream, due, "GET", "/healthz", None, ("healthz",))


def add_cold_clients(phase, rng, keys, clients, duration, bases):
    """Closed-loop cold clients sending seeded block-permuted bases, every
    request a distinct knob set."""
    for _ in range(clients):
        s = phase.stream(1)
        for _ in range(int(duration * 20) + 8):
            block = list(bases)
            rng.shuffle(block)
            for base in block:
                phase.add(s, None, "POST", "/v1/summarize", keys.body(base),
                          ("cold", base))


def deltas(count):
    """`count` synthetic delta batches, each re-summarizing INGEST_KNOBS."""
    out = subprocess.run([HOST, "deltas", "--count=%d" % count],
                         capture_output=True, text=True, check=True)
    bodies = []
    for line in out.stdout.splitlines():
        doc = json.loads(line)
        doc["resummarize"] = ref.INGEST_KNOBS
        bodies.append(ref.body(doc))
    return bodies


def percentile(sorted_values, pct):
    """Nearest-rank percentile of sorted values (0.0 when empty)."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    return sorted_values[min(max(int(pct / 100.0 * n + 0.5) - 1, 0), n - 1)]


def ingest_burst(port, rng, trace):
    """The ingest phase: INGEST_BURST batches, one at a time."""
    phase = Phase("ingest")
    s = phase.stream(1)
    for sequence, body in enumerate(deltas(INGEST_BURST), 1):
        phase.add(s, None, "POST", "/v1/ingest", body, ("ingest", sequence))
    return run_phase(phase, port, trace, rng)


def open_loop(phase, rng, rate, duration, workers, add):
    s = phase.stream(workers)
    for t in poisson_times(rng, rate, duration):
        add(rng, phase, s, t)


def interactive_phase(rng, keys, stack, trace, duration, add, workers):
    """The interactive requests, open loop at INTERACTIVE_RPS through the
    front, beside a background stream of equal-work colds: one every
    BG_PERIOD_S, taking the replicas in turn. A few client connections
    all queue behind whichever engine lock is held, so one cold at a time
    keeps the clients blocked about a quarter of the time however many
    replicas there are."""
    phase = Phase("interactive")
    open_loop(phase, rng, INTERACTIVE_RPS, duration, workers, add)
    start = rng.uniform(0.0, BG_PERIOD_S)
    period = BG_PERIOD_S * len(stack.replicas)
    for j, replica in enumerate(stack.replicas):
        s = phase.stream(1, port=replica.port)
        t = start + j * BG_PERIOD_S
        while t < duration:
            phase.add(s, t, "POST", "/v1/summarize", keys.body(0),
                      ("background", 0))
            t += period
    return run_phase(phase, stack.front.port, trace, rng)


def scrape(stack):
    """/metrics of the replicas, and of the front when it is a balancer."""
    return ([metrics_of(r) for r in stack.replicas],
            metrics_of(stack.front) if stack.front not in stack.replicas
            else None)


def bench_stats(server):
    return json.loads(server.get("/bench/stats")[2])


class Round:
    """What one stack served and what its processes counted: per replica
    and for a balancer front, (/metrics before, /metrics after,
    /bench/stats)."""

    def __init__(self, stack, warm_fnv, before, results):
        self.warm_fnv = warm_fnv
        self.results = results
        after = scrape(stack)
        self.replicas = [(b, a, bench_stats(r)) for b, a, r in
                         zip(before[0], after[0], stack.replicas)]
        self.front = None
        if before[1] is not None:
            self.front = (before[1], after[1], bench_stats(stack.front))

    def processes(self):
        return self.replicas + ([self.front] if self.front else [])


def run_workload(name, rng, seconds, trace, set_up_stack, spare_set_up):
    """Runs the timed phases in ROUNDS rounds. Each round sets up a fresh
    stack with `set_up_stack()`, which returns it with its warm digests,
    runs the cold and interactive phases on it, and stops it, so every
    phase serves from a process of the same short history and the rounds
    sample the whole run rather than one stretch of the host's slower and
    faster periods. `spare_set_up()` is called between the two phases. The
    last round closes with the ingest phase. Returns one Round per
    round."""
    keys = ColdKeys(rng)
    rounds = []
    share = seconds / ROUNDS
    for i in range(ROUNDS):
        stack, warm_fnv = set_up_stack()
        try:
            before = scrape(stack)
            port = stack.front.port
            results = []
            if name == "cold_summarize":
                # Two closed-loop clients with distinct cold keys: the
                # engine lock serializes them.
                phase = Phase("cold", deadline=share * 0.55)
                add_cold_clients(phase, rng, keys, 2, share * 0.55,
                                 range(len(ref.COLD_BASES)))
                results += run_phase(phase, port, trace, rng)
                spare_set_up()
                results += interactive_phase(rng, keys, stack, trace,
                                             share * 0.4, add_interactive, 3)
            elif name == "routed_hits":
                # Hits and liveness through the balancer, and one
                # closed-loop cold client through it.
                results += interactive_phase(rng, keys, stack, trace,
                                             share * 0.6, add_routed, 2)
                spare_set_up()
                phase = Phase("cold", deadline=share * 0.35)
                add_cold_clients(phase, rng, keys, 1, share * 0.35, [0])
                results += run_phase(phase, port, trace, rng)
            else:
                raise ValueError("unknown workload " + name)
            if i == ROUNDS - 1:
                # Each replica holds its own dataset version, so the
                # routed workload sends its ingest phase to one replica
                # directly.
                results += ingest_burst(stack.replicas[0].port, rng, trace)
            for r in results:
                r["stack"] = i
            rounds.append(Round(stack, warm_fnv, before, results))
        finally:
            stack.stop()
    return rounds


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def set_up(routed, trace, index, problems):
    """Starts the serving processes and warms the cache (routed: the
    replicas restore it from the snapshot, and each warm key is fetched
    once through the balancer). Returns the stack and the warm bodies'
    digests."""
    stack = Stack(routed, trace, index)
    try:
        warm_fnv = {}
        for key, body in WARM:
            status, cache, text = stack.front.get("/v1/summarize", body)
            expected = "hit" if routed else "miss"
            if status != 200 or cache != expected:
                problems.append("warm key %d: status %d, cache %s"
                                % (key, status, cache))
            elif not ORACLE.warm_ok(key, text):
                problems.append("warm key %d differs from the reference" % key)
            warm_fnv[key] = ref.fnv1a(text)
        return stack, warm_fnv
    except Exception:
        stack.stop()
        raise


ORACLE = ref.Oracle()


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def json_or_none(text):
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return None


def check_result(r, warm_fnv):
    """Why a result is wrong, or None: a non-2xx answer, or bytes that do
    not match the reference."""
    kind, key = r["kind"], r["key"]
    if not 200 <= r["status"] < 300:
        return "status %d" % r["status"]
    if kind in ("cold", "background"):
        if r["cache"] != 2:
            return "cold request not a cache miss"
        if not ORACLE.cold_ok(key[0], r["body"]):
            return "cold outcome differs from the reference"
    elif kind == "hit":
        if r["cache"] != 1:
            return "warm key not a cache hit"
        if r["fnv"] != warm_fnv[key[0]]:
            return "hit bytes differ from the miss that filled the key"
    elif kind == "evaluate":
        if not ORACLE.evaluate_ok(key[0], r["body"]):
            return "evaluate rows differ from the reference"
    elif kind == "groups":
        doc = json_or_none(r["body"])
        if not isinstance(doc, dict) or not isinstance(doc.get("groups"), list):
            return "groups body malformed"
    elif kind == "ingest":
        doc = json_or_none(r["body"])
        summary = doc.get("resummarize") if isinstance(doc, dict) else None
        if not isinstance(summary, dict) or \
                doc.get("sequence") != key[0] or \
                not isinstance(summary.get("final_size"), int) or \
                not isinstance(summary.get("final_distance"), (int, float)):
            return "ingest receipt malformed"
    return None


def check_results(results, warm_fnv):
    """Marks every result r["ok"]; returns the mismatch descriptions."""
    problems = []
    for r in results:
        why = check_result(r, warm_fnv)
        r["ok"] = why is None
        if why is not None:
            problems.append("%s %s: %s" % (r["phase"], r["kind"], why))
    return problems


def check_counters(results, before, after):
    """Cross-layer invariants over the /metrics deltas of the replicas."""
    def delta(name):
        return sum(a.get(name, 0.0) - b.get(name, 0.0)
                   for b, a in zip(before, after))

    summarize = [r for r in results if r["status"] == 200 and
                 (r["kind"] in ("cold", "background", "hit"))]
    misses = sum(1 for r in summarize if r["cache"] == 2)
    resummarize = sum(1 for r in results if r["kind"] == "ingest" and
                      r["status"] == 200)
    problems = []
    lookups = delta("prox_serve_cache_hit_total") + \
        delta("prox_serve_cache_miss_total")
    # A miss is looked up twice: before and after taking the engine lock.
    if lookups != len(summarize) + misses:
        problems.append("cache lookups %d != summarize answers %d + misses %d"
                        % (lookups, len(summarize), misses))
    runs = delta("prox_summarize_runs_total")
    if runs != misses + resummarize:
        problems.append("summarize runs %d != misses %d + re-summarizes %d"
                        % (runs, misses, resummarize))
    if delta("prox_serve_cache_evict_total") != 0:
        problems.append("cache evictions during the run")
    warmed = [r for r in results if r["kind"] == "hit" and r["status"] == 200]
    if warmed and sum(1 for r in warmed if r["cache"] == 1) != len(warmed):
        problems.append("warmed hit stream below a hit share of 1.0")
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

INTERACTIVE = ("hit", "groups", "evaluate", "healthz")
# Request classes of the attribution check; background colds count as cold.
CLASSES = INTERACTIVE + ("cold", "ingest")


def ms(values):
    return [v * 1e3 for v in values]


def median(values, default=0.0):
    return statistics.median(values) if values else default


def latency(r):
    """Client latency from the due time (open loop) or, closed loop, from
    the previous completion, which is the due time too."""
    return r["end"] - r["due"]


def client_values(workload, results):
    """The figures a client sees, from the request records."""
    cold = [r for r in results if r["kind"] == "cold"]
    hits = [r for r in results if r["kind"] in INTERACTIVE]
    ingest = [r for r in results if r["kind"] == "ingest"]

    cold_ms = sorted(ms(latency(r) for r in cold if r["ok"]))
    hit_ms = sorted(ms(latency(r) for r in hits))
    ingest_ms = sorted(ms(latency(r) for r in ingest))

    # Drift: each cold latency relative to the median of its knob base
    # (bases carry unequal work), against its place among its stack's
    # colds (0 the first, 1 the last), fitted by a line over every stack;
    # the fit at 0.9 divided by the fit at 0.1, the last fifth of a
    # stack's life over its first.
    by_base, by_stack = {}, {}
    for r in cold:
        by_base.setdefault(r["key"][0], []).append(latency(r))
        by_stack.setdefault(r["stack"], []).append(r)
    place, norm = [], []
    for rows in by_stack.values():
        rows.sort(key=lambda r: (r["call"], r["send"]))
        for j, r in enumerate(rows):
            place.append(j / max(len(rows) - 1, 1))
            norm.append(latency(r) / statistics.median(by_base[r["key"][0]]))
    drift = 0.0
    if len(set(place)) >= 2:
        slope, intercept = statistics.linear_regression(place, norm)
        drift = (intercept + slope * 0.9) / (intercept + slope * 0.1)

    # Completions per second over the stretches the cold phases occupied.
    done = [r for r in cold if r["ok"]]
    spans = {}
    for r in done:
        first, last = spans.get(r["call"], (r["send"], r["end"]))
        spans[r["call"]] = (min(first, r["send"]), max(last, r["end"]))
    busy = sum(last - first for first, last in spans.values())
    cold_rate = len(done) / busy if busy else 0.0
    within = sum(1 for r in hits if r["ok"] and latency(r) * 1e3 <= SLO_MS)
    pct = TAIL_PCT[workload]
    return {
        "cold_p50_ms": percentile(cold_ms, 50),
        "cold_tail_ms": percentile(cold_ms, pct["cold"]),
        "cold_per_s": cold_rate,
        "cold_drift": drift,
        "hit_p50_ms": percentile(hit_ms, 50),
        "hit_tail_ms": percentile(hit_ms, pct["hit"]),
        "hit_slo_share": within / len(hits) if hits else 0.0,
        "ingest_p50_ms": percentile(ingest_ms, 50),
        "ingest_tail_ms": percentile(ingest_ms, pct["ingest"]),
    }


def end_to_end(workload, results, setups, rounds):
    values = client_values(workload, results)
    values["setup_s"] = median(setups)
    # The peak over the stacks of their processes' summed VmHWM.
    values["server_rss_mb"] = max(
        sum(st["vm_hwm_kb"] for _, _, st in rd.processes())
        for rd in rounds) / 1024.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


PER_LAYER = [
    ("net.transport_ms", "ms"), ("net.dispatches", "count"),
    ("net.shed", "count"), ("net.write_stalls", "count"),
    ("serve.handle_ms", "ms"), ("engine.wait_render_ms", "ms"),
    ("engine.cache_hit_share", "share"), ("engine.cache_evictions", "count"),
    ("service.summarize_ms", "ms"), ("service.evaluate_ms", "ms"),
    ("summarize.run_ms", "ms"), ("summarize.candidate_gen_ms", "ms"),
    ("summarize.candidate_eval_ms", "ms"), ("summarize.steps_per_run", "count"),
    ("summarize.candidates_per_step", "count"),
    ("summarize.distance_calls", "count"),
    ("summarize.base_eval_reuse_share", "share"),
    ("summarize.incremental_hit_share", "share"),
    ("kernels.batch_share", "share"), ("kernels.scalar_fallbacks", "count"),
    ("ir.apply_shared_share", "share"), ("exec.parallel_efficiency", "share"),
    ("exec.steals", "count"), ("ingest.apply_ms", "ms"),
    ("ingest.resummarize_ms", "ms"), ("ingest.warm_share", "share"),
    ("ingest.replayed_merges", "count"), ("balancer.handle_ms", "ms"),
    ("balancer.hop_ms", "ms"), ("balancer.forwards", "count"),
    ("balancer.retries", "count"), ("store.snapshot_load_ms", "ms"),
    ("loadgen.lag_ms", "ms"), ("trace.overhead_share", "share"),
    ("trace.unaccounted_share", "share"),
] + [("trace.unaccounted_share." + c, "share") for c in CLASSES] + [
    ("error_share", "share"),
    # Client figures whose run-to-run spread on the reference machine
    # exceeds the largest end-to-end bound (README.md), reported here
    # without one.
    ("cold_drift", "ratio"), ("ingest_p50_ms", "ms"), ("ingest_tail_ms", "ms"),
]


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(workload, results, rounds, routed, lag_ms, error_share):
    replicas = [p for rd in rounds for p in rd.replicas]
    fronts = [rd.front for rd in rounds if rd.front]

    def delta(name, processes=None):
        return sum(a.get(name, 0.0) - b.get(name, 0.0)
                   for b, a, _ in (processes or replicas + fronts))

    span_names = replicas[0][2]["spans"]
    replica_rows, front_rows = {}, {}
    for _, _, st in replicas:
        for row in st["requests"]:
            replica_rows[row[0]] = dict(zip(["handle"] + span_names, row[1:]))
    for _, _, st in fronts:
        for row in st["requests"]:
            front_rows[row[0]] = row[1]

    cols = {k: [] for k in ("transport", "handle", "wait", "svc_sum",
                            "svc_eval", "run", "gen", "ceval", "apply",
                            "resum", "bal", "hop")}
    # Per request class: [client span, unaccounted], in ns.
    by_class = {c: [0.0, 0.0] for c in CLASSES}
    for r in results:
        if not r["sampled"]:
            continue
        client = (r["end"] - r["send"]) * 1e9
        klass = by_class["cold" if r["kind"] == "background" else r["kind"]]
        klass[0] += client
        front = front_rows.get(r["trace_id"])
        rep = replica_rows.get(r["trace_id"])
        if front is None and rep is not None:   # sent to a replica directly
            front, routed_request = rep["handle"], False
        else:
            routed_request = routed
        if front is None:
            klass[1] += client
            continue
        parts = [client - front]
        cols["transport"].append(client - front)
        if routed_request:
            cols["bal"].append(front)
            if rep is not None:
                parts.append(front - rep["handle"])
                cols["hop"].append(front - rep["handle"])
            else:     # answered by the balancer itself (/healthz)
                parts.append(front)
        if rep is not None:
            # A re-summary that cannot start warm runs service.summarize
            # inside ingest.resummarize: an ingest's engine children are
            # the ingest spans alone.
            ingest = r["kind"] == "ingest"
            engine = (rep["service.evaluate"] + rep["service.select"] +
                      rep["ingest.apply"] + rep["ingest.resummarize"] +
                      (0 if ingest else rep["service.summarize"]))
            run = rep["summarize.run"]
            gen, ceval = rep["summarize.candidate_gen"], \
                rep["summarize.candidate_eval"]
            parts += [rep["handle"] - rep["serve.request"],
                      rep["serve.request"] - engine, engine - run,
                      run - gen - ceval, gen, ceval]
            cols["handle"].append(rep["handle"])
            if rep["serve.request"] > 0:
                cols["wait"].append(rep["serve.request"] - engine)
            for col, name in (("svc_sum", "service.summarize"),
                              ("svc_eval", "service.evaluate"),
                              ("apply", "ingest.apply"),
                              ("resum", "ingest.resummarize")):
                if rep[name] > 0 and not (ingest and col == "svc_sum"):
                    cols[col].append(rep[name])
            if rep["service.summarize"] > 0 and not ingest:
                cols["run"].append(run)
                cols["gen"].append(gen)
                cols["ceval"].append(ceval)
        # Self times telescope to the client span by construction, so only
        # a negative self time (a child outlasting its parent) or a missing
        # record leaves time unaccounted.
        klass[1] += sum(-p for p in parts if p < 0)

    def med_ms(col):
        return median(cols[col]) / 1e6

    # Sampled interactive requests against the unsampled ones, which carry
    # no traceparent and so take the shipped handler path.
    interactive = [r for r in results if r["kind"] in INTERACTIVE]
    on = [r["end"] - r["send"] for r in interactive if r["sampled"]]
    off = [r["end"] - r["send"] for r in interactive if not r["sampled"]]
    steps = delta("prox_summarize_steps_total", replicas)
    calls = delta("prox_distance_enumerated_calls_total", replicas) + \
        delta("prox_distance_sampled_calls_total", replicas)
    hits = delta("prox_serve_cache_hit_total", replicas)
    inc = delta("prox_summarize_incremental_hits_total", replicas)
    batch = delta("prox_kernel_batch_evals_total", replicas)
    scalar = delta("prox_kernel_scalar_fallback_total", replicas)
    shared = delta("prox_ir_apply_terms_shared_total", replicas)
    warm_runs = delta("prox_warmstart_runs_total", replicas)
    values = {
        "net.transport_ms": med_ms("transport"),
        "net.dispatches": delta("prox_net_dispatch_total"),
        "net.shed": delta("prox_serve_overload_total"),
        "net.write_stalls": delta("prox_net_write_stalls_total"),
        "serve.handle_ms": med_ms("handle"),
        "engine.wait_render_ms": med_ms("wait"),
        "engine.cache_hit_share": ratio(
            hits, hits + delta("prox_serve_cache_miss_total", replicas)),
        "engine.cache_evictions": delta("prox_serve_cache_evict_total",
                                        replicas),
        "service.summarize_ms": med_ms("svc_sum"),
        "service.evaluate_ms": med_ms("svc_eval"),
        "summarize.run_ms": med_ms("run"),
        "summarize.candidate_gen_ms": med_ms("gen"),
        "summarize.candidate_eval_ms": med_ms("ceval"),
        "summarize.steps_per_run": ratio(
            steps, delta("prox_summarize_runs_total", replicas)),
        "summarize.candidates_per_step": ratio(
            delta("prox_summarize_candidates_scored_total", replicas), steps),
        "summarize.distance_calls": calls,
        "summarize.base_eval_reuse_share": ratio(
            delta("prox_distance_base_eval_reuse_total", replicas),
            delta("prox_distance_enumerated_evals_total", replicas) +
            delta("prox_distance_samples_total", replicas)),
        "summarize.incremental_hit_share": ratio(
            inc, inc + delta("prox_summarize_incremental_fallbacks_total",
                             replicas)),
        "kernels.batch_share": ratio(batch, batch + scalar),
        "kernels.scalar_fallbacks": scalar,
        "ir.apply_shared_share": ratio(
            shared, shared + delta("prox_ir_apply_terms_rewritten_total",
                                   replicas)),
        "exec.parallel_efficiency": max(
            a.get("prox_summarize_parallel_efficiency", 0.0)
            for _, a, _ in replicas),
        "exec.steals": delta("prox_exec_steal_total", replicas),
        "ingest.apply_ms": med_ms("apply"),
        "ingest.resummarize_ms": med_ms("resum"),
        "ingest.warm_share": ratio(
            warm_runs - delta("prox_warmstart_fallback_total", replicas),
            warm_runs),
        "ingest.replayed_merges": delta("prox_warmstart_replayed_merges_total",
                                        replicas),
        "balancer.handle_ms": med_ms("bal"),
        "balancer.hop_ms": med_ms("hop"),
        "balancer.forwards": delta("prox_net_balancer_forward_total"),
        "balancer.retries": delta("prox_net_balancer_retry_total"),
        "store.snapshot_load_ms": median(
            [st["create_ms"] for _, _, st in replicas]),
        "loadgen.lag_ms": lag_ms,
        "trace.overhead_share": ratio(median(on), median(off)) - 1.0
        if on and off else 0.0,
        "trace.unaccounted_share": ratio(
            sum(u for _, u in by_class.values()),
            sum(c for c, _ in by_class.values())),
        "error_share": error_share,
    }
    for c in CLASSES:
        values["trace.unaccounted_share." + c] = ratio(by_class[c][1],
                                                       by_class[c][0])
    values.update(client_values(workload, results))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def generator_lag_ms(results):
    """99th percentile of how late the generator sent an open-loop request
    once it was both due and had a free connection."""
    lags = sorted((r["send"] - max(r["due"], r["free"])) * 1e3
                  for r in results if r["open"])
    return lags[int(0.99 * (len(lags) - 1))] if lags else 0.0


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    rng = random.Random(args.seed)
    routed = args.workload == "routed_hits"
    trace = args.trace == 1
    problems, setups = [], []

    def timed_set_up():
        start = time.perf_counter()
        made = set_up(routed, trace, len(setups), problems)
        setups.append(time.perf_counter() - start)
        return made

    def spare_set_up():
        # Sampled between phases, so that setup_s has two samples a round;
        # this stack is not used.
        timed_set_up()[0].stop()

    try:
        rounds = run_workload(args.workload, rng, args.seconds, trace,
                              timed_set_up, spare_set_up)
    finally:
        for name in os.listdir(WORK):
            os.remove(os.path.join(WORK, name))

    results = [r for rd in rounds for r in rd.results]
    for rd in rounds:
        problems += check_results(rd.results, rd.warm_fnv)
    problems += check_counters(results,
                               [b for rd in rounds for b, _, _ in rd.replicas],
                               [a for rd in rounds for _, a, _ in rd.replicas])
    lag_ms = generator_lag_ms(results)
    if lag_ms > LAG_LIMIT_MS:
        problems.append("load generator behind its schedule: p99 lag %.2f ms"
                        % lag_ms)
    failed = sum(1 for r in results if not r["ok"])
    for p in sorted(set(problems)):
        log("check failed: " + p)
    if trace:
        metrics = per_layer(args.workload, results, rounds, routed, lag_ms,
                            failed / len(results))
    else:
        metrics = end_to_end(args.workload, results, setups, rounds)
    print(json.dumps({"correct": not problems, "attempted": len(results),
                      "failed": failed, "metrics": metrics}), flush=True)
    if problems:
        sys.exit(1)


if __name__ == "__main__":
    try:
        main()
    except Exception as error:   # no result line on a failed step
        log("error: %r" % (error,))
        sys.exit(1)
