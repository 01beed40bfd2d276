#!/usr/bin/env python3
"""Self-test of the served-path benchmark. Run from the root of a source
checkout:

    python3 perfbench/selftest.py

1. The correctness checker counts a cold response with a tampered
   distance and a canned 503 as failures, and the counter invariants
   flag layers that disagree.
2. Every workload runs at minimal length, untraced and traced: the result
   line has exactly the keys correct, attempted, failed and metrics;
   every metric BENCHMARK.json names is printed, finite and carries its
   unit; and every check passed.
3. Against a reference with tampered cold distances, a run prints
   "correct": false with the cold requests failed, and exits non-zero.
4. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits non-zero when any of these fails.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import oracle as ref  # noqa: E402
import run  # noqa: E402

FAILURES = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def reference_body(outcome):
    """A summarize body carrying exactly the reference outcome."""
    return json.dumps({
        "final_size": outcome["final_size"],
        "final_distance": float.fromhex(outcome["final_distance"]),
        "steps": [{"summary": s, "merged": m, "distance": float.fromhex(d)}
                  for s, m, d in outcome["steps"]],
    })


def result(kind, key, status, body, cache=2):
    return {"phase": "main", "kind": kind, "key": key, "status": status,
            "cache": cache, "fnv": ref.fnv1a(body.encode()), "body": body}


def test_checker():
    outcome = run.ORACLE.cold[0]
    good = result("cold", (0,), 200, reference_body(outcome))
    tampered_outcome = dict(outcome, final_distance=math.nextafter(
        float.fromhex(outcome["final_distance"]), 1.0).hex())
    tampered = result("cold", (0,), 200, reference_body(tampered_outcome))
    shed = result("hit", (0,), 503,
                  '{"error":{"code":"unavailable","message":"overloaded"}}',
                  cache=0)
    results = [good, tampered, shed]
    problems = run.check_results(results, {0: shed["fnv"]})
    expect(good["ok"], "checker accepts the reference outcome")
    expect(not tampered["ok"], "checker rejects a distance off by one ulp")
    expect(not shed["ok"], "checker counts a canned 503 as failed")
    expect(len(problems) == 2 and
           sum(1 for r in results if not r["ok"]) == 2,
           "both failures reach the failed count (error_share)")

    hit = result("hit", (0,), 200, "{}", cache=1)
    before = [{"prox_serve_cache_hit_total": 0.0,
               "prox_serve_cache_miss_total": 0.0,
               "prox_summarize_runs_total": 0.0}]
    agree = [{"prox_serve_cache_hit_total": 1.0,
              "prox_serve_cache_miss_total": 2.0,
              "prox_summarize_runs_total": 1.0}]
    disagree = [dict(agree[0], prox_summarize_runs_total=2.0)]
    expect(not run.check_counters([good, hit], before, agree),
           "counter invariants hold for one miss and one hit")
    expect(run.check_counters([good, hit], before, disagree),
           "counter invariants flag an extra summarize run")


def bench_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def test_workloads(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            what = "%s --trace %d" % (workload, trace)
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "2", "--trace",
                 str(trace)], capture_output=True, text=True, timeout=180)
            lines = out.stdout.strip().splitlines()
            try:
                doc = json.loads(lines[-1])
            except (IndexError, ValueError):
                expect(False, what + ": prints a result line")
                sys.stderr.write(out.stderr[-3000:])
                continue
            expect(out.returncode == 0, what + ": exits 0")
            expect(sorted(doc) == ["attempted", "correct", "failed",
                                   "metrics"], what + ": result keys")
            expect(doc["correct"] is True and doc["failed"] == 0 and
                   doc["attempted"] >= 1,
                   what + ": every check passed (%s attempted, %s failed)"
                   % (doc.get("attempted"), doc.get("failed")))
            metrics = doc["metrics"]
            expect(sorted(metrics) == sorted(m["name"] for m in spec[group]),
                   what + ": prints exactly the %s metrics" % group)
            for m in spec[group]:
                got = metrics.get(m["name"], {})
                value = got.get("value")
                expect(isinstance(value, (int, float)) and
                       math.isfinite(value) and got.get("unit") == m["unit"],
                       "%s: %s = %r %s" % (what, m["name"], value,
                                           got.get("unit")))


def test_tampered_reference():
    """The whole command, run against a copy of the benchmark whose
    reference has every cold final_distance off by one ulp."""
    copy = os.path.join(run.BUILD, "selftest-tampered")
    shutil.rmtree(copy, ignore_errors=True)
    os.makedirs(copy)
    try:
        for name in ("run.py", "oracle.py"):
            shutil.copy(os.path.join(HERE, name), copy)
        with open(ref.ORACLE_PATH) as f:
            doc = json.load(f)
        for outcome in doc["cold"]:
            outcome["final_distance"] = math.nextafter(
                float.fromhex(outcome["final_distance"]), 1.0).hex()
        with open(os.path.join(copy, "oracle.json"), "w") as f:
            json.dump(doc, f)
        out = subprocess.run(
            [sys.executable, os.path.join(copy, "run.py"), "--workload",
             "cold_summarize", "--seed", "1", "--seconds", "2", "--trace",
             "0"], capture_output=True, text=True, timeout=180)
        lines = out.stdout.strip().splitlines()
        doc = run.json_or_none(lines[-1]) if lines else None
        expect(isinstance(doc, dict) and doc.get("correct") is False and
               doc.get("failed", 0) >= 1,
               "tampered reference: prints correct false with %s failed"
               % (doc.get("failed") if isinstance(doc, dict) else None))
        expect(out.returncode != 0,
               "tampered reference: exits %d" % out.returncode)
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def test_bare_directory():
    bare = os.path.join(run.BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "cold_summarize", "--seed", "1", "--seconds", "2", "--trace",
             "0"], cwd=bare, env=env, capture_output=True, text=True,
            timeout=180)
        expect(out.returncode != 0 and '"correct"' not in out.stdout,
               "bare directory: exits %d without a result" % out.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = bench_spec()
    test_checker()
    test_workloads(spec)
    test_tampered_reference()
    test_bare_directory()
    print("%d failure(s)" % len(FAILURES))
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
