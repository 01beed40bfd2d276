"""Reference outcomes for the served-path benchmark, and the checks that
compare served responses against them.

The reference is computed by `perfbench_host oracle`: every request runs on
a fresh engine, so no reference depends on process history. Summaries compare
on `final_size`, the bit-exact `final_distance`, and every step's summary
name, merged members and distance, with the `#k` suffixes that registry
history adds to summary names stripped.

    python3 perfbench/oracle.py <path to perfbench_host>

rewrites perfbench/oracle.json.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_PATH = os.path.join(HERE, "oracle.json")

# Cold knob sets. Each request adds a distinct w_dist = 0.5 + k * 2**-20
# (k >= 1), so every request is a cache miss; on this dataset those
# variants price the same merges, so every variant of a base does equal
# work and must return the base's reference outcome.
COLD_BASES = [
    {"max_steps": 8},
    {"max_steps": 10, "valuation_class": "cancel_single_attribute"},
    {"max_steps": 10, "val_func": "euclidean"},
    {"max_steps": 12, "target_size": 20},
    {"max_steps": 10, "val_func": "absolute_difference"},
    {"max_steps": 10, "target_dist": 0.05},
]
W_DIST_STEP = 2.0 ** -20

# Keys warmed during set-up; interactive summarize requests hit them.
WARM_KEYS = [
    {"max_steps": 3},
    {"max_steps": 4},
    {"max_steps": 5, "val_func": "euclidean"},
    {"max_steps": 6},
]

# The knobs every ingest batch re-summarizes with.
INGEST_KNOBS = {"max_steps": 6}

EVALUATE_ASSIGNMENTS = [
    {"false_annotations": []},
    {"false_annotations": ["UID100"]},
    {"false_annotations": ["UID101", "UID102"]},
    {"false_attributes": [{"attribute": "Gender", "value": "F"}]},
]


def cold_knobs(base, k):
    knobs = dict(COLD_BASES[base])
    knobs["w_dist"] = 0.5 + k * W_DIST_STEP
    return knobs


def body(doc):
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def evaluate_body(assignment):
    return body({"on": "selection", "assignment": assignment})


def strip(name):
    return re.sub(r"#\d+", "", name)


def outcome(summary):
    """The history-independent part of a summarize body (a parsed dict)."""
    return {
        "final_size": summary["final_size"],
        "final_distance": float(summary["final_distance"]).hex(),
        "steps": [[strip(s["summary"]), [strip(m) for m in s["merged"]],
                   float(s["distance"]).hex()] for s in summary["steps"]],
    }


def fnv1a(data):
    h = 1469598103934665603
    for c in data:
        h = ((h ^ c) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


class Oracle:
    def __init__(self, path=ORACLE_PATH):
        with open(path) as f:
            doc = json.load(f)
        self.cold = doc["cold"]
        self.warm = doc["warm"]
        self.evaluate = doc["evaluate"]

    def summary_matches(self, reference, text):
        try:
            return outcome(json.loads(text)) == reference
        except (ValueError, KeyError, TypeError):
            return False

    def cold_ok(self, base, text):
        return self.summary_matches(self.cold[base], text)

    def warm_ok(self, key, text):
        return self.summary_matches(self.warm[key], text)

    def evaluate_ok(self, index, text):
        """Evaluate rows match (the body also carries a timing)."""
        try:
            return json.loads(text)["rows"] == self.evaluate[index]
        except (ValueError, KeyError, TypeError):
            return False


def build(host):
    lines = []
    for base in range(len(COLD_BASES)):
        lines.append("/v1/summarize\t" + body(cold_knobs(base, 1)))
    for key in WARM_KEYS:
        lines.append("/v1/summarize\t" + body(key))
    for assignment in EVALUATE_ASSIGNMENTS:
        lines.append("/v1/evaluate\t" + evaluate_body(assignment))
    out = subprocess.run([host, "oracle"], input="\n".join(lines) + "\n",
                         capture_output=True, text=True, check=True)
    bodies = out.stdout.splitlines()
    assert len(bodies) == len(lines), (len(bodies), len(lines))
    it = iter(bodies)
    doc = {
        "dataset": "MovieLens users=40 movies=8 seed=99, selection all",
        "cold": [outcome(json.loads(next(it))) for _ in COLD_BASES],
        "warm": [outcome(json.loads(next(it))) for _ in WARM_KEYS],
        "evaluate": [json.loads(next(it))["rows"]
                     for _ in EVALUATE_ASSIGNMENTS],
    }
    with open(ORACLE_PATH, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: oracle.py <path to perfbench_host>")
    build(sys.argv[1])
