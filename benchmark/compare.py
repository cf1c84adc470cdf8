#!/usr/bin/env python3
"""Compare two benchmark result sets against the bounds in BENCHMARK.json.

Usage: compare.py A.json B.json      (two benchmark/out/results.json files)
       compare.py --schema

A is the baseline, B the candidate. For every workload and end-to-end
metric the script prints one row with both medians and quartiles (over the
per-repetition raw values) and B's change, and flags a regression when B's
median is worse than A's by more than the metric's bound, in the direction
BENCHMARK.json gives. The model-cost metrics (EXACT below) are counts: when
both sets ran the same seed they must be equal, whatever the bound. A
workload both sets ran that BENCHMARK.json does not list is printed but not
gated.

Exit 0: no regression. Exit 1: at least one regression (or a workload
missing from B, or a failed check recorded in either set). Exit 2: the
script could not run (missing or mis-shaped input) - one line on stderr,
never a traceback.

--schema runs a built-in self-test on synthetic documents, including
regressions that must trip the gate."""

import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
EXACT = {"p99_rounds", "rounds_per_op", "words_per_op"}


def die(msg):
    print(f"compare ERROR: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except FileNotFoundError:
        die(f"{path}: file not found (did the benchmark run?)")
    except json.JSONDecodeError as e:
        die(f"{path}: malformed JSON ({e})")
    if not isinstance(data, dict):
        die(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def require(obj, key, ctx, typ=None):
    if not isinstance(obj, dict) or key not in obj:
        die(f"{ctx}: missing required key '{key}'")
    val = obj[key]
    if typ is not None and not isinstance(val, typ):
        die(f"{ctx}: key '{key}' should be {typ.__name__}, got {type(val).__name__}")
    return val


def samples(doc, path, workload, metric):
    """Per-repetition values of one end-to-end metric."""
    ctx = f"{path}: workloads.{workload}.end_to_end"
    e2e = require(require(require(doc, "workloads", path, dict), workload, path, dict),
                  "end_to_end", ctx, dict)
    raw = require(require(e2e, "raw", ctx, dict), metric, f"{ctx}.raw", list)
    if not raw or not all(isinstance(x, (int, float)) for x in raw):
        die(f"{ctx}.raw.{metric}: expected a non-empty list of numbers")
    return raw


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(a, b, bench, path_a="A", path_b="B"):
    """Returns (rows, regressions); each row is a printable string."""
    metrics = require(bench, "end_to_end", "BENCHMARK.json", list)
    gated = [require(w, "name", "BENCHMARK.json: workloads[]", str)
             for w in require(bench, "workloads", "BENCHMARK.json", list)]
    # Workloads both sets ran that BENCHMARK.json does not list (the pool
    # cell) are printed, not gated.
    both = require(a, "workloads", path_a, dict).keys() & require(b, "workloads", path_b, dict).keys()
    names = gated + sorted(both - set(gated))
    same_seed = (require(require(a, "provenance", path_a, dict), "seed", path_a)
                 == require(require(b, "provenance", path_b, dict), "seed", path_b))
    skipped = {s.get("workload") for doc in (a, b) for s in doc.get("skipped", [])}
    rows, regressions = [], []
    for w in names:
        if w in skipped:
            rows.append(f"{w:16s} skipped in one of the sets")
            continue
        if w not in require(b, "workloads", path_b, dict) or w not in a["workloads"]:
            regressions.append(f"{w}: missing from one of the sets")
            continue
        for doc, path in ((a, path_a), (b, path_b)):
            for mode in ("end_to_end", "per_layer"):
                fails = doc["workloads"][w].get(mode, {}).get("failures", [])
                if fails:
                    regressions.append(f"{w}: {path} recorded failed checks: {fails[0]}")
        for m in metrics:
            name = require(m, "name", "BENCHMARK.json: end_to_end[]", str)
            bound = require(m, "bound", f"BENCHMARK.json: {name}", (int, float))
            better = require(m, "better", f"BENCHMARK.json: {name}", str)
            qa = quartiles(samples(a, path_a, w, name))
            qb = quartiles(samples(b, path_b, w, name))
            if qa[1] == 0:
                die(f"{path_a}: {w}.{name}: median is 0")
            change = (qb[1] - qa[1]) / abs(qa[1])
            worse = -change if better == "higher" else change
            verdict = "ok"
            if w not in gated:
                verdict = "not gated"
            elif name in EXACT and same_seed and qa[1] != qb[1]:
                verdict = "REGRESSION (count changed at the same seed)"
            elif worse > bound:
                verdict = f"REGRESSION (worse by {worse:.1%} > {bound:.0%})"
            if verdict.startswith("REGRESSION"):
                regressions.append(f"{w}.{name}: {verdict}")
            rows.append(
                f"{w:16s} {name:14s} A {qa[1]:12.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                f"B {qb[1]:12.5g} [{qb[0]:.5g}, {qb[2]:.5g}]  {change:+7.2%}  {verdict}"
            )
    return rows, regressions


def self_test():
    bench = {
        "workloads": [{"name": "w1", "why": ""}, {"name": "w2", "why": ""}],
        "end_to_end": [
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "rounds_per_op", "unit": "rounds/op", "better": "lower", "bound": 0.15},
        ],
    }

    def doc(ops, p50, rounds, seed=42, failures=()):
        raw = {"ops_per_s": ops, "p50_ms": p50, "rounds_per_op": rounds}
        cell = {"end_to_end": {"raw": raw, "failures": list(failures)}}
        return {"provenance": {"seed": seed}, "skipped": [],
                "workloads": {"w1": cell, "w2": json.loads(json.dumps(cell))}}

    base = doc([100, 102, 98, 101, 99], [1.0, 1.1, 0.9, 1.0, 1.0], [1.5] * 5)
    cases = [
        ("identical sets pass", doc([100, 102, 98, 101, 99], [1.0, 1.1, 0.9, 1.0, 1.0], [1.5] * 5), 0),
        ("within the bound passes", doc([95, 96, 94, 95, 97], [1.05] * 5, [1.5] * 5), 0),
        ("a gain passes", doc([150] * 5, [0.5] * 5, [1.5] * 5), 0),
        ("throughput down 20% trips", doc([80] * 5, [1.0] * 5, [1.5] * 5), 2),
        ("latency up 20% trips", doc([100] * 5, [1.2] * 5, [1.5] * 5), 2),
        ("a count changed at the same seed trips", doc([100] * 5, [1.0] * 5, [1.51] * 5), 2),
        ("a count within its bound at another seed passes",
         doc([100] * 5, [1.0] * 5, [1.51] * 5, seed=7), 0),
        ("a recorded failed check trips", doc([100] * 5, [1.0] * 5, [1.5] * 5, failures=["digest"]), 2),
    ]
    bad = 0
    for what, cand, want in cases:
        _, regressions = compare(base, cand, bench)
        got = len(regressions)
        ok = got == want
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}: {got} regressions (want {want})")
    extra_a, extra_b = doc([100] * 5, [1.0] * 5, [1.5] * 5), doc([100] * 5, [1.0] * 5, [1.5] * 5)
    extra_a["workloads"]["pool"] = doc([100] * 5, [1.0] * 5, [1.5] * 5)["workloads"]["w1"]
    extra_b["workloads"]["pool"] = doc([30] * 5, [3.0] * 5, [1.5] * 5)["workloads"]["w1"]
    rows, regressions = compare(extra_a, extra_b, bench)
    ok = not regressions and any("not gated" in r for r in rows)
    bad += not ok
    print(f"{'ok  ' if ok else 'FAIL'} an unlisted workload is printed, not gated")
    missing = doc([100] * 5, [1.0] * 5, [1.5] * 5)
    del missing["workloads"]["w2"]
    _, regressions = compare(base, missing, bench)
    ok = len(regressions) == 1
    bad += not ok
    print(f"{'ok  ' if ok else 'FAIL'} a workload missing from B trips: {len(regressions)} (want 1)")
    if bad:
        print(f"compare --schema: {bad} self-test case(s) FAILED", file=sys.stderr)
        sys.exit(1)
    print("compare --schema: all self-test cases pass")


def main():
    if sys.argv[1:] == ["--schema"]:
        self_test()
        return
    if len(sys.argv) != 3:
        die("usage: compare.py A.json B.json | compare.py --schema")
    a, b = load_json(sys.argv[1]), load_json(sys.argv[2])
    rows, regressions = compare(a, b, load_json(BENCHMARK_JSON), sys.argv[1], sys.argv[2])
    for row in rows:
        print(row)
    if regressions:
        print(f"\n{len(regressions)} regression(s):", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        sys.exit(1)
    print("\nno regression")


if __name__ == "__main__":
    main()
