#!/usr/bin/env python3
"""Perf-regression gate: compare a bench JSON against the committed floors
in ci/perf_floors.json.

Usage: check_perf_floor.py <bench.json> [perf_floors.json]
       check_perf_floor.py --schema

Two bench schemas are accepted, keyed on the document's "bench" field:

* "throughput" (PR3-era): a flat "configs" list of alg/backend/k cells.
  Floors live under the top-level "hosts" table, keyed "alg/backend/k".
* "large_scale" (PR7): a "cells" list of multi-n trajectory rows. Floors
  live under the "pr7" section: "hosts" keyed "alg/n" and per-cell
  "resident_ceiling" (peak_resident_words upper bounds,
  fingerprint-independent). Every cell must additionally report zero
  model violations regardless of floors. A document that still carries
  the retired "canonical_comparison" section (the map-vs-SoA layout
  speedups, gone with the map layout) is rejected, not skipped.

Floors are core-count fingerprinted (see the comment field in the floors
file): an exact host_cores match gates tightly, anything else uses the
conservative 'default' floors. Exits non-zero when any gated quantity
falls below floor/tolerance (or above a ceiling).

--schema runs a built-in self-test of both parsers against synthetic
documents (no files needed) and exits 0 on success; CI invokes it so a
schema drift in this script fails loudly even when the bench JSONs are
healthy."""

import sys

from gate_common import die, load_json, require


def pick_host_floors(hosts: dict, cores: str, ctx: str):
    """Exact host_cores fingerprint match, else the 'default' profile."""
    if "default" not in hosts:
        die(f"{ctx}: hosts table has no 'default' profile")
    floors = hosts.get(cores)
    profile = cores
    if floors is None:
        floors = hosts["default"]
        profile = "default"
    if not isinstance(floors, dict) or not floors:
        die(f"{ctx}: floor profile '{profile}' is empty or not an object")
    return floors, profile


def gate_floors(measured: dict, floors: dict, tolerance: float, ctx: str):
    """Shared floor arithmetic: every floor key must be measured and above
    floor/tolerance. Returns the failure list."""
    failures = []
    for key, floor in floors.items():
        if not isinstance(floor, (int, float)) or floor <= 0:
            die(f"{ctx}: floor '{key}' must be a positive number, got {floor!r}")
        got = measured.get(key)
        if got is None:
            failures.append(f"{key}: missing from the bench run")
            continue
        limit = floor / tolerance
        verdict = "ok" if got >= limit else "REGRESSION"
        print(f"  {key}: {got:.0f} updates/s (floor {floor}, limit {limit:.0f}) {verdict}")
        if got < limit:
            failures.append(f"{key}: {got:.0f} < {limit:.0f} (floor {floor} / {tolerance})")
    return failures


def check_throughput(smoke: dict, spec: dict, smoke_path: str, floors_path: str):
    """PR3-era schema: flat alg/backend/k configs vs the 'hosts' table."""
    tolerance = require(spec, "tolerance", floors_path, (int, float))
    if tolerance <= 0:
        die(f"{floors_path}: tolerance must be positive, got {tolerance}")
    hosts = require(spec, "hosts", floors_path, dict)
    cores = str(smoke.get("host_cores", 0))
    floors, profile = pick_host_floors(hosts, cores, floors_path)
    print(f"perf gate: host_cores={cores}, floor profile '{profile}', tolerance {tolerance}x")

    configs = require(smoke, "configs", smoke_path, list)
    measured = {}
    for i, c in enumerate(configs):
        ctx = f"{smoke_path}: configs[{i}]"
        if not isinstance(c, dict):
            die(f"{ctx}: expected an object")
        key = (
            f"{require(c, 'alg', ctx)}/{require(c, 'backend', ctx)}/{require(c, 'k', ctx)}"
        )
        current = require(c, "current", ctx, dict)
        ups = require(current, "updates_per_sec", ctx, (int, float))
        measured[key] = ups
    return gate_floors(measured, floors, tolerance, floors_path)


def check_large_scale(smoke: dict, spec: dict, smoke_path: str, floors_path: str):
    """PR7 schema: multi-n trajectory cells, gated against the floors
    file's 'pr7' section."""
    pr7 = require(spec, "pr7", floors_path, dict)
    ctx7 = f"{floors_path}: pr7"
    tolerance = require(pr7, "tolerance", ctx7, (int, float))
    if tolerance <= 0:
        die(f"{ctx7}: tolerance must be positive, got {tolerance}")
    hosts = require(pr7, "hosts", ctx7, dict)
    ceilings = pr7.get("resident_ceiling", {})
    if not isinstance(ceilings, dict):
        die(f"{ctx7}: resident_ceiling must be an object")
    cores = str(smoke.get("host_cores", 0))
    floors, profile = pick_host_floors(hosts, cores, ctx7)
    print(f"perf gate: host_cores={cores}, floor profile '{profile}', tolerance {tolerance}x")

    failures = []
    if "canonical_comparison" in smoke:
        failures.append(
            "canonical_comparison: retired section present (no bin emits it; regenerate the JSON)"
        )
    cells = require(smoke, "cells", smoke_path, list)
    measured = {}
    for i, c in enumerate(cells):
        ctx = f"{smoke_path}: cells[{i}]"
        if not isinstance(c, dict):
            die(f"{ctx}: expected an object")
        key = f"{require(c, 'alg', ctx)}/{require(c, 'n', ctx)}"
        current = require(c, "current", ctx, dict)
        measured[key] = require(current, "updates_per_sec", ctx, (int, float))
        # Model violations gate every cell, floors or not.
        viol = require(current, "violations", ctx, int)
        if viol != 0:
            failures.append(f"{key}: {viol} model violations")
        resident = require(current, "peak_resident_words", ctx, int)
        ceiling = ceilings.get(key)
        if ceiling is not None:
            verdict = "ok" if resident <= ceiling else "OVER CEILING"
            print(f"  {key}: resident {resident} words (ceiling {ceiling}) {verdict}")
            if resident > ceiling:
                failures.append(f"{key}: resident {resident} > ceiling {ceiling}")
    failures += gate_floors(measured, floors, tolerance, ctx7)
    return failures


def self_test() -> int:
    """Exercises both schema paths against synthetic documents, including
    one deliberate regression per path to prove the gate actually trips."""
    floors = {
        "tolerance": 2.0,
        "hosts": {"default": {"connectivity/serial/1": 1000}},
        "pr7": {
            "tolerance": 2.0,
            "hosts": {"default": {"connectivity/16384": 1000}},
            "resident_ceiling": {"connectivity/16384": 500000},
        },
    }
    pr3 = {
        "bench": "throughput",
        "host_cores": 64,
        "configs": [
            {
                "alg": "connectivity",
                "backend": "serial",
                "k": 1,
                "current": {"updates_per_sec": 900.0},
            }
        ],
    }
    pr7 = {
        "bench": "large_scale",
        "host_cores": 64,
        "cells": [
            {
                "alg": "connectivity",
                "n": 16384,
                "current": {
                    "updates_per_sec": 900.0,
                    "violations": 0,
                    "peak_resident_words": 400000,
                },
            }
        ],
    }
    cases = [
        ("pr3 pass", check_throughput, pr3, 0),
        ("pr7 pass", check_large_scale, pr7, 0),
    ]
    # Regressions that must trip each gate.
    import copy

    pr3_slow = copy.deepcopy(pr3)
    pr3_slow["configs"][0]["current"]["updates_per_sec"] = 100.0
    cases.append(("pr3 floor trip", check_throughput, pr3_slow, 1))
    pr7_viol = copy.deepcopy(pr7)
    pr7_viol["cells"][0]["current"]["violations"] = 3
    cases.append(("pr7 violation trip", check_large_scale, pr7_viol, 1))
    pr7_fat = copy.deepcopy(pr7)
    pr7_fat["cells"][0]["current"]["peak_resident_words"] = 600000
    cases.append(("pr7 ceiling trip", check_large_scale, pr7_fat, 1))
    pr7_stale = copy.deepcopy(pr7)
    pr7_stale["canonical_comparison"] = []
    cases.append(("pr7 retired section trip", check_large_scale, pr7_stale, 1))

    for name, fn, doc, want_failures in cases:
        failures = fn(doc, floors, "<self-test>", "<self-test-floors>")
        ok = (len(failures) > 0) == (want_failures > 0)
        print(f"self-test {name}: {'ok' if ok else 'FAILED'}")
        if not ok:
            die(f"self-test '{name}' expected failures={want_failures}, got {failures}")
    print("schema self-test passed")
    return 0


def main() -> int:
    if len(sys.argv) >= 2 and sys.argv[1] == "--schema":
        return self_test()
    if len(sys.argv) < 2:
        die("usage: check_perf_floor.py <bench.json> [perf_floors.json] | --schema")
    smoke_path = sys.argv[1]
    floors_path = sys.argv[2] if len(sys.argv) > 2 else "ci/perf_floors.json"
    smoke = load_json(smoke_path)
    spec = load_json(floors_path)
    kind = smoke.get("bench", "throughput")
    if kind == "large_scale":
        failures = check_large_scale(smoke, spec, smoke_path, floors_path)
    elif kind == "throughput":
        failures = check_throughput(smoke, spec, smoke_path, floors_path)
    else:
        die(f"{smoke_path}: unknown bench kind {kind!r}")
    if failures:
        print("\nperf gate FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
