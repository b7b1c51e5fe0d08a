#!/usr/bin/env python3
"""Perf-regression gate: rerun the benches, diff against the baseline.

Loads a committed baseline (bench/baselines/smoke.json, written by
scripts/perf_baseline.py), reruns each recorded bench with the recorded
args, and compares the latency gauges and host-work counters:

  * per-key gate    a key whose current/baseline ratio exceeds
                    1 + default_tolerance is a regression; a key that
                    disappeared is always a failure (renames must update
                    the baseline deliberately)
  * geomean gate    the geometric mean of a bench's latency ratios must
                    stay under 1 + geomean_tolerance, so many small
                    slowdowns that each duck the per-key tolerance still
                    trip the gate (host-work counters take the per-key
                    gate only)

Improvements (ratio < 1) never fail; they are listed so an expected
speedup reminds you to refresh the baseline. Exit 0 = no regression,
1 = regression or contract violation, 2 = usage/environment error.

Registered as a tier-1 ctest (perf_regress, label perf). Paired
perf_regress_detects_* tests inject a synthetic 20% latency regression
via --inject and require exit 1 with "regressed 1.2000x" in the output
(scripts/expect_exit.py), proving the gate actually fires:

    python3 scripts/perf_regress.py --bindir build/bench \
        --baseline bench/baselines/smoke.json \
        --benches bench_batch_update --inject 'seconds:1.2'

and a host-work regression the same way, with --inject 'host_items:1.2'.
An inject that matches a key whose baseline is already stale (current
below baseline by more than the tolerance) may not fire; a note names
the key so the baseline gets re-captured.
"""

import argparse
import json
import math
import re
import sys

from perf_baseline import HOST_WORK_COUNTERS, gated_keys, run_bench


def compare_bench(bench, baseline_gauges, current_gauges, policy, inject):
    """Returns (failures, improvements, ratios) for one bench."""
    tol = float(policy["default_tolerance"])
    failures = []
    improvements = []
    ratios = []
    for key in sorted(baseline_gauges):
        base = float(baseline_gauges[key])
        host_work = key in HOST_WORK_COUNTERS
        unit = "" if host_work else "s"
        if key not in current_gauges:
            failures.append(f"{bench}: gated key disappeared: {key} "
                            f"(renamed? regenerate the baseline deliberately)")
            continue
        cur = float(current_gauges[key])
        if base <= 0.0:
            continue  # degenerate baseline entry; nothing to gate
        if inject is not None:
            pattern, factor = inject
            if re.search(pattern, key):
                if cur / base < 1.0 - tol:
                    print(f"note: {bench}: baseline for {key} is stale "
                          f"(current/baseline {cur / base:.4f}); the inject "
                          f"cannot fire until it is re-captured")
                cur *= factor
        ratio = cur / base
        if not host_work:
            ratios.append(ratio)
        if ratio > 1.0 + tol:
            failures.append(
                f"{bench}: {key} regressed {ratio:.4f}x "
                f"(baseline {base:.6g}{unit} -> current {cur:.6g}{unit}, "
                f"tolerance {tol:.0%})")
        elif ratio < 1.0 - tol:
            improvements.append(
                f"{bench}: {key} improved {1.0 / ratio:.4f}x "
                f"(baseline {base:.6g}{unit} -> current {cur:.6g}{unit})")
    return failures, improvements, ratios


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bindir", required=True,
                        help="directory holding the bench binaries")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON (perf_baseline.py)")
    parser.add_argument("--benches", default="",
                        help="comma-separated subset of baseline benches")
    parser.add_argument("--inject", default=None, metavar="REGEX:FACTOR",
                        help="test hook: multiply current values of keys "
                             "matching REGEX by FACTOR before comparing")
    args = parser.parse_args()

    inject = None
    if args.inject is not None:
        pattern, sep, factor = args.inject.rpartition(":")
        if not sep or not pattern:
            print(f"error: --inject wants REGEX:FACTOR, got {args.inject!r}",
                  file=sys.stderr)
            return 2
        inject = (pattern, float(factor))

    with open(args.baseline) as f:
        baseline = json.load(f)
    policy = baseline["policy"]
    geo_tol = float(policy["geomean_tolerance"])

    selected = baseline["benches"]
    if args.benches:
        wanted = args.benches.split(",")
        missing = [b for b in wanted if b not in selected]
        if missing:
            print(f"error: not in baseline: {', '.join(missing)}",
                  file=sys.stderr)
            return 2
        selected = {b: selected[b] for b in wanted}

    failures = []
    improvements = []
    checked = 0
    for bench, entry in sorted(selected.items()):
        print(f"  {bench} {' '.join(entry['args'])} ...", file=sys.stderr)
        try:
            metrics = run_bench(args.bindir, bench, list(entry["args"]))
        except (OSError, RuntimeError) as e:
            failures.append(f"{bench}: failed to collect metrics ({e})")
            continue
        current = gated_keys(metrics, policy)
        bench_failures, bench_improvements, ratios = compare_bench(
            bench, entry["gauges"], current, policy, inject)
        failures.extend(bench_failures)
        improvements.extend(bench_improvements)
        checked += len(entry["gauges"])
        if ratios:
            geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
            if geomean > 1.0 + geo_tol:
                failures.append(
                    f"{bench}: geometric-mean latency ratio {geomean:.4f} "
                    f"exceeds 1 + {geo_tol:.0%} across {len(ratios)} keys")

    for line in improvements:
        print(f"note: {line}")
    if improvements:
        print("note: improvements are not failures; refresh the baseline "
              "(scripts/perf_baseline.py) if they are intentional")
    if failures:
        for line in failures:
            print(f"error: {line}", file=sys.stderr)
        return 1
    print(f"ok: {checked} gated keys across {len(selected)} benches "
          f"within tolerance of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
