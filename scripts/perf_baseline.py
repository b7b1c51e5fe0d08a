#!/usr/bin/env python3
"""Captures a perf baseline from the bench binaries' --metrics JSON.

The simulated GPU's cost model is bit-deterministic: every modeled-seconds
gauge a bench emits is a pure function of the graph, the seed, and the
code. That makes perf regressions testable like correctness bugs - run
the benches, snapshot their gauges, commit the snapshot, and diff future
runs against it (scripts/perf_regress.py, wired as a tier-1 ctest).

This script (re)generates the committed snapshot:

    python3 scripts/perf_baseline.py --bindir build/bench \
        --out bench/baselines/smoke.json

Rerun it deliberately after a change that is *supposed* to shift modeled
cost (new kernel schedule, cost-model recalibration) and commit the new
baseline together with that change.

Policy knobs stored in the baseline:
  default_tolerance   per-key relative slack before a key counts as a
                      regression (covers FP noise from e.g. reordered
                      reductions; modeled gauges are otherwise exact)
  geomean_tolerance   allowed geometric-mean ratio across all latency
                      keys of a bench (catches many small regressions
                      that each stay under the per-key tolerance)
  latency_patterns    substrings marking a gauge as a latency key
                      (lower is better; only these are gated)
  exclude_patterns    substrings exempting a gauge (host wall-clock
                      keys contain "wall" by convention and are never
                      gated - they are not deterministic across hosts)

Next to the latency gauges, each bench's host-work counters
(HOST_WORK_COUNTERS) are stored and gated per key. They count the work
items the host actually executed, so unlike wall time they are exact on
every host; they stay out of the geometric mean, which is a latency gate.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Benches whose headline gauges are fully modeled (deterministic) and fast
# enough to rerun under --smoke in the tier-1 test suite.
DEFAULT_BENCHES = [
    "ablation_adaptive",
    "bench_batch_update",
    "fig1_thread_blocks",
    "pipeline_overlap",
    "scaling_cpu_cores",
    "scaling_device_count",
    "service_throughput",
    "table2_dynamic_speedup",
    "table3_update_vs_recompute",
]

# Deterministic host-work counters gated next to the latency gauges.
HOST_WORK_COUNTERS = ["sim.host_items"]

DEFAULT_POLICY = {
    "default_tolerance": 0.02,
    "geomean_tolerance": 0.01,
    "latency_patterns": ["seconds"],
    "exclude_patterns": ["wall"],
}


def run_bench(bindir, bench, args):
    """Runs one bench with --metrics and returns its metrics JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        metrics_path = os.path.join(tmp, "metrics.json")
        cmd = [os.path.join(bindir, bench)] + args + [f"--metrics={metrics_path}"]
        result = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        if result.returncode != 0:
            raise RuntimeError(f"{bench} exited {result.returncode}")
        with open(metrics_path) as f:
            return json.load(f)


def gated_keys(metrics, policy):
    """Keys gated by the regression check: the latency gauges, per the
    baseline policy, plus the host-work counters."""
    keep = {}
    for key, value in metrics.get("gauges", {}).items():
        if not any(pat in key for pat in policy["latency_patterns"]):
            continue
        if any(pat in key for pat in policy["exclude_patterns"]):
            continue
        keep[key] = value
    counters = metrics.get("counters", {})
    for key in HOST_WORK_COUNTERS:
        if key in counters:
            keep[key] = counters[key]
    return keep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bindir", required=True,
                        help="directory holding the bench binaries")
    parser.add_argument("--out", required=True,
                        help="baseline JSON to write (commit this)")
    parser.add_argument("--benches", default=",".join(DEFAULT_BENCHES),
                        help="comma-separated bench subset")
    args = parser.parse_args()

    baseline = {
        "meta": {
            "description": "smoke-mode modeled-latency baseline; regenerate "
                           "with scripts/perf_baseline.py when a change is "
                           "*supposed* to shift modeled cost",
            "mode": "smoke",
        },
        "policy": dict(DEFAULT_POLICY),
        "benches": {},
    }
    for bench in args.benches.split(","):
        bench_args = ["--smoke"]
        print(f"  {bench} {' '.join(bench_args)} ...", file=sys.stderr)
        gated = gated_keys(run_bench(args.bindir, bench, bench_args),
                           baseline["policy"])
        if not gated:
            print(f"error: {bench} emitted no latency gauges", file=sys.stderr)
            return 1
        baseline["benches"][bench] = {"args": bench_args, "gauges": gated}

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    total = sum(len(b["gauges"]) for b in baseline["benches"].values())
    print(f"baseline written: {args.out} "
          f"({total} gauges across {len(baseline['benches'])} benches)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
