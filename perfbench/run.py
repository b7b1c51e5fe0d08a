#!/usr/bin/env python3
"""Two-clock end-to-end benchmark of the dynamic betweenness-centrality system.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout. Builds perfbench/ (the bcdyn library from
src/ plus perfbench/driver.cpp) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs perfbench_driver on one workload:

  --trace 0  the end-to-end metrics of BENCHMARK.json, tracing off: one
             fixed-length stream replayed on five freshly built front doors,
             host-wall figures read from the fastest replays;
  --trace 1  the per-layer metrics: the same replays, then one traced, the
             traced replay's host time split across the layers.

Prints a readable report, then as the last line of stdout one JSON object
with the keys correct, attempted, failed and metrics. Exits non-zero,
without a result, when the program cannot be built or run.

--selfcheck runs every workload twice on one seed and once on another, and
checks that the same seed regenerates identical inputs and identical exact
counts (modeled seconds, virtual read p99, case counts, launches, blocks,
commits, epochs), that another seed changes the inputs, and that a traced
run agrees bit for bit with its untraced replay.

perfbench/layers.json names the clock of every metric (host wall, modeled
device clock, virtual service clock, exact count) and maps each layer to
the end-to-end metrics and workloads it should move or leave flat.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("window-pref", "edge-router", "serve-mixed")
# One run must finish in 180 s; the first one may also build (900 s).
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configures and builds perfbench_driver; returns its path, None on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no src/ beside perfbench/, nothing to build")
        return None
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_LIMIT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"perfbench: build step failed: {e}")
                return None
            if done.returncode != 0:
                log(f"perfbench: {' '.join(cmd)} exited {done.returncode}")
                return None
    exe = out / "perfbench_driver"
    return exe if exe.is_file() else None


def drive(exe, workload, seed, seconds, trace, deadline):
    """Runs perfbench_driver once; returns its JSON object, None on failure."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver timed out on {workload}")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"perfbench: driver exited {done.returncode} on {workload}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench: unreadable driver output: {lines[-1][:200]}")
        return None


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    with open(BENCH / "layers.json") as f:
        layers = json.load(f)
    return spec, layers


def report(workload, seed, trace, raw, spec, layers):
    """Readable report on stdout; returns the contract's result object."""
    section = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in spec[section]]
    units = {m["name"]: m["unit"] for m in spec[section]}
    clocks = layers["clocks"]
    missing = [n for n in names if n not in raw["metrics"]]
    if missing and raw["correct"]:
        raise KeyError(f"driver did not report {missing}")
    detail = raw["detail"]
    print(f"perfbench {workload} seed={seed} trace={trace}: "
          f"correct={raw['correct']} attempted={raw['attempted']} "
          f"failed={raw['failed']}")
    for problem in raw["problems"]:
        print(f"  problem: {problem}")
    samples = layers["samples"].get(workload, {})
    for name in names:
        value = raw["metrics"].get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        note = samples.get(name, "")
        print(f"  {name:30s} {shown:>14s} {units[name]:8s} "
              f"[{clocks.get(name, '')}] {note.format(**detail)}")
    if trace:
        shares = {k[len("share."):]: v for k, v in detail.items()
                  if k.startswith("share.")}
        print("  host self-time shares of the traced replay: " +
              ", ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items()))
        spans = {k[len("self_s."):]: v for k, v in detail.items()
                 if k.startswith("self_s.")}
        print("  host self time by span: " +
              ", ".join(f"{k} {v:.4g} s" for k, v in spans.items()))
        print(f"  next to end-to-end: untraced updates_per_s "
              f"{detail['untraced_updates_per_s']:.6g} 1/s [host wall]")
    return {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: {"value": raw["metrics"].get(n), "unit": units[n]}
                    for n in names},
    }


def selfcheck(exe, seed, seconds):
    ok = True
    deadline = time.monotonic() + 3600
    for workload in WORKLOADS:
        a = drive(exe, workload, seed, seconds, 0, deadline)
        b = drive(exe, workload, seed, seconds, 0, deadline)
        c = drive(exe, workload, seed + 1, seconds, 0, deadline)
        t = drive(exe, workload, seed, seconds, 1, deadline)
        if None in (a, b, c, t):
            print(f"FAIL {workload}: a run did not complete")
            ok = False
            continue
        checks = {
            "runs correct": all(r["correct"] for r in (a, b, c, t)),
            "same seed, same inputs":
                a["detail"]["input_hash_lo32"] ==
                b["detail"]["input_hash_lo32"],
            "same seed, same exact counts": a["repeat"] == b["repeat"],
            "other seed, other inputs":
                a["detail"]["input_hash_lo32"] !=
                c["detail"]["input_hash_lo32"],
            "traced run matches untraced bit for bit": t["correct"],
        }
        for what, passed in checks.items():
            print(f"{'PASS' if passed else 'FAIL'} {workload}: {what}")
            ok = ok and passed
        print(f"     exact counts: {json.dumps(a['repeat'])}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and not args.workload:
        parser.error("--workload is required")

    start = time.monotonic()
    exe = build()
    if exe is None:
        return 1
    if args.selfcheck:
        return 0 if selfcheck(exe, args.seed, min(args.seconds, 3)) else 1

    spec, layers = load_spec()
    # A run that also built gets the remainder of the longer first-run limit.
    built_s = time.monotonic() - start
    deadline = time.monotonic() + RUN_LIMIT_S - (0 if built_s > 30 else built_s)
    raw = drive(exe, args.workload, args.seed, args.seconds, args.trace,
                deadline)
    if raw is None:
        return 1
    try:
        result = report(args.workload, args.seed, args.trace, raw, spec,
                        layers)
    except KeyError as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
