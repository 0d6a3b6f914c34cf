#!/usr/bin/env python3
"""Runs the QRAM fleet benchmark on one workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from source (cargo, offline, release), then:

* ``--trace 0``: runs the end-to-end measurement in several fresh
  processes, each taking an equal share of the serving calls, and reports
  the median over processes of each host-clock metric; times cold set-up
  in further fresh processes; reads each process's peak resident set size
  back from the kernel when it exits; and takes the modeled clock from
  the first process, which serves the whole trace ensemble;
* ``--trace 1``: runs the traced replay and reports every per-layer
  metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
non-zero, and no result is printed, when the build or a run fails; it is
also non-zero, after the result, when the correctness gate finds a wrong
answer, a lost or duplicated query, or a lost write.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "qram-perfbench"
WORKLOADS = ("flash_readonly", "superposition_kernel", "durable_writes_crash")

# End-to-end measurement processes. Now and then one process runs ~1.6x
# slower than the rest for its whole life (one in fourteen in a quick
# test on flash_readonly, same seed and inputs); the median over three
# keeps such a process from moving a run's result.
MEASURE_PROCESSES = 3
# Extra cold set-ups, each in a fresh process: only a fresh process pays
# the one-time plan interning, so set-up cannot be repeated in-process.
SETUP_PROCESSES = 9
# glibc's malloc moves its mmap threshold to the size of each mapped
# block it frees, so one serving call can take 1.0 ms or 1.7 ms depending
# on which allocations happened to precede it (superposition_kernel).
# Fixed thresholds give every benchmark process the same allocator
# policy: blocks up to 32 MiB come from the heap, which is never trimmed.
CHILD_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
}
# A sample more than this many times its run's quiet floor was slowed by
# the host; the rule of stats::uncontended in src/stats.rs, applied here
# to set-up times with one cold process per block.
CONTENTION_RATIO = 1.25
# Every child must finish within this many seconds of the start.
DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 870.0


class BenchError(Exception):
    pass


def metric_names():
    """The (name, unit) pairs of the end-to-end and per-layer metrics, as
    BENCHMARK.json at the checkout root declares them."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}")
    return tuple(
        [(m["name"], m["unit"]) for m in spec[kind]] for kind in ("end_to_end", "per_layer")
    )


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not 0 < args.seconds <= 60:
        p.error("--seconds must be in (0, 60]")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def build():
    """Builds the release binary and returns its path."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        r = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout)
    return os.path.join(target, "release", BINARY)


def run_child(argv, deadline):
    """Runs one benchmark process; returns (its last stdout line as JSON,
    its peak resident set size in MB)."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=dict(os.environ, **CHILD_ENV), stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(argv)} printed nothing")
    # ru_maxrss is in KiB on Linux.
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def uncontended(values):
    """The values within CONTENTION_RATIO of their nearest-rank 10th
    percentile."""
    floor = sorted(values)[math.ceil(len(values) / 10) - 1]
    return [v for v in values if v <= CONTENTION_RATIO * floor]


def pick(values, names, what):
    missing = [n for n, _ in names if n not in values]
    if missing:
        raise BenchError(f"{what} lacks {', '.join(missing)}")
    return {n: {"value": values[n], "unit": unit} for n, unit in names}


def print_gate(r):
    print(
        f"gate: offered {r['offered']}, writes {r['writes']}, completed {r['completed']}, "
        f"shed {r['shed']}; wrong {r['wrong']}, missing {r['missing']}, "
        f"duplicated {r['duplicated']}, lost writes {r['lost_writes']}, "
        f"diverged repeats {r['diverged_runs']}"
    )
    print(
        f"failed_fraction {r['failed_fraction']:.6f} (sheds and errors over attempted), "
        f"stale_fraction {r['stale_fraction']:.6f}"
    )


def main():
    args = parse_args()
    end_to_end, per_layer = metric_names()
    start = time.monotonic()
    deadline = start + DEADLINE_S
    binary = build()
    # The build may take long on a fresh checkout; runs get their own
    # budget from here.
    deadline = max(deadline, time.monotonic() + DEADLINE_S - 10.0)
    base = [binary, "--workload", args.workload, "--seed", str(args.seed)]

    if args.trace:
        result, _ = run_child(
            base + ["--seconds", str(args.seconds), "--trace", "1"], deadline
        )
        metrics = pick(result["per_layer"], per_layer, "the traced run")
        print(f"workload {args.workload}, seed {args.seed}: "
              f"{result['samples']} traced iterations")
        for name, m in metrics.items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    else:
        setups, runs, rss = [], [], []
        for i in range(max(MEASURE_PROCESSES, SETUP_PROCESSES)):
            if i < SETUP_PROCESSES:
                setups.append(run_child(base + ["--setup-only"], deadline)[0]["setup_s"])
            if i < MEASURE_PROCESSES:
                # Only the first process serves the whole trace ensemble.
                ensemble = [] if i == 0 else ["--ensemble", "1"]
                run, peak = run_child(
                    base + ["--seconds", str(args.seconds / MEASURE_PROCESSES),
                            "--trace", "0"] + ensemble,
                    deadline,
                )
                runs.append(run)
                rss.append(peak)
                setups.append(run["setup_s"])
        result = {
            k: sum(r[k] for r in runs)
            for k in ("offered", "writes", "completed", "shed", "wrong", "missing",
                      "duplicated", "lost_writes", "stale", "diverged_runs")
        }
        errors = result["wrong"] + result["missing"] + result["duplicated"] + result["lost_writes"]
        result["failed_fraction"] = (result["shed"] + errors) / (result["offered"] + result["writes"])
        result["stale_fraction"] = result["stale"] / max(1, result["completed"])
        for k in ("serve_ms_p50", "serve_ms_tail", "recover_ms_p50"):
            result[k] = statistics.median(r[k] for r in runs)
        for k in ("modeled_kqps", "modeled_p50_us", "modeled_p99_us"):
            result[k] = runs[0][k]
        quiet_setups = uncontended(setups)
        result["setup_s"] = statistics.median(quiet_setups)
        result["peak_rss_mb"] = statistics.median(rss)
        metrics = pick(result, end_to_end, "the end-to-end run")
        first = runs[0]
        print(f"workload {args.workload}, seed {args.seed}: {len(runs)} processes of "
              f"{first['samples']} serving calls and {first['recoveries']} recoveries each; "
              f"modeled clock over {first['ensemble']} traces; "
              f"set-up median of {len(setups)} processes")
        print(f"serve_ms_tail: per process the p{first['tail_percentile']:g} of its calls "
              f"({first['tail_beyond']} beyond it), median over processes")
        print("outside contended stretches: "
              f"{sum(r['quiet_samples'] for r in runs)} of {sum(r['samples'] for r in runs)} "
              f"serving calls, {sum(r['quiet_recoveries'] for r in runs)} of "
              f"{sum(r['recoveries'] for r in runs)} recoveries, "
              f"{len(quiet_setups)} of {len(setups)} set-ups")
        for name, m in metrics.items():
            print(f"  {name:16s} {m['value']:>14.6f} {m['unit']}")

    print_gate(result)
    errors = result["wrong"] + result["missing"] + result["duplicated"] + result["lost_writes"]
    failed = errors + result["diverged_runs"]
    attempted = result["offered"] + result["writes"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
