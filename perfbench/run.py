"""Benchmark of gracefulperms: three single-worker workloads, checked counts.

    python3 perfbench/run.py --workload wide_unconstrained --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Each round of a workload runs in a fresh process (``workloads.py``), one
after another, until the next round would end after ``--seconds``; a run
makes at least one round.  Before the rounds, a few processes only set up,
so that ``setup_s`` is a median even when one round fills the run.  The
last line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics (medians over the rounds), with ``--trace 1`` the
per-layer metrics of a traced round of every workload.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import HERE, OUT, SRC, WORKLOADS

#: Set-up-only processes started before the rounds of every run.
SETUP_PROBES = 7

#: No thread pool in the numeric libraries either: one worker means one core.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metric -> (workload whose traced round measures it, unit).
PER_LAYER = {
    "search.expand_s": ("wide_unconstrained", "s"),
    "search.expand_widest_s": ("wide_unconstrained", "s"),
    "search.classes_per_s": ("wide_unconstrained", "1/s"),
    "search.node_sum_s": ("wide_unconstrained", "s"),
    "search.classes_total": ("wide_unconstrained", "count"),
    "search.peak_classes": ("wide_unconstrained", "count"),
    "search.bytes_per_class": ("wide_unconstrained", "B"),
    "search.finalize_s": ("constrained_checkpointed", "s"),
    "search.resume_s": ("constrained_checkpointed", "s"),
    "report.save_s": ("constrained_checkpointed", "s"),
    "report.save_mb": ("constrained_checkpointed", "MB"),
    "report.load_s": ("constrained_checkpointed", "s"),
    "report.load_us_per_record": ("constrained_checkpointed", "us"),
    "state.validate_s": ("constrained_checkpointed", "s"),
    "search.count_calls": ("constraint_sweep", "count"),
    "search.count_call_ms": ("constraint_sweep", "ms"),
    "search.dfs_count_s": ("constraint_sweep", "s"),
    "search.enumerate_per_s": ("constraint_sweep", "1/s"),
}
LAYERS = ("search", "report", "state", "bounds")


class BenchmarkError(Exception):
    """A round could not be run or did not report."""


def spawn(workload: str, seed: int, *extra: str) -> dict:
    """Run one ``workloads.py`` process to its end and return its record."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    started = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(started)], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} round exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """Untraced rounds of one workload; returns the end-to-end result and the rounds."""
    t0 = time.monotonic()
    setups = [spawn(workload, seed, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    rounds: list[dict] = []
    longest = 0.0
    while True:
        t1 = time.monotonic()
        rounds.append(spawn(workload, seed))
        longest = max(longest, time.monotonic() - t1)
        if time.monotonic() - t0 + longest > seconds:
            break
    done = [r for r in rounds if not r["failed"]]
    if not done:
        raise BenchmarkError(f"every round of {workload} failed")
    values = {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
        "solve_s": statistics.median(r["solve_s"] for r in done),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    result = summary(rounds, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()})
    return result, rounds


def traced(workload: str, seed: int) -> tuple[dict, list[dict]]:
    """A traced round of every workload, then the untraced references."""
    OUT.mkdir(exist_ok=True)
    rounds, layers = [], {}
    for w in WORKLOADS:
        path = OUT / f"trace-{workload}-seed{seed}-{w}.json"
        rounds.append(spawn(w, seed, "--trace-out", str(path)))
        layers[w] = rounds[-1].get("layers", {})
    plain = spawn(workload, seed)
    two = spawn("wide_unconstrained", seed, "--workers", "2")
    rounds += [plain, two]
    if any(r["failed"] for r in rounds):
        raise BenchmarkError("a traced or reference round failed")
    metrics = {name: {"value": layers[w][name], "unit": unit}
               for name, (w, unit) in PER_LAYER.items()}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = {
            "value": sum(m.get(f"{layer}.self_s", 0.0) for m in layers.values()), "unit": "s"}
    metrics["search.workers1_s"] = {"value": rounds[0]["solve_s"], "unit": "s"}
    metrics["search.workers2_s"] = {"value": two["solve_s"], "unit": "s"}
    overhead = rounds[WORKLOADS.index(workload)]["solve_s"] - plain["solve_s"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return summary(rounds, metrics), rounds


def summary(rounds: list[dict], metrics: dict) -> dict:
    failures = [f for r in rounds for f in r.get("failures", [])]
    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def describe(workload: str, result: dict, rounds: list[dict]) -> str:
    parts = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    solves = " ".join(f"{r['solve_s']:.3f}" for r in rounds if "solve_s" in r)
    return (f"{workload}: " + ", ".join(parts) + f"; {len(rounds)} rounds (solve_s {solves}), operations "
            f"attempted {result['attempted']}, failed {result['failed']}, "
            f"checks {'passed' if result['correct'] else 'FAILED'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gracefulperms" / "__init__.py").is_file():
        print(f"benchmark: the package sources are missing ({SRC / 'gracefulperms'})",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], rounds = (traced(name, args.seed) if args.trace
                                     else measure(name, args.seed, args.seconds))
            print(describe(name, results[name], rounds))
    except (BenchmarkError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
