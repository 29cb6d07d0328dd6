"""The benchmark's workloads: set-up, the timed calls into gracefulperms, checks.

Run as a script, this performs one round of one workload in a fresh process
and prints one JSON line; ``run.py`` starts one such process per round, so
each round has its own set-up time and its own peak resident set:

    python3 perfbench/workloads.py --workload constraint_sweep --seed 3

Every count is checked against ``refcount`` (an independent counter) or
against a property the method must have, never against a stored copy of
this package's own output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import struct
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import refcount
from tracing import Tracer, trace_package

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("wide_unconstrained", "constrained_checkpointed", "constraint_sweep")

#: Checkpoint layout as README documents it: magic, header, then per record
#: the 2n-byte key and two 16-byte little-endian multiplicities.
_MAGIC = b"GRACEFL1"
_HEADER = struct.Struct("<HHBBBHQ")
_TAG_TWO = 2


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the benchmark runs ``FULL``, its tests smaller ones."""

    wide_n: int = 36
    checkpoint_case: tuple[int, int, int] = (56, 14, 42)
    sweep_count_max: int = 16
    sweep_dfs_max: int = 12
    sweep_enumerate_max: int = 16


FULL = Sizes()


def import_package() -> SimpleNamespace:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from gracefulperms import bounds, report, search, state

    return SimpleNamespace(bounds=bounds, report=report, search=search, state=state)


def expected_count(n: int, a=None, b=None) -> int:
    """The reference value: stored for the full-size cases, else computed."""
    if (n, a, b) in refcount.STORED_CASES:
        return refcount.reference_value(n, a, b)
    return refcount.compute(n, a, b)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Round:
    """Times the calls into the package and collects failed checks."""

    def __init__(self) -> None:
        self.solve_s = 0.0
        self.ops = 0
        self.failures: list[str] = []

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.solve_s += time.perf_counter() - t0
            self.ops += 1

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# Inputs.  They are fixed cases; the seed only shuffles the sweep's calls.
# ---------------------------------------------------------------------------


def build_inputs(workload: str, sizes: Sizes, seed: int, pkg) -> SimpleNamespace:
    search = pkg.search
    if workload == "wide_unconstrained":
        return SimpleNamespace(n=sizes.wide_n, planned_ops=1)
    if workload == "constrained_checkpointed":
        n, a, b = sizes.checkpoint_case
        directory = OUT / f"ckpt-{os.getpid()}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        # count, a save per level below the root, find, load, resume,
        # gamma_value and two certify_bound calls
        return SimpleNamespace(n=n, a=a, b=b, constraint=search.TwoEndpoints(a, b),
                               directory=directory, planned_ops=n - 1 + 7)
    if workload == "constraint_sweep":
        cases = [("count", n, c) for n in range(1, sizes.sweep_count_max + 1)
                 for c in all_constraints(n, search)]
        cases += [("dfs_count", n, c) for n in range(1, sizes.sweep_dfs_max + 1)
                  for c in all_constraints(n, search)]
        cases += [("enumerate_graceful", n, None)
                  for n in range(1, sizes.sweep_enumerate_max + 1)]
        random.Random(seed).shuffle(cases)
        return SimpleNamespace(cases=cases, planned_ops=len(cases))
    raise ValueError(f"unknown workload {workload!r}")


def all_constraints(n: int, search) -> list:
    return ([None] + [search.OneEndpoint(a) for a in range(n)]
            + [search.TwoEndpoints(a, b) for a in range(n) for b in range(n)])


def release_inputs(inputs) -> None:
    directory = getattr(inputs, "directory", None)
    if directory is not None:
        shutil.rmtree(directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# wide_unconstrained
# ---------------------------------------------------------------------------


def solve_wide(pkg, inp, rnd: Round, workers: int):
    return rnd.call(pkg.search.count, inp.n, workers=workers)


def check_wide(pkg, inp, result, rnd: Round) -> None:
    expected = expected_count(inp.n)
    rnd.check(result.count == expected, f"G({inp.n}) = {result.count}, reference {expected}")


# ---------------------------------------------------------------------------
# constrained_checkpointed
# ---------------------------------------------------------------------------


def gamma_text(scaled: int) -> str:
    """A truncated gamma held as an integer scaled by 10**4, as a decimal."""
    return f"{scaled // 10**4}.{scaled % 10**4:04d}"


def solve_checkpointed(pkg, inp, rnd: Round, workers: int):
    search, report, bounds = pkg.search, pkg.report, pkg.bounds
    n, c, directory = inp.n, inp.constraint, inp.directory

    def on_level(cmap):
        rnd.ops += 1
        path = directory / report.checkpoint_filename(n, c, cmap.level)
        report.save_checkpoint(cmap, path, c)

    fresh = rnd.call(search.count, n, c, workers=workers, on_level=on_level)
    widest = max(fresh.levels, key=lambda s: s.class_count)
    # A run interrupted right after it saved the widest level: the deeper
    # levels are moved aside (they are still checked), so the resume
    # search finds the widest one.
    below = directory / "below"
    below.mkdir()
    for level in range(widest.level):
        name = report.checkpoint_filename(n, c, level)
        (directory / name).rename(below / name)
    found = rnd.call(report.find_resume_checkpoint, directory, n, c)
    loaded = rnd.call(report.load_checkpoint, found, expect_n=n, expect_constraint=c)
    resumed = rnd.call(search.count, n, c, workers=workers, initial=loaded)
    gamma = rnd.call(bounds.gamma_value, resumed.count, n)
    scaled = round(gamma * 10**4)
    holds = rnd.call(bounds.certify_bound, resumed.count, n, gamma_text(scaled))
    above = rnd.call(bounds.certify_bound, resumed.count, n, gamma_text(scaled + 1))
    return SimpleNamespace(fresh=fresh, widest=widest, found=found, loaded=loaded,
                           resumed=resumed, scaled=scaled, holds=holds, above=above)


def read_checkpoint(path: Path) -> SimpleNamespace:
    """Parse a checkpoint file without the package: header fields, record
    count and the sum of all multiplicities."""
    blob = path.read_bytes()
    if blob[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: bad magic")
    version, n, tag, a, b, level, records = _HEADER.unpack_from(blob, len(_MAGIC))
    width = 2 * n + 32
    body = blob[len(_MAGIC) + _HEADER.size:]
    if len(body) != records * width:
        raise ValueError(f"{path}: {len(body)} record bytes, header promises {records * width}")
    import numpy as np

    rows = np.frombuffer(body, dtype=np.uint8).reshape(records, width)
    # 32-bit limbs summed in 64 bits cannot overflow below 2**32 records.
    limbs = rows[:, 2 * n:].copy().view("<u4").sum(axis=0, dtype=np.uint64).tolist()
    nodes = sum(int(v) << (32 * (i % 4)) for i, v in enumerate(limbs))
    return SimpleNamespace(version=version, n=n, tag=tag, a=a, b=b, level=level,
                           records=records, nodes=nodes)


def check_checkpointed(pkg, inp, out, rnd: Round) -> None:
    report = pkg.report
    n, a, b, c = inp.n, inp.a, inp.b, inp.constraint
    expected = expected_count(n, a, b)
    rnd.check(out.fresh.count == expected,
              f"G({n};{a},{b}) = {out.fresh.count}, reference {expected}")
    rnd.check(out.resumed.count == out.fresh.count,
              f"resumed count {out.resumed.count} != fresh count {out.fresh.count}")
    rnd.check(out.found == inp.directory / report.checkpoint_filename(n, c, out.widest.level),
              f"resume search found {out.found}, not level {out.widest.level}")
    rnd.check((out.loaded.n, out.loaded.level, len(out.loaded.entries), out.loaded.node_sum())
              == (n, out.widest.level, out.widest.class_count, out.widest.node_sum),
              "loaded widest level differs from the level that was saved")
    tail = [(s.level, s.class_count, s.node_sum) for s in out.fresh.levels
            if s.level <= out.widest.level]
    rnd.check([(s.level, s.class_count, s.node_sum) for s in out.resumed.levels] == tail,
              "resumed levels differ from the fresh run's")
    for s in out.fresh.levels[1:]:
        name = report.checkpoint_filename(n, c, s.level)
        path = inp.directory / name
        if not path.exists():
            path = inp.directory / "below" / name
        try:
            ck = read_checkpoint(path)
        except (OSError, ValueError) as exc:
            rnd.check(False, f"level {s.level} checkpoint unreadable: {exc}")
            continue
        rnd.check((ck.n, ck.tag, ck.a, ck.b, ck.level, ck.records, ck.nodes)
                  == (n, _TAG_TWO, a, b, s.level, s.class_count, s.node_sum),
                  f"level {s.level} checkpoint does not load back as written")
    cnt, t = out.resumed.count, out.scaled
    rnd.check(t ** n <= cnt * 10 ** (4 * n) < (t + 1) ** n,
              f"gamma {gamma_text(t)} is not {cnt}**(1/{n}) truncated to 4 places")
    rnd.check(out.holds is True, f"certify_bound fails at gamma {gamma_text(t)}")
    rnd.check(out.above is False, f"certify_bound holds at gamma + 1e-4 = {gamma_text(t + 1)}")


# ---------------------------------------------------------------------------
# constraint_sweep
# ---------------------------------------------------------------------------


def solve_sweep(pkg, inp, rnd: Round, workers: int):
    search = pkg.search
    results = {}
    for kind, n, c in inp.cases:
        if kind == "count":
            results[kind, n, c] = rnd.call(search.count, n, c, workers=workers).count
        elif kind == "dfs_count":
            results[kind, n, c] = rnd.call(search.dfs_count, n, c)
        else:
            results[kind, n, c] = rnd.call(search.enumerate_graceful, n)
    return results


def is_graceful(seq) -> bool:
    n = len(seq)
    return (sorted(seq) == list(range(n))
            and sorted(abs(x - y) for x, y in zip(seq, seq[1:])) == list(range(1, n)))


def check_sweep(pkg, inp, results, rnd: Round) -> None:
    search = pkg.search
    top = max(n for _, n, _ in inp.cases)
    tables = {n: refcount.endpoint_table(n) for n in range(1, top + 1)}

    def reference(n, c):
        table = tables[n]
        if c is None:
            return sum(table.values())
        if isinstance(c, search.OneEndpoint):
            return sum(v for (x, _), v in table.items() if x == c.a)
        return table.get((c.a, c.b), 0)

    counts = {}
    for (kind, n, c), value in results.items():
        if kind == "enumerate_graceful":
            continue
        expected = reference(n, c)
        rnd.check(value == expected, f"{kind}({n}, {c}) = {value}, reference {expected}")
        if kind == "count":
            counts[n, c] = value

    two, one = search.TwoEndpoints, search.OneEndpoint
    for n in sorted({n for n, _ in counts}):
        last = n - 1
        for a in range(n):
            for b in range(n):
                g = counts[n, two(a, b)]
                rnd.check(g == counts[n, two(b, a)] == counts[n, two(last - a, last - b)],
                          f"G({n};{a},{b}) breaks reversal or complement symmetry")
            rnd.check(sum(counts[n, two(a, b)] for b in range(n)) == counts[n, one(a)],
                      f"sum over b of G({n};{a},b) != G({n};{a})")
        rnd.check(sum(counts[n, one(a)] for a in range(n)) == counts[n, None],
                  f"sum over a of G({n};a) != G({n})")

    for (kind, n, _), result in results.items():
        if kind != "enumerate_graceful":
            continue
        perms = [tuple(p.seq) for p in result.permutations]
        found = set(perms)
        rnd.check(len(perms) == len(found) == reference(n, None),
                  f"enumerate_graceful({n}) lists {len(perms)} permutations "
                  f"({len(found)} distinct), G({n}) = {reference(n, None)}")
        rnd.check(all(is_graceful(p) for p in found), f"enumerate_graceful({n}) lists a non-graceful sequence")
        rnd.check(all(p[::-1] in found and tuple(n - 1 - x for x in p) in found for p in found),
                  f"enumerate_graceful({n}) is not closed under reversal and complement")
        ends = {}
        for p in perms:
            ends[p[0], p[-1]] = ends.get((p[0], p[-1]), 0) + 1
        rnd.check(ends == tables[n], f"enumerate_graceful({n}) has the wrong endpoint counts")


SOLVE = {"wide_unconstrained": solve_wide,
         "constrained_checkpointed": solve_checkpointed,
         "constraint_sweep": solve_sweep}
CHECK = {"wide_unconstrained": check_wide,
         "constrained_checkpointed": check_checkpointed,
         "constraint_sweep": check_sweep}


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------


def run_round(workload: str, pkg, inputs, *, workers: int = 1, tracer: Tracer = None) -> dict:
    """Solve, read the peak resident set, then check; returns the round's record."""
    rnd = Round()
    setup_rss = peak_rss_mb()
    if tracer is not None:
        trace_package(tracer, pkg.search, pkg.report, pkg.bounds)
    try:
        out = SOLVE[workload](pkg, inputs, rnd, workers)
    except Exception:
        traceback.print_exc()
        return {"ops": inputs.planned_ops, "failed": inputs.planned_ops, "failures": []}
    finally:
        if tracer is not None:
            tracer.restore()
    peak = peak_rss_mb()
    record = {"ops": rnd.ops, "failed": 0, "solve_s": rnd.solve_s, "peak_rss_mb": peak}
    if tracer is not None:
        record["layers"] = layer_metrics(workload, pkg, out, tracer, peak - setup_rss)
    CHECK[workload](pkg, inputs, out, rnd)
    rnd.check(rnd.ops == inputs.planned_ops, f"{rnd.ops} calls made, {inputs.planned_ops} planned")
    record["failures"] = rnd.failures
    return record


def layer_metrics(workload, pkg, out, tracer: Tracer, grown_mb: float) -> dict:
    """Per-layer figures from the spans of one traced round."""
    if workload == "constrained_checkpointed":
        # The per-record calls load_checkpoint makes, over the widest level.
        state = pkg.state
        with tracer.span("state.validate"):
            for key in out.loaded.entries:
                state.encode(state.decode(key))
                state.complement_key(key)
    spans = tracer.spans
    m = {f"{layer}.self_s": v for layer, v in tracer.self_times().items()}
    expands = [s for s in spans if s["name"] == "search.expand_level"]
    if expands:
        m["search.expand_s"] = sum(s["end"] - s["start"] for s in expands)
        widest = max(expands, key=lambda s: s["out_classes"])
        m["search.expand_widest_s"] = widest["end"] - widest["start"]
        m["search.classes_per_s"] = sum(s["in_classes"] for s in expands) / m["search.expand_s"]
    m["search.node_sum_s"] = sum(tracer.durations("search.node_sum"))
    m["search.finalize_s"] = sum(tracer.durations("search.finalize"))
    counts = [s for s in spans if s["name"] == "search.count"]
    if counts:
        m["search.count_calls"] = len(counts)
        m["search.count_call_ms"] = 1000 * statistics.median(s["end"] - s["start"] for s in counts)
        m["search.resume_s"] = counts[-1]["end"] - counts[-1]["start"]
        m["search.peak_classes"] = max(s["classes"] for s in counts)
        m["search.bytes_per_class"] = grown_mb * 2**20 / m["search.peak_classes"]
    if workload == "wide_unconstrained":
        m["search.classes_total"] = sum(s.class_count for s in out.levels)
    m["search.dfs_count_s"] = sum(tracer.durations("search.dfs_count"))
    enums = [s for s in spans if s["name"] == "search.enumerate_graceful"]
    if enums:
        m["search.enumerate_per_s"] = (sum(s["permutations"] for s in enums)
                                       / sum(s["end"] - s["start"] for s in enums))
    saves = [s for s in spans if s["name"] == "report.save_checkpoint"]
    if saves:
        m["report.save_s"] = sum(s["end"] - s["start"] for s in saves)
        m["report.save_mb"] = sum(s["bytes"] for s in saves) / 1e6
    loads = [s for s in spans if s["name"] == "report.load_checkpoint"]
    if loads:
        m["report.load_s"] = sum(s["end"] - s["start"] for s in loads)
        m["report.load_us_per_record"] = 1e6 * m["report.load_s"] / sum(s["records"] for s in loads)
    validate = tracer.durations("state.validate")
    if validate:
        m["state.validate_s"] = validate[0]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one round of one workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only its time")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="trace the round and write its spans to this file")
    args = parser.parse_args(argv)

    pkg = import_package()
    inputs = build_inputs(args.workload, FULL, args.seed, pkg)
    ready = time.monotonic()
    try:
        record = {}
        if not args.setup_only:
            tracer = Tracer() if args.trace_out is not None else None
            record = run_round(args.workload, pkg, inputs, workers=args.workers, tracer=tracer)
            if tracer is not None:
                tracer.write(args.trace_out, workload=args.workload, seed=args.seed)
    finally:
        release_inputs(inputs)
    if args.spawned_at is not None:
        record["setup_s"] = ready - args.spawned_at
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
