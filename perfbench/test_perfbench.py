"""Tests of the benchmark itself, on reduced sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import refcount
import workloads
from tracing import Tracer

SMALL = workloads.Sizes(wide_n=14, checkpoint_case=(20, 5, 15), sweep_count_max=7,
                        sweep_dfs_max=6, sweep_enumerate_max=7)


@pytest.fixture
def pkg():
    return workloads.import_package()


def small_round(pkg, workload, tracer=None):
    inputs = workloads.build_inputs(workload, SMALL, 7, pkg)
    try:
        return workloads.run_round(workload, pkg, inputs, tracer=tracer), inputs
    finally:
        workloads.release_inputs(inputs)


@pytest.mark.parametrize("n", range(1, 9))
def test_reference_counter_matches_brute_force(n):
    ends = {}
    for p in itertools.permutations(range(n)):
        if sorted(abs(x - y) for x, y in zip(p, p[1:])) == list(range(1, n)):
            ends[p[0], p[-1]] = ends.get((p[0], p[-1]), 0) + 1
    assert refcount.endpoint_table(n) == ends
    assert refcount.count_all(n) == sum(ends.values())
    for a in range(n):
        for b in range(n):
            assert refcount.count_two_endpoints(n, a, b) == ends.get((a, b), 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_run_passes(pkg, workload):
    record, inputs = small_round(pkg, workload)
    assert record["failures"] == []
    assert record["failed"] == 0
    assert record["ops"] == inputs.planned_ops
    assert record["solve_s"] > 0 and record["peak_rss_mb"] > 0


def test_reduced_traced_run_reports_layers(pkg):
    tracer = Tracer()
    record, _ = small_round(pkg, "constrained_checkpointed", tracer)
    assert record["failures"] == []
    layers = record["layers"]
    for name in ("search.expand_s", "search.resume_s", "report.save_s", "report.load_s",
                 "report.load_us_per_record", "state.validate_s", "search.self_s"):
        assert layers[name] > 0, name
    levels = tracer.level_records()
    assert [r["level"] for r in levels if r["count_span"] == levels[0]["count_span"]] == list(range(18, -1, -1))
    # The tracer put the package's own functions back.
    assert pkg.search.count.__name__ == "count"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_count_off_by_one_fails_the_checks(pkg, monkeypatch, workload):
    real = pkg.search.count

    def off_by_one(n, *args, **kwargs):
        result = real(n, *args, **kwargs)
        return dataclasses.replace(result, count=result.count + (n == 5 or n > 10))

    monkeypatch.setattr(pkg.search, "count", off_by_one)
    record, _ = small_round(pkg, workload)
    assert record["failures"]


@pytest.mark.parametrize("offset, fails_to_load", [(-1, False), (-40, True)])
def test_flipped_checkpoint_byte_fails_the_run(pkg, monkeypatch, offset, fails_to_load):
    """A flip in the last multiplicity loads a wrong map; one in a key is refused."""
    real = pkg.report.load_checkpoint

    def flip_then_load(path, **kwargs):
        blob = bytearray(Path(path).read_bytes())
        blob[offset] ^= 0x01
        Path(path).write_bytes(bytes(blob))
        return real(path, **kwargs)

    monkeypatch.setattr(pkg.report, "load_checkpoint", flip_then_load)
    record, inputs = small_round(pkg, "constrained_checkpointed")
    if fails_to_load:
        assert record["failed"] == inputs.planned_ops
    else:
        assert record["failed"] == 0
        assert any("resumed" in f for f in record["failures"])
        assert any("does not load back" in f for f in record["failures"])


def test_gamma_text_is_the_truncated_decimal():
    assert workloads.gamma_text(23772) == "2.3772"
    assert workloads.gamma_text(20001) == "2.0001"


def test_run_refuses_without_the_package(tmp_path):
    here = Path(workloads.__file__).parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "constraint_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
