"""Command line behaviour: outputs, exit codes, env overrides."""

from __future__ import annotations

import json

import pytest

from gracefulperms.cli import main
from gracefulperms.search import is_graceful


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_plain(capsys):
    code, out, _ = run(capsys, "count", "--n", "20", "--endpoints", "5,15")
    assert code == 0
    assert out.strip() == "4382"


def test_count_one_endpoint(capsys):
    code, out, _ = run(capsys, "count", "--n", "7", "--endpoint", "1")
    assert code == 0
    assert out.strip() == "4"


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--n", "7", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,count", "7,32"]


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--n", "20", "--endpoints", "5,15", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == "4382"
    assert doc["constraint"] == {"endpoints": [5, 15]}
    assert len(doc["levels"]) == 20


def test_count_stats_lines(capsys):
    code, out, _ = run(capsys, "count", "--n", "7", "--stats")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "32"
    assert len(lines) == 8  # seven levels plus the count
    assert lines[0].split() == ["level", "6", "classes", "1", "nodes", "1"]


def test_count_threads_agree(capsys):
    _, out1, _ = run(capsys, "count", "--n", "16", "--threads", "1")
    _, out8, _ = run(capsys, "count", "--n", "16", "--threads", "8")
    assert out1 == out8


def test_count_threads_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GRACEFUL_THREADS", "2")
    code, out, _ = run(capsys, "count", "--n", "12")
    assert code == 0 and out.strip() == "1328"  # matches the tree-search route


def test_count_bad_env_threads(capsys, monkeypatch):
    monkeypatch.setenv("GRACEFUL_THREADS", "zero")
    code, _, err = run(capsys, "count", "--n", "7")
    assert code == 2
    assert "GRACEFUL_THREADS" in err


def test_count_checkpoint_and_resume(capsys, tmp_path):
    ckdir = str(tmp_path / "ck")
    code, out, _ = run(capsys, "count", "--n", "20", "--endpoints", "5,15",
                       "--checkpoint-dir", ckdir)
    assert code == 0 and out.strip() == "4382"
    assert len(list((tmp_path / "ck").glob("*.ckpt"))) == 19
    code, out, err = run(capsys, "count", "--n", "20", "--endpoints", "5,15",
                         "--checkpoint-dir", ckdir, "--resume")
    assert code == 0 and out.strip() == "4382"
    assert "resuming" in err


def test_count_resume_requires_dir(capsys):
    code, _, err = run(capsys, "count", "--n", "7", "--resume")
    assert code == 2
    assert "--resume" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "count", "--n", "7", "--endpoint", "9")
    assert code == 2 and "--endpoint" in err
    code, _, err = run(capsys, "count", "--n", "7", "--endpoints", "1;2")
    assert code == 2 and "--endpoints" in err
    code, _, err = run(capsys, "count", "--n", "7", "--endpoints", "1,2,3")
    assert code == 2 and "--endpoints" in err
    code, _, err = run(capsys, "count", "--n", "0")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "count", "--n", "7", "--endpoint", "1", "--endpoints", "0,6")
    assert code == 2
    code, _, _ = run(capsys, "nosuchcommand")
    assert code == 2
    code, _, err = run(capsys, "count", "--n", "7", "--threads", "0")
    assert code == 2 and "--threads" in err
    code, _, err = run(capsys, "bound", "--m", "3", "--j", "3")
    assert code == 2 and "--j" in err
    code, _, err = run(capsys, "witness", "--m", "2", "--j", "2", "--r", "1")
    assert code == 2 and "--j" in err
    code, _, err = run(capsys, "table", "--from", "6", "--to", "3")
    assert code == 2 and "--to" in err
    code, _, err = run(capsys, "ratios", "--from", "4", "--to", "4")
    assert code == 2 and "--to" in err
    code, _, err = run(capsys, "bound", "--m", "2", "--j", "1", "--threshold", "abc")
    assert code == 2 and "--threshold" in err


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--from", "1", "--to", "7", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,count"
    assert out.splitlines()[-1] == "7,32"


def test_table_budget_refusal(capsys):
    code, _, err = run(capsys, "table", "--from", "1", "--to", "60", "--budget-mb", "64")
    assert code == 1
    assert "refused" in err


def test_table_budget_refuses_forty_labels_in_300_mib(capsys):
    # count(40) peaks at about 440 MiB, so this must refuse before starting.
    code, out, err = run(capsys, "table", "--from", "40", "--to", "40", "--budget-mb", "300")
    assert code == 1
    assert out == ""
    assert err.startswith("refused:")


def test_ratios(capsys):
    code, out, _ = run(capsys, "ratios", "--from", "1", "--to", "5")
    assert code == 0
    assert out.splitlines()[0].split() == ["1", "2.000"]


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    assert code == 0
    assert set(out.splitlines()) == {"[0,3,1,2]", "[2,1,3,0]", "[1,2,0,3]", "[3,0,2,1]"}


def test_enumerate_limit(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "7", "--limit", "3")
    assert code == 0
    assert len(out.splitlines()) == 3
    assert "truncated" in err


def test_bound_certified(capsys):
    code, out, _ = run(capsys, "bound", "--m", "10", "--j", "5", "--threshold", "1.52")
    assert code == 0
    assert out.splitlines() == ["count = 4382", "gamma = 1.5208", "certified: true"]


def test_bound_uncertified(capsys):
    code, out, _ = run(capsys, "bound", "--m", "10", "--j", "5", "--threshold", "1.53")
    assert code == 0
    assert out.splitlines()[-1] == "certified: false"


def test_bound_without_threshold(capsys):
    code, out, _ = run(capsys, "bound", "--m", "2", "--j", "1")
    assert code == 0
    assert out.splitlines() == ["count = 1", "gamma = 1.0000"]


def test_witness(capsys):
    code, out, err = run(capsys, "witness", "--m", "2", "--j", "1", "--r", "3",
                         "--iterations", "2")
    assert code == 0
    seq = tuple(int(x) for x in out.strip().strip("[]").split(","))
    assert is_graceful(seq)
    assert seq[0] == 1
    assert len(seq) == 11
    assert "graceful" in err


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "6")
    assert code == 0
    assert out.strip() == "all oracles agree"


def test_verify_refuses_past_brute_force_guard(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "12")
    assert code == 1
    assert "refused" in err


def test_stats(capsys):
    code, out, err = run(capsys, "stats", "--n", "7")
    assert code == 0
    assert len(out.splitlines()) == 7
    assert "peak classes" in err
