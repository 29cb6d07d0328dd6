"""Command line behaviour: outputs, exit codes, single-worker runs."""

from __future__ import annotations

import json
import weakref

import pytest

from gracefulperms import report, search
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


@pytest.mark.parametrize("args,expected", [((), None), (("--endpoint", "3"), {"endpoint": 3})])
def test_count_json_names_the_constraint(capsys, args, expected):
    code, out, _ = run(capsys, "count", "--n", "7", *args, "--format", "json")
    assert code == 0 and json.loads(out)["constraint"] == expected


def test_count_stats_lines(capsys):
    code, out, _ = run(capsys, "count", "--n", "7", "--stats")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "32"
    assert len(lines) == 8  # seven levels plus the count
    assert lines[0].split() == ["level", "6", "classes", "1", "nodes", "1", "seconds", "0.000"]
    for line in lines[1:-1]:
        words = line.split()
        assert words[-2] == "seconds" and float(words[-1]) >= 0


def test_commands_start_no_worker_pool(capsys, monkeypatch):
    """Every counting command runs in one process, whatever the core count."""

    def no_pool(*args, **kwargs):
        raise AssertionError("the CLI must not start worker processes")

    monkeypatch.setattr(search.multiprocessing, "get_context", no_pool)
    code, out, _ = run(capsys, "count", "--n", "16")
    assert code == 0 and out.strip() == "55920"
    code, out, _ = run(capsys, "table", "--from", "10", "--to", "12")
    assert code == 0 and out.splitlines() == ["10  296", "11  648", "12  1328"]
    code, out, _ = run(capsys, "ratios", "--from", "10", "--to", "12")
    assert code == 0 and out.splitlines() == ["10  2.189", "11  2.049"]
    code, out, _ = run(capsys, "bound", "--m", "5", "--j", "2")
    assert code == 0 and out.splitlines() == ["count = 10", "gamma = 1.2589"]


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


def test_resume_frees_the_loaded_map_after_its_expansion(capsys, tmp_path, monkeypatch):
    """``count --resume`` keeps no reference to the map it loaded: by the
    first checkpoint written after the resume, the map and its arrays
    are freed."""
    ckdir = tmp_path / "ck"
    args = ("count", "--n", "20", "--endpoints", "5,15", "--checkpoint-dir", str(ckdir))
    assert run(capsys, *args)[0] == 0
    for path in ckdir.glob("*.ckpt"):
        if int(path.stem[-3:]) < 9:
            path.unlink()
    refs = []
    freed = []
    real_load, real_save = report.load_checkpoint, report.save_checkpoint

    def load(*a, **kw):
        m = real_load(*a, **kw)
        refs.extend(weakref.ref(x) for x in (m, m.keys, m.mult))
        return m

    def save(*a, **kw):
        freed.append([ref() is None for ref in refs])
        real_save(*a, **kw)

    monkeypatch.setattr(report, "load_checkpoint", load)
    monkeypatch.setattr(report, "save_checkpoint", save)
    code, out, err = run(capsys, *args, "--resume")
    assert code == 0 and out.strip() == "4382"
    assert "(level 9)" in err
    assert len(freed) == 9 and freed[0] == [True, True, True]


def test_resume_falls_back_past_a_damaged_deepest_checkpoint(capsys, tmp_path):
    ckdir = tmp_path / "ck"
    args = ("count", "--n", "20", "--endpoints", "5,15", "--checkpoint-dir", str(ckdir))
    assert run(capsys, *args)[0] == 0
    deepest = ckdir / "g20_e5-15_level000.ckpt"
    blob = bytearray(deepest.read_bytes())
    blob[25] ^= 0xFF  # the first record's first free count, now above 2
    deepest.write_bytes(bytes(blob))
    code, out, err = run(capsys, *args, "--resume")
    assert code == 0 and out.strip() == "4382"
    assert f"warning: cannot resume from {deepest}" in err
    assert "record 0 violates state invariants" in err
    assert "g20_e5-15_level001.ckpt (level 1)" in err
    assert "starting fresh" not in err


def test_resume_reports_a_multiplicity_overflow(capsys, tmp_path):
    """A checkpoint can pass every load check and still hold
    multiplicities near 2**128; the resumed count that overflows on them
    ends with an error line and exit status 1, not a traceback."""
    levels = {}
    search.count(12, on_level=lambda cmap: levels.setdefault(cmap.level, cmap))
    cmap = levels[6]
    cmap.mult[:, :2] = 2**64 - 1  # every direct slot at 2**128 - 1
    report.save_checkpoint(cmap, tmp_path / report.checkpoint_filename(12, None, 6))
    code, out, err = run(capsys, "count", "--n", "12", "--checkpoint-dir", str(tmp_path),
                         "--resume")
    assert code == 1 and out == ""
    assert "(level 6)" in err
    assert err.splitlines()[-1].startswith("error: multiplicity ")
    assert "does not fit in 128 bits" in err


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
    code, _, err = run(capsys, "count", "--n", "7", "--endpoints", "1,7")
    assert code == 2 and "argument --endpoints:" in err
    code, _, err = run(capsys, "count", "--n", "7", "--endpoints=-1,2")
    assert code == 2 and "argument --endpoints:" in err
    code, _, err = run(capsys, "enumerate", "--n", "7", "--endpoint", "7")
    assert code == 2 and "argument --endpoint:" in err
    code, _, err = run(capsys, "count", "--n", "0")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "count", "--n", "7", "--endpoint", "1", "--endpoints", "0,6")
    assert code == 2
    code, _, _ = run(capsys, "nosuchcommand")
    assert code == 2
    code, _, err = run(capsys, "count", "--n", "7", "--threads", "2")
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
    for threshold in ("inf", "-1"):
        code, _, err = run(capsys, "bound", "--m", "3", "--j", "1", "--threshold", threshold)
        assert code == 2 and "argument --threshold:" in err


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--from", "1", "--to", "7", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,count"
    assert out.splitlines()[-1] == "7,32"


def test_table_budget_refusal(capsys):
    code, _, err = run(capsys, "table", "--from", "1", "--to", "60", "--budget-mb", "64")
    assert code == 1
    assert "refused" in err


def test_table_budget_refuses_forty_labels_in_136_mib(capsys):
    # count(40) peaks at about 138 MiB, so this must refuse before starting.
    code, out, err = run(capsys, "table", "--from", "40", "--to", "40", "--budget-mb", "136")
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


def test_enumerate_refuses_a_walk_past_the_recursion_limit(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "1100", "--limit", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("refused:") and "n=1100" in err


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
    """``count --stats`` prints the peak line of the former ``stats`` command;
    JSON output gives the same per-level record, each level's time included."""
    code, _, err = run(capsys, "count", "--n", "7", "--stats")
    assert code == 0 and err.strip() == "peak classes: 4"
    assert run(capsys, "stats", "--n", "7")[0] == 2
    code, out, _ = run(capsys, "count", "--n", "7", "--format", "json")
    levels = json.loads(out)["levels"]
    assert code == 0 and [s["level"] for s in levels] == list(range(6, -1, -1))
    assert levels[0]["seconds"] == 0.0
    assert all(isinstance(s["seconds"], float) and s["seconds"] >= 0 for s in levels)


def test_count_stats_needs_the_plain_format(capsys):
    """``--stats`` with CSV or JSON output is a usage error naming both
    options, not a flag dropped without a word."""
    for fmt in ("csv", "json"):
        code, out, err = run(capsys, "count", "--n", "7", "--stats", "--format", fmt)
        assert code == 2 and out == ""
        assert "--stats" in err and f"--format {fmt}" in err
