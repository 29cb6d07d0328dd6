"""Tables, ratios, JSON serialization and the binary checkpoint format."""

from __future__ import annotations

import json
import struct

import pytest

from gracefulperms import report
from gracefulperms.report import (
    CheckpointError,
    build_ratios,
    build_table,
    checkpoint_filename,
    count_result_json,
    emit_ratios,
    emit_table,
    find_resume_checkpoint,
    format_table,
    load_checkpoint,
    read_checkpoint_header,
    save_checkpoint,
)
import numpy as np

from gracefulperms.search import (
    ClassMap,
    ComputationRefused,
    MultiplicityPair,
    OneEndpoint,
    TwoEndpoints,
    count,
    expand_level,
    root_map,
)


def _class_map(n, level, entries):
    """A ClassMap holding exactly these {key: (direct, reflected)} records."""
    keys = sorted(entries)
    return ClassMap(
        n,
        level,
        np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(-1, 2 * n),
        np.array([entries[key] for key in keys], dtype=object).reshape(-1, 2),
    )


def _level_map(n, stop_level, constraint=None):
    m = root_map(n)
    while m.level > stop_level:
        m = expand_level(m, constraint)
    return m


# -- tables -------------------------------------------------------------------


def test_table_small_values():
    rows = build_table(1, 7)
    assert rows[-1] == (7, 32)
    assert (4, 4) in rows
    assert rows[0] == (1, 1)


def test_table_formats_parse_back():
    rows = build_table(1, 7)
    csv = format_table(rows, "csv")
    lines = csv.splitlines()
    assert lines[0] == "n,count"
    parsed = [tuple(map(int, line.split(","))) for line in lines[1:]]
    assert parsed == rows
    data = json.loads(format_table(rows, "json"))
    assert [(d["n"], int(d["count"])) for d in data] == rows
    plain = format_table(rows, "plain").splitlines()
    assert len(plain) == len(rows)
    assert plain[-1].split() == ["7", "32"]
    with pytest.raises(ValueError):
        format_table(rows, "tsv")


def test_table_budget_refusal():
    with pytest.raises(ComputationRefused):
        build_table(1, 60, budget_mb=256)
    # and a budget of None disables the guard for small tables
    assert build_table(3, 4, budget_mb=None) == [(3, 4), (4, 4)]


def test_table_validates_range():
    with pytest.raises(ValueError):
        build_table(0, 4)
    with pytest.raises(ValueError):
        build_table(5, 4)


def test_emit_table_writes_file(tmp_path):
    out = tmp_path / "table.csv"
    text = emit_table(1, 5, "csv", path=out)
    assert out.read_text() == text + "\n"


def test_ratios():
    rows = build_ratios(1, 8)
    assert rows[0] == (1, "2.000")
    assert rows[2] == (3, "1.000")
    assert rows[5] == (6, "1.333")  # 32/24 rounded half-up at 3 decimals
    assert len(rows) == 7
    assert emit_ratios(1, 4).splitlines()[0].split() == ["1", "2.000"]
    with pytest.raises(ValueError):
        build_ratios(3, 3)


# -- JSON result --------------------------------------------------------------


def test_count_result_json_schema():
    r = count(7, TwoEndpoints(0, 6))
    doc = count_result_json(r)
    assert doc["n"] == 7
    assert doc["constraint"] == {"endpoints": [0, 6]}
    assert doc["count"] == str(r.count)
    assert isinstance(doc["elapsed_ms"], int)
    assert doc["levels"][0]["level"] == 6
    assert doc["levels"][-1] == {
        "level": 0,
        "classes": r.levels[-1].class_count,
        "nodes": str(r.levels[-1].node_sum),
    }
    assert count_result_json(count(3))["constraint"] is None
    assert count_result_json(count(3, OneEndpoint(1)))["constraint"] == {"endpoint": 1}


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_round_trip_entrywise(tmp_path):
    m = _level_map(7, 3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    back = load_checkpoint(path, expect_n=7, expect_constraint=None)
    assert back.n == m.n and back.level == m.level
    assert back.entries == m.entries


def test_checkpoint_round_trip_is_byte_identical(tmp_path):
    c = TwoEndpoints(5, 15)
    m = _level_map(20, 11, c)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(m, p1, c)
    save_checkpoint(load_checkpoint(p1), p2, c)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_binary_layout(tmp_path):
    m = _level_map(2, 0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    blob = path.read_bytes()
    assert blob[:8] == b"GRACEFL1"
    version, n, tag, la, lb, level, records = struct.unpack("<HHBBBHQ", blob[8:25])
    assert (version, n, tag, la, lb, level, records) == (1, 2, 0, 0, 0, 0, 1)
    key = blob[25:29]
    assert key == bytes([1, 1, 1, 0])  # the path 0-1, both labels endpoints
    assert int.from_bytes(blob[29:45], "little") == 1
    assert int.from_bytes(blob[45:61], "little") == 0
    assert len(blob) == 61


def test_checkpoint_resume_matches_uninterrupted(tmp_path):
    c = TwoEndpoints(5, 15)
    saved = []

    def keep(cmap):
        p = tmp_path / checkpoint_filename(cmap.n, c, cmap.level)
        save_checkpoint(cmap, p, c)
        saved.append(p)

    base = count(20, c, on_level=keep)
    assert len(saved) == 19
    for p in saved:
        resumed = count(20, c, initial=load_checkpoint(p, expect_n=20, expect_constraint=c))
        assert resumed.count == base.count == 4382


def test_find_resume_checkpoint_picks_deepest(tmp_path):
    c = OneEndpoint(2)
    for lvl in (5, 3, 7):
        m = _level_map(9, lvl, c)
        save_checkpoint(m, tmp_path / checkpoint_filename(9, c, lvl), c)
    # a non-matching file is ignored
    save_checkpoint(_level_map(8, 4), tmp_path / checkpoint_filename(8, None, 4))
    found = find_resume_checkpoint(tmp_path, 9, c)
    assert found is not None and found.name == checkpoint_filename(9, c, 3)
    assert find_resume_checkpoint(tmp_path, 10, c) is None


def test_checkpoint_header_read(tmp_path):
    c = TwoEndpoints(1, 6)
    m = _level_map(8, 4, c)
    path = tmp_path / "h.ckpt"
    save_checkpoint(m, path, c)
    h = read_checkpoint_header(path)
    assert (h.n, h.constraint, h.level, h.records) == (8, c, 4, len(m.entries))


def test_loaded_checkpoint_carries_its_constraint(tmp_path):
    c = TwoEndpoints(1, 6)
    m = _level_map(8, 4, c)
    path = tmp_path / "c.ckpt"
    save_checkpoint(m, path, c)
    back = load_checkpoint(path)
    assert back.constraint == c
    assert count(8, c, initial=back).count == count(8, c).count
    with pytest.raises(ValueError, match="built for"):
        count(8, initial=back)
    with pytest.raises(CheckpointError, match="built for"):
        save_checkpoint(m, path, None)


def test_checkpoint_rejects_wrong_expectations(tmp_path):
    m = _level_map(7, 3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path, OneEndpoint(1))
    with pytest.raises(CheckpointError, match="expected n=8"):
        load_checkpoint(path, expect_n=8)
    with pytest.raises(CheckpointError, match="expected.*TwoEndpoints"):
        load_checkpoint(path, expect_constraint=TwoEndpoints(1, 2))
    with pytest.raises(CheckpointError, match="expected None"):
        load_checkpoint(path, expect_constraint=None)


def test_checkpoint_rejects_corruption(tmp_path):
    m = _level_map(7, 3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"WRONGMAG" + blob[8:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)

    bad.write_bytes(blob[:8] + struct.pack("<H", 9) + blob[10:])
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad)

    bad.write_bytes(blob[:-3])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(bad)

    corrupt = bytearray(blob)
    corrupt[25] = 3  # free count out of range in the first record
    bad.write_bytes(bytes(corrupt))
    with pytest.raises(CheckpointError, match="violates state invariants"):
        load_checkpoint(bad)

    with pytest.raises(CheckpointError, match="cannot read"):
        read_checkpoint_header(tmp_path / "missing.ckpt")


def test_checkpoint_rejects_denormalized_records(tmp_path):
    path = tmp_path / "d.ckpt"
    # junk partner byte on an interior label decodes fine but is not the
    # normalized encoding
    bad_key = bytes([2, 5, 2, 0xFF, 2, 0xFF])
    save_checkpoint(_class_map(3, 2, {bad_key: MultiplicityPair(1, 0)}), path)
    with pytest.raises(CheckpointError, match="not a normalized encoding"):
        load_checkpoint(path)
    # a valid state stored under the larger of its two orientations: the
    # path 1-3-0 on four labels, whose complement 2-0-3 encodes smaller
    from gracefulperms.state import complement_key, decode

    key = bytes([1, 1, 1, 0, 2, 0xFF, 0, 0xFF])
    assert complement_key(key) < key
    save_checkpoint(_class_map(4, decode(key).next_edge_label, {key: MultiplicityPair(1, 0)}), path)
    with pytest.raises(CheckpointError, match="canonical orientation"):
        load_checkpoint(path)


def test_checkpoint_rejects_invalid_records(tmp_path):
    # zero multiplicity
    key = bytes([1, 1, 1, 0])
    m = _class_map(2, 0, {key: MultiplicityPair(0, 0)})
    path = tmp_path / "z.ckpt"
    save_checkpoint(m, path)
    with pytest.raises(CheckpointError, match="zero multiplicity"):
        load_checkpoint(path)
    # reflected count on a self-complementary key
    m = _class_map(2, 0, {key: MultiplicityPair(1, 1)})
    save_checkpoint(m, path)
    with pytest.raises(CheckpointError, match="self-complementary"):
        load_checkpoint(path)
    # record level disagreeing with the header
    wrong = _class_map(3, 0, dict(_level_map(3, 1).entries))
    save_checkpoint(wrong, path)
    with pytest.raises(CheckpointError, match="level"):
        load_checkpoint(path)


def test_checkpoint_multiplicity_field_overflow(tmp_path):
    key = bytes([1, 1, 1, 0])
    m = _class_map(2, 0, {key: MultiplicityPair(1 << 128, 0)})
    with pytest.raises(CheckpointError, match="128-bit"):
        save_checkpoint(m, tmp_path / "o.ckpt")


def test_checkpoint_filenames():
    assert checkpoint_filename(20, TwoEndpoints(5, 15), 7) == "g20_e5-15_level007.ckpt"
    assert checkpoint_filename(9, OneEndpoint(3), 0) == "g9_e3_level000.ckpt"
    assert checkpoint_filename(40, None, 12) == "g40_none_level012.ckpt"
