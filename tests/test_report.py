"""Tables, ratios, JSON serialization and the binary checkpoint format."""

from __future__ import annotations

import errno
import io
import json
import os
import stat
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gracefulperms import report, search, state
from gracefulperms.report import (
    DEFAULT_BUDGET_MB,
    CheckpointError,
    build_ratios,
    build_table,
    checkpoint_filename,
    count_result_json,
    find_resume_checkpoint,
    format_ratios,
    format_table,
    load_checkpoint,
    read_checkpoint_header,
    save_checkpoint,
)
import numpy as np

from gracefulperms.search import (
    ClassMap,
    ComputationRefused,
    OneEndpoint,
    TwoEndpoints,
    count,
    expand_level,
    root_map,
)
import limbs


def _one_byte_key(key):
    """The engine's one-byte form of a normalized two-byte key: 0 for no
    free slot, 1 + p for an end whose partner is p, n + 1 for unused."""
    n = len(key) // 2
    out = []
    for u in range(n):
        f, p = key[2 * u], key[2 * u + 1]
        assert f in (0, 1, 2) and (p == 0xFF) == (f != 1), "not a normalized key"
        out.append((0, 1 + p, n + 1)[f])
    return bytes(out)


def _class_map(n, level, entries):
    """A ClassMap holding exactly these {key: (direct, reflected)} records,
    with two-byte keys and multiplicities as tuples of Python ints; the
    limb helper refuses values below 0 or of 2**128 and more."""
    keys = sorted(entries)
    return ClassMap(
        n,
        level,
        np.frombuffer(b"".join(map(_one_byte_key, keys)), dtype=np.uint8).reshape(-1, n),
        search._limbs(entries[key] for key in keys),
    )


def _write_records(path, n, level, records):
    """A checkpoint file of raw (two-byte key, direct, reflected) records."""
    header = struct.pack("<HHBBBHQ", 1, n, 0, 0, 0, level, len(records))
    path.write_bytes(
        b"GRACEFL1"
        + header
        + b"".join(
            bytes(key) + d.to_bytes(16, "little") + r.to_bytes(16, "little")
            for key, d, r in records
        )
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
    # and the default budget admits small tables
    assert build_table(3, 4, budget_mb=DEFAULT_BUDGET_MB) == [(3, 4), (4, 4)]


def test_table_validates_range():
    with pytest.raises(ValueError):
        build_table(0, 4)
    with pytest.raises(ValueError):
        build_table(5, 4)


def test_format_table_of_built_rows():
    text = format_table(build_table(1, 5), "csv")
    assert text.splitlines() == ["n,count", "1,1", "2,2", "3,4", "4,4", "5,8"]


def test_ratios():
    rows = build_ratios(1, 8)
    assert rows[0] == (1, "2.000")
    assert rows[2] == (3, "1.000")
    assert rows[5] == (6, "1.333")  # 32/24 rounded half-up at 3 decimals
    assert len(rows) == 7
    assert format_ratios(build_ratios(1, 4)).splitlines()[0].split() == ["1", "2.000"]
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
        "seconds": r.levels[-1].wall_time,
    }
    assert count_result_json(count(3))["constraint"] is None
    assert count_result_json(count(3, OneEndpoint(1)))["constraint"] == {"endpoint": 1}


def test_count_result_json_takes_numpy_labels():
    """Endpoint labels of numpy integer types serialize as plain ints: the
    JSON equals the plain-int run's, apart from the times."""

    def doc(constraint):
        out = count_result_json(count(6, constraint))
        del out["elapsed_ms"]
        for level in out["levels"]:
            del level["seconds"]
        return json.dumps(out)

    assert doc(TwoEndpoints(np.int64(0), np.int64(3))) == doc(TwoEndpoints(0, 3))
    assert doc(OneEndpoint(np.int32(2))) == doc(OneEndpoint(2))


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_round_trip_entrywise(tmp_path):
    m = _level_map(7, 3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    back = load_checkpoint(path, expect_n=7, expect_constraint=None)
    assert back.n == m.n and back.level == m.level
    assert np.array_equal(back.keys, m.keys) and np.array_equal(back.mult, m.mult)


def test_checkpoint_round_trip_is_byte_identical(tmp_path):
    c = TwoEndpoints(5, 15)
    m = _level_map(20, 11, c)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(m, p1, c)
    save_checkpoint(load_checkpoint(p1, expect_n=20, expect_constraint=c), p2, c)
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


@pytest.mark.parametrize(
    "c,fields",
    [(None, (0, 0, 0)), (OneEndpoint(3), (1, 3, 0)), (TwoEndpoints(5, 15), (2, 5, 15))],
    ids=str,
)
def test_checkpoint_header_holds_the_constraint_literally(tmp_path, c, fields):
    """The header's tag is the number of fixed labels, which follow it; an
    unfixed label is 0."""
    m = _level_map(20, 17, c)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path, c)
    assert path.read_bytes()[8:25] == struct.pack("<HHBBBHQ", 1, 20, *fields, 17, len(m.keys))
    assert read_checkpoint_header(path).constraint == c


def _whole_level_bytes(cmap, constraint):
    """A checkpoint built in one piece, as the format describes it: the
    header, then every record's two-byte key and little-endian limbs."""
    tag, la, lb = report._constraint_tag(constraint)
    wide = search._widen(cmap.keys)
    limbs = cmap.mult.astype("<u8").view(np.uint8)
    return (
        b"GRACEFL1"
        + struct.pack("<HHBBBHQ", 1, cmap.n, tag, la, lb, cmap.level, len(cmap.keys))
        + np.concatenate([wide, limbs], axis=1).tobytes()
    )


@pytest.mark.parametrize("n,c", [(20, TwoEndpoints(5, 15)), (14, None)])
def test_streamed_save_matches_the_whole_level_bytes(tmp_path, monkeypatch, n, c):
    """Saving a block at a time writes the same bytes at every block size,
    on every level, and leaves no temporary file behind."""
    levels = []
    count(n, c, on_level=levels.append)
    path = tmp_path / "m.ckpt"
    for block_rows in (1, 7, search._BLOCK_ROWS):
        monkeypatch.setattr(search, "_BLOCK_ROWS", block_rows)
        for m in levels:
            save_checkpoint(m, path, c)
            assert path.read_bytes() == _whole_level_bytes(m, c)
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


@pytest.mark.parametrize(
    "c,error,message",
    [
        (OneEndpoint(8), CheckpointError, "endpoint label 8 out of range 0..7"),
        (OneEndpoint(300), CheckpointError, "endpoint label 300 out of range 0..7"),
        (TwoEndpoints(-1, 2), CheckpointError, "endpoint label -1 out of range 0..7"),
        ("x", TypeError, "not a constraint: 'x'"),
    ],
    ids=["one_end_8", "one_end_300", "two_ends_-1_2", "not_a_constraint"],
)
def test_save_refuses_a_constraint_the_map_cannot_hold(tmp_path, c, error, message):
    """A constraint outside the map's labels, which would write a file that
    no load accepts or fail half-way, is refused before any file is opened;
    the file at the path stays as it was."""
    m = _level_map(8, 4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    before = path.read_bytes()
    with pytest.raises(error) as exc:
        save_checkpoint(m, path, c)
    assert str(exc.value) == message
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_failed_save_keeps_the_previous_file(tmp_path, monkeypatch):
    """A write that fails after the first block leaves the file at the
    path as it was, removes the temporary file and names the path."""
    c = TwoEndpoints(5, 15)
    path = tmp_path / "m.ckpt"
    save_checkpoint(_level_map(20, 12, c), path, c)
    before = path.read_bytes()
    writes = []

    class FullDisk(io.FileIO):
        def write(self, data):
            writes.append(len(data))
            if len(writes) == 3:  # the header, one block, then the disk is full
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(data)

    monkeypatch.setattr(search, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(report, "open", FullDisk, raising=False)
    wider = _level_map(20, 9, c)
    assert len(wider.keys) > 2 * 7
    with pytest.raises(CheckpointError, match=f"cannot write checkpoint {path}: .*No space"):
        save_checkpoint(wider, path, c)
    assert len(writes) == 3
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_save_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    """The file is synced before the rename, and its directory after it,
    so that the new name survives a power loss."""
    c = TwoEndpoints(5, 15)
    path = tmp_path / "m.ckpt"
    synced = []
    fsync = os.fsync

    def spy(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        synced.append((is_dir, sorted(p.name for p in tmp_path.iterdir())))
        if is_dir:
            assert os.path.samestat(os.fstat(fd), os.stat(tmp_path))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    save_checkpoint(_level_map(20, 12, c), path, c)
    save_checkpoint(_level_map(20, 11, c), path, c)
    before, after = (False, ["m.ckpt.tmp"]), (True, ["m.ckpt"])
    overwrite = (False, ["m.ckpt", "m.ckpt.tmp"])
    assert synced == [before, after, overwrite, after]


@pytest.mark.parametrize("block_rows", [1, 7, search._ORIENT_ROWS + 1])
@pytest.mark.parametrize("n,c", [(24, None), (36, TwoEndpoints(9, 27))])
def test_load_orients_blocks_like_the_table_lookup(tmp_path, monkeypatch, block_rows, n, c):
    """With small blocks, every complement the loader computes equals the
    byte-map lookup, and the widest level reads back as it was."""
    levels = []
    count(n, c, on_level=levels.append)
    widest = max(levels, key=lambda m: len(m.keys))
    path = tmp_path / "m.ckpt"
    save_checkpoint(widest, path, c)
    orient = search._orient
    seen = []

    def checked(keys):
        table = np.frombuffer(search._byte_tables(keys.shape[1])[0], dtype=np.uint8)
        comp, reflected = orient(keys)
        assert np.array_equal(comp, table[keys[:, ::-1]])
        assert not (reflected & (comp == keys).all(axis=1)).any()  # a tie is direct
        seen.append(len(keys))
        return comp, reflected

    monkeypatch.setattr(search, "_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(search, "_orient", checked)
    loaded = load_checkpoint(path, expect_n=n, expect_constraint=c)
    assert sum(seen) == len(widest.keys) and max(seen) == min(block_rows, len(widest.keys))
    assert np.array_equal(loaded.keys, widest.keys)
    assert np.array_equal(loaded.mult, widest.mult)


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


@pytest.mark.parametrize("n,c", [(20, TwoEndpoints(5, 15)), (16, None)], ids=str)
def test_checkpoints_that_fold_a_tie_into_direct_still_resume(tmp_path, n, c):
    """Older checkpoints hold a key equal to its complement with its two
    counts summed into the direct slot.  Such a level loads as it is and
    resumes to the same count: on that key both slots meet the same dead
    tests and ``finalize`` reads them alike."""
    levels = []
    base = count(n, c, on_level=levels.append).count
    moved = 0
    for m in levels:
        ties = [state.complement_key(key) == key for key in m.entries]
        old = [(d + r, 0) if tie else (d, r) for (d, r), tie in zip(limbs.pairs(m.mult), ties)]
        moved += sum(tie and r > 0 for (_, r), tie in zip(limbs.pairs(m.mult), ties))
        path = tmp_path / checkpoint_filename(n, c, m.level)
        save_checkpoint(ClassMap(n, m.level, m.keys, search._limbs(old), c), path, c)
        loaded = load_checkpoint(path, expect_n=n, expect_constraint=c)
        assert limbs.pairs(loaded.mult) == old
        assert count(n, c, initial=loaded).count == base
    assert moved > 0


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
    assert (h.n, h.constraint, h.level, h.records) == (8, c, 4, len(m.keys))


def test_loaded_checkpoint_carries_its_constraint(tmp_path):
    c = TwoEndpoints(1, 6)
    m = _level_map(8, 4, c)
    path = tmp_path / "c.ckpt"
    save_checkpoint(m, path, c)
    back = load_checkpoint(path, expect_n=8, expect_constraint=c)
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
        load_checkpoint(path, expect_n=8, expect_constraint=OneEndpoint(1))
    with pytest.raises(CheckpointError, match="expected.*TwoEndpoints"):
        load_checkpoint(path, expect_n=7, expect_constraint=TwoEndpoints(1, 2))
    with pytest.raises(CheckpointError, match="expected None"):
        load_checkpoint(path, expect_n=7, expect_constraint=None)


def test_checkpoint_rejects_corruption(tmp_path):
    m = _level_map(7, 3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"WRONGMAG" + blob[8:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad, expect_n=7, expect_constraint=None)

    bad.write_bytes(blob[:8] + struct.pack("<H", 9) + blob[10:])
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad, expect_n=7, expect_constraint=None)

    bad.write_bytes(blob[:-3])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(bad, expect_n=7, expect_constraint=None)

    corrupt = bytearray(blob)
    corrupt[25] = 3  # free count out of range in the first record
    bad.write_bytes(bytes(corrupt))
    with pytest.raises(CheckpointError, match="violates state invariants"):
        load_checkpoint(bad, expect_n=7, expect_constraint=None)

    with pytest.raises(CheckpointError, match="cannot read"):
        read_checkpoint_header(tmp_path / "missing.ckpt")


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_level_map(7, 3), path)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(
        CheckpointError,
        match=f"1 trailing bytes, {size + 1} bytes but header promises {size}$",
    ):
        load_checkpoint(path, expect_n=7, expect_constraint=None)


def test_checkpoint_rejects_denormalized_records(tmp_path):
    path = tmp_path / "d.ckpt"
    # junk partner byte on an interior label decodes fine but is not the
    # normalized encoding
    bad_key = bytes([2, 5, 2, 0xFF, 2, 0xFF])
    _write_records(path, 3, 2, [(bad_key, 1, 0)])
    with pytest.raises(CheckpointError, match="not a normalized encoding"):
        load_checkpoint(path, expect_n=3, expect_constraint=None)
    # a valid state stored under the larger of its two orientations: the
    # path 1-3-0 on four labels, whose complement 2-0-3 encodes smaller
    from gracefulperms.state import complement_key, decode

    key = bytes([1, 1, 1, 0, 2, 0xFF, 0, 0xFF])
    assert complement_key(key) < key
    save_checkpoint(_class_map(4, decode(key).next_edge_label, {key: (1, 0)}), path)
    with pytest.raises(CheckpointError, match="canonical orientation"):
        load_checkpoint(path, expect_n=4, expect_constraint=None)


def test_checkpoint_rejects_invalid_records(tmp_path):
    # zero multiplicity
    key = bytes([1, 1, 1, 0])
    m = _class_map(2, 0, {key: (0, 0)})
    path = tmp_path / "z.ckpt"
    save_checkpoint(m, path)
    with pytest.raises(CheckpointError, match="zero multiplicity"):
        load_checkpoint(path, expect_n=2, expect_constraint=None)
    # both counts on a key equal to its complement load as they are
    assert state.complement_key(key) == key
    m = _class_map(2, 0, {key: (1, 1)})
    save_checkpoint(m, path)
    back = load_checkpoint(path, expect_n=2, expect_constraint=None)
    assert limbs.pairs(back.mult) == [(1, 1)]
    # record level disagreeing with the header
    level = _level_map(3, 1)
    wrong = ClassMap(3, 0, level.keys, level.mult)
    save_checkpoint(wrong, path)
    with pytest.raises(CheckpointError, match="level"):
        load_checkpoint(path, expect_n=3, expect_constraint=None)


def test_class_maps_refuse_multiplicities_outside_128_bits(tmp_path):
    """Limbs hold 0..2**128 - 1 exactly; the largest value round-trips
    through a checkpoint, and anything outside the range is refused."""
    key = bytes([1, 1, 1, 0])
    top = (1 << 128) - 1
    m = _class_map(2, 0, {key: (top, 0)})
    assert m.mult.dtype == np.uint64 and m.mult.tolist() == [[2**64 - 1] * 2 + [0, 0]]
    save_checkpoint(m, tmp_path / "o.ckpt")
    back = load_checkpoint(tmp_path / "o.ckpt", expect_n=2, expect_constraint=None)
    assert (back.keys.tobytes(), limbs.pairs(back.mult)) == (_one_byte_key(key), [(top, 0)])
    with pytest.raises(search.MultiplicityOverflow, match="128 bits"):
        _class_map(2, 0, {key: (1 << 128, 0)})
    with pytest.raises(search.MultiplicityOverflow, match="128 bits"):
        _class_map(2, 0, {key: (1, top + 1)})
    with pytest.raises(ValueError, match="negative"):
        _class_map(2, 0, {key: (-1, 0)})


def test_checkpoint_filenames():
    assert checkpoint_filename(20, TwoEndpoints(5, 15), 7) == "g20_e5-15_level007.ckpt"
    assert checkpoint_filename(9, OneEndpoint(3), 0) == "g9_e3_level000.ckpt"
    assert checkpoint_filename(40, None, 12) == "g40_none_level012.ckpt"


# -- array validation against the per-record reference ---------------------------


def _reference_load(path):
    """The per-record validation ``load_checkpoint`` ran before it worked on
    arrays, kept as the reference: the keys and the (direct, reflected)
    pairs of a file whose size matches its header, or CheckpointError."""
    header = read_checkpoint_header(path)
    blob = path.read_bytes()
    offset = 25
    pairs = []
    keys = []
    prev = b""
    for i in range(header.records):
        key = blob[offset : offset + 2 * header.n]
        offset += 2 * header.n
        d = int.from_bytes(blob[offset : offset + 16], "little")
        r = int.from_bytes(blob[offset + 16 : offset + 32], "little")
        offset += 32
        try:
            decoded = state.decode(key)
        except ValueError as exc:
            raise CheckpointError(f"{path}: record {i} violates state invariants: {exc}") from None
        if state.encode(decoded) != key:
            raise CheckpointError(f"{path}: record {i} is not a normalized encoding")
        if state.complement_key(key) < key:
            raise CheckpointError(
                f"{path}: record {i} is not the canonical orientation of its class"
            )
        if decoded.next_edge_label != header.level:
            raise CheckpointError(
                f"{path}: record {i} is on level {decoded.next_edge_label}, "
                f"header says {header.level}"
            )
        if d + r < 1:
            raise CheckpointError(f"{path}: record {i} has zero multiplicity")
        if key == prev:
            raise CheckpointError(f"{path}: duplicate key in record {i}")
        if key < prev:
            raise CheckpointError(f"{path}: record {i} is out of key order")
        prev = key
        keys.append(key)
        pairs.append([d, r])
    return b"".join(keys), pairs


def _outcome(load, path):
    try:
        return load(path)
    except CheckpointError as exc:
        return str(exc)


def _two_byte_key(key):
    """The inverse of ``_one_byte_key``."""
    n = len(key)
    return bytes(
        b for c in key for b in ((0, 0xFF) if c == 0 else (2, 0xFF) if c == n + 1 else (1, c - 1))
    )


def _array_load(path):
    """The keys, widened here one key at a time, and (direct, reflected)
    pairs of the map ``load_checkpoint`` returns, expecting the n and
    constraint that the header names: the callers test the records."""
    header = read_checkpoint_header(path)
    m = load_checkpoint(path, expect_n=header.n, expect_constraint=header.constraint)
    assert m.keys.dtype == np.uint8 and m.keys.shape == (len(m.keys), m.n)
    assert m.mult.dtype == np.uint64 and m.mult.shape == (len(m.keys), 4)
    keys = b"".join(_two_byte_key(row.tobytes()) for row in m.keys)
    pairs = [[dlo | dhi << 64, rlo | rhi << 64] for dlo, dhi, rlo, rhi in m.mult.tolist()]
    return keys, pairs


@pytest.fixture(scope="module")
def fuzz_blobs(tmp_path_factory):
    """Checkpoint bytes of every level of G(9), G(10;2,7) and G(8;3)."""
    directory = tmp_path_factory.mktemp("levels")
    blobs = []
    for n, c in ((9, None), (10, TwoEndpoints(2, 7)), (8, OneEndpoint(3))):
        m = root_map(n)
        while True:
            path = directory / checkpoint_filename(n, c, m.level)
            save_checkpoint(m, path, c)
            blobs.append(path.read_bytes())
            if m.level == 0:
                break
            m = expand_level(m, c)
    return blobs


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_load_matches_the_per_record_reference(fuzz_blobs, tmp_path_factory, data):
    """With one or two record bytes changed, after one record may have been
    copied over another, load_checkpoint and the per-record reference
    accept the same files with the same records and refuse the others with
    the same message, so the same record and check.  Blocks of 7 rows put
    the key-order check across block boundaries."""
    blob = bytearray(data.draw(st.sampled_from(fuzz_blobs)))
    width = 2 * struct.unpack_from("<H", blob, 10)[0] + 32
    rows = (len(blob) - 25) // width
    if data.draw(st.booleans()):
        i, j = (25 + width * data.draw(st.integers(0, rows - 1)) for _ in range(2))
        blob[i : i + width] = blob[j : j + width]
    for _ in range(data.draw(st.integers(1, 2))):
        blob[data.draw(st.integers(25, len(blob) - 1))] = data.draw(st.integers(0, 255))
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_BLOCK_ROWS", 7)
        assert _outcome(_array_load, path) == _outcome(_reference_load, path)


def test_load_matches_the_reference_on_reordered_records(fuzz_blobs, tmp_path, monkeypatch):
    """Each level unchanged, then with one record copied onto the next (a
    duplicate) and with the two swapped (out of order), at every block
    boundary of 7-row blocks and one row later."""
    monkeypatch.setattr(search, "_BLOCK_ROWS", 7)
    path = tmp_path / "level.ckpt"
    for blob in fuzz_blobs:
        path.write_bytes(blob)
        assert _array_load(path) == _reference_load(path)
        width = 2 * struct.unpack_from("<H", blob, 10)[0] + 32
        rows = (len(blob) - 25) // width
        for row in (r for r in range(rows - 1) if r % 7 in (5, 6)):
            at = 25 + row * width
            for pair in ((0, 0), (1, 0)):
                out = bytearray(blob)
                out[at : at + 2 * width] = b"".join(
                    blob[at + k * width : at + (k + 1) * width] for k in pair
                )
                path.write_bytes(bytes(out))
                outcome = _outcome(_array_load, path)
                assert outcome == _outcome(_reference_load, path)
                assert f"record {row + 1} is out of key order" in outcome or (
                    f"duplicate key in record {row + 1}" in outcome
                )


# One record on four labels: key bytes (free count, partner) per label, the
# header's level, the direct and reflected counts, and the expected outcome.
_HAND_MADE = [
    ([2, 0xFF, 0, 0xFF, 0, 0xFF, 0, 0xFF], 0, 1, 0, "violates state invariants"),
    ([0, 0xFF] * 4, 0, 1, 0, "violates state invariants"),
    ([1, 0, 2, 0xFF, 2, 0xFF, 1, 3], 2, 1, 0, "violates state invariants"),
    ([1, 9, 2, 0xFF, 2, 0xFF, 1, 0], 2, 1, 0, "violates state invariants"),
    ([1, 1, 2, 0xFF, 2, 0xFF, 2, 0xFF], 2, 1, 0, "violates state invariants"),
    ([1, 1, 1, 2, 1, 3, 1, 0], 1, 1, 0, "violates state invariants"),
    ([1, 3, 2, 0xFF, 2, 0xFF, 1, 0], 2, 1 << 64, 0, None),
    ([1, 3, 2, 0xFF, 2, 0xFF, 1, 0], 2, 0, 1 << 64, None),
    ([1, 3, 2, 0xFF, 2, 0xFF, 1, 0], 1, 1, 0, "is on level 2, header says 1"),
]


@pytest.mark.parametrize("key,level,d,r,expected", _HAND_MADE)
def test_load_matches_the_reference_on_hand_made_records(tmp_path, key, level, d, r, expected):
    """Records that single-byte changes to real levels rarely produce: a
    terminal state without endpoints, no free slot at all, endpoints paired
    with themselves or with no label, an odd endpoint count, a pairing that
    is not an involution, and counts held in the high 64 bits only."""
    path = tmp_path / "one.ckpt"
    _write_records(path, 4, level, [(key, d, r)])
    outcome = _outcome(_array_load, path)
    assert outcome == _outcome(_reference_load, path)
    if expected is None:
        assert outcome == (bytes(key), [[d, r]])
    else:
        assert expected in outcome


@pytest.mark.parametrize("n", [0, 300])
def test_checkpoint_refuses_label_counts_out_of_range(tmp_path, n):
    key = bytes([2, 0xFF]) * n
    blob = b"GRACEFL1" + struct.pack("<HHBBBHQ", 1, n, 0, 0, 0, max(n - 1, 0), 1)
    path = tmp_path / "n.ckpt"
    path.write_bytes(blob + key + (1).to_bytes(16, "little") + bytes(16))
    with pytest.raises(CheckpointError, match=f"label count {n} out of range 1..254"):
        load_checkpoint(path, expect_n=n, expect_constraint=None)


@pytest.mark.parametrize(
    "n,tag,a,b,level,message",
    [
        (8, 2, 1, 5, 300, "level 300 out of range 0..7"),
        (8, 2, 1, 5, 8, "level 8 out of range 0..7"),
        (8, 2, 1, 8, 3, "endpoint label 8 out of range 0..7"),
        (8, 1, 9, 0, 3, "endpoint label 9 out of range 0..7"),
        (0, 0, 0, 0, 0, "label count 0 out of range"),
        (8, 3, 1, 5, 3, "unknown constraint tag 3"),
    ],
)
def test_empty_checkpoints_with_a_bad_header_are_refused(tmp_path, n, tag, a, b, level, message):
    """A header names its level and endpoints within its n even when the
    file holds no record: such a file is neither loaded nor offered for a
    resume, where a level past n would run through empty levels to a count
    of 0 (G(8;1,5) is 1)."""
    good = tmp_path / "good.ckpt"
    good.write_bytes(b"GRACEFL1" + struct.pack("<HHBBBHQ", 1, 8, 2, 1, 5, 7, 0))
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"GRACEFL1" + struct.pack("<HHBBBHQ", 1, n, tag, a, b, level, 0))
    with pytest.raises(CheckpointError, match=message):
        read_checkpoint_header(path)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path, expect_n=8, expect_constraint=TwoEndpoints(1, 5))
    assert report.resume_candidates(tmp_path, 8, TwoEndpoints(1, 5)) == [good]


@pytest.mark.parametrize(
    "n,c", [(12, TwoEndpoints(0, 1)), (10, TwoEndpoints(2, 7)), (11, None)], ids=str
)
def test_engine_levels_load_through_the_reference(tmp_path, n, c):
    """Every level the engine saves reads back through the per-record
    reference, which checks the two-byte keys' order and canonical
    orientation itself, with the keys and counts the engine holds."""
    levels = []
    result = count(n, c, on_level=levels.append)
    assert len(levels) == n - 1
    for m in levels:
        path = tmp_path / checkpoint_filename(n, c, m.level)
        save_checkpoint(m, path, c)
        keys, pairs = _reference_load(path)
        assert keys == b"".join(m.entries) == b"".join(_two_byte_key(r.tobytes()) for r in m.keys)
        assert pairs == [list(p) for p in limbs.pairs(m.mult)]
        assert _array_load(path) == (keys, pairs)
    assert result.count == search.dfs_count(n, c)
