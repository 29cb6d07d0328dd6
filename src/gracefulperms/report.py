"""Tables, growth ratios, result serialization and checkpoint files.

Counts are serialized as decimal strings in CSV/JSON because the larger
values overflow 53- and 64-bit consumers.  Checkpoints are binary,
written once per completed level with records sorted by key, so two runs
of the same computation produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import operator
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import search, state
from .search import (
    ClassMap,
    ComputationRefused,
    Constraint,
    CountResult,
    LevelStats,
    count,
)

__all__ = [
    "CheckpointError",
    "CheckpointHeader",
    "LevelStats",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_header",
    "checkpoint_filename",
    "find_resume_checkpoint",
    "resume_candidates",
    "build_table",
    "format_table",
    "build_ratios",
    "format_ratios",
    "count_result_json",
    "estimated_level_bytes",
    "DEFAULT_BUDGET_MB",
]

MAGIC = b"GRACEFL1"
VERSION = 1
# version, n, tag (the number of fixed labels), label a, label b, level, records
_HEADER = struct.Struct("<HHBBBHQ")
_MULT_BYTES = 16  # each multiplicity is a 128-bit little-endian integer

#: Default memory budget for the table command.
DEFAULT_BUDGET_MB = 4096


class CheckpointError(Exception):
    """A checkpoint file could not be written, read or validated."""


@dataclass(frozen=True)
class CheckpointHeader:
    n: int
    constraint: Constraint
    level: int
    records: int


def _constraint_tag(constraint: Constraint) -> tuple[int, int, int]:
    ends = search._endpoints(constraint)
    a, b = (*ends, 0, 0)[:2]
    return len(ends), a, b


def _constraint_from_tag(tag: int, a: int, b: int) -> Constraint:
    if tag > 2:
        raise CheckpointError(f"unknown constraint tag {tag}")
    return search._constraint((a, b)[:tag])


def checkpoint_filename(n: int, constraint: Constraint, level: int) -> str:
    ends = search._endpoints(constraint)
    spec = "e" + "-".join(map(str, ends)) if ends else "none"
    return f"g{n}_{spec}_level{level:03d}.ckpt"


def save_checkpoint(cmap: ClassMap, path: Union[str, Path], constraint: Constraint = None) -> None:
    """Write one level's class map; records are in the map's sorted key order.

    Records are built and written ``search._BLOCK_ROWS`` at a time through
    one block-sized buffer, into ``<path>.tmp`` in the same directory.  That
    file is synced to disk and then renamed onto ``path``, so ``path``
    holds either its previous content or the complete new file, never a
    part; the directory is synced after the rename, so that the new name
    survives a power loss.  On failure the temporary file is removed; an
    ``OSError`` is raised as ``CheckpointError``.  Before any file is
    opened, the constraint is checked against the map's n and against the
    constraint the map was built for; a mismatch is ``CheckpointError``
    and an object that is not a constraint ``TypeError``.
    """
    try:
        search._check_map(cmap, constraint)
    except ValueError as e:
        raise CheckpointError(str(e)) from None
    n, rows = cmap.n, len(cmap.keys)
    # Each record: the two-byte key, then the limbs as they are held,
    # d lo, d hi, r lo, r hi, each a little-endian 64-bit word.
    buffer = np.empty((min(rows, search._BLOCK_ROWS), 2 * n + 2 * _MULT_BYTES), dtype=np.uint8)
    tag, la, lb = _constraint_tag(constraint)
    header = MAGIC + _HEADER.pack(VERSION, n, tag, la, lb, cmap.level, rows)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for start in range(0, rows, search._BLOCK_ROWS):
                keys = cmap.keys[start : start + search._BLOCK_ROWS]
                records = buffer[: len(keys)]
                search._widen(keys, out=records[:, : 2 * n])
                mult = cmap.mult[start : start + len(keys)]
                records[:, 2 * n :] = mult.astype("<u8", copy=False).view(np.uint8)
                fh.write(records)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_directory(os.path.dirname(os.path.abspath(path)))
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
        raise


def _fsync_directory(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


_UNSET = object()


def read_checkpoint_header(path: Union[str, Path]) -> CheckpointHeader:
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(MAGIC) + _HEADER.size)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(head) < len(MAGIC) + _HEADER.size:
        raise CheckpointError(f"{path}: truncated header")
    if head[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    version, n, tag, la, lb, level, records = _HEADER.unpack(head[len(MAGIC) :])
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    if not 1 <= n <= state.MAX_LABELS:
        raise CheckpointError(f"{path}: label count {n} out of range 1..{state.MAX_LABELS}")
    if not 0 <= level < n:
        raise CheckpointError(f"{path}: level {level} out of range 0..{n - 1}")
    constraint = _constraint_from_tag(tag, la, lb)
    try:
        search._check_constraint(n, constraint)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return CheckpointHeader(n, constraint, level, records)


def load_checkpoint(
    path: Union[str, Path],
    *,
    expect_n: Optional[int] = None,
    expect_constraint=_UNSET,
) -> ClassMap:
    """Read a class map back, validating structure and every record.

    Records are read and checked as arrays, ``search._BLOCK_ROWS`` at a
    time, with the state rule that ``count(initial=)`` also applies; the
    first failing record is checked again one check at a time, and the
    error names it and the first check it fails.
    """
    header = read_checkpoint_header(path)
    if expect_n is not None and header.n != expect_n:
        raise CheckpointError(f"{path}: holds n={header.n}, expected n={expect_n}")
    if expect_constraint is not _UNSET and header.constraint != expect_constraint:
        raise CheckpointError(
            f"{path}: holds constraint {header.constraint!r}, "
            f"expected {expect_constraint!r}"
        )
    offset = len(MAGIC) + _HEADER.size
    n, rows = header.n, header.records
    width = 2 * n
    record = width + 2 * _MULT_BYTES
    size = offset + rows * record
    try:
        with open(path, "rb") as fh:
            actual = os.fstat(fh.fileno()).st_size
            if actual < size:
                raise CheckpointError(
                    f"{path}: truncated, {actual} bytes but header promises {size}"
                )
            if actual > size:
                raise CheckpointError(
                    f"{path}: {actual - size} trailing bytes, {actual} bytes "
                    f"but header promises {size}"
                )
            fh.seek(offset)
            return _read_records(fh, path, header, record)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_records(fh, path, header: CheckpointHeader, record: int) -> ClassMap:
    n, rows = header.n, header.records
    width = 2 * n
    keys = np.empty((rows, n), dtype=np.uint8)
    mult = np.empty((rows, 4), dtype="<u8")
    for start in range(0, rows, search._BLOCK_ROWS):
        stop = min(start + search._BLOCK_ROWS, rows)
        chunk = fh.read((stop - start) * record)
        if len(chunk) != (stop - start) * record:
            raise CheckpointError(f"{path}: truncated while reading record {start}")
        block = np.frombuffer(chunk, dtype=np.uint8).reshape(-1, record)
        wide = block[:, :width]
        limbs = mult[start:stop]  # d lo, d hi, r lo, r hi
        limbs.view(np.uint8)[:] = block[:, width:]
        block_keys = keys[start:stop]
        block_keys[:] = search._compact(wide)
        # The one-byte form round-trips exactly for normalized records with
        # free counts of at most 2 and end partners below n; the state rule
        # covers the rest of state.decode and the header's level.
        bad = (search._widen(block_keys) != wide).any(axis=1)
        bad |= search._bad_states(block_keys, header.level)
        _, reflected, self_comp = search._orient(block_keys)
        bad |= reflected | ~limbs.any(axis=1) | self_comp & limbs[:, 2:].any(axis=1)
        # Each key against the one before it, the first key of a block
        # against the last of the previous block.
        after = max(start, 1)
        less, equal = search._compare_rows(keys[after:stop], keys[after - 1 : stop - 1])
        bad[after - start :] |= less | equal
        if bad.any():
            i = start + int(bad.argmax())
            prev = search._widen(keys[i - 1 : i]).tobytes()
            message = _record_error(i, wide[i - start].tobytes(), prev, mult[i], header.level)
            raise CheckpointError(f"{path}: {message}")
    return ClassMap(n, header.level, keys, mult, header.constraint)


def _record_error(i: int, key: bytes, prev: bytes, limbs: np.ndarray, level: int) -> str:
    """What is wrong with record ``i``, a two-byte ``key`` after ``prev``
    (empty for the first record): the first of the record checks it fails,
    applied one record at a time with ``state``'s functions."""
    try:
        s = state.decode(key)
    except ValueError as exc:
        return f"record {i} violates state invariants: {exc}"
    if state.encode(s) != key:
        return f"record {i} is not a normalized encoding"
    comp = state.complement_key(key)
    if comp < key:
        return f"record {i} is not the canonical orientation of its class"
    if s.next_edge_label != level:
        return f"record {i} is on level {s.next_edge_label}, header says {level}"
    if not limbs.any():
        return f"record {i} has zero multiplicity"
    if comp == key and limbs[2:].any():
        return f"record {i} is self-complementary but has a reflected count"
    if key == prev:
        return f"duplicate key in record {i}"
    if key < prev:
        return f"record {i} is out of key order"
    raise RuntimeError(f"record {i} failed the block checks but passes every record check")


def resume_candidates(
    directory: Union[str, Path], n: int, constraint: Constraint
) -> list[Path]:
    """Checkpoints in a directory whose headers match, deepest (lowest
    level) first; only the headers are read."""
    found = []
    for path in sorted(Path(directory).glob("*.ckpt")):
        try:
            header = read_checkpoint_header(path)
        except CheckpointError:
            continue
        if header.n == n and header.constraint == constraint:
            found.append((header.level, path))
    return [path for _, path in sorted(found, key=lambda item: item[0])]


def find_resume_checkpoint(
    directory: Union[str, Path], n: int, constraint: Constraint
) -> Optional[Path]:
    """Deepest matching checkpoint (lowest level) in a directory, if any."""
    found = resume_candidates(directory, n, constraint)
    return found[0] if found else None


# ---------------------------------------------------------------------------
# Tables and ratios
# ---------------------------------------------------------------------------


def estimated_level_bytes(n: int) -> int:
    """Upper estimate of the peak memory of ``count(n)``.

    Peak classes are estimated from measured ones (850 at n=20, 21k at
    n=30, 372k at n=40, growing about 1.33x per extra label).  Bytes per
    peak class and the fixed part come from the peak RSS of ``count(n)``
    in a fresh process, single worker: 35.8, 48.4, 63.1 and 130.8 MiB at
    n = 30, 34, 36 and 40, the highest run of each (the peak moves by a
    few MiB with how a process is started).  Above the 29 MiB that the
    import takes, that is 235 to 275 bytes per estimated peak class at
    n >= 34, 3.3 to 4.1 times the n + 32 bytes a stored class takes, and
    more at n = 30, where fixed costs weigh most.  The estimate charges
    4 (n + 32) bytes per class above 34 MiB and is 39.3, 52.7, 69.2 and
    157.6 MiB at those n, above every measured peak, so the table command
    refuses before memory runs out, never after.  The calibration holds for every CLI
    path, since the CLI always counts with one worker; ``count(40)`` with
    two worker processes peaked at 242 MiB in its parent alone, above
    this estimate.
    """
    if n <= 40:
        classes = int(450_000 * 1.35 ** (n - 40)) + 100
    else:
        classes = int(450_000 * 1.45 ** (n - 40))
    return 34 * 2**20 + classes * 4 * (n + 32)


def build_table(
    from_n: int,
    to_n: int,
    *,
    budget_mb: Optional[int] = DEFAULT_BUDGET_MB,
) -> list[tuple[int, int]]:
    """G(n) for n in from_n..to_n via the folded BFS."""
    if from_n < 1:
        raise ValueError("table start must be >= 1")
    if to_n < from_n:
        raise ValueError("table end must be >= start")
    if budget_mb is not None:
        need = estimated_level_bytes(to_n)
        if need > budget_mb * 1024 * 1024:
            raise ComputationRefused(
                f"n={to_n} is estimated to need {need // (1024 * 1024)} MiB of class "
                f"storage, over the budget of {budget_mb} MiB"
            )
    return [(n, count(n).count) for n in range(from_n, to_n + 1)]


def format_table(rows: list[tuple[int, int]], fmt: str = "plain") -> str:
    if fmt == "plain":
        width = max(len(str(n)) for n, _ in rows)
        return "\n".join(f"{n:>{width}}  {value}" for n, value in rows)
    if fmt == "csv":
        return "\n".join(["n,count"] + [f"{n},{value}" for n, value in rows])
    if fmt == "json":
        return json.dumps([{"n": n, "count": str(value)} for n, value in rows])
    raise ValueError(f"unknown table format {fmt!r}")


def build_ratios(from_n: int, to_n: int) -> list[tuple[int, str]]:
    """(n, G(n+1)/G(n)) rows, ratios rendered to three decimal places."""
    if to_n < from_n + 1:
        raise ValueError("ratios need at least two consecutive table rows")
    rows = build_table(from_n, to_n)
    out = []
    for (n, a), (_, b) in zip(rows, rows[1:]):
        # round-half-up on the exact rational, then render 3 decimals
        scaled = (b * 2000 + a) // (2 * a)
        out.append((n, f"{scaled // 1000}.{scaled % 1000:03d}"))
    return out


def format_ratios(rows: list[tuple[int, str]]) -> str:
    width = max(len(str(n)) for n, _ in rows)
    return "\n".join(f"{n:>{width}}  {ratio}" for n, ratio in rows)


# ---------------------------------------------------------------------------
# JSON result serialization
# ---------------------------------------------------------------------------


def constraint_json(constraint: Constraint):
    ends = [operator.index(e) for e in search._endpoints(constraint)]
    if not ends:
        return None
    return {"endpoint": ends[0]} if len(ends) == 1 else {"endpoints": ends}


def count_result_json(result: CountResult) -> dict:
    return {
        "n": result.n,
        "constraint": constraint_json(result.constraint),
        "count": str(result.count),
        "elapsed_ms": int(result.elapsed * 1000),
        "levels": [
            {
                "level": s.level,
                "classes": s.class_count,
                "nodes": str(s.node_sum),
                "seconds": s.wall_time,
            }
            for s in result.levels
        ],
    }
