"""Tables, growth ratios, result serialization and checkpoint files.

Counts are serialized as decimal strings in CSV/JSON because the larger
values overflow 53- and 64-bit consumers.  Checkpoints are binary,
written once per completed level with records sorted by key, so two runs
of the same computation produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
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
    OneEndpoint,
    TwoEndpoints,
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
_HEADER = struct.Struct("<HHBBBHQ")  # version, n, tag, label a, label b, level, records
_MULT_BYTES = 16  # each multiplicity is a 128-bit little-endian integer

_TAG_NONE, _TAG_ONE, _TAG_TWO = 0, 1, 2

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
    if constraint is None:
        return _TAG_NONE, 0, 0
    if isinstance(constraint, OneEndpoint):
        return _TAG_ONE, constraint.a, 0
    return _TAG_TWO, constraint.a, constraint.b


def _constraint_from_tag(tag: int, a: int, b: int) -> Constraint:
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_ONE:
        return OneEndpoint(a)
    if tag == _TAG_TWO:
        return TwoEndpoints(a, b)
    raise CheckpointError(f"unknown constraint tag {tag}")


def checkpoint_filename(n: int, constraint: Constraint, level: int) -> str:
    if constraint is None:
        spec = "none"
    elif isinstance(constraint, OneEndpoint):
        spec = f"e{constraint.a}"
    else:
        spec = f"e{constraint.a}-{constraint.b}"
    return f"g{n}_{spec}_level{level:03d}.ckpt"


def save_checkpoint(cmap: ClassMap, path: Union[str, Path], constraint: Constraint = None) -> None:
    """Write one level's class map; records are in the map's sorted key order.

    Records are built and written ``search._BLOCK_ROWS`` at a time through
    one block-sized buffer, into ``<path>.tmp`` in the same directory.  That
    file is synced to disk and then renamed onto ``path``, so ``path``
    holds either its previous content or the complete new file, never a
    part; the directory is synced after the rename, so that the new name
    survives a power loss.  On failure the temporary file is removed; an
    ``OSError`` is raised as ``CheckpointError``.
    """
    try:
        search._check_built_for(cmap, constraint)
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


#: The record checks of ``load_checkpoint``, in the order they are applied;
#: a record is reported with the first one it fails.
_RECORD_ERRORS = (
    "record {i} violates state invariants: {detail}",
    "record {i} is not a normalized encoding",
    "record {i} is not the canonical orientation of its class",
    "record {i} is on level {level}, header says {expected}",
    "record {i} has zero multiplicity",
    "record {i} is self-complementary but has a reflected count",
    "duplicate key in record {i}",
    "record {i} is out of key order",
)


def _record_checks(wide: np.ndarray, keys: np.ndarray, limbs: np.ndarray, level: int):
    """One row per record and one column per ``_RECORD_ERRORS`` entry, True
    where the record fails that check; the key-order columns are left False.
    ``wide`` holds the records' two-byte keys and ``keys`` their one-byte
    form, which is exact wherever the first two checks pass.  Also
    returns each record's level, read from its slot sum."""
    n = wide.shape[1] // 2
    F = wide[:, 0::2]
    P = wide[:, 1::2]
    labels = np.arange(n, dtype=np.uint8)
    ends = F == 1
    # state.decode's invariants: a free count in 0..2, an even slot sum
    # that puts the level in 0..n-1, endpoints paired with another label
    # that is an endpoint paired back, and two endpoints on the terminal level.
    free_sum = F.sum(axis=1, dtype=np.uint16).astype(np.int32)
    slots = 2 * n - free_sum
    rec_level = (n - 1) - slots // 2
    q = np.minimum(P, n - 1)
    unpaired = (P >= n) | (P == labels)
    unpaired |= np.take_along_axis(F, q, axis=1) != 1
    unpaired |= np.take_along_axis(P, q, axis=1) != labels
    bad = np.zeros((len(wide), len(_RECORD_ERRORS)), dtype=bool)
    bad[:, 0] = (F > 2).any(axis=1) | (free_sum % 2 == 1) | (rec_level < 0) | (rec_level >= n)
    bad[:, 0] |= (ends & unpaired).any(axis=1)
    if n >= 2:
        bad[:, 0] |= (rec_level == 0) & (np.count_nonzero(ends, axis=1) != 2)
    bad[:, 1] = (~ends & (P != state.SENTINEL)).any(axis=1)
    _, reflected, self_comp = search._orient(keys)
    bad[:, 2] = reflected
    bad[:, 3] = rec_level != level
    bad[:, 4] = ~limbs.any(axis=1)
    bad[:, 5] = self_comp & limbs[:, 2:].any(axis=1)
    return bad, rec_level


def load_checkpoint(
    path: Union[str, Path],
    *,
    expect_n: Optional[int] = None,
    expect_constraint=_UNSET,
) -> ClassMap:
    """Read a class map back, validating structure and every record.

    Records are read and checked as arrays, ``search._BLOCK_ROWS`` at a
    time; the error names the first failing record and the first check it
    fails.
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

    def fail(i: int, check: int, key: bytes, level: int = 0):
        detail = ""
        if check == 0:
            try:
                state.decode(key)
            except ValueError as exc:
                detail = str(exc)
        message = _RECORD_ERRORS[check].format(
            i=i, detail=detail, level=level, expected=header.level
        )
        return CheckpointError(f"{path}: {message}")

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
        keys[start:stop] = search._compact(wide)
        bad, rec_level = _record_checks(wide, keys[start:stop], limbs, header.level)
        # Each key against the one before it, the first key of a block
        # against the last of the previous block.
        after = max(start, 1)
        less, equal = search._compare_rows(keys[after:stop], keys[after - 1 : stop - 1])
        bad[after - start :, 6] = equal
        bad[after - start :, 7] = less
        failing = bad.any(axis=1)
        if failing.any():
            j = int(failing.argmax())
            raise fail(start + j, int(bad[j].argmax()), wide[j].tobytes(), int(rec_level[j]))
    return ClassMap(n, header.level, keys, mult, header.constraint)


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
    if constraint is None:
        return None
    if isinstance(constraint, OneEndpoint):
        return {"endpoint": constraint.a}
    return {"endpoints": [constraint.a, constraint.b]}


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
