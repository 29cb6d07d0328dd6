"""Tables, growth ratios, result serialization and checkpoint files.

Counts are serialized as decimal strings in CSV/JSON because the larger
values overflow 53- and 64-bit consumers.  Checkpoints are binary,
written once per completed level with records sorted by key, so two runs
of the same computation produce byte-identical files.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import state
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
    "build_table",
    "format_table",
    "emit_table",
    "build_ratios",
    "format_ratios",
    "emit_ratios",
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
    """Write one level's class map; records are in the map's sorted key order."""
    if cmap.constraint is not None and cmap.constraint != constraint:
        raise CheckpointError(
            f"map was built for {cmap.constraint!r}, cannot be saved as {constraint!r}"
        )
    rows = len(cmap.keys)
    if rows and (cmap.mult.min() < 0 or cmap.mult.max() >> (8 * _MULT_BYTES)):
        raise CheckpointError("multiplicity does not fit the 128-bit checkpoint field")
    # Each multiplicity as two little-endian 64-bit limbs, low limb first.
    limbs = np.empty((rows, 2, 2), dtype="<u8")
    limbs[:, :, 0] = cmap.mult & 0xFFFF_FFFF_FFFF_FFFF
    limbs[:, :, 1] = cmap.mult >> 64
    records = np.concatenate([cmap.keys, limbs.reshape(rows, 4).view(np.uint8)], axis=1)
    tag, la, lb = _constraint_tag(constraint)
    header = MAGIC + _HEADER.pack(VERSION, cmap.n, tag, la, lb, cmap.level, rows)
    try:
        Path(path).write_bytes(header + records.tobytes())
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


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
    return CheckpointHeader(n, _constraint_from_tag(tag, la, lb), level, records)


def load_checkpoint(
    path: Union[str, Path],
    *,
    expect_n: Optional[int] = None,
    expect_constraint=_UNSET,
) -> ClassMap:
    """Read a class map back, validating structure and every record."""
    header = read_checkpoint_header(path)
    if expect_n is not None and header.n != expect_n:
        raise CheckpointError(f"{path}: holds n={header.n}, expected n={expect_n}")
    if expect_constraint is not _UNSET and header.constraint != expect_constraint:
        raise CheckpointError(
            f"{path}: holds constraint {header.constraint!r}, "
            f"expected {expect_constraint!r}"
        )
    blob = Path(path).read_bytes()
    offset = len(MAGIC) + _HEADER.size
    record = 2 * header.n + 2 * _MULT_BYTES
    if len(blob) != offset + header.records * record:
        raise CheckpointError(
            f"{path}: truncated, {len(blob)} bytes but header promises "
            f"{offset + header.records * record}"
        )
    start = offset
    pairs = []
    prev = b""
    for i in range(header.records):
        key = blob[offset : offset + 2 * header.n]
        offset += 2 * header.n
        d = int.from_bytes(blob[offset : offset + _MULT_BYTES], "little")
        offset += _MULT_BYTES
        r = int.from_bytes(blob[offset : offset + _MULT_BYTES], "little")
        offset += _MULT_BYTES
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
        if r and state.complement_key(key) == key:
            raise CheckpointError(
                f"{path}: record {i} is self-complementary but has a reflected count"
            )
        if key == prev:
            raise CheckpointError(f"{path}: duplicate key in record {i}")
        if key < prev:
            raise CheckpointError(f"{path}: record {i} is out of key order")
        prev = key
        pairs.append((d, r))
    records = np.frombuffer(blob, dtype=np.uint8, count=len(blob) - start, offset=start)
    keys = records.reshape(header.records, record)[:, : 2 * header.n].copy()
    mult = np.array(pairs, dtype=object).reshape(-1, 2)
    return ClassMap(header.n, header.level, keys, mult, header.constraint)


def find_resume_checkpoint(
    directory: Union[str, Path], n: int, constraint: Constraint
) -> Optional[Path]:
    """Deepest matching checkpoint (lowest level) in a directory, if any."""
    best: Optional[tuple[int, Path]] = None
    for path in sorted(Path(directory).glob("*.ckpt")):
        try:
            header = read_checkpoint_header(path)
        except CheckpointError:
            continue
        if header.n != n or header.constraint != constraint:
            continue
        if best is None or header.level < best[0]:
            best = (header.level, path)
    return best[1] if best else None


# ---------------------------------------------------------------------------
# Tables and ratios
# ---------------------------------------------------------------------------


def estimated_level_bytes(n: int) -> int:
    """Upper estimate of the peak memory of ``count(n)``.

    Peak classes are estimated from measured ones (850 at n=20, 21k at
    n=30, 372k at n=40, growing about 1.33x per extra label).  Bytes per
    peak class and the fixed part come from the peak RSS of ``count(n)``
    in a fresh process, single worker: 44, 87, 135 and 440 MiB at n = 30,
    34, 36 and 40, about 730 to 1,110 bytes per peak class above a 29 MiB
    start.  Both are rounded up, so the table command refuses before
    memory runs out, never after.
    """
    if n <= 40:
        classes = int(450_000 * 1.35 ** (n - 40)) + 100
    else:
        classes = int(450_000 * 1.45 ** (n - 40))
    return 32 * 2**20 + classes * (24 * n + 200)


def build_table(
    from_n: int,
    to_n: int,
    *,
    workers: int = 1,
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
    return [(n, count(n, workers=workers).count) for n in range(from_n, to_n + 1)]


def format_table(rows: list[tuple[int, int]], fmt: str = "plain") -> str:
    if fmt == "plain":
        width = max(len(str(n)) for n, _ in rows)
        return "\n".join(f"{n:>{width}}  {value}" for n, value in rows)
    if fmt == "csv":
        return "\n".join(["n,count"] + [f"{n},{value}" for n, value in rows])
    if fmt == "json":
        return json.dumps([{"n": n, "count": str(value)} for n, value in rows])
    raise ValueError(f"unknown table format {fmt!r}")


def emit_table(
    from_n: int,
    to_n: int,
    fmt: str = "plain",
    *,
    path: Optional[Union[str, Path]] = None,
    workers: int = 1,
    budget_mb: Optional[int] = DEFAULT_BUDGET_MB,
) -> str:
    text = format_table(build_table(from_n, to_n, workers=workers, budget_mb=budget_mb), fmt)
    if path is not None:
        try:
            Path(path).write_text(text + "\n")
        except OSError as exc:
            raise OSError(f"cannot write table to {path}: {exc}") from exc
    return text


def build_ratios(from_n: int, to_n: int, *, workers: int = 1) -> list[tuple[int, str]]:
    """(n, G(n+1)/G(n)) rows, ratios rendered to three decimal places."""
    if to_n < from_n + 1:
        raise ValueError("ratios need at least two consecutive table rows")
    rows = build_table(from_n, to_n, workers=workers)
    out = []
    for (n, a), (_, b) in zip(rows, rows[1:]):
        # round-half-up on the exact rational, then render 3 decimals
        scaled = (b * 2000 + a) // (2 * a)
        out.append((n, f"{scaled // 1000}.{scaled % 1000:03d}"))
    return out


def format_ratios(rows: list[tuple[int, str]]) -> str:
    width = max(len(str(n)) for n, _ in rows)
    return "\n".join(f"{n:>{width}}  {ratio}" for n, ratio in rows)


def emit_ratios(from_n: int, to_n: int, *, workers: int = 1) -> str:
    return format_ratios(build_ratios(from_n, to_n, workers=workers))


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
            {"level": s.level, "classes": s.class_count, "nodes": str(s.node_sum)}
            for s in result.levels
        ],
    }
