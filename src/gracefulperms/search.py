"""Counting and enumeration of graceful permutations.

Three independent routes produce counts:

* ``brute_force_count`` filters all n! permutations (small n only),
* ``dfs_count`` walks the search tree node by node, editing one state in
  place (the walker ``enumerate_graceful`` lists permutations with),
* ``count`` runs the production level-synchronous BFS that folds
  complement-equivalent states into classes and carries exact
  multiplicities, split by orientation so endpoint constraints stay
  correct after folding.

A class stored under key K holds ``direct`` tree nodes whose encoding is
K itself and ``reflected`` nodes whose complemented encoding is K.  The
final answer is read off the terminal level: an unconstrained graceful
permutation is a terminal tree node read in either direction, while a
required start label picks the reading direction, so no doubling applies
to constrained counts.

The BFS stores a key in one byte per label: 0 for a label with no free
slot, 1 + p for a path end whose partner is p, n + 1 for an unused label.
This is the two-byte ``state.encode`` form, (0, FF), (1, p) or (2, FF),
mapped monotonically, so both sort alike and checkpoints keep the
two-byte form.  Multiplicities are 128-bit integers held as two
little-endian uint64 limbs, low first.
"""

from __future__ import annotations

import multiprocessing
import operator
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice, permutations
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .state import MAX_LABELS, SENTINEL

__all__ = [
    "OneEndpoint",
    "TwoEndpoints",
    "Constraint",
    "ClassMap",
    "LevelStats",
    "CountResult",
    "GracefulPermutation",
    "EnumerationResult",
    "ComputationRefused",
    "MultiplicityOverflow",
    "is_graceful",
    "brute_force_count",
    "dfs_count",
    "enumerate_graceful",
    "root_map",
    "expand_level",
    "finalize",
    "count",
]

#: Largest n accepted by the brute-force oracle (11! is already 4*10^7).
BRUTE_FORCE_LIMIT = 11

#: Below this many classes the per-key loop beats the array path: on the
#: 10,572 levels under 16 classes that counting every constraint with
#: n <= 16 expands, the array path takes 129-155 us per level and the loop
#: 23-27 us (2 vCPUs, Python 3.11, numpy 2.4).
_ARRAY_MIN_ROWS = 16

#: Parent rows the array path expands and groups at a time; bounds the
#: expansion's working arrays.  Each block's grouped children are folded
#: into the level as soon as the block is done (``_fold``).  Label
#: sequences are checked for gracefulness (``_bad_rows``) this many at a
#: time too.
_BLOCK_ROWS = 4096

#: About the most rows that one merge takes: a level being folded is kept
#: in key ranges of under _MERGE_ROWS / 2 grouped rows, and a merge groups
#: a range's runs into one, which it cuts by position into runs of
#: _MERGE_ROWS / 4 to _MERGE_ROWS / 2 rows; this bounds the merge's sort
#: and sum transient.
_MERGE_ROWS = 2**15

#: Most rows one group may take; the 32-bit digit sums of more rows could
#: wrap.
_MAX_MERGE_ROWS = 2**32 - 1

#: Key rows that ``_orient`` translates at a time.  Its two temporary byte
#: strings are this size: chunks of 4,096 rows already raised peak RSS, and
#: one chunk per level would add two level-sized copies.
_ORIENT_ROWS = 1024

#: Limb masks by a child's live-slot flags (bit 0 direct, bit 1 reflected):
#: the limbs of a dead slot are cleared.
_SLOT_MASKS = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint64).repeat(2, axis=1)
_SLOT_MASKS *= np.uint64(2**64 - 1)


class ComputationRefused(Exception):
    """A structurally valid request was declined as too expensive."""


class MultiplicityOverflow(ArithmeticError):
    """A multiplicity reached 2**128, or a level 2**32 rows, which the
    limb arithmetic cannot hold exactly."""


@dataclass(frozen=True)
class OneEndpoint:
    """Count permutations whose first label is ``a``."""

    a: int


@dataclass(frozen=True)
class TwoEndpoints:
    """Count permutations starting at ``a`` and ending at ``b``."""

    a: int
    b: int


Constraint = Union[None, OneEndpoint, TwoEndpoints]


@dataclass(eq=False)
class ClassMap:
    """All equivalence classes on one level.

    ``keys`` is a sorted, duplicate-free ``(rows, n)`` uint8 array of
    canonical keys in the one-byte-per-label form, whose order is the
    checkpoint's byte order; ``mult`` is the matching ``(rows, 4)`` uint64
    array of limbs, (direct low, direct high, reflected low, reflected
    high).  ``level`` is the label of the next edge to place; 0 means
    terminal.  ``constraint`` is the one the map was built for: its
    pruning is only sound for that constraint, while a map built for None
    holds every tree node.
    """

    n: int
    level: int
    keys: np.ndarray
    mult: np.ndarray
    constraint: Constraint = None

    def __post_init__(self) -> None:
        if not 0 <= self.level < self.n:
            raise ValueError(f"level {self.level} out of range 0..{self.n - 1}")
        rows = len(self.keys)
        if self.keys.dtype != np.uint8 or self.keys.shape != (rows, self.n):
            raise ValueError(f"keys must be a (rows, {self.n}) uint8 array")
        if self.mult.dtype != np.uint64 or self.mult.shape != (rows, 4):
            raise ValueError(f"mult must be a ({rows}, 4) uint64 array of limbs")

    def node_sum(self) -> int:
        return _limb_sum(self.mult)

    @property
    def entries(self) -> _Entries:
        """The two-byte checkpoint keys, in key order."""
        return _Entries(self)


class _Entries:
    """``len`` and key iteration of a map; ``len`` does not widen the keys."""

    def __init__(self, cmap: ClassMap) -> None:
        self._map = cmap

    def __len__(self) -> int:
        return len(self._map.keys)

    def __iter__(self):
        return (row.tobytes() for row in _widen(self._map.keys))


@dataclass(frozen=True)
class LevelStats:
    level: int
    class_count: int
    node_sum: int
    wall_time: float


@dataclass(frozen=True)
class CountResult:
    n: int
    constraint: Constraint
    count: int
    levels: tuple[LevelStats, ...]
    elapsed: float


@dataclass(frozen=True)
class GracefulPermutation:
    """A validated label sequence whose adjacent differences are 1..n-1."""

    seq: tuple[int, ...]

    def __post_init__(self) -> None:
        seq = tuple(self.seq)
        labels = _graceful_labels(seq)
        if labels is None:
            raise ValueError(f"not a graceful permutation: {list(seq)}")
        object.__setattr__(self, "seq", labels)

    @classmethod
    def _checked(cls, seq: tuple[int, ...]) -> GracefulPermutation:
        """Wrap a tuple of ints that ``_check_graceful`` has passed."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "seq", seq)
        return perm

    def __len__(self) -> int:
        return len(self.seq)

    def __iter__(self):
        return iter(self.seq)

    def __getitem__(self, i):
        return self.seq[i]

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.seq)) + "]"


@dataclass
class EnumerationResult:
    permutations: list[GracefulPermutation]
    truncated: bool = False


def is_graceful(seq: Sequence[int]) -> bool:
    """True iff seq is a permutation of 0..n-1 with differences 1..n-1.
    Labels may be of any integer type that ``operator.index`` accepts."""
    return _graceful_labels(seq) is not None


def _graceful_labels(seq: Sequence[int]) -> Optional[tuple[int, ...]]:
    """``is_graceful``'s rule: seq's labels as a tuple of ints, or None."""
    n = len(seq)
    if n == 0:
        return None
    try:
        labels = tuple(map(operator.index, seq))
    except TypeError:
        return None
    if sorted(labels) != list(range(n)):
        return None
    if sorted(abs(b - a) for a, b in zip(labels, labels[1:])) != list(range(1, n)):
        return None
    return labels


def _bad_rows(rows: Sequence[tuple[int, ...]]) -> np.ndarray:
    """``is_graceful``'s rule over equal-length rows of ints, at once: True
    for a row whose sorted labels are not 0..n-1 or whose sorted absolute
    differences are not 1..n-1."""
    a = np.array(rows, dtype=np.int32)
    n = a.shape[1]
    bad = (np.sort(a, axis=1) != np.arange(n, dtype=np.int32)).any(axis=1)
    diffs = np.abs(np.diff(a, axis=1))
    diffs.sort(axis=1)
    return bad | (diffs != np.arange(1, n, dtype=np.int32)).any(axis=1)


def _check_graceful(seqs: list[tuple[int, ...]]) -> None:
    """Raise ``GracefulPermutation``'s ValueError for the first sequence
    that is not graceful, checking _BLOCK_ROWS sequences at a time."""
    for start in range(0, len(seqs), _BLOCK_ROWS):
        bad = _bad_rows(seqs[start : start + _BLOCK_ROWS])
        if bad.any():
            seq = seqs[start + int(bad.argmax())]
            raise ValueError(f"not a graceful permutation: {list(seq)}")


def _endpoints(constraint: Constraint) -> tuple:
    """The labels a constraint fixes: ``()``, ``(a,)`` or ``(a, b)``, the
    first label before the last."""
    if constraint is None:
        return ()
    if isinstance(constraint, OneEndpoint):
        return (constraint.a,)
    if isinstance(constraint, TwoEndpoints):
        return (constraint.a, constraint.b)
    raise TypeError(f"not a constraint: {constraint!r}")


def _constraint(ends: Sequence[int]) -> Constraint:
    """The constraint fixing ``ends``, the inverse of ``_endpoints``."""
    if not ends:
        return None
    return OneEndpoint(*ends) if len(ends) == 1 else TwoEndpoints(*ends)


def _check_constraint(n: int, constraint: Constraint) -> tuple:
    """The labels ``constraint`` fixes, once ``n`` and they are checked."""
    if n < 1:
        raise ValueError(f"label count must be >= 1, got {n}")
    ends = _endpoints(constraint)
    for a in ends:
        try:
            operator.index(a)
        except TypeError:
            raise TypeError(f"endpoint label {a!r} is not an integer") from None
        if not 0 <= a < n:
            raise ValueError(f"endpoint label {a} out of range 0..{n - 1}")
    return ends


def _matches_endpoints(seq: Sequence[int], ends: tuple) -> bool:
    return all(seq[i] == e for i, e in zip((0, -1), ends))


# ---------------------------------------------------------------------------
# Oracle 1: brute force over all n! permutations
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _all_graceful_brute(n: int) -> tuple[tuple[int, ...], ...]:
    """The graceful permutations of n labels in lexicographic order, from
    every permutation checked _BLOCK_ROWS at a time."""
    perms = permutations(range(n))
    out = []
    while block := list(islice(perms, _BLOCK_ROWS)):
        out += compress(block, ~_bad_rows(block))
    return tuple(out)


def brute_force_count(n: int, constraint: Constraint = None) -> int:
    """Count by filtering every permutation; refuses n past the guard."""
    if n > BRUTE_FORCE_LIMIT:
        raise ComputationRefused(
            f"brute force refused for n={n}: guard is n <= {BRUTE_FORCE_LIMIT}"
        )
    ends = _check_constraint(n, constraint)
    return sum(1 for p in _all_graceful_brute(n) if _matches_endpoints(p, ends))


# ---------------------------------------------------------------------------
# Oracle 2 and enumeration: one in-place walk of the search tree
# ---------------------------------------------------------------------------


class _Truncated(Exception):
    pass


def _check_depth(n: int) -> None:
    """Refuse a walk that would raise RecursionError: under ``_walk``'s
    stack it adds n frames of ``rec``, then ``leaf`` and one below it, and
    Python raises when the depth reaches the recursion limit."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    if depth + n + 2 >= limit:
        raise ComputationRefused(
            f"walk refused for n={n}: its {n + 2} frames on a stack of {depth} "
            f"would reach the recursion limit {limit}"
        )


def _walk(n: int, constraint: Constraint, prune: bool, emit=None) -> int:
    """Depth-first walk of the search tree for ``n >= 2``, no folding.

    One state (slot counts, endpoint pairing, placed edges) is edited in
    place and restored on the way back.  Returns the number of graceful
    permutations satisfying the constraint; with ``emit``, also hands each
    label sequence to it, in a deterministic order.
    """
    _check_depth(n)
    free = [2] * n
    forb = list(range(n))
    placed = [0] * n  # the edge labelled k joins placed[k] and placed[k] + k

    def dead(k: int) -> bool:
        """No leaf below the current node, whose next edge is ``k``,
        satisfies the constraint: a required endpoint is interior, both
        required ends are one label, or they end one partial path before
        the path is complete."""
        if constraint is None:
            return False
        if isinstance(constraint, OneEndpoint):
            return free[constraint.a] == 0
        a, b = constraint.a, constraint.b
        if a == b or free[a] == 0 or free[b] == 0:
            return True
        return forb[a] == b and k > 0

    def read_path(start: int) -> tuple[int, ...]:
        # link[v] is the xor of v's neighbours; an end has one, so the
        # first step from it reads link[start] ^ 0.
        link = [0] * n
        for k in range(1, n):
            u = placed[k]
            link[u] ^= u + k
            link[u + k] ^= u
        seq = [start]
        prev = 0
        cur = start
        for _ in range(n - 1):
            prev, cur = cur, link[cur] ^ prev
            seq.append(cur)
        return tuple(seq)

    def leaf() -> int:
        """Permutations a finished path yields: both of its readings when
        unconstrained, else the one from the required start label."""
        if constraint is None:
            if emit is not None:
                seq = read_path(free.index(1))
                emit(seq)
                emit(seq[::-1])
            return 2
        if dead(0):
            return 0
        if emit is not None:
            emit(read_path(constraint.a))
        return 1

    def rec(k: int) -> int:
        if k == 0:
            return leaf()
        total = 0
        for u in range(n - k):
            v = u + k
            if free[u] == 0 or free[v] == 0 or forb[u] == v:
                continue
            pu, pv = forb[u], forb[v]
            free[u] -= 1
            free[v] -= 1
            forb[pu], forb[pv] = pv, pu
            if free[u] == 0:
                forb[u] = u
            if free[v] == 0:
                forb[v] = v
            placed[k] = u
            if not (prune and dead(k - 1)):
                total += rec(k - 1)
            free[u] += 1
            free[v] += 1
            # forb[pu] was u and forb[pv] was v before the edge, in both
            # the unused and the endpoint case.
            forb[u] = pu
            forb[v] = pv
            forb[pu] = u
            forb[pv] = v
        return total

    return rec(n - 1)


def dfs_count(n: int, constraint: Constraint = None, *, prune: bool = True) -> int:
    """Count by walking the search tree node by node, without folding.

    Applies the same terminal constraint semantics as ``finalize``; with
    ``prune``, subtrees that cannot satisfy the constraint are skipped.
    """
    _check_constraint(n, constraint)
    if n == 1:  # [0], whose ends are both 0, is every constraint's match
        return 1
    return _walk(n, constraint, prune)


def enumerate_graceful(
    n: int, constraint: Constraint = None, limit: Optional[int] = None
) -> EnumerationResult:
    """All graceful permutations under the constraint, each exactly once,
    in a deterministic order; stops with ``truncated`` set once ``limit``
    permutations have been collected."""
    _check_constraint(n, constraint)
    if limit is not None and limit < 0:
        raise ValueError("limit must be >= 0")
    seqs: list[tuple[int, ...]] = []
    truncated = False

    def emit(seq: tuple[int, ...]) -> None:
        if limit is not None and len(seqs) >= limit:
            raise _Truncated
        seqs.append(seq)

    try:
        if n == 1:
            emit((0,))
        else:
            _walk(n, constraint, True, emit)
    except _Truncated:
        truncated = True
    _check_graceful(seqs)
    return EnumerationResult(list(map(GracefulPermutation._checked, seqs)), truncated)


# ---------------------------------------------------------------------------
# Production route: multiplicity BFS over folded classes
# ---------------------------------------------------------------------------


_LOW32 = 0xFFFF_FFFF


@lru_cache(maxsize=None)
def _byte_tables(n: int) -> tuple[bytes, np.ndarray, np.ndarray]:
    """For one-byte keys on ``n`` labels: the complement's byte map
    (c -> n + 1 - c for path ends, 0 and n + 1 fixed), and the free-count
    and partner bytes of the two-byte form of every key byte."""
    comp = bytearray(range(256))
    free = np.full(256, 2, dtype=np.uint8)
    part = np.full(256, SENTINEL, dtype=np.uint8)
    free[0] = 0
    for c in range(1, n + 1):
        comp[c] = n + 1 - c
        free[c] = 1
        part[c] = c - 1
    free.flags.writeable = part.flags.writeable = False  # shared by every caller
    return bytes(comp), free, part


def _widen(keys: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The two-byte ``state.encode`` form of one-byte key rows, written
    into ``out`` when it is given."""
    _, free, part = _byte_tables(keys.shape[1])
    if out is None:
        out = np.empty((len(keys), 2 * keys.shape[1]), dtype=np.uint8)
    out[:, 0::2] = free[keys]
    out[:, 1::2] = part[keys]
    return out


def _compact(wide: np.ndarray) -> np.ndarray:
    """The one-byte form of normalized two-byte key rows."""
    out = wide[:, 1::2] + np.uint8(1)  # the sentinel wraps to 0
    out[wide[:, 0::2] == 2] = wide.shape[1] // 2 + 1
    return out


def _bad_states(keys: np.ndarray, level: int) -> np.ndarray:
    """True for each one-byte key row that is not a state on ``level``: a
    byte above n + 1, a path end paired with itself or with a label that
    does not pair it back, a slot sum (2 per 0 byte, 1 per end) other
    than 2 (n - 1 - level), or, on level 0 with n >= 2, other than two
    ends.  Over rows of bytes 0..n + 1 this is ``state.decode`` of the
    widened row failing or landing on another level."""
    n = keys.shape[1]
    labels = np.arange(n, dtype=np.uint8)
    partner = keys - np.uint8(1)  # 0 and n + 1 map outside 0..n - 1
    ends = partner < n
    # The byte at each end's partner, through flat indices: faster than
    # np.take_along_axis.  The row offsets are added in place, so that one
    # index array of 8 bytes per key byte is held, not two.
    at = np.minimum(partner, n - 1).astype(np.intp)
    at += np.arange(0, keys.size, n)[:, None]
    back = keys.reshape(-1)[at]
    bad = (keys > n + 1).any(axis=1)
    bad |= (ends & ((partner == labels) | (back != labels + 1))).any(axis=1)
    end_count = np.count_nonzero(ends, axis=1)
    bad |= 2 * np.count_nonzero(keys == 0, axis=1) + end_count != 2 * (n - 1 - level)
    if level == 0 and n >= 2:
        bad |= end_count != 2
    return bad


def _limbs(pairs) -> np.ndarray:
    """``(rows, 4)`` limbs of (direct, reflected) pairs of Python ints."""
    flat = []
    for pair in pairs:
        for x in pair:
            if x < 0:
                raise ValueError(f"negative multiplicity {x}")
            if x >> 128:
                raise MultiplicityOverflow(f"multiplicity {x} does not fit in 128 bits")
            flat += (x & 0xFFFF_FFFF_FFFF_FFFF, x >> 64)
    return np.array(flat, dtype=np.uint64).reshape(-1, 4)


def _limb_sum(limbs: np.ndarray) -> int:
    """Exact sum of every 128-bit value held in ``(rows, 2k)`` limbs."""
    # 32-bit digit columns summed in 64 bits cannot wrap below 2**32 rows.
    digits = np.ascontiguousarray(limbs).view(np.uint32).sum(axis=0, dtype=np.uint64)
    return sum(x << (32 * (j % 4)) for j, x in enumerate(digits.tolist()))


def _sum_groups(mult: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exact sums of the ``(rows, 4)`` limb rows in the groups beginning at
    ``starts``.

    When no high limb is set and the largest low limb times the number of
    rows is below 2**64, no group's sum, nor any partial sum on the way to
    it, can exceed 2**64 - 1, so one 64-bit ``reduceat`` over the low limbs
    is exact and the high limbs of the sums are zero.  Other input goes
    through ``_digit_sums``.
    """
    low = mult[:, 0::2]
    if not mult[:, 1::2].any() and int(low.max(initial=0)) * len(mult) < 2**64:
        out = np.zeros((len(starts), 4), dtype=np.uint64)
        out[:, 0::2] = np.add.reduceat(low, starts, axis=0)
        return out
    return _digit_sums(mult, starts)


def _digit_sums(mult: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``_sum_groups`` for any input.  Each limb column is split into
    32-bit digits and summed one column at a time, then carries are
    propagated; the digit sums cannot wrap for groups under 2**32 rows."""
    out = np.empty((len(starts), 4), dtype=np.uint64)
    for value in (0, 2):
        carry = 0
        for c in (value, value + 1):
            col = mult[:, c]
            lo = np.add.reduceat(col & _LOW32, starts) + carry
            hi = np.add.reduceat(col >> 32, starts) + (lo >> 32)
            out[:, c] = (lo & _LOW32) | (hi << 32)
            carry = hi >> 32
        if carry.any():
            raise MultiplicityOverflow("a class multiplicity reached 2**128")
    return out


def root_map(n: int) -> ClassMap:
    """Level-(n-1) map holding the single empty state; nothing is pruned
    yet, so it is built for None and serves every constraint."""
    if n > MAX_LABELS:
        raise ValueError(f"label count must be <= {MAX_LABELS}, got {n}")
    key = np.full((1, n), n + 1, dtype=np.uint8)
    return ClassMap(n, n - 1, key, np.array([[1, 0, 0, 0]], dtype=np.uint64))


def _dead_tests(n: int, level: int, constraint: Constraint):
    """The pruning rule for keys on ``level`` (the next edge label).

    A slot is dead when no leaf below it satisfies the constraint: a
    required endpoint has no free slot left, both required ends are one
    label, or, before the path is complete, the two required ends end one
    partial path.  Returns None when nothing can die, else the
    ``(label, low, high)`` tests, any of which kills a slot when the key
    byte of that label lies in ``low..high``: the first list for the
    direct slot, the second for the reflected slot.  Both read the key as
    it is, so they hold for any state of the level, canonical or not: the
    second list is the first one read on the complement.  The array path
    (``_children``) applies them to each child before its key row is
    built: the tested bytes are the parent's bytes at the tested labels
    with the edge's writes applied.  ``finalize`` and the per-key loop
    apply them to canonical keys.
    """
    ends = _endpoints(constraint)
    if not ends:
        return None

    def tests(*ends):
        out = [(e, 0, 0) for e in ends]
        if len(ends) == 2:
            a, b = ends
            if a == b:  # a path of two or more labels has two distinct ends
                out.append((a, 0, 255))
            elif level > 0:
                out.append((a, b + 1, b + 1))
        return out

    return tests(*ends), tests(*(n - 1 - e for e in ends))


def _dead_rows(columns, tests) -> np.ndarray:
    """True for each row that one of the tests kills; ``columns[label]``
    is the uint8 column of key bytes at that label."""
    return np.logical_or.reduce(
        [columns[label] - np.uint8(low) <= high - low for label, low, high in tests]
    )


def _rows(keys: np.ndarray) -> np.ndarray:
    """The key rows as one void scalar each, which compare as byte strings."""
    return keys.view(np.dtype((np.void, keys.shape[1]))).ravel()


def _group(parts):
    """Sort the rows of a list of (keys, mult) pairs by key bytes and add
    up the multiplicities of equal keys.  The list is emptied, so each
    input array can be freed as soon as it is copied; a single pair is
    sorted without a copy.  The stable sort (a timsort) merges the
    presorted runs of grouped blocks instead of sorting from scratch."""
    total = sum(len(keys) for keys, _ in parts)
    if total > _MAX_MERGE_ROWS:
        raise MultiplicityOverflow(f"{total} rows to group, the limit is {_MAX_MERGE_ROWS}")
    w = parts[0][0].shape[1]
    if len(parts) == 1:
        keys, mult = parts.pop()
    else:
        keys = np.concatenate([p[0] for p in parts])
        mult = np.concatenate([p[1] for p in parts])
        parts.clear()
    rows = _rows(keys)
    del keys
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    mult = mult[order]
    del order
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    starts = np.flatnonzero(first)
    keys = rows[starts].view(np.uint8).reshape(-1, w)
    if len(starts) < len(rows):
        mult = _sum_groups(mult, starts)
    return keys, mult


def _join(runs):
    """One (keys, mult) pair holding the rows of grouped runs, an iterable
    in key order.

    The pair's arrays grow in place (``ndarray.resize``) by the runs taken
    since they last grew, as soon as those hold as many rows as the arrays
    do.  So the runs are freed as they are written and the arrays are
    resized a logarithmic number of times, instead of every range being
    held until all are joined into a second copy of the output.
    """
    keys = mult = None
    batch = []

    def grow():
        end = len(keys)
        rows = sum(len(k) for k, _ in batch)
        keys.resize((end + rows, keys.shape[1]), refcheck=False)
        mult.resize((end + rows, 4), refcheck=False)
        for k, m in batch:
            keys[end : end + len(k)] = k
            mult[end : end + len(k)] = m
            end += len(k)
        batch.clear()

    for run in runs:
        if keys is None:
            keys = np.empty((0, run[0].shape[1]), dtype=np.uint8)
            mult = np.empty((0, 4), dtype=np.uint64)
        batch.append(run)
        del run  # so that the batch is the run's only holder
        if sum(len(k) for k, _ in batch) >= len(keys):
            grow()
    if batch:
        grow()
    return keys, mult


def _merge(parts, size: int):
    """Grouped runs of at least ``size`` rows each, unless there is only
    one, in key order, from a list of sorted, duplicate-free (keys, mult)
    runs, which is emptied.

    The runs are grouped into one; a single run is grouped already and is
    used as it is.  Below ``2 * size`` rows that run is returned whole;
    more are cut by position into ``rows // size`` runs whose lengths
    differ by at most one row.  A grouped run holds each key once, so no
    key is split between two runs.  The pieces are copied out, so the
    grouped run is freed once they are cut.
    """
    keys, mult = parts.pop() if len(parts) == 1 else _group(parts)
    pieces = len(keys) // size
    if pieces <= 1:
        return [(keys, mult)]
    cuts = [i * len(keys) // pieces for i in range(pieces + 1)]
    return [(keys[a:b].copy(), mult[a:b].copy()) for a, b in zip(cuts, cuts[1:])]


def _fold(blocks):
    """One level from the grouped outputs of its blocks, an iterable of
    sorted, duplicate-free (keys, mult) runs, each folded in as it comes.

    The level so far is kept in buckets, disjoint key ranges in key order,
    each a list of runs: one grouped run, then the slices of later blocks
    that fell into its range; the first block's runs seed them.  A block
    is cut at the buckets' first keys and its slices are copied out, so
    the block is freed at once.  A bucket whose held rows outgrow its run
    is merged (``_merge``, which empties the list, so the bucket's arrays
    are freed as the merge goes), and the merge's runs, each of under
    ``_MERGE_ROWS / 2`` rows and, when there are several, of at least
    ``_MERGE_ROWS / 4``, replace it as buckets, so equal keys always share
    a bucket.  So the rows held beside the runs stay below
    the rows in them plus one block, and a merge takes about
    ``_MERGE_ROWS`` rows at most.  Last, each bucket is grouped, written
    into the output in key order and freed.
    """
    size = max(1, _MERGE_ROWS // 4)
    buckets = None
    for keys, mult in blocks:
        if buckets is None:
            buckets = [[run] for run in _merge([(keys, mult)], size)]
        else:
            # The first key of every bucket but the first.
            firsts = np.array([bucket[0][0][0] for bucket in buckets[1:]], dtype=np.uint8)
            firsts = firsts.reshape(-1, keys.shape[1])
            cuts = [0, *np.searchsorted(_rows(keys), _rows(firsts)).tolist(), len(keys)]
            for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
                if a < b:
                    buckets[i].append((keys[a:b].copy(), mult[a:b].copy()))
        del keys, mult
        for i in reversed(range(len(buckets))):
            if sum(len(k) for k, _ in buckets[i]) > 2 * len(buckets[i][0][0]):
                buckets[i : i + 1] = [[run] for run in _merge(buckets[i], size)]
    return _join(bucket.pop() if len(bucket) == 1 else _group(bucket) for bucket in buckets)


def _compare_rows(a: np.ndarray, b: np.ndarray):
    """Rowwise lexicographic comparison of two equal-shape uint8 arrays at
    their first differing byte: ``(a < b, a == b)`` per row."""
    neq = a != b
    first = neq.argmax(axis=1)
    i = np.arange(len(a))
    return a[i, first] < b[i, first], ~neq[i, first]


def _orient(keys: np.ndarray):
    """The complement of every one-byte key row (labels reversed, each
    partner p read as n - 1 - p), whether it sorts strictly below the key
    (the row is reflected) and whether it equals the key
    (self-complementary).

    The key bytes are mapped by ``bytes.translate``, ``_ORIENT_ROWS`` rows
    at a time, into one array; the complement is a view of that array with
    its columns reversed.
    """
    n = keys.shape[1]
    table = _byte_tables(n)[0]
    mapped = np.empty(keys.shape, dtype=np.uint8)
    flat = mapped.reshape(-1)
    for i in range(0, len(keys), _ORIENT_ROWS):
        chunk = keys[i : i + _ORIENT_ROWS].tobytes().translate(table)
        flat[i * n : i * n + len(chunk)] = np.frombuffer(chunk, dtype=np.uint8)
    comp = mapped[:, ::-1]
    reflected, self_comp = _compare_rows(comp, keys)
    return comp, reflected, self_comp


def _expand_block(job):
    """Children of a block of parent rows: placed, pruned, canonicalised
    and grouped, all as array operations."""
    child, out = _children(*job)
    comp, reflected, self_comp = _orient(child)
    child[reflected] = comp[reflected]  # the canonical keys
    del comp
    out[reflected] = out[reflected][:, [2, 3, 0, 1]]
    if self_comp.any():
        # A self-complementary child's two counts, as a group of two rows
        # of direct limbs, sum into its direct slot.
        pairs = np.zeros((np.count_nonzero(self_comp), 2, 4), dtype=np.uint64)
        pairs[:, :, :2] = out[self_comp].reshape(-1, 2, 2)
        out[self_comp] = _sum_groups(pairs.reshape(-1, 4), np.arange(0, 2 * len(pairs), 2))
    parts = [(child, out)]
    del child, out  # so that the group frees them once they are sorted
    return _group(parts)


def _children(n, k, keys, mult, dead):
    """The children of parent rows ``keys`` on placing the edge labelled
    ``k``, as they are, with their parents' limbs: with ``dead``, each
    slot the child dies in is cleared and children with no live slot are
    left out.

    Children are generated edge by edge, in ``(u, row)`` order: one
    edge's children of parents in key order come out largely in key
    order, which the stable group sort merges as presorted runs.  The key
    bytes are read label-major, one contiguous row per label.  Pruning
    takes each child's bytes at the tested labels from the parent's
    tested rows and applies the edge's writes to them as byte
    comparisons, and decides which slots live from one byte of flags per
    child, so dead children are dropped before their key rows are built
    or their limbs gathered.
    """
    m = n - k
    rows = len(keys)
    cols = np.ascontiguousarray(keys.T)
    ok = (cols[:m] != 0) & (cols[k:] != 0)
    ok &= cols[:m] != np.arange(k + 1, n + 1, dtype=np.uint8)[:, None]
    u, row = np.nonzero(ok)
    cu = np.take(cols, u * rows + row)
    cv = np.take(cols, (u + k) * rows + row)
    # An end u of a path with partner pu, or an unused label (pu = u):
    # the edge joins pu and pv into one path, and path ends become interior.
    # pu, pv and the ends among u and v are distinct labels (an edge
    # closing a path is refused above).  So the child is written with
    # zeros at u and v first, then pv + 1 at pu and pu + 1 at pv, which
    # puts an unused u or v's new byte over its zero.
    pu = np.where(cu != n + 1, cu - 1, u)
    pv = np.where(cv != n + 1, cv - 1, u + k)
    if dead is not None:
        # The child's bytes at the tested labels, one row per label.
        labels = sorted({label for tests in dead for label, _, _ in tests})
        lab = np.array(labels, dtype=np.uint8)[:, None]
        at = np.take(cols[labels], row, axis=1)
        u8, v8, pu8, pv8 = (x.astype(np.uint8) for x in (u, u + k, pu, pv))
        at[(lab == u8) | (lab == v8)] = 0
        np.copyto(at, pv8 + np.uint8(1), where=lab == pu8)
        np.copyto(at, pu8 + np.uint8(1), where=lab == pv8)
        at = dict(zip(labels, at))
        # Bit 0 of a child's flags is its direct slot, bit 1 its reflected
        # slot; a slot lives when the parent's slot holds nodes and the
        # child does not die in it.  The direct count holds the child as it
        # is; the reflected count holds its complement, which dies under
        # dead[0] exactly when the child dies under dead[1].
        held = ((mult[:, 0] | mult[:, 1]) != 0).view(np.uint8)
        held |= ((mult[:, 2] | mult[:, 3]) != 0).view(np.uint8) << 1
        live = np.take(held, row)
        kill = _dead_rows(at, dead[1]).view(np.uint8) << 1
        kill |= _dead_rows(at, dead[0]).view(np.uint8)
        live &= ~kill
        keep = np.flatnonzero(live)
        row, u, pu, pv, live = (x[keep] for x in (row, u, pu, pv, live))
        out = np.take(mult, row, axis=0)
        out &= np.take(_SLOT_MASKS, live, axis=0)
    else:
        out = np.take(mult, row, axis=0)
    first = np.arange(len(row)) * n  # each child's first byte in the flat rows
    child = np.take(keys, row, axis=0)
    flat = child.reshape(-1)
    flat[first + u] = 0
    flat[first + u + k] = 0
    flat[first + pu] = pv + 1
    flat[first + pv] = pu + 1
    return child, out


def _expand_keys(n, k, keys, mult, dead):
    """The same step one child at a time, for levels too small to pay
    for the array path's fixed cost."""
    table = _byte_tables(n)[0]
    unused = n + 1
    blob = keys.tobytes()
    acc: dict[bytes, list[int]] = {}
    get = acc.get
    for j, (dlo, dhi, rlo, rhi) in enumerate(mult.tolist()):
        d = dlo | dhi << 64
        r = rlo | rhi << 64
        key = blob[j * n : (j + 1) * n]
        for u in range(n - k):
            v = u + k
            cu = key[u]
            cv = key[v]
            if cu == 0 or cv == 0 or cu == v + 1:
                continue
            ba = bytearray(key)
            pu = u if cu == unused else cu - 1
            pv = v if cv == unused else cv - 1
            ba[pu] = pv + 1
            ba[pv] = pu + 1
            if cu != unused:
                ba[u] = 0
            if cv != unused:
                ba[v] = 0
            kd = bytes(ba)
            kc = kd.translate(table)[::-1]
            if kd < kc:
                ckey, dd, rr = kd, d, r
            elif kc < kd:
                ckey, dd, rr = kc, r, d
            else:
                ckey, dd, rr = kd, d + r, 0
            if dead is not None:
                if any(low <= ckey[e] <= high for e, low, high in dead[0]):
                    dd = 0
                if any(low <= ckey[e] <= high for e, low, high in dead[1]):
                    rr = 0
                if dd == 0 and rr == 0:
                    continue
            cur = get(ckey)
            if cur is None:
                acc[ckey] = [dd, rr]
            else:
                cur[0] += dd
                cur[1] += rr
    order = sorted(acc)
    out = np.frombuffer(b"".join(order), dtype=np.uint8).reshape(-1, n)
    return out, _limbs(acc[key] for key in order)


def _check_map(cmap: ClassMap, constraint: Constraint) -> None:
    """Check ``constraint`` against the map's n and against the constraint
    the map was built for; a map built for None serves every constraint."""
    _check_constraint(cmap.n, constraint)
    if cmap.constraint is not None and cmap.constraint != constraint:
        raise ValueError(f"map was built for {cmap.constraint!r}, not {constraint!r}")


def expand_level(
    cmap: ClassMap,
    constraint: Constraint = None,
    *,
    prune: bool = True,
) -> ClassMap:
    """One BFS step: place the edge labelled ``cmap.level`` everywhere.

    Children are regrouped by canonical key; a parent's direct count
    flows into the slot named by the child's orientation flag and its
    reflected count into the opposite slot, collapsing into the direct
    slot for self-complementary children.  With ``prune`` set, slots
    whose orientation can no longer satisfy the constraint are zeroed
    and entries with both slots zero are dropped.
    """
    return _expand(cmap, constraint, prune, map)


def _expand(cmap: ClassMap, constraint: Constraint, prune: bool, mapper) -> ClassMap:
    """``expand_level``, running the array path's blocks through ``mapper``:
    the builtin ``map`` expands each block when the fold asks for it,
    ``Pool.imap`` hands the workers' blocks back in order as they finish."""
    if cmap.level < 1:
        raise ValueError(f"cannot expand a terminal map (level {cmap.level})")
    _check_map(cmap, constraint)
    n, k = cmap.n, cmap.level
    dead = _dead_tests(n, k - 1, constraint) if prune else None
    rows = len(cmap.keys)
    if rows == 0 or rows < _ARRAY_MIN_ROWS:
        keys, mult = _expand_keys(n, k, cmap.keys, cmap.mult, dead)
    else:
        jobs = [
            (n, k, cmap.keys[i : i + _BLOCK_ROWS], cmap.mult[i : i + _BLOCK_ROWS], dead)
            for i in range(0, rows, _BLOCK_ROWS)
        ]
        if len(jobs) == 1:  # a single block is grouped already
            keys, mult = _expand_block(jobs[0])
        else:
            keys, mult = _fold(mapper(_expand_block, jobs))
    return ClassMap(n, k - 1, keys, mult, constraint)


def finalize(cmap: ClassMap, constraint: Constraint = None) -> int:
    """Read the count off a terminal map.

    Unconstrained, every terminal node is doubled (a path is read from
    either end); with a start label fixed, each node whose slot survives
    the pruning rule at level 0 is read in exactly one direction.
    """
    if cmap.level != 0:
        raise ValueError(f"finalize needs a terminal map, got level {cmap.level}")
    _check_map(cmap, constraint)
    dead = _dead_tests(cmap.n, 0, constraint)
    if dead is None:
        return 2 * cmap.node_sum()
    return sum(
        _limb_sum(cmap.mult[~_dead_rows(cmap.keys.T, tests), 2 * slot : 2 * slot + 2])
        for slot, tests in enumerate(dead)
    )


def count(
    n: int,
    constraint: Constraint = None,
    *,
    workers: int = 1,
    prune: bool = True,
    initial: Optional[ClassMap] = None,
    on_level: Optional[Callable[[ClassMap], None]] = None,
) -> CountResult:
    """Exact count of graceful permutations satisfying the constraint.

    ``workers`` > 1 expands the blocks of levels of more than one block
    (``_BLOCK_ROWS`` rows) in processes; results are bit-identical to the
    single-worker run because the per-class merge is exact and
    independent of the blocks.  ``initial``
    resumes from a previously saved map on ``n`` labels, built for the
    same constraint or for None.  Its rows are checked to be states on its
    level, ``_BLOCK_ROWS`` at a time, and a row that is not raises
    ``ValueError``; ``expand_level`` and ``finalize`` trust their map.  It
    is released after its expansion, so a map the caller passes without
    keeping a reference is freed before the first ``on_level`` call.
    ``on_level`` is called after every completed level.
    """
    t0 = time.perf_counter()
    _check_constraint(n, constraint)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if n == 1:  # as in dfs_count
        stats = (LevelStats(0, 1, 1, 0.0),)
        return CountResult(n, constraint, 1, stats, time.perf_counter() - t0)

    if initial is not None:
        if initial.n != n:
            raise ValueError(f"initial map is for n={initial.n}, not n={n}")
        # expand_level and finalize refuse a map built for another constraint.
        for start in range(0, len(initial.keys), _BLOCK_ROWS):
            bad = _bad_states(initial.keys[start : start + _BLOCK_ROWS], initial.level)
            if bad.any():
                row = start + int(bad.argmax())
                raise ValueError(f"initial map row {row} is not a state on level {initial.level}")
        # Hold the map only as the current level, so that it is freed once
        # it has been expanded unless the caller keeps it.
        cmap, initial = initial, None
    else:
        cmap = root_map(n)
    stats = [LevelStats(cmap.level, len(cmap.keys), cmap.node_sum(), 0.0)]

    pool = None
    try:
        if workers > 1:
            pool = multiprocessing.get_context("fork").Pool(workers)
        while cmap.level > 0:
            t1 = time.perf_counter()
            if pool is not None:
                cmap = _expand(cmap, constraint, prune, pool.imap)
            else:
                cmap = expand_level(cmap, constraint, prune=prune)
            stats.append(
                LevelStats(
                    cmap.level,
                    len(cmap.keys),
                    cmap.node_sum(),
                    time.perf_counter() - t1,
                )
            )
            if on_level is not None:
                on_level(cmap)
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    value = finalize(cmap, constraint)
    return CountResult(n, constraint, value, tuple(stats), time.perf_counter() - t0)
