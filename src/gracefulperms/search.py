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
"""

from __future__ import annotations

import multiprocessing
import time
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .state import SENTINEL, complement_key, encode, new_root

__all__ = [
    "OneEndpoint",
    "TwoEndpoints",
    "Constraint",
    "MultiplicityPair",
    "ClassMap",
    "LevelStats",
    "CountResult",
    "GracefulPermutation",
    "EnumerationResult",
    "ComputationRefused",
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

#: Below this many classes the per-key loop beats the array path, whose
#: fixed cost per level is about 130 us.
_ARRAY_MIN_ROWS = 16

#: Parent rows the array path expands and groups at a time; bounds the
#: memory that the children of one level take before they are merged.
_BLOCK_ROWS = 4096

#: Levels smaller than this are never worth farming out to worker processes.
_PARALLEL_MIN_ROWS = 4096


class ComputationRefused(Exception):
    """A structurally valid request was declined as too expensive."""


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


class MultiplicityPair(NamedTuple):
    """Exact class-member counts, split by stored orientation."""

    direct: int
    reflected: int


@dataclass(eq=False)
class ClassMap:
    """All equivalence classes on one level.

    ``keys`` is a sorted, duplicate-free ``(rows, 2n)`` uint8 array of
    canonical keys, in checkpoint byte order; ``mult`` is the matching
    ``(rows, 2)`` object array of exact Python ints, (direct, reflected),
    so accumulation can never wrap.  ``level`` is the label of the next
    edge to place; 0 means terminal.  ``constraint`` is the one the map
    was built for: its pruning is only sound for that constraint, while a
    map built for None holds every tree node.
    """

    n: int
    level: int
    keys: np.ndarray
    mult: np.ndarray
    constraint: Constraint = None

    def node_sum(self) -> int:
        return int(self.mult.sum())

    @property
    def entries(self) -> Mapping[bytes, MultiplicityPair]:
        """Read-only ``{key: MultiplicityPair}`` view of the arrays."""
        return _Entries(self.keys, self.mult)


class _Entries(Mapping):
    def __init__(self, keys: np.ndarray, mult: np.ndarray) -> None:
        self._keys = keys
        self._mult = mult

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return (row.tobytes() for row in self._keys)

    def __getitem__(self, key: bytes) -> MultiplicityPair:
        i = bisect_left(range(len(self)), key, key=lambda j: self._keys[j].tobytes())
        if i == len(self) or self._keys[i].tobytes() != key:
            raise KeyError(key)
        return MultiplicityPair(*self._mult[i])


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
        object.__setattr__(self, "seq", tuple(self.seq))
        if not is_graceful(self.seq):
            raise ValueError(f"not a graceful permutation: {list(self.seq)}")

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
    """True iff seq is a permutation of 0..n-1 with differences 1..n-1."""
    n = len(seq)
    if n == 0:
        return False
    labels_seen = 0
    for x in seq:
        if not isinstance(x, int) or not 0 <= x < n:
            return False
        bit = 1 << x
        if labels_seen & bit:
            return False
        labels_seen |= bit
    diffs_seen = 0
    prev = seq[0]
    for i in range(1, n):
        cur = seq[i]
        d = cur - prev
        if d < 0:
            d = -d
        bit = 1 << d
        if diffs_seen & bit:
            return False
        diffs_seen |= bit
        prev = cur
    return True


def _check_constraint(n: int, constraint: Constraint) -> None:
    if constraint is None:
        return
    if isinstance(constraint, OneEndpoint):
        labels = (constraint.a,)
    elif isinstance(constraint, TwoEndpoints):
        labels = (constraint.a, constraint.b)
    else:
        raise TypeError(f"not a constraint: {constraint!r}")
    for a in labels:
        if not 0 <= a < n:
            raise ValueError(f"endpoint label {a} out of range 0..{n - 1}")


def _single_vertex_count(constraint: Constraint) -> int:
    # The only 1-permutation is [0]; both its ends are the label 0.
    if constraint is None or constraint == OneEndpoint(0) or constraint == TwoEndpoints(0, 0):
        return 1
    return 0


def _matches_endpoints(seq: Sequence[int], constraint: Constraint) -> bool:
    if constraint is None:
        return True
    if isinstance(constraint, OneEndpoint):
        return seq[0] == constraint.a
    return seq[0] == constraint.a and seq[-1] == constraint.b


# ---------------------------------------------------------------------------
# Oracle 1: brute force over all n! permutations
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _all_graceful_brute(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(p for p in permutations(range(n)) if is_graceful(p))


def brute_force_count(n: int, constraint: Constraint = None) -> int:
    """Count by filtering every permutation; refuses n past the guard."""
    if n < 1:
        raise ValueError(f"label count must be >= 1, got {n}")
    if n > BRUTE_FORCE_LIMIT:
        raise ComputationRefused(
            f"brute force refused for n={n}: guard is n <= {BRUTE_FORCE_LIMIT}"
        )
    _check_constraint(n, constraint)
    return sum(1 for p in _all_graceful_brute(n) if _matches_endpoints(p, constraint))


# ---------------------------------------------------------------------------
# Oracle 2 and enumeration: one in-place walk of the search tree
# ---------------------------------------------------------------------------


class _Truncated(Exception):
    pass


def _walk(n: int, constraint: Constraint, prune: bool, emit=None) -> int:
    """Depth-first walk of the search tree for ``n >= 2``, no folding.

    One state (slot counts, endpoint pairing, placed edges) is edited in
    place and restored on the way back.  Returns the number of graceful
    permutations satisfying the constraint; with ``emit``, also hands each
    label sequence to it, in a deterministic order.
    """
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
        adj: list[list[int]] = [[] for _ in range(n)]
        for k in range(1, n):
            u = placed[k]
            adj[u].append(u + k)
            adj[u + k].append(u)
        seq = [start]
        prev = -1
        cur = start
        for _ in range(n - 1):
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            seq.append(nxt)
            prev, cur = cur, nxt
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
    if n < 1:
        raise ValueError(f"label count must be >= 1, got {n}")
    _check_constraint(n, constraint)
    if n == 1:
        return _single_vertex_count(constraint)
    return _walk(n, constraint, prune)


def enumerate_graceful(
    n: int, constraint: Constraint = None, limit: Optional[int] = None
) -> EnumerationResult:
    """All graceful permutations under the constraint, each exactly once,
    in a deterministic order; stops with ``truncated`` set once ``limit``
    permutations have been collected."""
    if n < 1:
        raise ValueError(f"label count must be >= 1, got {n}")
    _check_constraint(n, constraint)
    if limit is not None and limit < 0:
        raise ValueError("limit must be >= 0")
    out: list[GracefulPermutation] = []
    result = EnumerationResult(out)

    def emit(seq: tuple[int, ...]) -> None:
        if limit is not None and len(out) >= limit:
            result.truncated = True
            raise _Truncated
        out.append(GracefulPermutation(seq))

    try:
        if n == 1:
            if _single_vertex_count(constraint):
                emit((0,))
        else:
            _walk(n, constraint, True, emit)
    except _Truncated:
        pass
    return result


# ---------------------------------------------------------------------------
# Production route: multiplicity BFS over folded classes
# ---------------------------------------------------------------------------


def _mult_array(pairs) -> np.ndarray:
    return np.array(pairs, dtype=object).reshape(-1, 2)


def root_map(n: int) -> ClassMap:
    """Level-(n-1) map holding the single empty state; nothing is pruned
    yet, so it is built for None and serves every constraint."""
    key = np.frombuffer(encode(new_root(n)), dtype=np.uint8).reshape(1, 2 * n)
    return ClassMap(n, n - 1, key, _mult_array([(1, 0)]))


def _dead_tests(n: int, level: int, constraint: Constraint):
    """The pruning rule for keys on ``level`` (the next edge label).

    A slot is dead when no leaf below it satisfies the constraint: a
    required endpoint has no free slot left, both required ends are one
    label, or, before the path is complete, the two required ends end one
    partial path.  Returns None when nothing can die, else the
    ``(byte position, value)`` tests, any of which kills a slot, for the
    direct slot and for the reflected slot, both in key coordinates.
    """
    if constraint is None:
        return None

    def tests(*ends):
        out = [(2 * e, 0) for e in ends]
        if len(ends) == 2:
            a, b = ends
            if a == b:  # a path of two or more labels has two distinct ends
                out += [(2 * a, 1), (2 * a, 2)]
            elif level > 0:
                out.append((2 * a + 1, b))
        return out

    last = n - 1
    if isinstance(constraint, OneEndpoint):
        ends = (constraint.a,)
    else:
        ends = (constraint.a, constraint.b)
    return tests(*ends), tests(*(last - e for e in ends))


def _dead_rows(keys: np.ndarray, tests) -> np.ndarray:
    dead = np.zeros(len(keys), dtype=bool)
    for pos, value in tests:
        dead |= keys[:, pos] == value
    return dead


def _group(parts):
    """Sort the rows of a list of (keys, mult) pairs by key bytes and add
    up the multiplicities of equal keys.  The list is emptied, so each
    input array can be freed as soon as it is copied."""
    w = parts[0][0].shape[1]
    rows = np.concatenate([p[0] for p in parts]).view(np.dtype((np.void, w))).ravel()
    mult = np.concatenate([p[1] for p in parts])
    parts.clear()
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    mult = mult[order]
    del order
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    starts = np.flatnonzero(first)
    keys = rows[starts].view(np.uint8).reshape(-1, w)
    return keys, np.add.reduceat(mult, starts, axis=0) if len(starts) else mult


def _expand_block(job):
    """Children of a block of parent rows: placed, canonicalised, pruned
    and grouped, all as array operations."""
    n, k, keys, mult, dead = job
    F = keys[:, 0::2]
    P = keys[:, 1::2]
    m = n - k
    ok = (F[:, :m] != 0) & (F[:, k:] != 0) & (P[:, :m] != np.arange(k, n))
    row, u = np.nonzero(ok)
    v = u + k
    fu = F[row, u]
    fv = F[row, v]
    pu = np.where(fu == 1, P[row, u], u)
    pv = np.where(fv == 1, P[row, v], v)
    i = np.arange(len(row))
    child = keys[row]
    child[i, 2 * u] = fu - 1
    child[i, 2 * v] = fv - 1
    child[i, 2 * pu + 1] = pv
    child[i, 2 * pv + 1] = pu
    child[i[fu == 1], 2 * u[fu == 1] + 1] = SENTINEL
    child[i[fv == 1], 2 * v[fv == 1] + 1] = SENTINEL
    # The complemented encoding of every child, then a rowwise
    # lexicographic comparison at the first differing byte.
    comp = child[:, np.arange(2 * n).reshape(n, 2)[::-1].ravel()]
    pc = comp[:, 1::2]
    comp[:, 1::2] = np.where(pc == SENTINEL, SENTINEL, (n - 1) - pc)
    neq = child != comp
    first = neq.argmax(axis=1)
    self_comp = ~neq[i, first]
    reflected = comp[i, first] < child[i, first]
    canon = child
    canon[reflected] = comp[reflected]
    d = mult[row, 0]
    r = mult[row, 1]
    dd = np.where(reflected, r, d)
    rr = np.where(reflected, d, r)
    dd[self_comp] = d[self_comp] + r[self_comp]
    rr[self_comp] = 0
    if dead is not None:
        dd[_dead_rows(canon, dead[0])] = 0
        rr[_dead_rows(canon, dead[1])] = 0
        live = (dd != 0) | (rr != 0)
        canon, dd, rr = canon[live], dd[live], rr[live]
    return _group([(canon, np.stack([dd, rr], axis=1))])


def _expand_keys(n, k, keys, mult, dead):
    """The same step one child at a time, for levels too small to pay
    for the array path's fixed cost."""
    w = 2 * n
    blob = keys.tobytes()
    acc: dict[bytes, list[int]] = {}
    get = acc.get
    for j, (d, r) in enumerate(mult.tolist()):
        key = blob[j * w : (j + 1) * w]
        frees = key[0::2]
        parts = key[1::2]
        for u in range(n - k):
            v = u + k
            fu = frees[u]
            fv = frees[v]
            if fu == 0 or fv == 0 or parts[u] == v:
                continue
            ba = bytearray(key)
            pu = parts[u] if fu == 1 else u
            pv = parts[v] if fv == 1 else v
            ba[2 * u] = fu - 1
            ba[2 * v] = fv - 1
            ba[2 * pu + 1] = pv
            ba[2 * pv + 1] = pu
            if fu == 1:
                ba[2 * u + 1] = SENTINEL
            if fv == 1:
                ba[2 * v + 1] = SENTINEL
            kd = bytes(ba)
            kc = complement_key(kd)
            if kd < kc:
                ckey, dd, rr = kd, d, r
            elif kc < kd:
                ckey, dd, rr = kc, r, d
            else:
                ckey, dd, rr = kd, d + r, 0
            if dead is not None:
                if any(ckey[p] == x for p, x in dead[0]):
                    dd = 0
                if any(ckey[p] == x for p, x in dead[1]):
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
    out = np.frombuffer(b"".join(order), dtype=np.uint8).reshape(-1, w)
    return out, _mult_array([acc[key] for key in order])


def _check_built_for(cmap: ClassMap, constraint: Constraint) -> None:
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
    """``expand_level``, running the array path's blocks through ``mapper``."""
    if cmap.level < 1:
        raise ValueError(f"cannot expand a terminal map (level {cmap.level})")
    _check_built_for(cmap, constraint)
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
        keys, mult = _group(list(mapper(_expand_block, jobs)))
    return ClassMap(n, k - 1, keys, mult, constraint)


def finalize(cmap: ClassMap, constraint: Constraint = None) -> int:
    """Read the count off a terminal map.

    Unconstrained, every terminal node is doubled (a path is read from
    either end); with a start label fixed, each node whose slot survives
    the pruning rule at level 0 is read in exactly one direction.
    """
    if cmap.level != 0:
        raise ValueError(f"finalize needs a terminal map, got level {cmap.level}")
    _check_built_for(cmap, constraint)
    dead = _dead_tests(cmap.n, 0, constraint)
    if dead is None:
        return 2 * cmap.node_sum()
    return sum(
        int(cmap.mult[~_dead_rows(cmap.keys, tests), slot].sum())
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

    ``workers`` > 1 expands the blocks of large levels in processes;
    results are bit-identical to the single-worker run because the
    per-class merge is exact and independent of the blocks.  ``initial``
    resumes from a previously saved map built for the same constraint;
    ``on_level`` is called after every completed level.
    """
    t0 = time.perf_counter()
    if n < 1:
        raise ValueError(f"label count must be >= 1, got {n}")
    _check_constraint(n, constraint)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if n == 1:
        value = _single_vertex_count(constraint)
        stats = (LevelStats(0, 1, 1, 0.0),)
        return CountResult(n, constraint, value, stats, time.perf_counter() - t0)

    if initial is not None:
        if initial.n != n:
            raise ValueError(f"initial map is for n={initial.n}, not n={n}")
        if initial.constraint != constraint:
            raise ValueError(
                f"initial map was built for {initial.constraint!r}, not {constraint!r}"
            )
        cmap = initial
    else:
        cmap = root_map(n)
    stats = [LevelStats(cmap.level, len(cmap.keys), cmap.node_sum(), 0.0)]

    pool = None
    try:
        if workers > 1:
            pool = multiprocessing.get_context("fork").Pool(workers)
        while cmap.level > 0:
            t1 = time.perf_counter()
            if pool is not None and len(cmap.keys) >= _PARALLEL_MIN_ROWS:
                cmap = _expand(cmap, constraint, prune, pool.map)
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
