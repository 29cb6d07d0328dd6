"""Lower-bound machinery built on endpoint-constrained counts.

A graceful permutation of 2m labels running from j to j+m is bipartite:
every edge joins a label below m to one at or above m.  Such a
permutation can be glued in front of any graceful permutation of r
labels starting at j, which yields the counting inequality

    G(r+2m; j)  >=  G(2m; j, j+m) * G(r; j)

and hence exponential lower bounds with base G(2m; j, j+m)^(1/2m).
Certification of a bound is done purely on integers; no floating point
enters any comparison that a reported result depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Union

from .search import (
    ComputationRefused,
    GracefulPermutation,
    OneEndpoint,
    TwoEndpoints,
    count,
    enumerate_graceful,
)

__all__ = [
    "BoundResult",
    "is_bipartite_graceful",
    "glue",
    "verify_inequality",
    "gamma",
    "gamma_value",
    "certify_bound",
    "integer_nth_root",
    "build_witness",
]

#: gamma is reported truncated to this many decimal places, so the printed
#: value is itself a valid lower-bound base.
GAMMA_DECIMALS = 4


@dataclass(frozen=True)
class BoundResult:
    """One constrained count and the growth base it certifies."""

    m: int
    j: int
    count: int
    gamma: float
    zero_count: bool = False


def is_bipartite_graceful(p: GracefulPermutation, m: int) -> bool:
    """True iff every edge joins a label below ``m`` to one at or above it.

    ``m`` is the small/large threshold; for a (2m; j, j+m)-permutation
    pass its half-length.
    """
    if m < 1:
        raise ValueError(f"threshold must be >= 1, got {m}")
    seq = p.seq
    for i in range(len(seq) - 1):
        if (seq[i] < m) == (seq[i + 1] < m):
            return False
    return True


def _oriented(p: GracefulPermutation, start: int, end: int, name: str) -> tuple[int, ...]:
    if p[0] == start and p[-1] == end:
        return p.seq
    if p[0] == end and p[-1] == start:
        return p.seq[::-1]
    raise ValueError(
        f"{name} must run between {start} and {end}, got ends {p[0]} and {p[-1]}"
    )


def glue(
    p: GracefulPermutation,
    q: GracefulPermutation,
    m: int,
    j: int,
    r: int,
) -> GracefulPermutation:
    """Join a bipartite (2m; j, j+m)-permutation to an (r; j)-permutation.

    Labels at or above m in ``p`` are raised by r, all labels of ``q`` are
    raised by m, and the two halves meet on a new edge of difference r.
    Inputs given in reversed reading order are reoriented rather than
    rejected.  The result is a graceful permutation of r+2m labels with
    left endpoint j.
    """
    if len(p) != 2 * m:
        raise ValueError(f"p must have 2m={2 * m} labels, got {len(p)}")
    if len(q) != r:
        raise ValueError(f"q must have r={r} labels, got {len(q)}")
    pseq = _oriented(p, j, j + m, "p")
    if not is_bipartite_graceful(GracefulPermutation(pseq), m):
        raise ValueError("p is not bipartite graceful: some edge does not straddle m")
    if q[0] == j:
        qseq = q.seq
    elif q[-1] == j:
        qseq = q.seq[::-1]
    else:
        raise ValueError(f"q must have endpoint {j}, got ends {q[0]} and {q[-1]}")
    left = tuple(x + r if x >= m else x for x in pseq)
    right = tuple(x + m for x in qseq)
    glued = GracefulPermutation(left + right)
    assert glued[0] == j
    return glued


def verify_inequality(r: int, m: int, j: int) -> tuple[int, int, bool]:
    """Exact check of G(r+2m; j) >= G(2m; j, j+m) * G(r; j).

    Requires j <= m.  When j is not a valid label of one of the right-hand
    factors that factor is zero and the inequality holds vacuously.
    """
    if j > m:
        raise ValueError(f"the inequality needs j <= m, got j={j}, m={m}")
    if min(r, m, j) < 0 or r < 1:
        raise ValueError("r must be >= 1 and m, j >= 0")
    lhs = count(r + 2 * m, OneEndpoint(j)).count
    if j + m <= 2 * m - 1:
        pairs = count(2 * m, TwoEndpoints(j, j + m)).count
    else:
        pairs = 0
    starts = count(r, OneEndpoint(j)).count if j <= r - 1 else 0
    rhs = pairs * starts
    return lhs, rhs, lhs >= rhs


def integer_nth_root(x: int, k: int) -> int:
    """Largest integer t with t**k <= x, computed exactly."""
    if k < 1:
        raise ValueError(f"root order must be >= 1, got {k}")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x < 2 or k == 1:
        return x
    # Start above the true root, then Newton steps descend monotonically.
    t = 1 << -(-x.bit_length() // k)
    while True:
        nxt = ((k - 1) * t + x // t ** (k - 1)) // k
        if nxt >= t:
            break
        t = nxt
    while t ** k > x:
        t -= 1
    while (t + 1) ** k <= x:
        t += 1
    return t


def gamma_value(cnt: int, two_m: int) -> float:
    """cnt**(1/two_m) truncated to GAMMA_DECIMALS decimal places."""
    scale = 10 ** GAMMA_DECIMALS
    scaled = integer_nth_root(cnt * scale ** two_m, two_m)
    return scaled / scale


def gamma(m: int, j: int) -> BoundResult:
    """Count (2m; j, j+m)-permutations and extract the growth base."""
    cnt = count(2 * m, TwoEndpoints(j, j + m)).count
    return BoundResult(m, j, cnt, gamma_value(cnt, 2 * m), zero_count=cnt == 0)


def _threshold_parts(threshold: Union[str, float, int, Decimal]) -> tuple[int, int]:
    """Decompose a decimal threshold into (numerator, scale): p / 10**s."""
    try:
        dec = threshold if isinstance(threshold, Decimal) else Decimal(str(threshold))
    except InvalidOperation:
        raise ValueError(f"not a decimal threshold: {threshold!r}") from None
    if not dec.is_finite() or dec < 0:
        raise ValueError("threshold must be a non-negative finite decimal")
    sign, digits, exponent = dec.as_tuple()
    p = int("".join(map(str, digits)))
    if exponent >= 0:
        return p * 10 ** exponent, 0
    return p, -exponent


def certify_bound(
    cnt: int, exponent: int, threshold: Union[str, float, int, Decimal]
) -> bool:
    """True iff cnt**(1/exponent) strictly exceeds the decimal threshold.

    Evaluated as cnt * 10**(s*exponent) > p**exponent over exact integers,
    where threshold = p / 10**s.
    """
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    p, s = _threshold_parts(threshold)
    return cnt * (10 ** s) ** exponent > p ** exponent


def build_witness(m: int, j: int, r: int, iterations: int = 1) -> GracefulPermutation:
    """Materialize a long graceful permutation by iterated gluing.

    Takes the first enumerated bipartite (2m; j, j+m)-permutation and the
    first (r; j)-permutation and glues the former on ``iterations`` times,
    producing a graceful permutation of r + iterations*2m labels starting
    at j.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if j >= m:
        raise ValueError(
            f"j must be below m (a 2m-permutation has no label {j + m}), "
            f"got j={j}, m={m}"
        )
    ps = enumerate_graceful(2 * m, TwoEndpoints(j, j + m), limit=1).permutations
    if not ps:
        raise ComputationRefused(f"no ({2 * m}; {j}, {j + m})-permutation exists")
    if j > r - 1:
        raise ValueError(f"j={j} is not a label of an {r}-permutation")
    qs = enumerate_graceful(r, OneEndpoint(j), limit=1).permutations
    if not qs:
        raise ComputationRefused(f"no ({r}; {j})-permutation exists")
    piece = ps[0]
    result = qs[0]
    for i in range(iterations):
        result = glue(piece, result, m, j, r + 2 * m * i)
    return result
