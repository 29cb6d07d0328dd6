"""Reference counter for graceful permutations, written apart from the package.

It shares no code with ``gracefulperms``: it places the differences n-1,
n-2, ..., 1 as path edges level by level, keeps every raw state (no
complement folding, no numpy) and stores one byte per label, the label at
the far end of its path, UNUSED or INTERIOR.  A terminal state is one
undirected graceful path, and its multiplicity counts the paths that share
its two ends.

    python3 perfbench/refcount.py --regenerate   # rewrite reference.json

recomputes the stored values that the large workloads are checked against.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

UNUSED = 0xFF
INTERIOR = 0xFE

REFERENCE_FILE = Path(__file__).with_name("reference.json")

#: The cases whose values are stored; (n, a, b) with a = b = None for G(n).
STORED_CASES = ((36, None, None), (56, 14, 42))


def _expand(level: dict, n: int, k: int, ends) -> dict:
    """Place the edge of difference ``k`` in every state of ``level``.

    With ``ends`` = (a, b), children in which a or b is interior, or in
    which a and b close one path before the last edge, are dropped.
    """
    out: dict[bytes, int] = {}
    get = out.get
    for key, mult in level.items():
        for u in range(n - k):
            v = u + k
            pu = key[u]
            pv = key[v]
            if pu == INTERIOR or pv == INTERIOR or pu == v:
                continue
            far_u = u if pu == UNUSED else pu
            far_v = v if pv == UNUSED else pv
            s = bytearray(key)
            if pu != UNUSED:
                s[u] = INTERIOR
            if pv != UNUSED:
                s[v] = INTERIOR
            s[far_u] = far_v
            s[far_v] = far_u
            if ends is not None:
                a, b = ends
                if s[a] == INTERIOR or s[b] == INTERIOR or (k > 1 and s[a] == b):
                    continue
            child = bytes(s)
            out[child] = get(child, 0) + mult
    return out


def terminal_level(n: int, ends=None) -> dict:
    """Multiplicity of every complete path state, all levels expanded."""
    level = {bytes([UNUSED]) * n: 1}
    for k in range(n - 1, 0, -1):
        level = _expand(level, n, k, ends)
    return level


def endpoint_table(n: int) -> dict:
    """G(n; a, b) for every ordered pair, with a != b or n == 1."""
    if n == 1:
        return {(0, 0): 1}
    table = {}
    for key, mult in terminal_level(n).items():
        a, b = (u for u in range(n) if key[u] != INTERIOR)
        table[(a, b)] = table.get((a, b), 0) + mult
        table[(b, a)] = table.get((b, a), 0) + mult
    return table


def count_all(n: int) -> int:
    """G(n): every undirected graceful path, read in both directions."""
    if n == 1:
        return 1
    return 2 * sum(terminal_level(n).values())


def count_two_endpoints(n: int, a: int, b: int) -> int:
    """G(n; a, b): graceful permutations that start at a and end at b."""
    if n == 1:
        return int(a == b == 0)
    if a == b:
        return 0
    return sum(
        mult for key, mult in terminal_level(n, (a, b)).items() if key[a] == b
    )


def case_name(n: int, a, b) -> str:
    return f"G({n})" if a is None else f"G({n};{a},{b})"


def reference_value(n: int, a=None, b=None) -> int:
    """The stored value of a case in ``reference.json``."""
    stored = json.loads(REFERENCE_FILE.read_text())
    return int(stored[case_name(n, a, b)])


def compute(n: int, a=None, b=None) -> int:
    return count_all(n) if a is None else count_two_endpoints(n, a, b)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regenerate", action="store_true",
                        help=f"recompute {REFERENCE_FILE.name} from scratch")
    parser.add_argument("--case", nargs="+", type=int, metavar="N [A B]",
                        help="print one value: G(N), or G(N;A,B) if A and B are given")
    args = parser.parse_args(argv)
    if args.case:
        if len(args.case) not in (1, 3):
            parser.error("--case takes N or N A B")
        print(compute(*args.case))
        return 0
    if not args.regenerate:
        parser.error("nothing to do: give --regenerate or --case")
    values = {}
    for n, a, b in STORED_CASES:
        t0 = time.perf_counter()
        values[case_name(n, a, b)] = str(compute(n, a, b))
        print(f"{case_name(n, a, b)} = {values[case_name(n, a, b)]} "
              f"({time.perf_counter() - t0:.1f} s)", file=sys.stderr)
    REFERENCE_FILE.write_text(json.dumps(values, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
