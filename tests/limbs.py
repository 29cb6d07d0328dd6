"""Exact counts read back from level maps, for the tests."""

from gracefulperms.search import count, finalize


def pairs(mult):
    """The (direct, reflected) counts of a ``(rows, 4)`` limb array as
    tuples of Python ints, row by row."""
    return [(dlo | dhi << 64, rlo | rhi << 64) for dlo, dhi, rlo, rhi in mult.tolist()]


def none_built_counts(n, constraints):
    """The unpruned count on ``n >= 2`` labels under each constraint: the
    terminal map of ``count(n)``, which was built for None and so holds
    every tree node, finalized under the constraint."""
    levels = []
    count(n, on_level=levels.append)
    return [finalize(levels[-1], c) for c in constraints]
