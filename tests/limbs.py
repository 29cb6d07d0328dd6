"""Exact counts read back from a level's limb array, for the tests."""


def pairs(mult):
    """The (direct, reflected) counts of a ``(rows, 4)`` limb array as
    tuples of Python ints, row by row."""
    return [(dlo | dhi << 64, rlo | rhi << 64) for dlo, dhi, rlo, rhi in mult.tolist()]
