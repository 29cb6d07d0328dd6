"""Counting routes, level expansion, folding semantics and enumeration.

Reference values for small n were computed with the brute-force filter
over all n! permutations and are frozen here; the larger constrained
counts are the published ones the engine must reproduce.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from gracefulperms import search
from gracefulperms.search import (
    ClassMap,
    ComputationRefused,
    GracefulPermutation,
    MultiplicityPair,
    OneEndpoint,
    TwoEndpoints,
    brute_force_count,
    count,
    dfs_count,
    enumerate_graceful,
    expand_level,
    finalize,
    is_graceful,
    root_map,
)
from gracefulperms.state import (
    add_edge,
    can_add_edge,
    candidate_pairs,
    canonicalize,
    complement_key,
    new_root,
)


def all_constraints(n):
    yield None
    for a in range(n):
        yield OneEndpoint(a)
    for a in range(n):
        for b in range(n):
            yield TwoEndpoints(a, b)


# -- is_graceful --------------------------------------------------------------


@pytest.mark.parametrize(
    "seq,expected",
    [
        ((0, 6, 1, 5, 2, 4, 3), True),
        ((0, 1, 2), False),  # difference 1 repeats
        ((0,), True),
        ((), False),
        ((0, 2, 1), True),
        ((1, 0), True),
        ((0, 0), False),  # not a permutation
        ((0, 2), False),  # labels out of range
        ((2, 0, 1), True),
    ],
)
def test_is_graceful(seq, expected):
    assert is_graceful(seq) is expected


def test_graceful_permutation_validates():
    GracefulPermutation((0, 3, 1, 2))
    with pytest.raises(ValueError):
        GracefulPermutation((0, 1, 2))


# -- brute force ---------------------------------------------------------------


def test_brute_force_small_values():
    assert brute_force_count(3) == 4
    assert brute_force_count(4) == 4
    assert brute_force_count(2, TwoEndpoints(0, 1)) == 1


def test_brute_force_guard():
    with pytest.raises(ComputationRefused):
        brute_force_count(12)


def test_brute_force_rejects_bad_labels():
    with pytest.raises(ValueError):
        brute_force_count(4, OneEndpoint(4))


# -- dfs ------------------------------------------------------------------------


def test_dfs_known_values():
    assert dfs_count(7) == 32
    assert dfs_count(4) == 4


def test_dfs_constrained_20():
    assert dfs_count(20, TwoEndpoints(5, 15)) == 4382


@pytest.mark.parametrize("n", range(1, 9))
def test_dfs_prune_toggle(n):
    for c in all_constraints(n):
        assert dfs_count(n, c, prune=True) == dfs_count(n, c, prune=False)


# -- expansion and folding -------------------------------------------------------


def test_root_map_shape():
    m = root_map(7)
    assert m.level == 6
    assert list(m.entries.values()) == [MultiplicityPair(1, 0)]


def test_expand_after_first_edge_folds_complement_children():
    """The state with the single maximal edge placed expands to two
    children that are complements of each other, so they fold into one
    class carrying one direct and one reflected member (node sum 2)."""
    m = expand_level(root_map(7))  # the path 0-6, self-complementary
    assert m.level == 5
    assert len(m.entries) == 1
    assert list(m.entries.values()) == [MultiplicityPair(1, 0)]
    m = expand_level(m)
    assert m.level == 4
    assert len(m.entries) == 1
    assert list(m.entries.values()) == [MultiplicityPair(1, 1)]
    assert m.node_sum() == 2


def test_expand_single_edge_graph():
    m = expand_level(root_map(2))
    assert m.level == 0
    assert list(m.entries.values()) == [MultiplicityPair(1, 0)]


def test_terminal_node_sum_for_seven_labels():
    m = root_map(7)
    while m.level > 0:
        m = expand_level(m)
    assert m.node_sum() == 16
    assert finalize(m) == 32


def test_expand_rejects_terminal_map():
    m = root_map(1)
    with pytest.raises(ValueError):
        expand_level(m)


def _all_levels(n, c, prune):
    m = root_map(n)
    levels = []
    while m.level > 0:
        m = expand_level(m, c, prune=prune)
        levels.append(m)
    return levels


def test_expand_paths_agree(monkeypatch):
    """The per-key loop and the array path, each forced to run alone,
    build identical levels.  Blocks of 7 parent rows make the array path
    merge children across blocks on every level it handles."""
    monkeypatch.setattr(search, "_BLOCK_ROWS", 7)
    grid = [(n, c) for n in (9, 12) for c in (None, OneEndpoint(1), TwoEndpoints(0, n - 1))]
    for (n, c), prune in itertools.product(grid, (True, False)):
        monkeypatch.setattr(search, "_ARRAY_MIN_ROWS", 10**9)
        by_key = _all_levels(n, c, prune)
        monkeypatch.setattr(search, "_ARRAY_MIN_ROWS", 0)
        by_array = _all_levels(n, c, prune)
        for a, b in zip(by_key, by_array, strict=True):
            assert (a.level, a.constraint) == (b.level, b.constraint)
            rows = [bytes(row) for row in a.keys]
            assert rows == sorted(set(rows))
            assert np.array_equal(a.keys, b.keys)
            assert a.mult.tolist() == b.mult.tolist()
        expected = dfs_count(n, c)
        assert finalize(by_key[-1], c) == finalize(by_array[-1], c) == expected
        if n == 9:
            assert expected == brute_force_count(n, c)


def test_self_complementary_entries_have_zero_reflected():
    m = root_map(9)
    while m.level > 0:
        m = expand_level(m)
        for key, (d, r) in m.entries.items():
            assert d + r >= 1
            if complement_key(key) == key:
                assert r == 0


# -- finalize ---------------------------------------------------------------------


def test_finalize_requires_terminal_level():
    with pytest.raises(ValueError):
        finalize(root_map(4))


def test_finalize_two_endpoints_single_edge():
    m = expand_level(root_map(2))
    assert finalize(m, TwoEndpoints(0, 1)) == 1
    assert finalize(m, TwoEndpoints(1, 0)) == 1
    assert finalize(m, OneEndpoint(0)) == 1
    assert finalize(m) == 2


def test_one_endpoint_counts_sum_to_total():
    assert sum(count(7, OneEndpoint(a)).count for a in range(7)) == 32


# -- count ---------------------------------------------------------------------


def test_count_known_values():
    assert count(7).count == 32
    assert count(1).count == 1
    assert count(20, TwoEndpoints(5, 15)).count == 4382


def test_count_26_constrained():
    assert count(26, TwoEndpoints(6, 19)).count == 636408


def test_count_single_label_special_cases():
    assert count(1, OneEndpoint(0)).count == 1
    assert count(1, TwoEndpoints(0, 0)).count == 1


def test_count_same_endpoint_twice_is_zero():
    for n in (2, 5, 8):
        for a in range(n):
            assert count(n, TwoEndpoints(a, a)).count == 0


def test_count_rejects_bad_input():
    with pytest.raises(ValueError):
        count(0)
    with pytest.raises(ValueError):
        count(5, OneEndpoint(5))
    with pytest.raises(ValueError):
        count(5, TwoEndpoints(0, 9))
    with pytest.raises(ValueError):
        count(5, workers=0)


def test_count_level_stats():
    r = count(7)
    got = [(s.level, s.class_count, s.node_sum) for s in r.levels]
    assert got == [
        (6, 1, 1),
        (5, 1, 1),
        (4, 1, 2),
        (3, 2, 4),
        (2, 3, 6),
        (1, 4, 10),
        (0, 4, 16),
    ]
    for s in r.levels[:-1]:
        assert s.node_sum >= s.class_count >= 1


@pytest.mark.parametrize("n", range(2, 16))
def test_class_count_is_number_of_canonical_keys(n):
    """On every level, count() stores exactly one class per distinct
    canonical key among that level's tree nodes.  The nodes are generated
    here state by state, independently of the level engine.  This ties
    the per-level class counts, and so the class budget of the 40-label
    acceptance run, to the specified state equivalence."""
    nodes = {new_root(n)}
    expected = {n - 1: 1}
    for k in range(n - 1, 0, -1):
        nodes = {
            add_edge(s, u, v)
            for s in nodes
            for u, v in candidate_pairs(n, k)
            if can_add_edge(s, u, v)
        }
        expected[k - 1] = len({canonicalize(s)[0] for s in nodes})
    assert {s.level: s.class_count for s in count(n).levels} == expected


def test_count_workers_bit_identical():
    base = count(16).count
    assert count(16, workers=2).count == base
    c = count(20, TwoEndpoints(5, 15), workers=2).count
    assert c == 4382


def test_count_resume_from_initial_map():
    c = TwoEndpoints(5, 15)
    maps = []
    base = count(20, c, on_level=maps.append)
    mid = maps[9]
    resumed = count(20, c, initial=mid)
    assert resumed.count == base.count
    assert resumed.levels[0].level == mid.level
    with pytest.raises(ValueError):
        count(19, c, initial=mid)


def test_worker_pool_gives_the_single_worker_levels(monkeypatch):
    """With the pool threshold and block size lowered, the pool expands
    every level the array path handles, and changes nothing."""
    monkeypatch.setattr(search, "_PARALLEL_MIN_ROWS", 1)
    monkeypatch.setattr(search, "_BLOCK_ROWS", 7)
    pooled = []
    real_expand = search._expand

    def spy(cmap, constraint, prune, mapper):
        pooled.append(mapper is not map)
        return real_expand(cmap, constraint, prune, mapper)

    monkeypatch.setattr(search, "_expand", spy)
    for n, c in ((16, None), (20, TwoEndpoints(5, 15))):
        base = count(n, c)
        for workers in (2, 4):
            pooled.clear()
            r = count(n, c, workers=workers)
            assert any(pooled)
            assert r.count == base.count
            assert [(s.level, s.class_count, s.node_sum) for s in r.levels] == [
                (s.level, s.class_count, s.node_sum) for s in base.levels
            ]


def test_maps_are_refused_for_another_constraint():
    """A level map only serves the constraint it was built for: pruning
    for TwoEndpoints(0, 1) would otherwise make count(14) read 0."""
    maps = []
    count(14, TwoEndpoints(0, 1), on_level=maps.append)
    assert all(m.constraint == TwoEndpoints(0, 1) for m in maps)
    for m in maps:
        with pytest.raises(ValueError, match="built for"):
            count(14, initial=m)
        with pytest.raises(ValueError, match="built for"):
            count(14, OneEndpoint(0), initial=m)
    with pytest.raises(ValueError, match="built for"):
        expand_level(maps[0], None)
    with pytest.raises(ValueError, match="built for"):
        finalize(maps[-1], TwoEndpoints(1, 0))


def test_maps_resume_under_either_prune_setting():
    """Pruning only drops slots that cannot reach a leaf satisfying the
    map's own constraint, so a map resumes exactly with or without it."""
    c = TwoEndpoints(4, 12)
    base = count(16, c).count
    assert base == dfs_count(16, c)
    for built_with in (True, False):
        maps = []
        count(16, c, prune=built_with, on_level=maps.append)
        for m in maps[::4]:
            for prune in (True, False):
                assert count(16, c, prune=prune, initial=m).count == base
    # A map built for None holds every tree node, so any constraint may
    # take it further.
    m = root_map(9)
    while m.level > 0:
        m = expand_level(m, OneEndpoint(2)) if m.level == 1 else expand_level(m)
    assert finalize(m, OneEndpoint(2)) == dfs_count(9, OneEndpoint(2))


# -- oracle agreement and symmetries (small sweep; the full sweep lives in
#    the acceptance suite) -----------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_three_routes_agree(n):
    for c in all_constraints(n):
        b = brute_force_count(n, c)
        assert dfs_count(n, c) == b
        assert count(n, c).count == b


@pytest.mark.parametrize("n", range(2, 9))
def test_complement_and_reversal_symmetries(n):
    for a in range(n):
        assert count(n, OneEndpoint(a)).count == count(n, OneEndpoint(n - 1 - a)).count
    for a in range(n):
        for b in range(a + 1, n):
            ab = count(n, TwoEndpoints(a, b)).count
            assert ab == count(n, TwoEndpoints(b, a)).count
            assert ab == count(n, TwoEndpoints(n - 1 - a, n - 1 - b)).count


@pytest.mark.parametrize("n", range(2, 9))
def test_constrained_counts_aggregate(n):
    total = count(n).count
    assert sum(count(n, OneEndpoint(a)).count for a in range(n)) == total
    assert (
        sum(
            count(n, TwoEndpoints(a, b)).count
            for a in range(n)
            for b in range(n)
            if a != b
        )
        == total
    )


# -- enumeration ------------------------------------------------------------------


def test_enumerate_four_labels():
    r = enumerate_graceful(4)
    assert not r.truncated
    assert {p.seq for p in r.permutations} == {
        (0, 3, 1, 2),
        (2, 1, 3, 0),
        (1, 2, 0, 3),
        (3, 0, 2, 1),
    }


def test_enumerate_seven_contains_known_permutation():
    r = enumerate_graceful(7)
    assert (0, 6, 1, 5, 2, 4, 3) in {p.seq for p in r.permutations}


def test_enumerate_one_endpoint():
    r = enumerate_graceful(2, OneEndpoint(1))
    assert [p.seq for p in r.permutations] == [(1, 0)]


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_matches_count(n):
    for c in all_constraints(n):
        r = enumerate_graceful(n, c)
        assert not r.truncated
        seqs = [p.seq for p in r.permutations]
        assert len(seqs) == len(set(seqs)) == count(n, c).count
        for seq in seqs:
            assert is_graceful(seq)
            if isinstance(c, OneEndpoint):
                assert seq[0] == c.a
            elif isinstance(c, TwoEndpoints):
                assert seq[0] == c.a and seq[-1] == c.b


def test_enumerate_limit_and_truncation():
    full = enumerate_graceful(7)
    capped = enumerate_graceful(7, limit=5)
    assert capped.truncated
    assert [p.seq for p in capped.permutations] == [p.seq for p in full.permutations][:5]
    exact = enumerate_graceful(4, limit=4)
    assert not exact.truncated and len(exact.permutations) == 4
    zero = enumerate_graceful(4, limit=0)
    assert zero.truncated and zero.permutations == []


def test_enumerate_is_deterministic():
    a = [p.seq for p in enumerate_graceful(8).permutations]
    b = [p.seq for p in enumerate_graceful(8).permutations]
    assert a == b
