"""Counting routes, level expansion, folding semantics and enumeration.

Reference values for small n were computed with the brute-force filter
over all n! permutations and are frozen here; the larger constrained
counts are the published ones the engine must reproduce.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gracefulperms import search
from gracefulperms.search import (
    ClassMap,
    ComputationRefused,
    GracefulPermutation,
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
    decode,
    encode,
    new_root,
)
from limbs import pairs


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
        ((1.0, 0), False),  # not an integer
        (np.array([0, 2, 1]), True),
        (np.array([0, 2, 1], dtype=np.uint8), True),  # 1 - 2 wraps in uint8
        (np.array([0, 1, 2], dtype=np.uint8), False),
        ((np.int64(1), np.int32(0)), True),
    ],
)
def test_is_graceful(seq, expected):
    assert is_graceful(seq) is expected


def test_graceful_permutation_validates():
    GracefulPermutation((0, 3, 1, 2))
    p = GracefulPermutation(np.array([0, 2, 1], dtype=np.uint8))
    assert p.seq == (0, 2, 1) and all(type(x) is int for x in p)
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
    assert pairs(m.mult) == [(1, 0)]


def test_label_counts_past_the_key_byte_are_refused():
    """One-byte keys hold n + 1 for an unused label, so n stops at 254."""
    assert root_map(254).keys.max() == 255
    with pytest.raises(ValueError, match="<= 254"):
        count(255)


def test_maps_refuse_arrays_of_another_layout():
    """Two-byte keys or Python-int multiplicities are refused, not read
    as one-byte keys and limbs."""
    m = root_map(5)
    wide = np.array([[2, 0xFF] * 5], dtype=np.uint8)
    with pytest.raises(ValueError, match="keys must be"):
        ClassMap(5, 4, wide, m.mult)
    with pytest.raises(ValueError, match="mult must be"):
        ClassMap(5, 4, m.keys, np.array([[1, 0]], dtype=object))
    with pytest.raises(ValueError, match="mult must be"):
        ClassMap(5, 4, m.keys, m.mult.astype(np.int64))


@pytest.mark.parametrize("level", [-1, 5, 300])
def test_maps_refuse_a_level_outside_their_labels(level):
    """A map's level is the label of its next edge, 0..n-1: a map on a
    level past n, which would be expanded through empty levels to a count
    of 0, cannot be built, so ``count`` cannot resume from one."""
    m = root_map(5)
    with pytest.raises(ValueError, match=f"level {level} out of range 0..4"):
        ClassMap(5, level, m.keys[:0], m.mult[:0])


def test_expand_after_first_edge_folds_complement_children():
    """The state with the single maximal edge placed expands to two
    children that are complements of each other, so they fold into one
    class carrying one direct and one reflected member (node sum 2)."""
    m = expand_level(root_map(7))  # the path 0-6, self-complementary
    assert m.level == 5
    assert len(m.keys) == 1
    assert pairs(m.mult) == [(1, 0)]
    m = expand_level(m)
    assert m.level == 4
    assert len(m.keys) == 1
    assert pairs(m.mult) == [(1, 1)]
    assert m.node_sum() == 2


def test_expand_single_edge_graph():
    m = expand_level(root_map(2))
    assert m.level == 0
    assert pairs(m.mult) == [(1, 0)]


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


def _assert_same_levels(got, expected):
    """Two runs' level maps agree bit for bit."""
    for a, b in zip(got, expected, strict=True):
        assert (a.level, a.constraint) == (b.level, b.constraint)
        assert a.keys.dtype == b.keys.dtype and a.mult.dtype == b.mult.dtype
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.mult, b.mult)


#: Merge sizes the tests force: the default, and runs so small that a
#: merge cuts its group into runs of one or two rows.
MERGE_ROWS = (search._MERGE_ROWS, 1, 2, 5)


def test_expand_paths_agree(monkeypatch):
    """The per-key loop and the array path, each forced to run alone,
    build identical levels.  Blocks of 7 parent rows make the array path
    merge children across blocks on every level it handles, at every
    forced merge size.  The per-key loop prunes canonical keys and the
    array path children before they are oriented, so the constrained
    cases cross-check the two ways of reading the dead tests."""
    monkeypatch.setattr(search, "_BLOCK_ROWS", 7)
    grid = [
        (n, c)
        for n in (9, 12)
        for c in (
            None,
            OneEndpoint(1),
            OneEndpoint(n // 2),
            TwoEndpoints(0, n - 1),
            TwoEndpoints(2, 2),
            TwoEndpoints(3, n - 4),  # mirror-symmetric ends
        )
    ]
    for (n, c), prune in itertools.product(grid, (True, False)):
        monkeypatch.setattr(search, "_ARRAY_MIN_ROWS", 10**9)
        by_key = _all_levels(n, c, prune)
        for a in by_key:
            rows = [bytes(row) for row in a.keys]
            assert rows == sorted(set(rows))
        monkeypatch.setattr(search, "_ARRAY_MIN_ROWS", 0)
        for merge_rows in MERGE_ROWS:
            monkeypatch.setattr(search, "_MERGE_ROWS", merge_rows)
            by_array = _all_levels(n, c, prune)
            _assert_same_levels(by_array, by_key)
        expected = dfs_count(n, c)
        assert finalize(by_key[-1], c) == finalize(by_array[-1], c) == expected
        if n == 9:
            assert expected == brute_force_count(n, c)


def _grouped_blocks(draw_keys, n):
    """Sorted, duplicate-free (keys, mult) blocks, as ``_expand_block`` returns."""
    blocks = []
    for keys in draw_keys:
        keys = np.array(keys, dtype=np.uint8).reshape(-1, n)
        mult = np.repeat(np.arange(len(keys), dtype=np.uint64)[:, None], 4, axis=1)
        mult[:, 0::2] += np.uint64(2**63)  # low limbs that carry when summed
        blocks.append(search._group([(keys, mult)]))
    return blocks


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), max_size=12),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from(MERGE_ROWS) | st.integers(1, 40),
)
def test_merge_matches_one_global_group(draw_keys, merge_rows):
    """Merging grouped blocks, and folding them into a level one block at
    a time, each give what one global sort and sum of all their rows
    gives, bit for bit, carries included: the merge as its runs joined in
    order, none of them empty unless it is the only one."""
    expected = search._group(_grouped_blocks(draw_keys, 3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_MERGE_ROWS", merge_rows)
        runs = search._merge(_grouped_blocks(draw_keys, 3), max(1, merge_rows // 4))
        folded = search._fold(iter(_grouped_blocks(draw_keys, 3)))
    assert len(runs) == 1 or all(len(keys) for keys, _ in runs)
    merged = tuple(np.concatenate(arrays) for arrays in zip(*runs))
    for keys, mult in (merged, folded):
        assert np.array_equal(keys, expected[0]) and np.array_equal(mult, expected[1])


def test_merge_cuts_its_group_by_position():
    """A merge groups its runs into one and cuts it by position: three
    copies of 40 distinct keys make 4 runs of 10 rows at size 10.  At every
    size the runs are non-empty, differ in length by at most one row, hold
    at least ``size`` rows each unless there is only one, and join into the
    group of the input, which is emptied; a single input run that makes
    one run comes back as it is."""
    keys = [[a, b, c] for a in range(4) for b in range(4) for c in range(3)][:40]
    expected = search._group(_grouped_blocks([keys] * 3, 3))
    for size in range(1, 50):
        parts = _grouped_blocks([keys] * 3, 3)
        runs = search._merge(parts, size)
        assert parts == []
        lengths = [len(k) for k, _ in runs]
        assert len(runs) == max(1, 40 // size) and min(lengths) > 0
        assert max(lengths) - min(lengths) <= 1
        assert len(runs) == 1 or min(lengths) >= size
        assert np.array_equal(np.concatenate([k for k, _ in runs]), expected[0])
        assert np.array_equal(np.concatenate([m for _, m in runs]), expected[1])
        if size == 10:
            assert lengths == [10] * 4
    parts = _grouped_blocks([keys], 3)
    run = parts[0]
    (got,) = search._merge(parts, 21)
    assert parts == [] and got[0] is run[0] and got[1] is run[1]


def test_each_merge_of_a_fold_frees_its_inputs(monkeypatch):
    """Once a merge of the fold returns, no array it was given is alive
    unless a returned run holds it: neither the bucket it emptied nor a
    stale name in the fold keeps one.  The first block's seed merge is
    left out, since the block's caller may still hold it."""
    monkeypatch.setattr(search, "_MERGE_ROWS", 64)
    rng = np.random.default_rng(7)
    draw_keys = [rng.integers(0, 8, size=(60, 4)).tolist() for _ in range(12)]
    leaks = []
    real_merge = search._merge

    def spy(parts, size):
        refs = [weakref.ref(array) for run in parts for array in run]
        runs = real_merge(parts, size)
        kept = {id(array) for run in runs for array in run}
        leaks.append(sum(ref() is not None and id(ref()) not in kept for ref in refs))
        return runs

    monkeypatch.setattr(search, "_merge", spy)

    def blocks():
        for keys in draw_keys:
            yield from _grouped_blocks([keys], 4)

    keys, mult = search._fold(blocks())
    expected = search._group(_grouped_blocks(draw_keys, 4))
    assert np.array_equal(keys, expected[0]) and np.array_equal(mult, expected[1])
    assert len(leaks) > 12 and leaks[1:] == [0] * (len(leaks) - 1)


def test_merge_refuses_a_level_past_the_row_limit(monkeypatch):
    """Every group of a level, in its blocks, its merges and the fold's
    last pass, checks its rows before it sorts them: with the limit at the
    largest group the level is built, one row below it the named error is
    raised."""
    monkeypatch.setattr(search, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(search, "_MERGE_ROWS", 5)
    m = root_map(16)
    while len(m.keys) < 50:
        m = expand_level(m)
    totals = []
    real_group = search._group

    def spy(parts):
        totals.append(sum(len(k) for k, _ in parts))
        return real_group(parts)

    monkeypatch.setattr(search, "_group", spy)
    child = expand_level(m)
    monkeypatch.setattr(search, "_group", real_group)
    total = max(totals)
    assert len(totals) > 1 and total > search._MERGE_ROWS
    monkeypatch.setattr(search, "_MAX_MERGE_ROWS", total)
    at_limit = expand_level(m)
    assert np.array_equal(at_limit.keys, child.keys)
    assert np.array_equal(at_limit.mult, child.mult)
    monkeypatch.setattr(search, "_MAX_MERGE_ROWS", total - 1)
    with pytest.raises(search.MultiplicityOverflow, match=f"{total} rows to group"):
        expand_level(m)


def _nbytes(cmap):
    return cmap.keys.nbytes + cmap.mult.nbytes


def test_widest_expansion_holds_little_beside_its_child(monkeypatch):
    """Blocks are folded into the level as they come, so the widest
    expansion of count(30) peaks, traced, at no more than its parent plus
    twice its child (1.7 times measured; 3.0 when every block's output was
    held until one merge at the end).  Blocks of 512 rows and key ranges
    of about 512 rows (``_MERGE_ROWS`` 2,048) make the level many blocks
    and many buckets wide, as the default sizes do at larger n."""
    monkeypatch.setattr(search, "_BLOCK_ROWS", 512)
    monkeypatch.setattr(search, "_MERGE_ROWS", 2048)
    levels = _all_levels(30, None, True)
    i = max(range(1, len(levels)), key=lambda j: len(levels[j].keys))
    parent, child = levels[i - 1], levels[i]
    del levels
    tracemalloc.start()
    try:
        copy = ClassMap(parent.n, parent.level, parent.keys.copy(), parent.mult.copy())
        tracemalloc.reset_peak()
        again = expand_level(copy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_levels([again], [child])
    assert len(parent.keys) > 20 * search._BLOCK_ROWS and len(child.keys) > 5 * search._MERGE_ROWS
    assert peak <= _nbytes(parent) + 2 * _nbytes(child)


@st.composite
def _edge_walks(draw):
    """The states along one random walk down the search tree: a root on
    n <= 11 labels, then edges placed largest label first, each one drawn
    from the placeable pairs, until a drawn depth or a dead end."""
    n = draw(st.integers(1, 11))
    depth = draw(st.integers(0, n - 1))
    s = new_root(n)
    states = [s]
    while len(states) <= depth:
        pairs = [(u, v) for u, v in candidate_pairs(n, s.next_edge_label) if can_add_edge(s, u, v)]
        if not pairs:
            break
        s = add_edge(s, *draw(st.sampled_from(pairs)))
        states.append(s)
    return states


def _one_byte_key(s):
    """The engine's key bytes of a state: 0 for a label with no free slot,
    1 + partner for a path end, n + 1 for an unused label."""
    return [0 if f == 0 else 1 + p if f == 1 else s.n + 1 for f, p in zip(s.free, s.forb)]


@settings(max_examples=300, deadline=None)
@given(_edge_walks())
def test_orientation_helper_matches_the_state_functions(states):
    keys = np.array([_one_byte_key(s) for s in states], dtype=np.uint8)
    comp, reflected, self_comp = search._orient(keys)
    assert comp.dtype == np.uint8 and comp.shape == keys.shape
    wide = search._widen(keys)
    assert np.array_equal(search._compact(wide), keys)
    for s, row, key, c, refl, same in zip(
        states, keys, wide, search._widen(comp), reflected, self_comp, strict=True
    ):
        key = key.tobytes()
        assert key == encode(s)
        assert decode(key) == s
        assert c.tobytes() == complement_key(key)
        assert complement_key(complement_key(key)) == key
        assert row.tobytes().translate(search._byte_tables(s.n)[0])[::-1] == bytes(
            _one_byte_key(decode(complement_key(key)))
        )
        canon, flag = canonicalize(s)
        assert bool(refl) == flag
        assert bool(same) == (canon == key == complement_key(key))
    back, _, _ = search._orient(comp)
    assert np.array_equal(back, keys)


def _table_orient(keys):
    """The complement by a lookup in the byte map, and the orientation
    flags by comparing byte strings row by row."""
    table = np.frombuffer(search._byte_tables(keys.shape[1])[0], dtype=np.uint8)
    comp = table[keys[:, ::-1]]
    pairs = [(c.tobytes(), k.tobytes()) for c, k in zip(comp, keys)]
    return comp, [c < k for c, k in pairs], [c == k for c, k in pairs]


@pytest.mark.parametrize("n,c", [(24, None), (36, TwoEndpoints(9, 27))])
def test_orient_chunks_match_the_table_lookup(n, c):
    """At and around the chunk size, on the canonical keys of a level and
    on their complements, which are reflected unless self-complementary."""
    levels = []
    count(n, c, on_level=levels.append)
    keys = max(levels, key=lambda m: len(m.keys)).keys
    chunk = search._ORIENT_ROWS
    assert len(keys) > chunk + 1
    for rows in (0, 1, chunk - 1, chunk, chunk + 1):
        for part in (keys[:rows], _table_orient(keys[:rows])[0]):
            comp, reflected, self_comp = search._orient(part)
            want_comp, want_reflected, want_self = _table_orient(part)
            assert np.array_equal(comp, want_comp)
            assert reflected.tolist() == want_reflected
            assert self_comp.tolist() == want_self


@st.composite
def _near_self_complementary_keys(draw):
    """Key rows on n = 16-24 or 33-48 labels that equal their complement,
    some with one byte then redrawn: below 33 labels a key that ties with
    its complement on its first 16 bytes is self-complementary, and past
    32 a redrawn middle byte leaves a tie of 16 bytes or more."""
    n = draw(st.integers(16, 24) | st.integers(33, 48))
    table = search._byte_tables(n)[0]
    byte = st.integers(0, n + 1)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        half = draw(st.lists(byte, min_size=n // 2, max_size=n // 2))
        # an odd key's middle byte is one that is its own complement
        middle = [draw(st.sampled_from([0, n + 1, (n + 1) // 2]))] if n % 2 else []
        key = half + middle + [table[b] for b in half[::-1]]
        if draw(st.booleans()):
            key[draw(st.integers(0, n - 1))] = draw(byte)
        rows.append(key)
    return np.array(rows, dtype=np.uint8)


@settings(max_examples=200, deadline=None)
@given(_near_self_complementary_keys())
def test_orient_decides_keys_that_share_a_long_prefix_with_their_complement(keys):
    """The children of a bound run nearly all differ from their complement
    within their first 16 bytes, so random states hardly reach a long
    common prefix; these keys do, and the flags still equal the full-row
    comparison."""
    comp, reflected, self_comp = search._orient(keys)
    want_comp, want_reflected, want_self = _table_orient(keys)
    assert np.array_equal(comp, want_comp)
    below, equal = search._compare_rows(want_comp, keys)
    assert reflected.tolist() == below.tolist() == want_reflected
    assert self_comp.tolist() == equal.tolist() == want_self


def _limb_rows(values):
    return np.array(
        [[x & (2**64 - 1), x >> 64] for x in values], dtype=np.uint64
    ).reshape(-1, 2)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 2**128 - 1) | st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**128 - 1]),
            st.integers(0, 2**128 - 1) | st.sampled_from([0, 1, 2**128 - 1]),
        ),
        min_size=1,
        max_size=40,
    ),
    st.data(),
)
def test_group_sums_match_python_ints(pairs, data):
    """Group sums, one-pass or from 32-bit digits with carries, give every
    group's exact 128-bit sum, and raise the named error instead of
    wrapping at 2**128; the whole-map sum from digit sums is exact too."""
    rows = len(pairs)
    cuts = data.draw(st.sets(st.integers(1, rows - 1)) if rows > 1 else st.just(set()))
    starts = np.array([0] + sorted(cuts), dtype=np.intp)
    mult = np.concatenate(
        [_limb_rows(d for d, _ in pairs), _limb_rows(r for _, r in pairs)], axis=1
    )
    assert search._limb_sum(mult) == sum(d + r for d, r in pairs)
    assert search._limb_sum(mult[:, 2:]) == sum(r for _, r in pairs)
    bounds = list(starts) + [rows]
    sums = [
        [sum(p[slot] for p in pairs[a:b]) for slot in (0, 1)]
        for a, b in zip(bounds, bounds[1:])
    ]
    if any(x >> 128 for pair in sums for x in pair):
        with pytest.raises(search.MultiplicityOverflow):
            search._sum_groups(mult, starts)
        return
    out = search._sum_groups(mult, starts)
    assert out.dtype == np.uint64
    assert [[dl | dh << 64, rl | rh << 64] for dl, dh, rl, rh in out.tolist()] == sums


def test_group_sum_raises_once_a_group_reaches_2_128():
    top = 2**128 - 1
    keys = np.zeros((3, 2), dtype=np.uint8)
    mult = search._limbs([(top - 1, 0), (1, top), (0, 0)])
    out_keys, out = search._group([(keys, mult.copy())])
    assert len(out_keys) == 1 and out.tolist() == [[2**64 - 1] * 4]
    for pair in ((1, 0), (0, 1)):
        with pytest.raises(search.MultiplicityOverflow, match="2\\*\\*128"):
            search._group([(keys, search._limbs([(top - 1, 0), (1, top), pair]))])


_THIRD = (2**64 - 1) // 3  # three of these make 2**64 - 1


@pytest.mark.parametrize(
    "pairs,starts,one_pass",
    [
        # the largest low limb times the rows is 2**64 - 1: no sum can wrap
        ([(_THIRD, 1), (_THIRD, 0), (_THIRD, 2)], [0], True),
        ([(_THIRD, 1), (_THIRD, 0), (_THIRD, 2)], [0, 2], True),
        # it is 2**64: one group's low limbs add up to exactly 2**64
        ([(2**63, 0), (2**63, 0)], [0], False),
        ([(2**62, 2**62)] * 4, [0], False),
        # one high limb set, the low limbs tiny
        ([(2**64, 0), (1, 0)], [0], False),
        ([(0, 1), (1, 2**64 + 5)], [0, 1], False),
        # a low limb of 2**64 - 1 in a group of two carries into the high limb
        ([(2**64 - 1, 0), (1, 0)], [0], False),
        ([(0, 2**64 - 1), (0, 1), (3, 0)], [0, 2], False),
    ],
)
def test_group_sums_at_the_one_pass_boundary(monkeypatch, pairs, starts, one_pass):
    """The one-pass sum is taken exactly when the largest low limb times
    the number of rows is below 2**64 and no high limb is set; both paths
    match Python ints at the edges."""
    digit_calls = []

    def digit_sums(mult, starts):
        digit_calls.append(len(mult))
        return digit_path(mult, starts)

    digit_path = search._digit_sums
    monkeypatch.setattr(search, "_digit_sums", digit_sums)
    mult = search._limbs(pairs)
    out = search._sum_groups(mult, np.array(starts, dtype=np.intp))
    bounds = starts + [len(pairs)]
    want = [
        [sum(p[slot] for p in pairs[a:b]) for slot in (0, 1)]
        for a, b in zip(bounds, bounds[1:])
    ]
    assert [[dl | dh << 64, rl | rh << 64] for dl, dh, rl, rh in out.tolist()] == want
    assert digit_calls == ([] if one_pass else [len(pairs)])


@pytest.mark.parametrize("array_min_rows", [0, 10**9])
def test_self_complementary_add_raises_at_2_128(monkeypatch, array_min_rows):
    """The single edge joining 0 and n-1 is self-complementary, so both
    counts of its parent flow into the direct slot: exact up to
    2**128 - 1, carries out of the low limb included, refused at 2**128
    on either expansion path."""
    monkeypatch.setattr(search, "_ARRAY_MIN_ROWS", array_min_rows)
    root = root_map(6)
    cases = ((2**64 - 1, 1, True), (2**127, 2**127 - 1, True), (2**127, 2**127, False))
    for d, r, fits in cases:
        m = ClassMap(6, 5, root.keys, search._limbs([(d, r)]))
        if fits:
            assert pairs(expand_level(m).mult) == [(d + r, 0)]
        else:
            with pytest.raises(search.MultiplicityOverflow, match="128"):
                expand_level(m)


def test_self_complementary_entries_have_zero_reflected():
    m = root_map(9)
    while m.level > 0:
        m = expand_level(m)
        for row, (d, r) in zip(search._widen(m.keys), pairs(m.mult), strict=True):
            assert d + r >= 1
            key = row.tobytes()
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


@pytest.mark.parametrize("constraint", [OneEndpoint(1.5), TwoEndpoints(1, 2.0)])
def test_every_route_refuses_a_label_that_is_not_an_integer(constraint):
    """A float label is a named TypeError on all four routes, not a count
    of 0 from brute force or an indexing error from inside the others."""
    routes = (brute_force_count, dfs_count, count, enumerate_graceful)
    for route in routes:
        with pytest.raises(TypeError, match=r"endpoint label (1\.5|2\.0) is not an integer"):
            route(5, constraint)


def test_every_route_refuses_what_is_not_a_constraint():
    for route in (brute_force_count, dfs_count, count, enumerate_graceful):
        with pytest.raises(TypeError) as exc:
            route(5, "x")
        assert str(exc.value) == "not a constraint: 'x'"


@pytest.mark.parametrize(
    "step,constraint,error,message",
    [
        ("finalize", OneEndpoint(-1), ValueError, "endpoint label -1 out of range 0..6"),
        ("finalize", OneEndpoint(9), ValueError, "endpoint label 9 out of range 0..6"),
        ("expand", OneEndpoint(-1), ValueError, "endpoint label -1 out of range 0..6"),
        ("expand", TwoEndpoints(1, 7), ValueError, "endpoint label 7 out of range 0..6"),
        ("expand", "x", TypeError, "not a constraint: 'x'"),
    ],
    ids=["finalize_-1", "finalize_9", "expand_-1", "expand_1_7", "expand_x"],
)
def test_step_functions_check_their_constraint(step, constraint, error, message):
    """``expand_level`` and ``finalize`` check their constraint as
    ``count`` does, with or without pruning: no IndexError from the
    pruning tests' lookups and no map built for what is not a constraint."""
    m = root_map(7)
    if step == "finalize":
        while m.level > 0:
            m = expand_level(m)
        calls = [lambda: finalize(m, constraint)]
    else:
        calls = [lambda p=p: expand_level(m, constraint, prune=p) for p in (True, False)]
    for call in calls:
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == message


def test_numpy_integer_labels_are_accepted():
    c = TwoEndpoints(np.int64(0), np.int64(3))
    assert count(6, c).count == count(6, TwoEndpoints(0, 3)).count == 1


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


def test_count_frees_an_initial_map_the_caller_does_not_keep():
    """count() holds ``initial`` only as its current level: a map passed
    without another reference, and its arrays, are freed by the time the
    first expanded level is handed to ``on_level``."""
    c = TwoEndpoints(5, 15)
    maps = []
    base = count(20, c, on_level=maps.append)
    refs = []

    def resumable():
        mid = maps[10]
        m = ClassMap(20, mid.level, mid.keys.copy(), mid.mult.copy(), c)
        refs.extend(weakref.ref(x) for x in (m, m.keys, m.mult))
        return m

    freed = []

    def on_level(cmap):
        freed.append([ref() is None for ref in refs])

    resumed = count(20, c, initial=resumable(), on_level=on_level)
    assert resumed.count == base.count
    assert freed[0] == [True, True, True]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 11).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.none()
            | st.builds(OneEndpoint, st.integers(0, n - 1))
            | st.builds(TwoEndpoints, st.integers(0, n - 1), st.integers(0, n - 1)),
        )
    ),
    st.booleans(),
    st.integers(1, 9),
    st.integers(0, 40),
    st.integers(1, 9),
)
def test_engine_matches_dfs_with_small_blocks(case, prune, block_rows, array_min_rows, merge_rows):
    """With tiny blocks, tiny merge ranges and a random switch-over between
    the per-key loop and the array path, ``count`` still equals the
    unfolded walk, and every level equals the default run's bit for bit."""
    n, c = case
    expected = []
    base = count(n, c, prune=prune, on_level=expected.append)
    levels = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_BLOCK_ROWS", block_rows)
        mp.setattr(search, "_ARRAY_MIN_ROWS", array_min_rows)
        mp.setattr(search, "_MERGE_ROWS", merge_rows)
        got = count(n, c, prune=prune, on_level=levels.append)
    assert got.count == base.count == dfs_count(n, c, prune=not prune)
    _assert_same_levels(levels, expected)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.none()
            | st.builds(OneEndpoint, st.integers(0, n - 1))
            | st.builds(TwoEndpoints, st.integers(0, n - 1), st.integers(0, n - 1)),
        )
    ),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)
def test_pruning_equals_the_dead_tests_on_the_built_keys(case, block_rows, seed):
    """Pruned expansion through the array path equals unpruned expansion
    followed by the rule applied to the canonical keys: each slot that
    ``_dead_rows`` kills there cleared (the direct slot under ``dead[0]``,
    the reflected one under ``dead[1]``), then rows with no limb set
    dropped.  The parents are every level of an unpruned run and of a run
    built for None, so they hold slots that are already dead, and copies of
    those levels with one slot of some rows cleared, whose children live
    only in the other slot."""
    n, c = case
    levels = [root_map(n)]
    count(n, c, prune=False, on_level=levels.append)
    count(n, None, on_level=levels.append)
    rng = np.random.default_rng(seed)
    parents = list(levels)
    for level in levels:
        mult = level.mult.copy()
        slot = rng.integers(0, 3, size=len(mult))  # 2 clears neither slot
        for s in (0, 1):
            other = mult[:, 2 - 2 * s : 4 - 2 * s]
            clear = (slot == s) & other.any(axis=1)
            mult[clear, 2 * s : 2 * s + 2] = 0
        parents.append(ClassMap(n, level.level, level.keys, mult, level.constraint))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_ARRAY_MIN_ROWS", 0)
        mp.setattr(search, "_BLOCK_ROWS", block_rows)
        for parent in parents:
            if parent.level == 0:
                continue
            got = expand_level(parent, c, prune=True)
            full = expand_level(parent, c, prune=False)
            mult = full.mult.copy()
            dead = search._dead_tests(n, parent.level - 1, c)
            for s, tests in enumerate(dead or ()):
                mult[search._dead_rows(full.keys.T, tests), 2 * s : 2 * s + 2] = 0
            live = mult.any(axis=1)
            assert np.array_equal(got.keys, full.keys[live])
            assert np.array_equal(got.mult, mult[live])


def test_worker_pool_gives_the_single_worker_levels(monkeypatch):
    """With the block size lowered, the pool is handed every level, and
    changes nothing, at every forced merge size."""
    monkeypatch.setattr(search, "_BLOCK_ROWS", 7)
    pooled = []
    real_expand = search._expand

    def spy(cmap, constraint, prune, mapper):
        pooled.append(mapper is not map)
        return real_expand(cmap, constraint, prune, mapper)

    monkeypatch.setattr(search, "_expand", spy)
    for n, c in ((16, None), (20, TwoEndpoints(5, 15))):
        expected = []
        base = count(n, c, on_level=expected.append)
        for workers, merge_rows in itertools.product((2, 4), MERGE_ROWS):
            monkeypatch.setattr(search, "_MERGE_ROWS", merge_rows)
            pooled.clear()
            levels = []
            r = count(n, c, workers=workers, on_level=levels.append)
            assert all(pooled)
            assert r.count == base.count
            assert [(s.level, s.class_count, s.node_sum) for s in r.levels] == [
                (s.level, s.class_count, s.node_sum) for s in base.levels
            ]
            _assert_same_levels(levels, expected)
        monkeypatch.setattr(search, "_MERGE_ROWS", MERGE_ROWS[0])


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


def test_count_resumes_a_constraint_from_a_map_built_for_none():
    """``count(initial=)`` takes a map built for None under any constraint,
    like ``expand_level`` and ``finalize`` do."""
    c = TwoEndpoints(4, 12)
    maps = []
    count(16, on_level=maps.append)
    for m in maps[3::5]:
        assert m.constraint is None
        assert count(16, c, initial=m).count == dfs_count(16, c)


def test_initial_maps_must_hold_states_of_their_level():
    """A map whose rows are not states on its level is refused with the
    row and the level, not counted (the root on level 3 of n = 6 would
    give 80 where G(6) is 24) or left to fail inside the engine."""
    root = root_map(6)
    wrong_level = ClassMap(6, 3, root.keys, root.mult)
    with pytest.raises(ValueError, match="row 0 is not a state on level 3"):
        count(6, initial=wrong_level)
    byte_200 = ClassMap(6, 5, np.full((1, 6), 200, dtype=np.uint8), root.mult)
    with pytest.raises(ValueError, match="row 0 is not a state on level 5"):
        count(6, initial=byte_200)
    # Level 0 with no path end: every label used up but one (2 would be
    # counted).
    no_ends = ClassMap(4, 0, np.array([[0, 0, 0, 5]], dtype=np.uint8), root_map(4).mult)
    with pytest.raises(ValueError, match="row 0 is not a state on level 0"):
        count(4, initial=no_ends)
    # The rule runs block by block and names the row in the whole map.
    maps = []
    count(12, on_level=maps.append)
    m = max(maps, key=lambda m: len(m.keys))
    keys = m.keys.copy()
    keys[-1, 0] = 200
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_BLOCK_ROWS", 7)
        with pytest.raises(ValueError, match=f"row {len(keys) - 1} is not a state on level"):
            count(12, initial=ClassMap(12, m.level, keys, m.mult))


def test_initial_maps_must_pair_their_path_ends():
    """A path end whose partner does not name it back is refused (the
    engine would count 8 from it)."""
    root = root_map(6)
    # The paths 0-1 and 2-3; then label 0 names 2, which names 3 back.
    paired = np.array([[2, 1, 4, 3, 7, 7]], dtype=np.uint8)
    assert not search._bad_states(paired, 3).any()
    unpaired = ClassMap(6, 3, np.array([[3, 1, 4, 3, 7, 7]], dtype=np.uint8), root.mult)
    with pytest.raises(ValueError, match="row 0 is not a state on level 3"):
        count(6, initial=unpaired)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.none()
            | st.builds(OneEndpoint, st.integers(0, n - 1))
            | st.builds(TwoEndpoints, st.integers(0, n - 1), st.integers(0, n - 1)),
        )
    ),
    st.data(),
)
def test_the_state_rule_is_decode_on_one_byte_rows(case, data):
    """Every level of a run passes ``_bad_states``.  With one byte of a
    real row set to any value, the rule flags the row exactly when the
    row does not survive the round trip through the two-byte form, or
    when ``state.decode`` refuses the widened row or puts it on another
    level."""
    n, c = case
    levels = [root_map(n)]
    count(n, c, on_level=levels.append)
    for m in levels:
        assert not search._bad_states(m.keys, m.level).any()
    live = [m for m in levels if len(m.keys)]
    m = data.draw(st.sampled_from(live))
    row = m.keys[data.draw(st.integers(0, len(m.keys) - 1))].copy()
    row[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, 255))
    row = row[None]
    wide = search._widen(row)
    try:
        off_level = decode(wide.tobytes()).next_edge_label != m.level
    except ValueError:
        off_level = True
    expected = not np.array_equal(search._compact(wide), row) or off_level
    assert search._bad_states(row, m.level)[0] == expected


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


def test_enumerate_limit_gives_prefixes():
    # Odd limits cut an unconstrained leaf between its two readings.
    for c in (None, OneEndpoint(3)):
        full = [p.seq for p in enumerate_graceful(7, c).permutations]
        for limit in range(len(full) + 2):
            r = enumerate_graceful(7, c, limit=limit)
            assert [p.seq for p in r.permutations] == full[:limit]
            assert r.truncated is (limit < len(full))


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerated_permutations_match_validated_ones(n):
    for p in enumerate_graceful(n).permutations:
        q = GracefulPermutation(p.seq)
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        assert all(type(x) is int for x in p)


def test_enumerate_rejects_a_non_graceful_walk(monkeypatch):
    def walk(n, constraint, prune, emit):
        emit((0, 1, 2))
        return 1

    monkeypatch.setattr(search, "_walk", walk)
    with pytest.raises(ValueError) as exc:
        enumerate_graceful(3)
    assert str(exc.value) == "not a graceful permutation: [0, 1, 2]"


_FAULTS = ("shuffle", "swap", "repeat", "high", "negative")


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    rows=st.integers(0, 9000),
    seed=st.integers(0, 2**32 - 1),
    faults=st.lists(st.tuples(st.integers(0, 8999), st.sampled_from(_FAULTS)), max_size=6),
)
@example(n=12, rows=9000, seed=1, faults=[(4096, "swap")])
@example(n=9, rows=8193, seed=2, faults=[(4095, "high"), (8192, "negative")])
@example(n=10, rows=8192, seed=3, faults=[(8191, "repeat")])
@example(n=1, rows=5000, seed=4, faults=[(4500, "negative")])
def test_block_check_matches_is_graceful(n, rows, seed, faults):
    """Graceful rows, some made into shuffled permutations, swapped or
    repeated labels, or labels out of range: the block check rejects
    exactly what ``is_graceful`` rejects and names the first."""
    rng = random.Random(seed)
    good = [p.seq for p in enumerate_graceful(n).permutations]
    seqs = [good[rng.randrange(len(good))] for _ in range(rows)]
    for i, kind in faults:
        if i >= rows:
            continue
        row = list(seqs[i])
        j, k = rng.randrange(n), rng.randrange(n)
        if kind == "shuffle":
            rng.shuffle(row)
        elif kind == "swap":
            row[j], row[k] = row[k], row[j]
        elif kind == "repeat":
            row[j] = row[k - 1 if k == j else k]
        elif kind == "high":
            row[j] = n + rng.randrange(3)
        else:
            row[j] = -1 - rng.randrange(3)
        seqs[i] = tuple(row)
    bad = [not is_graceful(s) for s in seqs]
    step = search._BLOCK_ROWS
    for start in range(0, rows, step):
        assert search._bad_rows(seqs[start : start + step]).tolist() == bad[start : start + step]
    if True in bad:
        with pytest.raises(ValueError) as exc:
            search._check_graceful(seqs)
        assert str(exc.value) == f"not a graceful permutation: {list(seqs[bad.index(True)])}"
    else:
        search._check_graceful(seqs)


@pytest.mark.parametrize("block_rows", [7, 4096])
def test_block_filtered_oracle_matches_is_graceful(monkeypatch, block_rows):
    """The brute-force oracle checks permutations a block at a time; at any
    block size it keeps exactly those ``is_graceful`` accepts, in order."""
    monkeypatch.setattr(search, "_BLOCK_ROWS", block_rows)
    search._all_graceful_brute.cache_clear()
    try:
        for n in range(1, 9):
            expected = tuple(p for p in itertools.permutations(range(n)) if is_graceful(p))
            assert search._all_graceful_brute(n) == expected
    finally:
        search._all_graceful_brute.cache_clear()


@pytest.mark.parametrize(
    "call",
    [lambda: enumerate_graceful(990, limit=1), lambda: dfs_count(1100)],
    ids=["enumerate_990", "dfs_count_1100"],
)
def test_walks_past_the_recursion_limit_are_refused(call):
    with pytest.raises(ComputationRefused, match="recursion limit"):
        call()


def test_deep_walk_under_the_recursion_limit_runs():
    (p,) = enumerate_graceful(200, limit=1).permutations
    assert len(p) == 200 and is_graceful(p.seq)
