"""Bipartite structure, gluing, growth bases and exact certificates."""

from __future__ import annotations

import json
import random
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gracefulperms import bounds
from gracefulperms.bounds import (
    BoundResult,
    build_witness,
    certify_bound,
    gamma,
    gamma_value,
    glue,
    integer_nth_root,
    is_bipartite_graceful,
    verify_inequality,
)
from gracefulperms.search import (
    ComputationRefused,
    GracefulPermutation,
    OneEndpoint,
    TwoEndpoints,
    enumerate_graceful,
)

#: G(64;16,48), reproduced exactly by the acceptance suite.
COUNT_64 = 1172380428523169632220649


@pytest.mark.parametrize(
    "seq,m,expected",
    [
        ((1, 2, 0, 3), 2, True),
        ((0, 1), 1, True),
        ((0, 6, 1, 5, 2, 4, 3), 3, False),  # the edge 4-3 has both labels >= 3
    ],
)
def test_is_bipartite_graceful(seq, m, expected):
    assert is_bipartite_graceful(GracefulPermutation(seq), m) is expected


def test_is_bipartite_rejects_bad_threshold():
    with pytest.raises(ValueError):
        is_bipartite_graceful(GracefulPermutation((0, 1)), 0)


# -- glue -----------------------------------------------------------------------


def test_glue_minimal():
    out = glue(GracefulPermutation((0, 1)), GracefulPermutation((0,)), 1, 0, 1)
    assert out.seq == (0, 2, 1)


def test_glue_seven_labels():
    out = glue(
        GracefulPermutation((1, 2, 0, 3)), GracefulPermutation((1, 2, 0)), 2, 1, 3
    )
    assert out.seq == (1, 5, 0, 6, 3, 4, 2)
    assert out[0] == 1


def test_glue_degenerate_single_label_tail():
    out = glue(GracefulPermutation((0, 3, 1, 2)), GracefulPermutation((0,)), 2, 0, 1)
    assert len(out) == 5
    assert out[0] == 0


def test_glue_reorients_reversed_inputs():
    out = glue(
        GracefulPermutation((3, 0, 2, 1)),  # reading from 3 down to 1
        GracefulPermutation((0, 2, 1)),  # reading ending at 1
        2,
        1,
        3,
    )
    assert out.seq == (1, 5, 0, 6, 3, 4, 2)


def test_glue_error_messages_name_the_input():
    p = GracefulPermutation((1, 2, 0, 3))
    q = GracefulPermutation((1, 2, 0))
    with pytest.raises(ValueError, match="p must have"):
        glue(GracefulPermutation((0, 1)), q, 2, 1, 3)
    with pytest.raises(ValueError, match="q must have"):
        glue(p, GracefulPermutation((0,)), 2, 1, 3)
    with pytest.raises(ValueError, match="p must run between"):
        glue(GracefulPermutation((0, 3, 1, 2)), q, 2, 1, 3)
    with pytest.raises(ValueError, match="q must have endpoint"):
        glue(p, GracefulPermutation((2, 3, 1, 4, 0)), 2, 1, 5)


# -- the counting inequality -------------------------------------------------------


def test_verify_inequality_examples():
    lhs, rhs, holds = verify_inequality(3, 2, 1)
    assert (lhs, rhs, holds) == (4, 2, True)  # G(7;1)=4 against G(4;1,3)*G(3;1)=1*2
    lhs, rhs, holds = verify_inequality(1, 1, 0)
    assert rhs == 1 and lhs >= 1 and holds
    assert verify_inequality(5, 3, 1)[2]


def test_verify_inequality_requires_j_at_most_m():
    with pytest.raises(ValueError):
        verify_inequality(3, 2, 3)


def test_verify_inequality_vacuous_factors():
    # j=m makes j+m an invalid label of a 2m-permutation: right side is 0
    lhs, rhs, holds = verify_inequality(3, 2, 2)
    assert rhs == 0 and holds
    # j beyond the labels of the short factor likewise zeroes it
    lhs, rhs, holds = verify_inequality(1, 2, 2)
    assert rhs == 0 and holds


# -- integer roots and gamma ---------------------------------------------------------


def test_integer_nth_root_edge_cases():
    assert integer_nth_root(0, 5) == 0
    assert integer_nth_root(1, 5) == 1
    assert integer_nth_root(7, 1) == 7
    assert integer_nth_root(2 ** 40, 40) == 2
    assert integer_nth_root(2 ** 40 - 1, 40) == 1
    with pytest.raises(ValueError):
        integer_nth_root(-1, 2)
    with pytest.raises(ValueError):
        integer_nth_root(10, 0)


def test_integer_nth_root_randomized_exactness():
    rng = random.Random(12345)
    for _ in range(500):
        k = rng.randint(1, 9)
        x = rng.randint(0, 10 ** rng.randint(0, 40))
        t = integer_nth_root(x, k)
        assert t ** k <= x < (t + 1) ** k
    # Exact powers and their neighbours, for k up to the bound runs'
    # exponents 2m <= 80, where a Newton step that stopped one off would
    # show.
    for _ in range(300):
        k = rng.randint(2, 80)
        t = rng.randint(2, 10 ** rng.randint(1, 30))
        for x, root in ((t**k - 1, t - 1), (t**k, t), (t**k + 1, t)):
            assert integer_nth_root(x, k) == root, (x, k)


def test_gamma_twenty_labels():
    r = gamma(10, 5)
    assert r.count == 4382
    # the exact 20th root of 4382 is 1.52087..., truncated (never rounded
    # up) so the printed base is itself a valid lower bound
    assert r.gamma == 1.5208
    assert not r.zero_count


def test_gamma_truncation_brackets_the_count():
    r = gamma(10, 5)
    scaled = round(r.gamma * 10 ** 4)
    assert scaled ** 20 <= r.count * 10 ** 80 < (scaled + 1) ** 20


def test_gamma_value_of_published_count():
    assert gamma_value(COUNT_64, 64) == 2.3772


def test_gamma_zero_count_flag(monkeypatch):
    class _Zero:
        count = 0

    monkeypatch.setattr(bounds, "count", lambda *a, **k: _Zero())
    r = gamma(3, 1)
    assert r == BoundResult(3, 1, 0, 0.0, zero_count=True)


# -- certification --------------------------------------------------------------------


def test_certify_published_count_exceeds_2_37():
    assert certify_bound(COUNT_64, 64, "2.37") is True


def test_recorded_bounds_recertify():
    """Every count in ``bound_records.json`` certifies its recorded base in
    exact integers, and not one unit in the last digit more; its mirror
    start label and its resumed run gave the same integer.  m = 34 is
    where the certified base passes the paper's 2.37."""
    records = json.loads(Path(__file__).with_name("bound_records.json").read_text())
    for r in records:
        cnt, two_m = int(r["count"]), 2 * r["m"]
        assert [r["j"], r["j"] + r["m"]] == r["endpoints"]
        assert r["mirror"]["endpoints"] == [r["m"] - 1 - r["j"], two_m - 1 - r["j"]]
        assert int(r["mirror"]["count"]) == int(r["resumed"]["count"]) == cnt
        assert gamma_value(cnt, two_m) == float(r["gamma"])
        assert certify_bound(cnt, two_m, r["gamma"]) is True
        assert certify_bound(cnt, two_m, Decimal(r["gamma"]) + Decimal("0.0001")) is False
    by_m = {r["m"]: int(r["count"]) for r in records}
    assert by_m[34] == 204660893856042387758775606
    assert certify_bound(by_m[34], 68, "2.37") is True
    assert gamma_value(by_m[34], 68) == 2.4374


def test_certify_is_exact_about_the_last_digit():
    # 4382 * 10^60 = 4.382e63 < 1521^20 = 4.391e63: the once-published
    # base 1.521 is a rounded-up digit and does not certify
    assert certify_bound(4382, 20, "1.521") is False
    assert certify_bound(4382, 20, "1.52") is True
    assert certify_bound(4382, 20, "1.5208") is True
    assert certify_bound(4382, 20, "1.53") is False


def test_certify_threshold_forms():
    assert certify_bound(1000, 3, 9) is True
    assert certify_bound(1000, 3, "10") is False  # strict inequality
    assert certify_bound(1000, 3, Decimal("9.99")) is True
    assert certify_bound(1000, 3, 9.99) is True
    with pytest.raises(ValueError):
        certify_bound(10, 0, "1.0")
    with pytest.raises(ValueError):
        certify_bound(10, 2, "junk")
    with pytest.raises(ValueError):
        certify_bound(10, 2, "nan")
    with pytest.raises(ValueError):
        certify_bound(10, 2, "-1.5")


def test_certify_settles_extreme_exponents_without_a_power():
    """A threshold's decimal exponent sets no amount of work: a threshold
    of at least 10**d, for a count of d digits, or below 1, and a zero
    count are answered before any power is taken."""
    assert certify_bound(10**20, 6, "1e1000000000") is False
    assert certify_bound(10**20, 6, "1e-1000000000") is True
    assert certify_bound(0, 6, "1e-1000000000") is False


def test_certify_takes_counts_and_thresholds_of_any_length():
    """Neither the count nor the threshold's digits pass through a decimal
    string, whose conversion Python limits to 4,300 digits by default."""
    assert certify_bound(10**5000, 2, "1e2499") is True
    assert certify_bound(10**5000, 2, "1e2500") is False
    assert certify_bound(10**5000, 2, "3") is True
    assert certify_bound(4382, 20, "1.52" + "0" * 5000) is True
    assert certify_bound(4382, 20, "1.521" + "0" * 5000) is False


def test_certify_answers_a_long_threshold_from_its_leading_digits():
    """A threshold of 100,003 digits that its first two already settle
    costs no more than a short one: the work follows the digits on which
    it agrees with the root, not its length.  Comparing all its digits
    took 8-10 s."""
    start = time.perf_counter()
    assert certify_bound(COUNT_64, 64, "2." + "0" * 100_000 + "1") is True
    assert certify_bound(COUNT_64, 64, "3." + "0" * 100_000 + "1") is False
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("cnt,exponent", [(2**20, 20), (4382, 20), (10**50 + 7, 7)])
def test_certify_decides_thresholds_that_agree_with_the_root_on_many_digits(cnt, exponent):
    """Thresholds equal to the root's first 5..600 decimals, one unit in
    the last place above them, or with zeros appended, against the
    integer comparison."""
    for places in (5, 8, 9, 100, 600):
        root = integer_nth_root(cnt * 10 ** (places * exponent), exponent)
        for p in (root, root + 1, root * 10**40):
            shift = places + (40 if p > root + 1 else 0)
            expected = cnt * 10 ** (shift * exponent) > p**exponent
            whole, frac = divmod(p, 10**shift)
            threshold = f"{whole}.{frac:0{shift}d}"
            assert certify_bound(cnt, exponent, threshold) is expected, (places, p)


@st.composite
def _certify_cases(draw):
    """(cnt, exponent, p, shift) for the threshold p * 10**shift, the
    count either any or next to the threshold's power."""
    exponent = draw(st.integers(1, 12))
    p = draw(st.integers(0, 10**12))
    shift = draw(st.integers(-30, 30))
    if draw(st.booleans()):
        power = (p * 10 ** max(shift, 0)) ** exponent // 10 ** (max(-shift, 0) * exponent)
        cnt = max(0, power + draw(st.integers(-2, 2)))
    else:
        cnt = draw(st.integers(0, 10**40))
    return cnt, exponent, p, shift


@settings(max_examples=300, deadline=None)
@given(_certify_cases())
@example((999, 1, 999, 0))
@example((999, 1, 9989, -1))
@example((999, 1, 999, -2))
@example((999, 1, 1, 3))
@example((1000, 1, 999, 0))
@example((1000, 1, 1, 3))
@example((1, 1, 1, 0))
@example((1, 5, 999, -3))
@example((0, 1, 0, 0))
@example((4382, 20, 1521, -3))
def test_certify_equals_the_integer_comparison(case):
    """``certify_bound`` equals cnt * 10**(s * E) > p**E for the threshold
    p / 10**s, whichever of its early answers it takes, across digit
    boundaries such as 999 against "999", "998.9", "9.99e2" and "1e3"."""
    cnt, exponent, p, shift = case
    s = max(-shift, 0)
    expected = cnt * 10 ** (s * exponent) > (p * 10 ** max(shift, 0)) ** exponent
    assert certify_bound(cnt, exponent, f"{p}e{shift}") is expected


def test_certified_threshold_is_consistent_with_gamma():
    for m, j, t in [(10, 5, "1.52"), (13, 6, "1.66"), (5, 2, "1.3")]:
        r = gamma(m, j)
        if certify_bound(r.count, 2 * m, t):
            assert r.gamma >= float(t) - 1e-4


# -- witnesses ---------------------------------------------------------------------


def test_build_witness_single_round():
    w = build_witness(2, 1, 3)
    assert len(w) == 7
    assert w[0] == 1


def test_build_witness_iterated():
    w = build_witness(2, 1, 3, iterations=4)
    assert len(w) == 3 + 4 * 4
    assert w[0] == 1


def test_build_witness_input_checks():
    with pytest.raises(ValueError):
        build_witness(2, 3, 3)  # j > m
    with pytest.raises(ValueError):
        build_witness(2, 1, 1)  # j is not a label of a 1-permutation
    with pytest.raises(ValueError):
        build_witness(2, 1, 3, iterations=0)


def test_gamma_midpoint_sweep_report_only(capsys):
    """Report-only: the growth base at j = floor(m/2) looks non-decreasing
    in m, but that is an observation, not an asserted invariant."""
    rows = []
    for m in range(1, 15):
        r = gamma(m, m // 2)
        rows.append((m, r.gamma))
    with capsys.disabled():
        print("\ngamma(m, m//2):", ", ".join(f"m={m}: {g:.4f}" for m, g in rows))


def test_bipartiteness_of_constrained_permutations_small():
    for m in (1, 2, 3):
        for j in range(m):
            for p in enumerate_graceful(2 * m, TwoEndpoints(j, j + m)).permutations:
                assert is_bipartite_graceful(p, m)


def test_glue_injective_small():
    m, j = 2, 1
    ps = enumerate_graceful(2 * m, TwoEndpoints(j, j + m)).permutations
    qs = enumerate_graceful(5, OneEndpoint(j)).permutations
    seen = set()
    for p in ps:
        for q in qs:
            seen.add(glue(p, q, m, j, 5).seq)
    assert len(seen) == len(ps) * len(qs)
