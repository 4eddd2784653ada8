import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snicode.rates import (
    SniProblem,
    canonical_pair,
    format_rate,
    in_S,
    make_pair,
    membership,
    range_violation,
    rate_gap,
    search_best_pair,
    truncate4,
)

from _gf_reference import interference, side_info

# ------------------------------------------------------------------ problems


def test_problem_validation():
    SniProblem(13, 4, 1)
    SniProblem(3, 1, 1)
    SniProblem(4, 0, 0)
    with pytest.raises(ValueError):
        SniProblem(13, 1, 2)  # U > D
    with pytest.raises(ValueError):
        SniProblem(5, 3, 2)  # U + D >= K
    with pytest.raises(ValueError):
        SniProblem(0, 0, 0)
    with pytest.raises(ValueError):
        SniProblem(5, -1, 0)


def test_interference_and_side_info():
    pr = SniProblem(13, 4, 1)
    assert interference(pr, 0) == (12, 1, 2, 3, 4)
    assert side_info(pr, 0) == (5, 6, 7, 8, 9, 10, 11)
    assert interference(pr, 10) == (9, 11, 12, 0, 1)
    assert side_info(pr, 10) == (2, 3, 4, 5, 6, 7, 8)


def test_interference_wraps_cleanly():
    pr = SniProblem(7, 2, 2)
    assert interference(pr, 0) == (5, 6, 1, 2)
    assert interference(pr, 6) == (4, 5, 0, 1)


@settings(deadline=None, max_examples=60)
@given(
    K=st.integers(3, 30),
    D=st.integers(0, 12),
    U=st.integers(0, 12),
    t=st.integers(0, 29),
)
def test_message_sets_partition(K, D, U, t):
    if U > D or U + D >= K or t >= K:
        return
    pr = SniProblem(K, D, U)
    inter = interference(pr, t)
    side = side_info(pr, t)
    assert len(inter) == U + D
    assert len(set(inter)) == len(inter)
    assert set(inter) | set(side) | {t} == set(range(K))
    assert not set(inter) & set(side)
    assert t not in inter and t not in side


# ---------------------------------------------------------------- membership


def test_in_S_worked_example():
    pr = SniProblem(13, 4, 1)
    assert in_S(pr, 1, 5)  # gcd(65, 26) = 13 >= 10
    assert not in_S(pr, 0, 1)  # gcd(13, 5) = 1 < 2
    assert not in_S(SniProblem(13, 4, 3), 1, 5)  # 13 < 20


def test_in_S_bounds():
    pr = SniProblem(13, 4, 1)
    assert not in_S(pr, -1, 5)
    assert not in_S(pr, 1, 0)
    # a may not exceed b*(K - D - 1), which keeps m >= n
    assert in_S(pr, 8, 1)
    assert not in_S(pr, 9, 1)


def test_membership_names_the_violated_range_or_the_divisor_condition():
    pr = SniProblem(13, 4, 1)
    assert membership(pr, 1, 5) == "gcd(65, 26) = 13 >= b*(U+1) = 10"
    assert membership(pr, 0, 1) == "gcd(13, 5) = 1 < b*(U+1) = 2"
    assert membership(pr, 1, 0) == "b = 0 < 1"
    assert membership(pr, -1, 5) == "a = -1 outside [0, b*(K-D-1)] = [0, 40]"
    assert membership(pr, 9, 1) == "a = 9 outside [0, b*(K-D-1)] = [0, 8]"
    assert range_violation(pr, 9, 1) == membership(pr, 9, 1)
    assert range_violation(pr, 0, 1) is None  # in range, not a member
    assert range_violation(pr, 8, 1) is None


@settings(deadline=None, max_examples=80)
@given(K=st.integers(3, 40), D=st.integers(1, 12), U=st.integers(1, 12), b=st.integers(1, 12))
def test_maximal_a_is_always_member(K, D, U, b):
    if U > D or U + D >= K:
        return
    pr = SniProblem(K, D, U)
    assert in_S(pr, b * (K - D - 1), b)  # m == n, gcd = bK >= b(U+1)


def test_make_pair_fields():
    pair = make_pair(SniProblem(13, 4, 1), 1, 5)
    assert (pair.a, pair.b, pair.m, pair.n) == (1, 5, 65, 26)
    assert pair.rate == Fraction(26, 5)


# ------------------------------------------------------- canonical / search


def test_canonical_pair_worked_example():
    pair = canonical_pair(SniProblem(13, 4, 1))
    assert (pair.a, pair.b) == (3, 2)
    assert pair.rate == Fraction(13, 2)


@settings(deadline=None, max_examples=100)
@given(K=st.integers(2, 200), D=st.integers(0, 30), U=st.integers(0, 30))
def test_canonical_pair_always_achievable(K, D, U):
    if U > D or U + D >= K:
        return
    pr = SniProblem(K, D, U)
    pair = canonical_pair(pr)
    assert in_S(pr, pair.a, pair.b)
    assert pair.rate == Fraction(K, K // (D + 1))
    assert pair.rate - (D + 1) == rate_gap(pr)


def test_search_best_pair_71_cases():
    # groups from the K = 71 reference table
    assert_pair(SniProblem(71, 4, 4), 35, (1, 14), Fraction(71, 14))
    assert_pair(SniProblem(71, 11, 5), 35, (10, 11), Fraction(142, 11))
    assert_pair(SniProblem(13, 4, 1), 5, (1, 5), Fraction(26, 5))


def assert_pair(problem, b_max, ab, rate):
    pair = search_best_pair(problem, b_max=b_max)
    assert (pair.a, pair.b) == ab
    assert pair.rate == rate


def test_search_never_empty_and_optimal_among_scan():
    pr = SniProblem(9, 2, 1)
    pair = search_best_pair(pr, b_max=6)
    rates = [
        Fraction(a, b) + pr.D + 1
        for b in range(1, 7)
        for a in range(0, b * (pr.K - pr.D - 1) + 1)
        if in_S(pr, a, b)
    ]
    assert pair.rate == min(rates)


def _scan_best_pair(problem, b_max):
    """Oracle: at each b, the first member a of a scan from 0 up."""
    best = None
    for b in range(1, b_max + 1):
        for a in range(0, b * (problem.K - problem.D - 1) + 1):
            if in_S(problem, a, b):
                rate = problem.D + 1 + Fraction(a, b)
                if best is None or rate < best.rate:
                    best = make_pair(problem, a, b)
                break  # larger a only worsens the rate at this b
    return best


def test_search_equals_the_scan_on_every_small_problem():
    # every (K, D, U) with K < 45: the divisor walk picks the scan's pair
    checked = 0
    for K in range(1, 45):
        for D in range(K):
            for U in range(min(D, K - 1 - D) + 1):
                pr = SniProblem(K, D, U)
                for b_max in (1, 4, 15):
                    assert search_best_pair(pr, b_max) == _scan_best_pair(pr, b_max), (K, D, U, b_max)
                    checked += 1
    assert checked > 23000


def test_search_equals_the_brute_force_minimum_over_S():
    # every (K, D, U) with K <= 24: the least (rate, b, a) over every member
    # (a, b) with b <= b_max, every a tested with in_S
    checked = 0
    for K in range(1, 25):
        for D in range(K):
            for U in range(min(D, K - 1 - D) + 1):
                pr = SniProblem(K, D, U)
                caps = (1, K // (U + 1), 2 * K)
                least = {}  # b -> its least member a
                for b in range(1, max(caps) + 1):
                    least[b] = min(a for a in range(b * (K - D - 1) + 1) if in_S(pr, a, b))
                for b_max in caps:
                    a, b = min(((a, b) for b, a in least.items() if b <= b_max), key=lambda ab: (Fraction(*ab), ab[1], ab[0]))
                    assert search_best_pair(pr, b_max) == make_pair(pr, a, b), (K, D, U, b_max)
                    checked += 1
    assert checked == 3 * 1378


def _divisor_walk_best_pair(problem, b_max):
    """Oracle: at each b <= b_max, the least multiple n >= b*(D+1) of a
    divisor g >= b*(U+1) of b*K, found by walking the divisors of b*K."""
    K, D, U = problem.K, problem.D, problem.U
    best_a = best_b = None
    for b in range(1, b_max + 1):
        whole, floor, base = b * K, b * (U + 1), b * (D + 1)
        n = whole
        for d in range(1, math.isqrt(whole) + 1):
            if whole % d == 0:
                for g in (d, whole // d):
                    if g >= floor:
                        n = min(n, -(-base // g) * g)
        if best_b is None or (n - base) * best_b < best_a * b:
            best_a, best_b = n - base, b
    return make_pair(problem, best_a, best_b)


@settings(deadline=None, max_examples=150)
@given(data=st.data(), K=st.integers(1, 200))
def test_search_equals_the_divisor_walk(data, K):
    D = data.draw(st.integers(0, K - 1))
    U = data.draw(st.integers(0, min(D, K - 1 - D)))
    pr, b_max = SniProblem(K, D, U), data.draw(st.integers(1, 3 * K))
    pair = search_best_pair(pr, b_max)
    assert in_S(pr, pair.a, pair.b) and pair.b <= b_max
    assert pair == _divisor_walk_best_pair(pr, b_max)


@pytest.mark.parametrize("b_max", [0, -3])
def test_search_rejects_empty_range(b_max):
    with pytest.raises(ValueError):
        search_best_pair(SniProblem(13, 4, 1), b_max=b_max)


def test_search_tie_breaks_to_smaller_b():
    # K = 71, D = 4, U = 4: rate 71/14 is hit at b = 14 and b = 28
    pair = search_best_pair(SniProblem(71, 4, 4), b_max=35)
    assert pair.b == 14


@settings(deadline=None, max_examples=40)
@given(K=st.integers(3, 24), D=st.integers(1, 8), U=st.integers(1, 8))
def test_search_returns_member_below_canonical(K, D, U):
    if U > D or U + D >= K:
        return
    pr = SniProblem(K, D, U)
    pair = search_best_pair(pr, b_max=K // (D + 1))
    assert in_S(pr, pair.a, pair.b)
    assert pair.rate <= canonical_pair(pr).rate


# ------------------------------------------------------------------ display


def test_truncate4_truncates_never_rounds():
    assert truncate4(Fraction(71, 35)) == "2.0285"
    assert truncate4(Fraction(71, 7)) == "10.1428"
    assert truncate4(Fraction(71, 14)) == "5.0714"
    assert truncate4(Fraction(5)) == "5.0000"
    assert truncate4(Fraction(19999, 10000)) == "1.9999"


def test_format_rate():
    assert format_rate(Fraction(71, 14)) == "71/14=5.0714"
    assert format_rate(Fraction(10, 2)) == "5=5.0000"
