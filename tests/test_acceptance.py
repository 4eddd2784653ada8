"""Acceptance gate: one test per release criterion, each with its runtime
budget asserted.

Criteria 6, 7 and 9 share a deterministic instance grid: for every problem
(K, D, U) with 3 <= K <= 40, 1 <= U <= D and U + D < K, the best achievable
pair found with block length capped at 600 // K (which bounds the generator
at 600 rows), plus the canonical pair (K mod (D+1), K // (D+1)) whenever its
generator also fits in 600 rows, plus the worked reference instance
(K, D, U) = (13, 4, 1) with (a, b) = (1, 5).
"""
import math
import time
from fractions import Fraction
from functools import cache

import numpy as np

from _dense_reference import down_distance_scan, right_distance_scan, up_distance_scan
from _reference_tables import (
    NON_MEMBERS,
    RATE_TABLE_71,
    REF_CODE_LINES,
    REF_DECODE_CODES,
)
from snicode.air import build_air, locate
from snicode.codec import (
    OracleDecoder,
    all_windows_full_rank,
    decode_plan,
    encode,
    encoding_matrix,
    predicted_side_counts,
    symbolic_codes,
    verify_lemma1,
)
from snicode.distances import (
    NoRightNeighbor,
    down_distance,
    right_distance,
    tau_profile,
    up_distance,
)
from snicode.rates import (
    SniProblem,
    canonical_pair,
    in_S,
    make_pair,
    rate_gap,
    search_best_pair,
    truncate4,
)

M_MAX = 600          # generator row cap for the shared instance grid
DIM_GRID_MAX = 120   # (m, n) grid cap for the matrix-property criteria


@cache
def grid_instances():
    """The shared (problem, pair) grid for criteria 6, 7 and 9."""
    out = []
    for K in range(3, 41):
        for D in range(1, K - 1):
            for U in range(1, D + 1):
                if U + D >= K:
                    continue
                pr = SniProblem(K, D, U)
                best = search_best_pair(pr, b_max=M_MAX // K)
                pairs = {(best.a, best.b): best}
                can = canonical_pair(pr)
                if can.m <= M_MAX:
                    pairs.setdefault((can.a, can.b), can)
                for key in sorted(pairs):
                    out.append((pr, pairs[key]))
    ref = SniProblem(13, 4, 1)
    out.append((ref, make_pair(ref, 1, 5)))
    return out


def test_criterion_1_reference_code_table():
    """The reference instance reproduces all 26 frozen coded symbols."""
    start = time.monotonic()
    matrix = encoding_matrix(SniProblem(13, 4, 1), 1, 5)
    assert symbolic_codes(matrix, 5) == REF_CODE_LINES
    assert time.monotonic() - start < 1.0


def test_criterion_2_reference_decode_table():
    """The decode plan reproduces all 65 frozen code-symbol sets."""
    start = time.monotonic()
    plan = decode_plan(SniProblem(13, 4, 1), 1, 5)
    got = {key: e.codes for key, e in plan.entries.items()}
    assert got == REF_DECODE_CODES
    assert time.monotonic() - start < 1.0


def test_criterion_3_rate_table_71():
    """Every K = 71 reference row is achievable with the stated rate and
    generator size, and the bounded search never does worse."""
    start = time.monotonic()
    for D, u_range, a, b, rate4, m, n in RATE_TABLE_71:
        for U in u_range:
            pr = SniProblem(71, D, U)
            assert in_S(pr, a, b), (D, U, a, b)
            pair = make_pair(pr, a, b)
            assert truncate4(pair.rate) == rate4, (D, U)
            assert (pair.m, pair.n) == (m, n), (D, U)
            found = search_best_pair(pr, b_max=35)
            assert found.rate <= pair.rate, (D, U)
    assert time.monotonic() - start < 30.0


def test_criterion_4_window_rank_property():
    """Every cyclic window of n adjacent generator rows is nonsingular,
    for all 1 <= n <= m <= 120 over GF(2) and GF(3)."""
    start = time.monotonic()
    for m in range(1, DIM_GRID_MAX + 1):
        for n in range(1, m + 1):
            matrix = build_air(m, n)
            assert all_windows_full_rank(matrix, 2), (m, n, 2)
            assert all_windows_full_rank(matrix, 3), (m, n, 3)
    assert time.monotonic() - start < 300.0


def test_criterion_5_distance_formulas():
    """Closed-form down/up/right distances agree with brute-force scans for
    every valid entry of every generator on the (m, n) grid."""
    start = time.monotonic()
    for m in range(1, DIM_GRID_MAX + 1):
        for n in range(1, m + 1):
            matrix = build_air(m, n)
            ch, bits = matrix.chain, matrix.bits
            if m > n:
                for k in range(n):
                    assert down_distance(ch, k) == down_distance_scan(matrix, k), (m, n, k)
            for j in range(n, m):
                for k in map(int, np.flatnonzero(bits[j])):
                    assert up_distance(ch, j, k) == up_distance_scan(matrix, j, k), (m, n, j, k)
                    if locate(ch, j, k).cell.kind == "even":
                        try:
                            closed = right_distance(ch, j, k)
                        except NoRightNeighbor:
                            closed = None
                        assert closed == right_distance_scan(matrix, j, k), (m, n, j, k)
            if m > n:
                for k in range(n - ch.lam(ch.l)):
                    prof = tau_profile(matrix, k)
                    j = k + prof.down
                    below = np.flatnonzero(bits[j + 1 :, k + prof.mu])
                    assert prof.taus == tuple(int(t) + 1 for t in below), (m, n, k)
    assert time.monotonic() - start < 120.0


def test_criterion_6_decodability_verification():
    """verify_lemma1 holds on the whole instance grid over GF(2) and GF(3),
    and rejects every frozen non-achievable pair."""
    start = time.monotonic()
    for pr, pair in grid_instances():
        matrix = encoding_matrix(pr, pair.a, pair.b)
        assert verify_lemma1(matrix, pr, 2), (pr, pair)
        assert verify_lemma1(matrix, pr, 3), (pr, pair)
    assert len(NON_MEMBERS) >= 5
    for K, D, U, a, b in NON_MEMBERS:
        pr = SniProblem(K, D, U)
        assert not in_S(pr, a, b)
        matrix = build_air(K * b, b * (D + 1) + a)
        assert not verify_lemma1(matrix, pr, 2), (K, D, U, a, b)
        assert not verify_lemma1(matrix, pr, 3), (K, D, U, a, b)
    assert time.monotonic() - start < 300.0


def test_criterion_7_round_trip_decoding():
    """100 seeded trials per grid instance decode without failure: the plan
    decoder over GF(2), the oracle decoder over GF(2) and GF(3), and the two
    agree symbol for symbol."""
    start = time.monotonic()
    trials = 100
    for idx, (pr, pair) in enumerate(grid_instances()):
        matrix = encoding_matrix(pr, pair.a, pair.b)
        plan = decode_plan(pr, pair.a, pair.b)
        b, m = pair.b, pair.m
        rng = np.random.default_rng(916 + idx)
        x2 = rng.integers(0, 2, size=(trials, m), dtype=np.uint8)
        x3 = rng.integers(0, 3, size=(trials, m), dtype=np.uint8)
        y2 = encode(matrix, x2, 2)
        y3 = encode(matrix, x3, 3)
        plan_all = plan.decode(y2, x2)
        oracle2_all = OracleDecoder(matrix, pr, 2).decode(y2, x2)
        oracle3_all = OracleDecoder(matrix, pr, 3).decode(y3, x3)
        for t in range(pr.K):
            want2 = x2[:, t * b : (t + 1) * b]
            plan_hat = plan_all[:, t * b : (t + 1) * b]
            oracle2 = oracle2_all[:, t * b : (t + 1) * b]
            oracle3 = oracle3_all[:, t * b : (t + 1) * b]
            assert np.array_equal(plan_hat, want2), (pr, pair, t)
            assert np.array_equal(oracle2, want2), (pr, pair, t)
            assert np.array_equal(oracle3, x3[:, t * b : (t + 1) * b]), (pr, pair, t)
            assert np.array_equal(plan_hat, oracle2), (pr, pair, t)
    assert time.monotonic() - start < 300.0


def test_criterion_8_capacity_special_cases():
    """Searches and canonical pairs reproduce the closed-form optima: the
    U = D = 1 rate K / floor(K/2); rate D+1 via (0, 1) whenever
    U = gcd(K, D+1) - 1; the exact canonical gap; and a gap bound that is
    monotone along each residue class of K."""
    start = time.monotonic()
    for K in range(3, 102):
        pr = SniProblem(K, 1, 1)
        pair = search_best_pair(pr, b_max=K // 2)
        assert pair.rate == Fraction(K, K // 2), K
    for K in range(3, 81):
        for D in range(1, min(21, K - 1)):
            U = math.gcd(K, D + 1) - 1
            if U > D or U + D >= K:
                continue
            pr = SniProblem(K, D, U)
            assert in_S(pr, 0, 1), (K, D, U)
            assert make_pair(pr, 0, 1).rate == D + 1
            gamma, alpha = K // (D + 1), K % (D + 1)
            assert canonical_pair(pr).rate - (D + 1) == Fraction(alpha, gamma)
    for D in (1, 2, 3, 5, 7):
        gaps = {}
        for K in range(D + 2, 501):
            pr = SniProblem(K, D, 1)
            gap = rate_gap(pr)
            assert gap <= Fraction(D, K // (D + 1)), (K, D)
            prev = gaps.get(K - (D + 1))
            if prev is not None:
                assert gap <= prev, (K, D)  # nonincreasing within the class
            gaps[K] = gap
    assert time.monotonic() - start < 30.0


def test_criterion_9_side_count_statistics():
    """The side-information count of every plan entry matches the value
    predicted from column supports alone, across the instance grid."""
    for pr, pair in grid_instances():
        matrix = encoding_matrix(pr, pair.a, pair.b)
        plan = decode_plan(pr, pair.a, pair.b)
        predicted = predicted_side_counts(matrix, plan)
        for key, e in plan.entries.items():
            assert predicted[key] == len(e.side), (pr, pair, key)
