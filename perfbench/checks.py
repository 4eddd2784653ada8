"""Correctness checks that the benchmark makes apart from the program.

Nothing here imports snicode: the rank test is the benchmark's own GF(p)
elimination, the pair checks recompute the optimum from the divisors of
K*b, and the report checks compare against counts derived from the
workload's own parameters.  Every check raises CheckFailed with a message
naming what went wrong.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


def rank_mod_p(rows, p):
    """Rank of an integer matrix over GF(p), by plain Gauss-Jordan
    elimination (p prime)."""
    a = np.array(rows, dtype=np.int64) % p
    if a.ndim != 2 or not a.size:
        return 0
    rank = 0
    for col in range(a.shape[1]):
        nz = np.flatnonzero(a[rank:, col])
        if not nz.size:
            continue
        piv = rank + int(nz[0])
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), p - 2, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1 :, col])
        a[below] = (a[below] - np.outer(a[below, col], a[rank])) % p
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def _block_rows(K, b, blocks):
    return [blk % K * b + i for blk in blocks for i in range(b)]


def check_receivers(bits, K, D, U, receivers, p):
    """Lemma 1 for the sampled receivers: the wanted block's rows add rank b
    on top of the rows of the U + D interfering blocks."""
    b = bits.shape[0] // K
    for t in receivers:
        inter = _block_rows(K, b, [t + d for d in range(-U, D + 1) if d])
        base = rank_mod_p(bits[inter], p)
        full = rank_mod_p(bits[inter + _block_rows(K, b, [t])], p)
        if full - base != b:
            raise CheckFailed(
                f"receiver {t} of K={K}, D={D}, U={U} gains rank {full - base}, "
                f"not b={b}, from its own block over GF({p})"
            )


def check_windows(bits, starts, p):
    """The AIR property for the sampled cyclic windows of n adjacent rows."""
    m, n = bits.shape
    for s in starts:
        rows = [(s + i) % m for i in range(n)]
        if rank_mod_p(bits[rows], p) != n:
            raise CheckFailed(f"rows {s}..{s + n - 1} (mod {m}) of the {m}x{n} generator are singular over GF({p})")


def in_S(K, D, U, a, b):
    return b >= 1 and 0 <= a <= b * (K - D - 1) and math.gcd(b * K, b * (D + 1) + a) >= b * (U + 1)


def best_pair(K, D, U, b_max):
    """Lowest-rate achievable (a, b) with b <= b_max, ties to smaller b.

    For each b the least a is found from the divisors g of K*b that reach
    b*(U+1): a = -b*(D+1) mod g makes g divide b*(D+1) + a.  This is a
    different route from the program's scan over a.
    """
    best = None
    for b in range(1, b_max + 1):
        kb = K * b
        small = [d for d in range(1, math.isqrt(kb) + 1) if kb % d == 0]
        divisors = [g for d in small for g in (d, kb // d) if g >= b * (U + 1)]
        a = min(-b * (D + 1) % g for g in divisors)
        if a <= b * (K - D - 1) and (best is None or Fraction(a, b) < Fraction(*best)):
            best = (a, b)
    return best


def check_pair(K, D, U, a, b, m, n, rate, b_max=None):
    """The pair is achievable and sized right, and meets the paper's bounds.

    With ``b_max`` the pair is also the search optimum under that cap,
    checked against ``best_pair``; the rate-gap bound and the two closed-form
    special cases are checked where the cap admits the pairs they rest on.
    """
    if not in_S(K, D, U, a, b):
        raise CheckFailed(f"(a={a}, b={b}) is not achievable for K={K}, D={D}, U={U}")
    if (m, n) != (K * b, b * (D + 1) + a):
        raise CheckFailed(f"(a={a}, b={b}) for K={K}, D={D} reports m x n = {m} x {n}")
    if rate != D + 1 + Fraction(a, b):
        raise CheckFailed(f"(a={a}, b={b}) for D={D} reports rate {rate}, not D+1+a/b")
    if b_max is None:
        return
    if (a, b) != best_pair(K, D, U, b_max):
        raise CheckFailed(
            f"search for K={K}, D={D}, U={U}, b<={b_max} gave (a={a}, b={b}), "
            f"the optimum is {best_pair(K, D, U, b_max)}"
        )
    excess = Fraction(a, b)
    if K // (D + 1) <= b_max and excess > Fraction(K % (D + 1), K // (D + 1)):
        raise CheckFailed(f"rate excess {excess} over D+1 exceeds the canonical gap for K={K}, D={D}")
    if U == math.gcd(K, D + 1) - 1 and excess != 0:
        raise CheckFailed(f"K={K}, D={D}, U={U} should reach rate D+1, got excess {excess}")
    if D == U == 1 and b_max >= K // 2 and D + 1 + excess != Fraction(K, K // 2):
        raise CheckFailed(f"K={K}, D=U=1 should reach rate K/floor(K/2), got {D + 1 + excess}")


def check_report(report, expected_decodes):
    """A simulation run decoded every symbol it should have, and all of
    them right."""
    bad = (report.plan_failures, report.oracle_failures, report.disagreements)
    if any(bad):
        raise CheckFailed(f"simulation failures (plan, oracle, disagreements) = {bad}")
    if report.symbol_decodes != expected_decodes:
        raise CheckFailed(f"simulation made {report.symbol_decodes} symbol decodes, expected {expected_decodes}")
