"""Problem description and achievable-rate search.

A problem instance has K messages on a cycle; receiver t wants message t,
is interfered by the U previous and D next messages, and knows all the
rest as side information.  A vector code of block length b maps the
m = K*b message symbols to n = b*(D+1) + a coded symbols, for a
per-receiver rate of (D+1) + a/b.  The pair (a, b) is achievable when
gcd(b*K, b*(D+1) + a) >= b*(U+1).

The best pair has a closed form.  A member (a, b), with g = gcd(b*K, n),
maps to q = b*K/g, an integer at most K // (U+1), and its rate n/b is
j*K/q for the integer j = n/g >= q*(D+1)/K.  Conversely every such q
attains the rate K*ceil(q*(D+1)/K)/q at the block length b' = q/gcd(q, K),
and b' divides the b of every member that maps to q, because q divides b*K
and q/gcd(q, K) is coprime to K/gcd(q, K).  So the least rate under a cap
on b, with ties to the smaller b, is the least over q = b'*d for the
divisors d of K and b' within the cap: ``search_best_pair`` scans those,
and its cost is bounded by K, not by the cap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "SniProblem",
    "RatePair",
    "in_S",
    "make_pair",
    "canonical_pair",
    "search_best_pair",
    "rate_gap",
]


@dataclass(frozen=True)
class SniProblem:
    """K messages on a cycle, interference span U back / D forward."""

    K: int
    D: int
    U: int

    def __post_init__(self):
        if self.K < 1 or self.D < 0 or self.U < 0:
            raise ValueError(f"bad problem ({self.K}, {self.D}, {self.U})")
        if self.U > self.D:
            raise ValueError(f"need U <= D, got U={self.U} > D={self.D}")
        if self.U + self.D >= self.K:
            raise ValueError(f"need U + D < K, got {self.U} + {self.D} >= {self.K}")


@dataclass(frozen=True)
class RatePair:
    a: int
    b: int
    m: int
    n: int
    rate: Fraction


def in_S(problem, a, b):
    """Membership of (a, b) in the achievable set of the problem.

    Requires the range of ``range_violation``, b >= 1 and 0 <= a <=
    b*(K - D - 1) (so that m >= n), and the divisor condition
    gcd(b*K, b*(D+1) + a) >= b*(U+1).
    """
    if range_violation(problem, a, b):
        return False
    return math.gcd(b * problem.K, b * (problem.D + 1) + a) >= b * (problem.U + 1)


def range_violation(problem, a, b):
    """The range that a or b violates, as text, or None when b >= 1 and
    0 <= a <= b*(K - D - 1)."""
    if b < 1:
        return f"b = {b} < 1"
    top = b * (problem.K - problem.D - 1)
    if not 0 <= a <= top:
        return f"a = {a} outside [0, b*(K-D-1)] = [0, {top}]"
    return None


def membership(problem, a, b):
    """Why (a, b) is in the achievable set or not: the range that a or b
    violates, else the divisor condition with both of its sides."""
    violation = range_violation(problem, a, b)
    if violation:
        return violation
    m, n = b * problem.K, b * (problem.D + 1) + a
    g, bound = math.gcd(m, n), b * (problem.U + 1)
    return f"gcd({m}, {n}) = {g} {'>=' if g >= bound else '<'} b*(U+1) = {bound}"


def make_pair(problem, a, b):
    return RatePair(
        a=a,
        b=b,
        m=problem.K * b,
        n=b * (problem.D + 1) + a,
        rate=problem.D + 1 + Fraction(a, b),
    )


def canonical_pair(problem):
    """The always-achievable pair (K mod (D+1), K // (D+1)), rate K/b."""
    gamma = problem.K // (problem.D + 1)
    alpha = problem.K % (problem.D + 1)
    pair = make_pair(problem, alpha, gamma)
    assert in_S(problem, alpha, gamma)
    return pair


def search_best_pair(problem, b_max=64):
    """Lowest-rate achievable pair with b <= b_max, in closed form.

    Ties break toward smaller b, then smaller a.  Every member (a, b) of S
    maps to q = b*K/g with n = b*(D+1) + a and g = gcd(b*K, n) >= b*(U+1),
    an integer q <= K // (U+1) at rate n/b = j*K/q, j = n/g >= q*(D+1)/K.
    Conversely each such q attains K*ceil(q*(D+1)/K)/q at block length
    b' = q/gcd(q, K), with n' = ceil(q*(D+1)/K) * K/gcd(q, K) and
    gcd(b'*K, n') >= K/gcd(q, K) >= b'*(U+1).  Since q divides b*K and
    q/gcd(q, K) is coprime to K/gcd(q, K), b' divides the b of every member
    that maps to q, so q's best pair lies at b' <= b and within the cap, at
    a rate no higher: the lowest-rate smallest-b pair under b_max is the
    best over these q.  They are q = b' * d for the divisors d of K, so one
    walk up to sqrt(K) lists the d and the scan costs O(sqrt(K) + tau(K) *
    min(b_max, K // (U+1))), whatever the cap.  A pair (b, d) with
    gcd(b, K/d) > 1 stands for q at a larger b than b' and loses the tie.
    Never empty: q = 1 gives a = K - D - 1 at b = 1.  Raises ValueError
    when b_max < 1 leaves no block length to search.
    """
    if b_max < 1:
        raise ValueError(f"need b_max >= 1, got b_max={b_max}")
    K, D, U = problem.K, problem.D, problem.U
    top = K // (U + 1)
    low = [d for d in range(1, math.isqrt(K) + 1) if K % d == 0]
    divisors = low + [K // d for d in reversed(low) if d * d != K]  # ascending
    best_a = best_b = None
    for b in range(1, min(b_max, top) + 1):
        base = b * (D + 1)
        for d in divisors:
            q = b * d
            if q > top:
                break
            a = -(-q * (D + 1) // K) * (K // d) - base
            if best_b is None or a * best_b < best_a * b:
                best_a, best_b = a, b
        if best_a == 0:
            break  # the rate D + 1 cannot be beaten
    return make_pair(problem, best_a, best_b)


def rate_gap(problem):
    """canonical rate minus the interference-free floor D + 1."""
    return Fraction(problem.K % (problem.D + 1), problem.K // (problem.D + 1))


def truncate4(rate):
    """4-decimal display, truncated (never rounded): 71/7 -> '10.1428'."""
    rate = Fraction(rate)
    scaled = rate.numerator * 10000 // rate.denominator
    return f"{scaled // 10000}.{scaled % 10000:04d}"


def format_rate(rate):
    """Exact and truncated forms in one cell: '71/14=5.0714'."""
    return f"{Fraction(rate)}={truncate4(rate)}"
