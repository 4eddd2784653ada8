"""Reference implementations that the tests check the library against.

A plain one-matrix Gauss-Jordan elimination over GF(p) (``rref``, ``rank``,
``in_row_span``), the reference for ``gf.rref_stack``, for the window
property and for the decodability condition; and each receiver's
interference and side-information blocks as explicit tuples, the reference
for the window of rows that ``codec._window`` gives a receiver.
"""
from functools import cache

import numpy as np


def rref(a, p):
    """Reduced row echelon form of ``a`` mod p.

    Returns ``(r, pivots)`` where ``pivots`` lists the pivot column of each
    leading row of ``r``.
    """
    r = np.mod(np.asarray(a, dtype=np.int64), p)
    if r.ndim != 2:
        raise ValueError("expected a 2-D array")
    rows, cols = r.shape
    pivots = []
    lead = 0
    for col in range(cols):
        if lead == rows:
            break
        nz = np.flatnonzero(r[lead:, col])
        if nz.size == 0:
            continue
        src = lead + int(nz[0])
        if src != lead:
            r[[lead, src]] = r[[src, lead]]
        r[lead] = r[lead] * pow(int(r[lead, col]), p - 2, p) % p
        others = np.flatnonzero(r[:, col])
        others = others[others != lead]
        if others.size:
            r[others] = (r[others] - np.outer(r[others, col], r[lead])) % p
        pivots.append(col)
        lead += 1
    return r, pivots


def rank(a, p):
    return len(rref(a, p)[1])


def in_row_span(a, v, p):
    """True iff ``v`` is a linear combination of the rows of ``a`` (mod p)."""
    return rank(np.vstack([a, v]), p) == rank(a, p)


@cache
def interference(problem, t):
    """Receiver t's interference blocks: the U before it, then the D after."""
    K = problem.K
    back = [(t + d) % K for d in range(-problem.U, 0)]
    fwd = [(t + d) % K for d in range(1, problem.D + 1)]
    return tuple(back + fwd)


@cache
def side_info(problem, t):
    """Receiver t's side-information blocks, ascending: all but t and its
    interference."""
    known = set(range(problem.K)) - {t} - set(interference(problem, t))
    return tuple(sorted(known))
