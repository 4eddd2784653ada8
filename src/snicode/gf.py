"""Dense linear algebra over small prime fields.

All routines operate on numpy integer arrays with values in ``[0, p)`` for a
prime ``p`` of at most 251.  Arithmetic is exact: ``rref`` works in int64 and
``rref_stack`` in int16, widened to int32 for the products of p above 181.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "rref",
    "rref_stack",
    "rank",
    "in_row_span",
    "inverse",
]


def _as_field(a, p):
    arr = np.asarray(a, dtype=np.int64)
    return np.mod(arr, p)


def _inv_mod(x, p):
    return pow(int(x) % p, p - 2, p)


def rref(a, p):
    """Reduced row echelon form of ``a`` mod p.

    Returns ``(r, pivots)`` where ``pivots`` lists the pivot column of each
    leading row of ``r``.
    """
    r = _as_field(a, p).copy()
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
        r[lead] = r[lead] * _inv_mod(r[lead, col], p) % p
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


def inverse(a, p):
    """Inverse of a square matrix mod p, or None if singular."""
    a = _as_field(a, p)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    r, pivots = rref(np.hstack([a, np.eye(n, dtype=np.int64)]), p)
    if len(pivots) < n or pivots[n - 1] != n - 1:
        return None
    return r[:, n:]


def rref_stack(stack, p):
    """Gauss-Jordan reduction of every matrix in a ``(count, rows, cols)``
    stack mod p.

    Returns ``(r, pivots)``: ``pivots[g, i]`` is the pivot column of row i
    of matrix g, or -1 where that row reduced to zero (a dependent row, or
    an all-zero padding row).  Rows keep their places; every pivot entry is
    1 and is the only non-zero entry of its column, so the non-zero rows of
    ``r[g]`` are a reduced basis of the row space of ``stack[g]``.

    Step i reduces row i of every matrix at once, then clears the new pivot
    column only in the rows that it hits.
    """
    r = np.mod(stack, p).astype(np.int16)
    if r.ndim != 3:
        raise ValueError("expected a 3-D stack")
    count, rows, _ = r.shape
    pivots = np.full((count, rows), -1, dtype=np.intp)
    wide = np.int16 if (p - 1) ** 2 < 2**15 else np.int32  # holds x - y * z
    inv = np.array([0] + [_inv_mod(v, p) for v in range(1, p)], dtype=wide)
    for i in range(rows):
        nz = r[:, i] != 0
        col = nz.argmax(axis=1)
        live = np.flatnonzero(nz[np.arange(count), col])
        if live.size == 0:
            continue
        col = col[live]
        pivots[live, i] = col
        v = r[live, i].astype(wide, copy=False)
        if p > 2:
            v = v * inv[v[np.arange(live.size), col]][:, None] % p
            r[live, i] = v
        coef = r[live, :, col].astype(wide, copy=False)  # (live, rows)
        coef[:, i] = 0
        hit, row = np.nonzero(coef)
        if hit.size == 0:
            continue
        g = live[hit]
        r[g, row] = (r[g, row] - coef[hit, row, None] * v[hit]) % p
    return r, pivots
