"""Gauss-Jordan elimination over small prime fields.

``rref_stack`` reduces a stack of integer matrices mod a prime ``p`` of at
most 251, every matrix one row per step.  Arithmetic is exact: it works in
int16, widened to int32 for the products of p above 181.
"""
from __future__ import annotations

import numpy as np

__all__ = ["rref_stack"]


def _inv_mod(x, p):
    return pow(int(x) % p, p - 2, p)


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
