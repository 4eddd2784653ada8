"""Dense linear algebra over small prime fields.

All routines operate on numpy integer arrays with values in ``[0, p)`` for a
small prime ``p`` (2, 3 and 5 in practice).  Arithmetic is exact: every
intermediate product is bounded by ``(p-1)**2 * cols`` which is far inside
int64 range, so plain integer numpy ops followed by ``% p`` never lose
information.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "IncrementalRref",
    "rref",
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
    r, pivots = rref(a, p)
    v = _as_field(v, p).copy()
    for i, c in enumerate(pivots):
        if v[c]:
            v = (v - v[c] * r[i]) % p
    return not v.any()


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


class IncrementalRref:
    """A reduced row basis over GF(p), grown one row at a time.

    Optimized for the workload where most incoming rows are unit vectors:
    those are absorbed in bulk through :meth:`add_units` with a couple of
    vectorized operations, while genuinely dense rows go through
    :meth:`add_row`.  Invariants: unit pivot columns are zero in every stored
    dense row, dense pivot columns are zero in every other dense row, and
    ``rank`` counts both kinds.
    """

    def __init__(self, width, p):
        self.width = width
        self.p = p
        self.rank = 0
        self.is_unit_col = np.zeros(width, dtype=bool)
        self._rows = np.empty((0, width), dtype=np.int64)
        self._pivots = []

    def add_units(self, cols):
        """Absorb unit rows e_c for every c in ``cols`` (duplicates fine)."""
        cols = np.unique(np.asarray(cols, dtype=np.int64))
        if cols.size == 0:
            return
        cols = cols[~self.is_unit_col[cols]]
        if cols.size and self._pivots:
            clash = np.isin(cols, self._pivots)
            hard = cols[clash]
            cols = cols[~clash]
        else:
            hard = ()
        if cols.size:
            self.is_unit_col[cols] = True
            if self._rows.shape[0]:
                self._rows[:, cols] = 0
            self.rank += int(cols.size)
        for c in hard:
            e = np.zeros(self.width, dtype=np.int64)
            e[c] = 1
            self.add_row(e)

    def add_row(self, v):
        """Reduce ``v`` against the basis; returns True if the rank grew.

        A row shorter than the basis width is zero-padded on the right.
        """
        v = np.asarray(v, dtype=np.int64) % self.p
        if v.size < self.width:
            v = np.concatenate([v, np.zeros(self.width - v.size, dtype=np.int64)])
        v[self.is_unit_col] = 0
        if self._pivots:
            coef = v[self._pivots]
            if coef.any():
                v = (v - coef @ self._rows) % self.p
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        c = int(nz[0])
        if v[c] != 1:
            v = v * _inv_mod(v[c], self.p) % self.p
        if self._rows.shape[0]:
            col = self._rows[:, c]
            hit = np.flatnonzero(col)
            if hit.size:
                self._rows[hit] = (self._rows[hit] - np.outer(col[hit], v)) % self.p
        self._rows = np.vstack([self._rows, v[None, :]])
        self._pivots.append(c)
        self.rank += 1
        return True

    def pivot_rows(self):
        """Pairs (pivot column, reduced row) for the dense part of the basis."""
        return list(zip(self._pivots, self._rows))
