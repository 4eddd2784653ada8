"""Distance geometry of AIR matrices.

Closed-form distances between 1-entries, used by the low-complexity decode
plans: the down-distance of a column (from its diagonal entry to the lowest
1 of the column), the up-distance of an entry below the top identity (to
the nearest 1 above in its column), and the right-distance of an entry in a
horizontally repeated band (to the next 1 to its right in the same row).
The tests check each closed form against a brute-force scan of the dense
generator.  Each public function takes one entry and returns ints.  Two
private evaluators take an array of columns, ``_column_geometry`` for the
closed forms and ``_profiles`` for the tau profiles, and find each
column's band with a ``searchsorted``: the plan compiler calls them on its
own case-III columns alone, and each public function reads one column of
their tables of every column, held on the chain and on the generator
(``AirMatrix.derived``), which a decode plan never builds.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .air import concat_ranges, locate

__all__ = [
    "NoRightNeighbor",
    "DistanceProfile",
    "down_distance",
    "up_distance",
    "right_distance",
    "tau_profile",
]


class NoRightNeighbor(Exception):
    """The row has no further 1 to the right of the given entry."""


def _column_geometry(chain, ks=None):
    """The closed forms, evaluated for the columns ``ks`` of the chain,
    every column by default: a (5, len(ks)) array whose column for column k
    holds the down-distance of k, then the first row and first column of the
    even band 2i over k's band i of ``chain.parts.cols``, max(lambda_{2i},
    1), and the step of k's right distances (see ``_right``).  A column
    under no even band (lambda_{2i} = 0) has first row m, so no entry of it
    lies in one.  A ``searchsorted`` on the bands' stops finds each column's
    band."""
    m, n = chain.m, chain.n
    ks = np.arange(n) if ks is None else ks
    per_band = []
    for i, band in enumerate(chain.parts.cols):
        lam, lam_next, beta = chain.lam(2 * i), chain.lam(2 * i + 1), chain.beta(2 * i)
        top = m - n + lam_next + (beta - 1) * lam  # the down-distance of the band's first copy
        per_band.append([band.stop, band.start, m - lam, lam, max(lam, 1), top, beta - 1, lam_next])
    per_band = np.array(per_band, dtype=np.intp)
    _, start, row0, lam, width, top, last, lam_next = per_band[np.searchsorted(per_band[:, 0], ks, "right")].T
    # copy c of the band's beta_{2i} identities of width lambda_{2i}; the
    # next copy lies a step above every offset, and from the rightmost copy
    # the adjacent vertically stacked band, step lambda_{2i+1} (0 when the
    # chain ends)
    c = (ks - start) // width
    return np.array([top - c * lam, row0, start, width, np.where(c < last, m + 1, lam_next)])


def _right(lam, step, j_r):
    """The right distance from a 1 at row offset j_r of an even band of
    width ``lam`` whose right distances step by ``step`` (a row of
    ``_column_geometry``): the next 1 lies lambda_{2i} - (j_r // step) *
    step to its right."""
    return lam - j_r // step * step


def down_distance(chain, k):
    """Distance from (k, k) down to the lowest 1 of column k."""
    m, n = chain.m, chain.n
    k = operator.index(k)
    if m == n:
        raise ValueError("no rows below the top identity when m == n")
    if not 0 <= k < n:
        raise ValueError(f"column {k} out of range")
    return int(chain.derived(_column_geometry)[0, k])


def up_distance(chain, j, k):
    """Distance from a 1 at (j, k), j >= n, up to the nearest 1 above it."""
    loc = locate(chain, j, k)
    cell = loc.cell
    if cell.kind == "top" or not cell.has_one(j, k):
        raise ValueError(f"({j}, {k}) is not a 1 below the top identity")
    if cell.kind == "odd":
        return cell.modulus
    c = loc.k_r // cell.modulus
    return chain.lam(cell.index - 1) - c * cell.modulus


def right_distance(chain, j, k):
    """Distance from a 1 in an even band to the next 1 on its right.

    The even band 2i over column band i spans the rows [m - lambda_{2i}, m)
    of its columns.
    """
    m, n = chain.m, chain.n
    j, k = operator.index(j), operator.index(k)
    if not 0 <= k < n:
        raise ValueError(f"column {k} out of range")
    _, row0, start, lam, step = chain.derived(_column_geometry)[:, k].tolist()
    j_r = j - row0
    if not (0 <= j_r and j < m and (j_r - k + start) % lam == 0):
        raise ValueError(f"({j}, {k}) is not a 1 in an even band")
    if step == 0:
        raise NoRightNeighbor(f"({j}, {k}) is in the last band of the layout")
    return _right(lam, step, j_r)


@dataclass(frozen=True)
class DistanceProfile:
    """The distance profile of one column: ints, and its taus as a tuple."""

    k: int
    down: int      # down-distance of column k
    mu: int        # right-distance at the entry (k + down, k)
    taus: tuple    # offsets of the 1s below row (k + down) in column k + mu
    p: int         # len(taus)


def _profiles(matrix, ks=None):
    """The profile of the columns ``ks`` of ``matrix``, every column k in
    [0, n - gcd(m, n)) by default: down, mu and p per column, each column's
    first tau in ``taus``, and the taus back to back, read from the
    generator's CSC."""
    chain = matrix.chain
    ks = np.arange(chain.n - chain.lam(chain.l)) if ks is None else ks
    down, row0, _, lam, step = _column_geometry(chain, ks)
    below = ks + down
    mu = _right(lam, step, below - row0)
    # the 1s of column ks + mu below row ks + down, in the column-major
    # order of the generator's ones
    indptr, rows = matrix.csc
    cols = ks + mu
    pos = np.searchsorted(matrix.csc_keys, cols * chain.m + below, "right")
    p = indptr[cols + 1] - pos
    taus = rows[concat_ranges(pos, p)] - np.repeat(below, p)
    return down, mu, p, np.cumsum(p) - p, taus


def tau_profile(matrix, k):
    """The distance profile of column k, for 0 <= k < n - gcd(m, n).

    The profiles of all columns are computed together and held on the
    generator; the taus are read from its column supports.
    """
    k = operator.index(k)
    down, mu, p, first, taus = matrix.derived(_profiles)
    if not 0 <= k < down.size:
        raise ValueError(f"profile defined for columns [0, {down.size}), got {k}")
    tail = taus[first[k] : first[k] + p[k]]
    return DistanceProfile(k=k, down=int(down[k]), mu=int(mu[k]), taus=tuple(tail.tolist()), p=int(p[k]))
