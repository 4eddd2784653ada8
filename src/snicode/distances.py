"""Distance geometry of AIR matrices.

Closed-form distances between 1-entries, used by the low-complexity decode
plans: the down-distance of a column (from its diagonal entry to the lowest
1 of the column), the up-distance of an entry below the top identity (to
the nearest 1 above in its column), and the right-distance of an entry in a
horizontally repeated band (to the next 1 to its right in the same row).
The tests check each closed form against a brute-force scan of the dense
generator.  The down- and right-distances and the tau profile take one
index or an array of them, so the plan compiler evaluates them over whole
index arrays: the closed forms are tabulated on the chain and the tau
profiles on the generator, each held there (``AirMatrix.derived``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .air import concat_ranges, locate, partitions

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


def _column_geometry(chain):
    """The closed forms, evaluated for every column k of the chain: one
    row of an (n, 5) array holding the down-distance of k, then the first
    row and first column of the even band 2i over k's band i of
    ``partitions(chain).cols``, max(lambda_{2i}, 1), and the step of k's
    right distances (see ``right_distance``).  A column under no even band
    (lambda_{2i} = 0) has first row m, so no entry of it lies in one."""
    m, n = chain.m, chain.n
    bands = chain.derived(partitions).cols
    per_band = np.array(
        [[band.start, chain.lam(2 * i), chain.lam(2 * i + 1), chain.beta(2 * i)] for i, band in enumerate(bands)],
        dtype=np.intp,
    )
    start, lam, lam_next, beta = np.repeat(per_band, [len(band) for band in bands], axis=0).T
    # copy c of the band's beta_{2i} identities of width lambda_{2i}
    c = (np.arange(n) - start) // np.maximum(lam, 1)
    down = m - n + lam_next + (beta - 1 - c) * lam
    # a 1 at row offset j_r of the band has its next 1 at lambda_{2i} -
    # (j_r // step) * step to its right: the next copy of the identity
    # (a step above every offset), or from the rightmost copy the adjacent
    # vertically stacked band (step lambda_{2i+1}; 0 when the chain ends)
    step = np.where(c < beta - 1, m + 1, lam_next)
    return np.stack([down, m - lam, start, np.maximum(lam, 1), step], axis=1)


def _like(k, value):
    """value as a Python int when k is one index, else the array."""
    return value if np.ndim(k) else int(value)


def down_distance(chain, k):
    """Distance from (k, k) down to the lowest 1 of column k.

    ``k`` is one column or an array of columns; the result has its shape.
    """
    m, n = chain.m, chain.n
    k = np.asarray(k)
    if m == n and k.size:
        raise ValueError("no rows below the top identity when m == n")
    if not ((0 <= k) & (k < n)).all():
        raise ValueError(f"column {k} out of range")
    return _like(k, chain.derived(_column_geometry)[k, 0])


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

    ``j`` and ``k`` are one entry or arrays of entries; the result has
    their shape.  The even band 2i over column band i spans the rows
    [m - lambda_{2i}, m) of its columns.
    """
    m, n = chain.m, chain.n
    j, k = np.asarray(j), np.asarray(k)
    _, row0, start, lam, step = chain.derived(_column_geometry).take(k, axis=0, mode="clip").T
    j_r = j - row0
    if not ((0 <= k) & (k < n) & (0 <= j_r) & (j < m) & ((j_r - k + start) % lam == 0)).all():
        raise ValueError(f"({j}, {k}) is not a 1 in an even band")
    if (step == 0).any():
        raise NoRightNeighbor(f"({j}, {k}) is in the last band of the layout")
    return _like(k, lam - j_r // step * step)


@dataclass(frozen=True)
class DistanceProfile:
    """Ints and a tuple of taus for one column; arrays for an array of them."""

    k: int
    down: int      # down-distance of column k
    mu: int        # right-distance at the entry (k + down, k)
    taus: tuple    # offsets of the 1s below row (k + down) in column k + mu
    p: int         # len(taus)


def _profiles(matrix):
    """The profile of every column k in [0, n - gcd(m, n)) of ``matrix``:
    down, mu and p per column, each column's first tau in ``taus``, and the
    taus back to back."""
    chain = matrix.chain
    ks = np.arange(chain.n - chain.lam(chain.l))
    down = down_distance(chain, ks)
    mu = right_distance(chain, ks + down, ks)
    # the 1s of column ks + mu below row ks + down, in the column-major
    # order of the generator's ones
    indptr, rows = matrix.csc
    cols, below = ks + mu, ks + down
    pos = np.searchsorted(matrix.csc_keys, cols * chain.m + below, "right")
    p = indptr[cols + 1] - pos
    taus = rows[concat_ranges(pos, p)] - np.repeat(below, p)
    return down, mu, p, np.cumsum(p) - p, taus


def tau_profile(matrix, k):
    """The distance profile of column k, for 0 <= k < n - gcd(m, n).

    ``k`` is one column or an array of columns.  For an array every field
    is an array over the columns, except ``taus``, which holds their taus
    back to back: ``p[i]`` of them for ``k[i]``.  The profiles of all
    columns are computed together and held on the generator; the taus are
    read from its column supports.
    """
    down, mu, p, first, taus = matrix.derived(_profiles)
    ks = np.atleast_1d(k)
    if not ((0 <= ks) & (ks < down.size)).all():
        raise ValueError(f"profile defined for columns [0, {down.size}), got {k}")
    if np.ndim(k):
        return DistanceProfile(k=ks, down=down[ks], mu=mu[ks], taus=taus[concat_ranges(first[ks], p[ks])], p=p[ks])
    k = int(k)
    tail = taus[first[k] : first[k] + p[k]]
    return DistanceProfile(k=k, down=int(down[k]), mu=int(mu[k]), taus=tuple(tail.tolist()), p=int(p[k]))

