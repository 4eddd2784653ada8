"""Distance geometry of AIR matrices.

Closed-form distances between 1-entries, used by the low-complexity decode
plans: the down-distance of a column (from its diagonal entry to the lowest
1 of the column), the up-distance of an entry below the top identity (to
the nearest 1 above in its column), and the right-distance of an entry in a
horizontally repeated band (to the next 1 to its right in the same row).
Each closed form has a brute-force scan twin used as its oracle in the
tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .air import locate, partitions

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


def down_distance(chain, k):
    """Distance from (k, k) down to the lowest 1 of column k."""
    m, n = chain.m, chain.n
    if m == n:
        raise ValueError("no rows below the top identity when m == n")
    if not 0 <= k < n:
        raise ValueError(f"column {k} out of range")
    for i, band in enumerate(partitions(chain).cols):
        if k in band:
            lam2i = chain.lam(2 * i)
            c = (k - band.start) // lam2i if lam2i else 0
            return m - n + chain.lam(2 * i + 1) + (chain.beta(2 * i) - 1 - c) * lam2i
    raise AssertionError("column bands must cover [0, n)")


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
    """Distance from a 1 in an even band to the next 1 on its right."""
    loc = locate(chain, j, k)
    cell = loc.cell
    if cell.kind != "even" or not cell.has_one(j, k):
        raise ValueError(f"({j}, {k}) is not a 1 in an even band")
    s = cell.index
    lam_s = chain.lam(s)
    if loc.k_r < (chain.beta(s) - 1) * lam_s:
        return lam_s
    # rightmost identity copy of the band: the next 1 sits in the adjacent
    # vertically stacked band, which exists only if the chain continues
    if s + 1 > chain.l:
        raise NoRightNeighbor(f"({j}, {k}) is in the last band of the layout")
    return lam_s - (loc.j_r // chain.lam(s + 1)) * chain.lam(s + 1)


@dataclass(frozen=True)
class DistanceProfile:
    k: int
    down: int      # down-distance of column k
    mu: int        # right-distance at the entry (k + down, k)
    taus: tuple    # offsets of the 1s below row (k + down) in column k + mu
    p: int         # len(taus)


def tau_profile(matrix, k):
    chain = matrix.chain
    limit = chain.n - chain.lam(chain.l)
    if not 0 <= k < limit:
        raise ValueError(f"profile defined for columns [0, {limit}), got {k}")
    d = down_distance(chain, k)
    mu = right_distance(chain, k + d, k)
    col = matrix.bits[:, k + mu]
    taus = tuple(int(t) + 1 for t in np.flatnonzero(col[k + d + 1 :]))
    return DistanceProfile(k=k, down=d, mu=mu, taus=taus, p=len(taus))


def down_distance_scan(matrix, k):
    """Oracle: distance to the lowest 1 of column k; None if none below k."""
    below = np.flatnonzero(matrix.bits[k + 1 :, k])
    if below.size == 0:
        return None
    return int(below[-1]) + 1


def up_distance_scan(matrix, j, k):
    above = np.flatnonzero(matrix.bits[:j, k])
    if above.size == 0:
        return None
    return j - int(above[-1])


def right_distance_scan(matrix, j, k):
    right = np.flatnonzero(matrix.bits[j, k + 1 :])
    if right.size == 0:
        return None
    return int(right[0]) + 1
