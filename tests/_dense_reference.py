"""Dense references that the tests check the sparse generator against.

``dense_build_air`` is the cell-walk construction that writes every layout
cell's diagonal walk into an m x n array, the reference for the sorted keys
that ``build_air`` stores.  ``air_from_bits`` makes an ``AirMatrix`` from a
0/1 array, for damaged and random generators.  The ``*_distance_scan``
functions read the distances of ``snicode.distances`` off the dense bits,
one brute-force scan each, as the oracles of the closed forms; they read
the bits of the last few generators from a cache, as ``AirMatrix.bits``
builds them afresh on each read.
"""
from functools import lru_cache

import numpy as np

from snicode.air import AirMatrix, euclid_chain, layout_cells


def dense_build_air(m, n):
    """The m x n AIR bits as a uint8 array, one diagonal walk per cell."""
    bits = np.zeros((m, n), dtype=np.uint8)
    for cell in layout_cells(euclid_chain(m, n)):
        R, C = len(cell.rows), len(cell.cols)
        i = np.arange(max(R, C))
        bits[cell.rows.start + i % R, cell.cols.start + i % C] = 1
    return bits


def air_from_bits(bits, chain):
    """The AirMatrix whose ones are those of the (m, n) 0/1 array ``bits``."""
    keys = np.flatnonzero(np.asarray(bits).T)
    keys.flags.writeable = False
    return AirMatrix(m=bits.shape[0], n=bits.shape[1], csc_keys=keys, chain=chain)


@lru_cache(maxsize=4)
def _bits(matrix):
    return matrix.bits


def down_distance_scan(matrix, k):
    """Distance to the lowest 1 of column k; None if none below k."""
    below = np.flatnonzero(_bits(matrix)[k + 1 :, k])
    if below.size == 0:
        return None
    return int(below[-1]) + 1


def up_distance_scan(matrix, j, k):
    above = np.flatnonzero(_bits(matrix)[:j, k])
    if above.size == 0:
        return None
    return j - int(above[-1])


def right_distance_scan(matrix, j, k):
    right = np.flatnonzero(_bits(matrix)[j, k + 1 :])
    if right.size == 0:
        return None
    return int(right[0]) + 1
