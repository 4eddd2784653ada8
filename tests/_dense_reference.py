"""Dense references that the tests check the sparse generator against.

``dense_build_air`` is the cell-walk construction that writes every layout
cell's diagonal walk into an m x n array, the reference for the sorted keys
that ``build_air`` stores.  ``air_from_bits`` makes an ``AirMatrix`` from a
0/1 array, for damaged and random generators.  The ``*_distance_scan``
functions read the distances of ``snicode.distances`` off the dense bits,
one brute-force scan each, as the oracles of the closed forms; they read
the bits of the last few generators from a cache, as ``AirMatrix.bits``
builds them afresh on each read.  ``dense_combining`` scatters the oracle's
per-group combining blocks into one n x m array, and
``dense_oracle_decode`` decodes from it with the dense generator and each
receiver's message masked by its side information, as the reference of
``OracleDecoder.decode``.
"""
from functools import lru_cache

import numpy as np

from snicode.air import AirMatrix, euclid_chain, layout_cells

from _gf_reference import side_info


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


def dense_combining(groups, n, m, b):
    """The n x m int16 array whose columns t*b .. t*b + b - 1 are receiver
    t's combining matrix, from the ``(ts, cols, T)`` groups of
    ``codec._window_solve``."""
    dense = np.zeros((n, m), dtype=np.int16)
    for ts, cols, T in groups:
        dense[cols[:, :, None], ts[:, None, None] * b + np.arange(b)] = T
    return dense


def dense_oracle_decode(matrix, problem, T, y, x, p):
    """(y - x_t @ G) @ T_t mod p for every receiver t, with the dense bits G,
    x_t the message with the blocks outside t's side information
    (``_gf_reference.side_info``) zeroed, and T_t columns t*b .. t*b + b - 1
    of the n x m array T."""
    K, b = problem.K, matrix.m // problem.K
    bits, T = matrix.bits.astype(np.int64), T.astype(np.int64)
    xs, ys = x.reshape(-1, matrix.m).astype(np.int64), y.reshape(-1, matrix.n).astype(np.int64)
    out = np.empty(xs.shape, dtype=np.uint8)
    for t in range(K):
        known = np.zeros(K, dtype=np.int64)
        known[list(side_info(problem, t))] = 1
        xt = xs * np.repeat(known, b)
        out[:, t * b : t * b + b] = (ys - xt @ bits) @ T[:, t * b : t * b + b] % p
    return out.reshape(x.shape)
