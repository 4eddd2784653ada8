"""Adjacent-independent-row (AIR) generator matrices.

An AIR matrix is an ``m x n`` binary matrix (``m >= n``) in which every
window of ``n`` cyclically adjacent rows is nonsingular.  The construction
is a staircase of identity blocks: a stack of ``I_n`` copies on top, then an
interleaved tail whose shape is governed by the remainder chain of the
Euclidean algorithm on ``(n, m - n)``.

The chain ``lambda_{-1} = n, lambda_0 = m - n, lambda_{i-1} = beta_i *
lambda_i + lambda_{i+1}`` terminates at ``lambda_l = gcd(m, n)`` (with
``lambda_{l+1} = 0``).  Each chain step contributes one submatrix band to
the tail: even steps are short wide bands of horizontally repeated
identities, odd steps are tall narrow bands of vertically stacked
identities.  The same chain later drives all decoding geometry, so it is
kept alongside the ones.

The generator has about m + n ones, so ``AirMatrix`` stores them sparsely:
as sorted keys ``column * m + row``, read straight off each layout cell's
diagonal walk.  Its CSC, its weight-1 rows and its row patterns (every
row as an index into a table of fewer than 2n distinct rows) follow from
the keys.  No library path holds the dense m x n array: ``AirMatrix.bits``
builds it afresh on each read, for the text form and the tests.
``codec.all_windows_full_rank`` checks the window property, as a case of
the decodability check that lives there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "LambdaChain",
    "AirMatrix",
    "euclid_chain",
    "build_air",
    "locate",
    "partitions",
    "format_matrix",
]


@dataclass(frozen=True)
class LambdaChain:
    """Remainder chain of (n, m - n) with its quotients.

    ``lambdas[0]`` is lambda_{-1} = n, so ``lambdas[i + 1]`` is lambda_i and
    the list ends at lambda_l = gcd(m, n).  ``betas[i]`` is the quotient
    beta_i for 0 <= i <= l.  For m == n the chain is empty: l == -1,
    ``lambdas == (n,)`` and ``betas == ()``.
    """

    m: int
    n: int
    lambdas: tuple
    betas: tuple

    @property
    def l(self):
        return len(self.betas) - 1

    @property
    def gcd(self):
        return self.lambdas[-1]

    def lam(self, i):
        """lambda_i, with lambda_{-2} = m and lambda_i = 0 past the end."""
        if i == -2:
            return self.m
        if -1 <= i <= self.l:
            return self.lambdas[i + 1]
        return 0

    def beta(self, i):
        """beta_i, 0 outside [0, l]."""
        if 0 <= i <= self.l:
            return self.betas[i]
        return 0


def euclid_chain(m, n):
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got m={m}, n={n}")
    lams = [n]
    betas = []
    prev, cur = n, m - n
    while cur:
        lams.append(cur)
        betas.append(prev // cur)
        prev, cur = cur, prev % cur
    assert lams[-1] == math.gcd(m, n)
    return LambdaChain(m=m, n=n, lambdas=tuple(lams), betas=tuple(betas))


@dataclass(frozen=True, eq=False)
class AirMatrix:
    m: int
    n: int
    csc_keys: np.ndarray  # the ones as keys column * m + row, ascending, read-only
    chain: LambdaChain

    @property
    def bits(self):
        """The (m, n) uint8 0/1 array, read-only and built afresh on each
        read: O(m * n), for the text form and the tests only."""
        bits = np.zeros((self.m, self.n), dtype=np.uint8)
        bits[self.csc_keys % self.m, self.csc_keys // self.m] = 1
        bits.flags.writeable = False
        return bits

    def column_support(self, k):
        indptr, rows = self.csc
        return rows[indptr[k] : indptr[k + 1]]

    @cached_property
    def unit_columns(self):
        """unit_columns[r] = the column of row r's single 1 for weight-1
        rows, else -1; read-only."""
        rows = self.csc_keys % self.m
        one = np.bincount(rows, minlength=self.m)[rows] == 1
        cols = np.full(self.m, -1, dtype=np.intp)
        cols[rows[one]] = self.csc_keys[one] // self.m
        cols.flags.writeable = False
        return cols

    @cached_property
    def csc(self):
        """(indptr, rows), int32 and read-only: column c's support is
        ``rows[indptr[c]:indptr[c + 1]]``, ascending."""
        keys = self.csc_keys
        indptr = np.searchsorted(keys, np.arange(self.n + 1) * self.m).astype(np.int32)
        rows = (keys % self.m).astype(np.int32)
        indptr.flags.writeable = rows.flags.writeable = False
        return indptr, rows

    @cached_property
    def row_patterns(self):
        """(pattern, table), read-only: row r of the generator is
        ``table[pattern[r]]``.  The table's first n rows are the unit rows
        e_0 .. e_{n-1}, which the weight-1 rows point at; the rows of any
        other weight follow in row order.  An AIR generator has fewer than
        n of those, so the table has fewer than 2n rows."""
        m, n = self.m, self.n
        unit = self.unit_columns
        dense = np.flatnonzero(unit < 0)
        table = np.zeros((n + dense.size, n), dtype=np.uint8)
        table[np.arange(n), np.arange(n)] = 1
        rows = self.csc_keys % m
        one = unit[rows] < 0
        table[n + np.searchsorted(dense, rows[one]), self.csc_keys[one] // m] = 1
        pattern = unit.copy()
        pattern[dense] = n + np.arange(dense.size)
        pattern.flags.writeable = table.flags.writeable = False
        return pattern, table


def concat_ranges(starts, counts):
    """The ranges ``starts[i] .. starts[i] + counts[i] - 1``, back to back."""
    ends = np.cumsum(counts)
    out = np.repeat(starts - ends + counts, counts)
    out += np.arange(out.size)
    return out


@lru_cache(maxsize=256)
def build_air(m, n):
    """Build the m x n AIR matrix from its layout cells.

    Each cell's modulus equals its row count or its column count, so its
    ones are the entries (i mod rows, i mod cols) of one diagonal walk; the
    walks' keys are sorted once, in O(nnz log nnz) with no m x n array.
    """
    chain = euclid_chain(m, n)
    walks = []
    for cell in layout_cells(chain):
        R, C = len(cell.rows), len(cell.cols)
        i = np.arange(max(R, C))
        walks.append((cell.cols.start + i % C) * m + cell.rows.start + i % R)
    keys = np.sort(np.concatenate(walks))
    keys.flags.writeable = False
    return AirMatrix(m=m, n=n, csc_keys=keys, chain=chain)


@dataclass(frozen=True)
class LayoutCell:
    """One identity band of the layout.

    ``kind`` is "top" for the leading I_n, else "even"/"odd" for the chain
    band with index ``index``.  The entry (j, k) inside the cell is 1 iff
    ``(j - rows.start) == (k - cols.start)  (mod modulus)``.
    """

    kind: str
    index: int
    rows: range
    cols: range
    modulus: int

    def has_one(self, j, k):
        return (j - self.rows.start) % self.modulus == (k - self.cols.start) % self.modulus


@lru_cache(maxsize=4096)
def layout_cells(chain):
    """All nonempty layout cells of the matrix described by ``chain``."""
    m, n = chain.m, chain.n
    cells = [LayoutCell("top", -1, range(0, n), range(0, n), n)]
    for s in range(chain.l + 1):
        if s % 2 == 0:
            cell = LayoutCell(
                "even",
                s,
                range(m - chain.lam(s), m),
                range(n - chain.lam(s - 1), n - chain.lam(s + 1)),
                chain.lam(s),
            )
        else:
            cell = LayoutCell(
                "odd",
                s,
                range(m - chain.lam(s - 1), m - chain.lam(s + 1)),
                range(n - chain.lam(s), n),
                chain.lam(s),
            )
        if len(cell.rows) and len(cell.cols):
            cells.append(cell)
    return tuple(cells)


@dataclass(frozen=True)
class Located:
    cell: LayoutCell
    j_r: int  # row offset inside the cell
    k_r: int  # column offset inside the cell


def locate(chain, j, k):
    """The layout cell containing entry (j, k) and the offsets within it."""
    if not (0 <= j < chain.m and 0 <= k < chain.n):
        raise ValueError(f"entry ({j}, {k}) outside a {chain.m} x {chain.n} matrix")
    for cell in layout_cells(chain):
        if j in cell.rows and k in cell.cols:
            return Located(cell, j - cell.rows.start, k - cell.cols.start)
    raise AssertionError("layout cells must tile the matrix")


@dataclass(frozen=True)
class IntervalPartition:
    """Row/column index bands derived from the chain.

    ``rows[i]``/``cols[i]`` band the matrix row and column indices by chain
    depth.  ``cols_shifted[i]`` is ``cols[i]`` translated by lambda_0 into
    codeword-index space; it splits into ``middle[i]`` (codewords whose
    column meets a horizontally repeated band away from its right edge) and
    ``boundary[i]`` (the rest).  The last boundary band is always
    ``[m - gcd(m, n), m)``.
    """

    rows: tuple
    cols: tuple
    cols_shifted: tuple
    middle: tuple
    boundary: tuple


@lru_cache(maxsize=4096)
def partitions(chain):
    m, n = chain.m, chain.n
    row_bands = tuple(
        range(m - chain.lam(2 * (i - 1)), m - chain.lam(2 * i))
        for i in range(chain.l // 2 + 2)
    )
    n_c = (chain.l + 1) // 2 + 1
    col_bands = tuple(
        range(n - chain.lam(2 * i - 1), n - chain.lam(2 * i + 1)) for i in range(n_c)
    )
    shifted = tuple(
        range(m - chain.lam(2 * i - 1), m - chain.lam(2 * i + 1)) for i in range(n_c)
    )
    middle = []
    boundary = []
    for i in range(n_c):
        ct = shifted[i]
        dlen = max(chain.beta(2 * i) - 1, 0) * chain.lam(2 * i) if len(ct) else 0
        middle.append(range(ct.start, ct.start + dlen))
        boundary.append(range(ct.start + dlen, ct.stop))
    return IntervalPartition(
        rows=row_bands,
        cols=col_bands,
        cols_shifted=shifted,
        middle=tuple(middle),
        boundary=tuple(boundary),
    )


def format_matrix(matrix):
    lines = [f"{matrix.m} {matrix.n}"]
    lines.extend("".join("1" if v else "0" for v in row) for row in matrix.bits)
    return "\n".join(lines) + "\n"
