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
diagonal walk.  Its CSC and its row patterns follow from the keys; the
patterns are the one view of the rows, every row as an index into a table
of fewer than 2n distinct rows whose first n are the unit rows, so a
weight-1 row's index is its column.  No library path holds the dense m x n
array: ``AirMatrix.bits`` builds it afresh on each read, for the text form
and the tests.  ``codec.all_windows_full_rank`` checks the window property,
as a case of the decodability check that lives there.

``build_air`` is the one cache of generators.  Everything derived from a
generator is held on it, through ``AirMatrix.derived``: its CSC and row
patterns here, its compiled decode plan, side checks and tau profiles in
``codec`` and ``distances``; its chain holds the closed-form distances the
same way.  The chain's layout cells and partitions, which hold no array,
are plain fields of the chain, built with it.  The memo freezes
every array it holds and counts the new ones' bytes; ``build_air`` drops
whole generators, least recently used first, while the bytes that it holds
exceed ``_BUDGET``.
"""
from __future__ import annotations

import math
from collections import OrderedDict, defaultdict, namedtuple
from dataclasses import dataclass, field

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

# 3x the bytes that perfbench's block_sweep holds at its RSS read (10.4 MB),
# 17x those that grid_verify revisits (1.8 MB); the generator in use stays.
_BUDGET = 32 << 20
_held, _sizes = OrderedDict(), defaultdict(int)  # (m, n) -> generator, least recent first; its bytes
_hits = _misses = _nbytes = 0
_CacheInfo = namedtuple("_CacheInfo", "hits misses currsize nbytes")
_MISSING = object()


@dataclass(frozen=True, eq=False)
class _Derived:
    """A memo of values derived from this object (see ``derived``)."""

    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def derived(self, build, *args):
        """``build(self, *args)``, computed by the first call and held on
        this object for the later ones, with every array in it read-only.
        The bytes of its new arrays count towards ``_BUDGET`` while
        ``build_air`` holds this generator or its chain."""
        key = (build, *args)
        value = self.memo.get(key, _MISSING)
        if value is _MISSING:
            value = self.memo[key] = build(self, *args)
            _charge(self, freeze(value))
        return value


def _derived_property(build):
    """A property holding ``self.derived(build)``."""
    return property(lambda self: self.derived(build), doc=build.__doc__)


def freeze(value):
    """Make the arrays in ``value`` read-only: ``value`` itself, the fields
    of a dataclass ``value``, and the items of tuples and lists, nested;
    returns the bytes of those that were writeable."""
    nbytes, items = 0, [*vars(value).values()] if hasattr(value, "__dataclass_fields__") else [value]
    for item in items:  # items grows by the contents of each tuple and list
        if isinstance(item, (tuple, list)):
            items.extend(item)
        elif isinstance(item, np.ndarray) and item.flags.writeable:
            nbytes += item.nbytes
            item.setflags(write=False)
    return nbytes


@dataclass(frozen=True)
class LambdaChain(_Derived):
    """Remainder chain of (n, m - n) with its quotients.

    ``lambdas[0]`` is lambda_{-1} = n, so ``lambdas[i + 1]`` is lambda_i and
    the list ends at lambda_l = gcd(m, n).  ``betas[i]`` is the quotient
    beta_i for 0 <= i <= l.  For m == n the chain is empty: l == -1,
    ``lambdas == (n,)`` and ``betas == ()``.  ``cells`` and ``parts`` are
    ``layout_cells`` and ``partitions`` of the chain, built with it; they
    hold no array, so no memo walks them.  The closed-form distances are
    held on it through ``derived``.
    """

    m: int
    n: int
    lambdas: tuple
    betas: tuple
    cells: tuple = field(init=False, repr=False, compare=False)
    parts: IntervalPartition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cells", layout_cells(self))
        object.__setattr__(self, "parts", partitions(self))

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
class AirMatrix(_Derived):
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

    @_derived_property
    def csc(self):
        """(indptr, rows), ``intp`` and read-only: column c's support is
        ``rows[indptr[c]:indptr[c + 1]]``, ascending.  Held once per
        generator; ``intp`` indices are those that ``take`` gathers with
        on its fast path, and the compiled plan shares both arrays."""
        keys = self.csc_keys
        return np.searchsorted(keys, np.arange(self.n + 1) * self.m), keys % self.m

    @_derived_property
    def row_patterns(self):
        """(pattern, table), read-only: row r of the generator is
        ``table[pattern[r]]``.  The table's first n rows are the unit rows
        e_0 .. e_{n-1}, so a weight-1 row's pattern is its column (< n);
        the rows of any other weight follow in row order and point past n.
        An AIR generator has fewer than n of those, so the table has fewer
        than 2n rows."""
        m, n = self.m, self.n
        cols, rows = np.divmod(self.csc_keys, m)
        one = np.bincount(rows, minlength=m)[rows] == 1
        pattern = np.full(m, -1, dtype=np.intp)
        pattern[rows[one]] = cols[one]
        dense = np.flatnonzero(pattern < 0)
        pattern[dense] = n + np.arange(dense.size)
        table = np.zeros((n + dense.size, n), dtype=np.uint8)
        table[np.arange(n), np.arange(n)] = 1
        table[n + np.searchsorted(dense, rows[~one]), cols[~one]] = 1
        return pattern, table


def concat_ranges(starts, counts):
    """The ranges ``starts[i] .. starts[i] + counts[i] - 1``, back to back."""
    ends = np.cumsum(counts)
    out = np.repeat(starts - ends + counts, counts)
    out += np.arange(out.size)
    return out


def build_air(m, n):
    """Build the m x n AIR matrix from its layout cells, or return the one
    held since an earlier call.

    Each cell's modulus equals its row count or its column count, so its
    ones are the entries (i mod rows, i mod cols) of one diagonal walk; the
    walks' keys are sorted once, in O(nnz log nnz) with no m x n array.
    """
    global _hits, _misses
    matrix = _held.get((m, n))
    if matrix is not None:
        _hits += 1
        _held.move_to_end((m, n))
        return matrix
    _misses += 1
    chain = euclid_chain(m, n)
    walks = []
    for cell in chain.cells:
        R, C = len(cell.rows), len(cell.cols)
        i = np.arange(max(R, C))
        walks.append((cell.cols.start + i % C) * m + cell.rows.start + i % R)
    matrix = _held[m, n] = AirMatrix(m=m, n=n, csc_keys=np.sort(np.concatenate(walks)), chain=chain)
    _charge(matrix, freeze(matrix.csc_keys))
    return matrix


def _charge(owner, nbytes):
    """Count ``nbytes`` more for ``owner``, a generator or a chain, if
    ``build_air`` holds it, and drop the least recently used generators
    while the total exceeds ``_BUDGET``; the most recently used stays."""
    global _nbytes
    matrix = _held.get((owner.m, owner.n)) if nbytes else None
    if matrix is not None and (owner is matrix or owner is matrix.chain):
        _sizes[owner.m, owner.n] += nbytes
        _nbytes += nbytes
        while _nbytes > _BUDGET and len(_held) > 1:
            _nbytes -= _sizes.pop(_held.popitem(last=False)[0])


def _cache_clear():
    global _hits, _misses, _nbytes
    _held.clear()
    _sizes.clear()
    _hits = _misses = _nbytes = 0


build_air.cache_clear = _cache_clear
build_air.cache_info = lambda: _CacheInfo(_hits, _misses, len(_held), _nbytes)


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


def layout_cells(chain):
    """All nonempty layout cells of the matrix described by ``chain``."""
    m, n = chain.m, chain.n
    lam = (m, *chain.lambdas, 0)  # lam[s + 2] is lambda_s, 0 past the end
    cells = [LayoutCell("top", -1, range(0, n), range(0, n), n)]
    for s in range(chain.l + 1):
        before, here, after = lam[s + 1 : s + 4]
        if s % 2 == 0:
            rows, cols = range(m - here, m), range(n - before, n - after)
        else:
            rows, cols = range(m - before, m - after), range(n - here, n)
        if rows and cols:
            cells.append(LayoutCell("odd" if s % 2 else "even", s, rows, cols, here))
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
    for cell in chain.cells:
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


def partitions(chain):
    m, n = chain.m, chain.n
    lam = (m, *chain.lambdas, 0, 0)  # lam[i + 2] is lambda_i, 0 past the end
    betas = chain.betas + (0,)
    row_bands = tuple(range(m - lam[2 * i], m - lam[2 * i + 2]) for i in range(chain.l // 2 + 2))
    n_c = (chain.l + 1) // 2 + 1
    col_bands = tuple(range(n - lam[2 * i + 1], n - lam[2 * i + 3]) for i in range(n_c))
    shifted = tuple(range(m - lam[2 * i + 1], m - lam[2 * i + 3]) for i in range(n_c))
    middle, boundary = [], []
    for i, ct in enumerate(shifted):
        cut = ct.start + max(betas[2 * i] - 1, 0) * lam[2 * i + 2] if ct else ct.start
        middle.append(range(ct.start, cut))
        boundary.append(range(cut, ct.stop))
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
