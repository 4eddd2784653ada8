"""Encoding, decoding plans, and decodability verification.

The encoder sums each column's support of an AIR generator, read from its
CSC (``AirMatrix.csc``).  Over GF(2) the trials are bit-sliced, 64 to a
uint64 word (``_pack`` and ``_unpack`` convert (trials, s) symbols to (s,
words) words and back), and there is one XOR path: ``_encode_words`` and
``DecodePlan.decode_words`` work on words, and ``encode(..., p=2)`` and
``DecodePlan.decode`` pack their inputs, call them and unpack the result.
``sim.run`` calls the word functions directly.  Every kernel gathers whole
rows with ``take`` over the CSC's ``intp`` indices.  Two decoders are
provided:

* a plan decoder — each receiver symbol is recovered as an XOR of a small,
  precomputed set of coded symbols plus known side-information symbols; the
  plan is derived from the chain geometry of the generator and is what makes
  the scheme low-complexity.  Plans execute over GF(2), compiled to O(m + n)
  arrays (``PlanGeometry``) held on the generator, 64 trials to a machine
  word, by one rule: symbol k is x_k XORed with the terms y_c XOR (x G)_c
  of its codes c: all of x is gathered, and all but the side rows cancel.
  Given a receiver's view, x with the rows it lacks zeroed, the terms
  carry those rows.  ``decode_plan`` checks that every receiver knows the side rows its plan
  reads, once per problem, and holds the answer on the generator too.
* an oracle decoder — solves for every receiver's combining matrix T with
  A_W @ T = E over its window of unknown blocks in one batched elimination,
  then decodes as (y - x_t @ G) @ T, x_t being x with the window's rows
  zeroed.  Works over any small prime field and serves as the correctness
  reference for the plan decoder.

Both decoders take the full message array ``x``; what they return for a
receiver depends only on the rows that it knows, all but one cyclic
interval, its window (``_window``), whose rows in a column ``_lacked_sum``
reads off the CSC.

`verify_lemma1` checks the decodability condition itself: every receiver's
wanted block must add full rank on top of its interference rows, read from
the oracle decoder's batched solve.  Its window systems are assembled once
per (generator, problem) from the row patterns (``AirMatrix.row_patterns``)
and reduced once per field, in receiver groups; both results are cached and
read-only, so Lemma 1 and the oracle over one field share one solve.
`all_windows_full_rank`, the AIR property that every n cyclically adjacent
rows are independent, is the same check with one-row blocks.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import gf
from .air import build_air, concat_ranges, freeze
from .distances import _profiles
from .rates import SniProblem, in_S, membership

__all__ = [
    "NotAchievablePair",
    "NotDecodable",
    "DecodePlan",
    "encoding_matrix",
    "encode",
    "symbolic_codes",
    "decode_plan",
    "format_plan",
    "OracleDecoder",
    "verify_lemma1",
    "all_windows_full_rank",
    "rank_deficits",
    "predicted_side_counts",
]


class NotAchievablePair(Exception):
    """(a, b) is outside the achievable set of the problem."""


class NotDecodable(Exception):
    """The receiver cannot linearly isolate its block from its window."""


class PlanError(Exception):
    """A derived plan violates its own consistency requirements."""


def check_field(p):
    """Raise ValueError unless p is an integer prime with 2 <= p <= 251, so
    that GF(p) arithmetic is integer arithmetic mod p and every symbol fits
    the uint8 outputs."""
    prime = isinstance(p, (int, np.integer)) and 2 <= p <= 251 and all(p % d for d in range(2, math.isqrt(p) + 1))
    if not prime:
        raise ValueError(f"p={p!r} is not a prime in [2, 251]")


def _check_symbols(p, x, m, y=None, n=None):
    """Raise ValueError unless the arrays x (and y) hold integer GF(p)
    symbols, m per trial in x and n in y, over the same trial axes."""
    for name, arr, width in (("message", x, m), ("coded", y, n)):
        if arr is None:
            continue
        if arr.dtype.kind not in "iu":
            raise ValueError(f"{name} symbols must be integers, got dtype {arr.dtype}")
        if arr.ndim == 0 or arr.shape[-1] != width:
            raise ValueError(f"need {width} {name} symbols per trial, got shape {arr.shape}")
        if arr.size and ((arr.dtype.kind == "i" and arr.min() < 0) or arr.max() >= p):
            raise ValueError(f"{name} symbols must lie in [0, {p})")
    if y is not None and x.shape[:-1] != y.shape[:-1]:
        raise ValueError(f"message and coded symbols need the same trials, got shapes {x.shape} and {y.shape}")


def _window(problem, b, t):
    """(first, size): receiver t lacks the ``size`` rows from row ``first``
    on, cyclically mod m = K b, its U + D + 1 interference and wanted
    blocks, and knows every other row.  ``t`` may be an array."""
    return (t - problem.U) % problem.K * b, (problem.U + problem.D + 1) * b


def encoding_matrix(problem, a, b):
    """The AIR generator for pair (a, b); raises NotAchievablePair."""
    if not in_S(problem, a, b):
        raise NotAchievablePair(
            f"(a={a}, b={b}) not achievable for K={problem.K}, D={problem.D}, "
            f"U={problem.U}: {membership(problem, a, b)}"
        )
    return build_air(problem.K * b, b * (problem.D + 1) + a)


def _pack(z):
    """GF(2) symbols ``z``, shaped (..., s), as (s, ceil(trials / 64))
    uint64 words, the trials being the entries of the leading axes in
    order: trial 64w + i of symbol r is bit i of word ``[r, w]``, and the
    padding bits past the last trial are zero."""
    z = np.asarray(z).reshape(-1, np.shape(z)[-1])
    trials, s = z.shape
    words = -(-trials // 64)
    bits = np.zeros((s, 64 * words), dtype=np.uint8)
    bits[:, :trials] = z.T
    return np.packbits(bits, bitorder="little").view(np.uint64).reshape(s, words)


def _unpack(zw, shape):
    """The uint8 symbols, shaped ``shape`` with s = ``shape[-1]``, of the
    (s, words) uint64 words ``zw`` that ``_pack`` makes; padding bits are
    dropped."""
    trials = math.prod(shape[:-1])
    bits = np.unpackbits(np.ascontiguousarray(zw).view(np.uint8), axis=1, count=trials, bitorder="little")
    return np.ascontiguousarray(bits.T).reshape(shape)


def _encode_words(csc, xw):
    """y = x @ G over GF(2) on the (m, words) words of x, for ``csc`` the
    generator's ``(indptr, rows)`` (``AirMatrix.csc``): each coded symbol
    XORs its column's CSC rows, 64 trials to a word."""
    indptr, rows = csc
    return np.bitwise_xor.reduceat(xw.take(rows, axis=0), indptr[:-1], axis=0)


def encode(matrix, x, p=2):
    """y = x @ G mod p.  ``x`` may be a vector or a (trials, m) batch of
    integer symbols in [0, p); raises ValueError otherwise.  Each coded
    symbol sums its column's support, read from the generator's CSC: one
    gather and one segmented sum, O(trials * nnz).  Over GF(2) the trials
    are packed 64 to a uint64 word (``_pack``) and the sum is an XOR
    (``_encode_words``); over a larger field it accumulates in uint16
    when no column sum can reach 2^16, else in uint32."""
    check_field(p)
    x = np.asarray(x)
    _check_symbols(p, x, matrix.m)
    if p == 2:
        return _unpack(_encode_words(matrix.csc, _pack(x)), x.shape[:-1] + (matrix.n,))
    indptr, rows = matrix.csc
    acc = np.uint16 if (p - 1) * np.diff(indptr).max() < 1 << 16 else np.uint32
    y = np.add.reduceat(x.take(rows, axis=-1), indptr[:-1], axis=-1, dtype=acc)
    return (y % p).astype(np.uint8)


def _label(k, b):
    return k // b, k % b + 1


def symbolic_codes(matrix, b):
    """Lines 'c_k = x_{t,j} + ...' describing each coded symbol."""
    lines = []
    for k in range(matrix.n):
        terms = " + ".join(
            "x_{%d,%d}" % _label(int(r), b) for r in matrix.column_support(k)
        )
        lines.append(f"c_{k} = {terms}")
    return lines


@dataclass(frozen=True)
class PlanEntry:
    t: int
    j: int          # 1-based symbol index within the block
    case: str       # "I" | "II" | "III" | "IV"
    codes: tuple    # coded-symbol indices to XOR
    side: tuple     # message-row indices of the side terms, ascending


CASES = ("I", "II", "III", "IV")


@dataclass(frozen=True, eq=False)
class PlanGeometry:
    """The decode recipe of every codeword index of an m x n generator.

    Index k XORs its codes' coded symbols and its side rows, the rows of
    odd multiplicity over its codes' supports but row k; ``decode_words``
    takes it as x_k XORed with its codes' terms y_c XOR (x G)_c, in which
    x_k cancels with every row of even multiplicity.  An index with one
    code (cases I and IV, all but fewer than n of them) has the code c =
    ``code[k]`` and the side rows ``rows[indptr[c]:indptr[c + 1]]`` of the
    generator's CSC but row k, at its layout place (``_layout_place``).
    The i-th index ``multi[i]`` with several codes (cases II and III) has
    the codes ``multi_codes[multi_starts[i]:multi_starts[i + 1]]`` and the
    side rows ``multi_side[side_starts[i]:side_starts[i + 1]]``, ascending.
    Only ``cases`` and ``code`` are m long; the rest is O(n), and
    ``indptr`` and ``rows`` are the generator's own ``AirMatrix.csc``.
    ``recipe`` reads one index's recipe and ``counts`` every index's
    counts.
    """

    cases: np.ndarray         # uint8 index into CASES per codeword index
    code: np.ndarray          # per codeword index: its (first) code
    indptr: np.ndarray        # the generator's CSC, AirMatrix.csc itself
    rows: np.ndarray
    multi: np.ndarray         # the indices with several codes, ascending
    multi_codes: np.ndarray   # their codes back to back
    multi_starts: np.ndarray  # len(multi) + 1 segment starts in multi_codes
    multi_side: np.ndarray    # their side rows back to back
    side_starts: np.ndarray   # len(multi) + 1 segment starts in multi_side

    def recipe(self, k):
        """(codes, side) of codeword index k, tuples of ints: the codes
        that it XORs and its side rows, ascending."""
        i = bisect_left(self.multi, k)
        if i < self.multi.size and self.multi[i] == k:
            codes = self.multi_codes[self.multi_starts[i] : self.multi_starts[i + 1]]
            side = self.multi_side[self.side_starts[i] : self.side_starts[i + 1]]
            return tuple(codes.tolist()), tuple(side.tolist())
        c = int(self.code[k])
        col = self.rows[self.indptr[c] : self.indptr[c + 1]]
        return (c,), tuple(col[col != k].tolist())

    def counts(self):
        """(codes, side), m-long ``intp`` arrays: per codeword index, how
        many codes and side rows it XORs, from the segment starts and, for
        an index with one code, its column's weight less its own row."""
        codes = np.ones(self.code.size, dtype=np.intp)
        codes[self.multi] = np.diff(self.multi_starts)
        side = np.diff(self.indptr).take(self.code) - 1
        side[self.multi] = np.diff(self.side_starts)
        return codes, side


@dataclass(frozen=True, eq=False)
class DecodePlan:
    problem: SniProblem
    a: int
    b: int
    m: int
    n: int
    geometry: PlanGeometry

    def entry(self, t, j):
        """The PlanEntry of symbol (t, j), read from the compiled arrays;
        raises ValueError when the plan has no such symbol."""
        if not (0 <= t < self.m // self.b and 1 <= j <= self.b):
            raise ValueError(f"no symbol (t={t}, j={j}) in this plan")
        k = t * self.b + j - 1
        codes, side = self.geometry.recipe(k)
        return PlanEntry(t=t, j=j, case=CASES[self.geometry.cases[k]], codes=codes, side=side)

    @cached_property
    def entries(self):
        """(t, j) -> PlanEntry of every symbol, in index order."""
        return {(t, j): self.entry(t, j) for t in range(self.m // self.b) for j in range(1, self.b + 1)}

    def decode(self, y, x):
        """Every message symbol over GF(2), shaped like ``x``.

        ``y`` is the coded vector (or a (trials, n) batch) and ``x`` the
        message batch it encodes; receiver t's symbols depend only on the
        rows of ``x`` that its plan reads, all of them its side information.
        Packs both into words (``_pack``), decodes them with
        ``decode_words`` and unpacks the result.  Raises ValueError unless
        x and y hold GF(2) symbols, m and n per trial.

        With y = x G every code's term is zero, so ``decode(y, x) == x``
        holds whatever codes the plan names: it checks no plan.  The plan's
        check is ``sim.run(..., decoder="plan")``, which decodes each
        receiver's view, x with its window zeroed.
        """
        x, y = np.asarray(x), np.asarray(y)
        _check_symbols(2, x, self.m, y, self.n)
        return _unpack(self.decode_words(_pack(x), _pack(y)), x.shape)

    def decode_words(self, xw, yw):
        """Every message symbol over GF(2) as (m, words) uint64 words, from
        the words of the message, ``xw`` (m, words), and of the coded
        symbols, ``yw`` (n, words), as ``_pack`` lays them out: one XOR of
        two words adds 64 trials.  Index k is x_k XORed with the terms of
        its codes, term_c = y_c XOR (x G)_c from the encoder's own XOR
        (``_encode_words``): all of x is gathered, and every row but the
        side rows cancels.  When ``xw`` is a receiver's view of the message
        that ``yw`` encodes, the terms carry the rows that it lacks.
        Every gather is a ``take`` of whole rows, O(words * (m + nnz)) for
        nnz ones.  Zero padding bits decode to zero padding bits.
        """
        g = self.geometry
        term = _encode_words((g.indptr, g.rows), xw) ^ yw
        out = term.take(g.code, axis=0)
        out[g.multi] = np.bitwise_xor.reduceat(term.take(g.multi_codes, axis=0), g.multi_starts[:-1], axis=0)
        out ^= xw
        return out


def _recipes(matrix):
    """The case of every codeword index, an index into CASES, and the
    indices that XOR more than one code: those indices, their codes back to
    back, and their code counts.

    Band by band over the remainder chain: indices below lambda_0 XOR the
    code k mod n (case I); with k' = k - lambda_0, in band i a middle index
    pairs k' with the code lambda_{2i} to its right (case II), and a
    boundary index takes k' and its tau profile (case III) or, past the last
    repeated band, k' alone (case IV).
    """
    chain = matrix.chain
    parts = chain.parts
    lam0, last = chain.lam(0), (chain.l + 1) // 2
    cases = np.zeros(chain.m, dtype=np.uint8)
    step = np.zeros(chain.m, dtype=np.intp)  # second code minus k'
    for i, (middle, boundary) in enumerate(zip(parts.middle, parts.boundary)):
        cases[middle.start : middle.stop] = 1
        step[middle.start : middle.stop] = chain.lam(2 * i)
        cases[boundary.start : boundary.stop] = 2 if i < last else 3
    multi = np.flatnonzero((cases == 1) | (cases == 2))
    three = cases[multi] == 2
    # the case-III profiles of these columns alone, never of every column
    _, mu, p, _, taus = _profiles(matrix, multi[three] - lam0)
    step[multi[three]] = mu
    count = np.full(multi.size, 2)
    count[three] += p
    at = np.cumsum(count) - count
    codes = np.empty(count.sum(), dtype=np.intp)
    codes[at] = multi - lam0
    codes[at + 1] = multi - lam0 + step[multi]
    codes[concat_ranges(at[three] + 2, p)] = np.repeat(multi[three] - lam0, p) + taus
    return cases, multi, codes, count


def _layout_place(indptr, code, start, stop):
    """(ks, lo, hi, place) for the codeword indices ks = start .. stop - 1
    of an m x n AIR generator with CSC ``indptr``, for ``code`` the m codes
    that its layout gives an index with one code: the CSC run
    ``rows[lo:hi]`` of each index's column c = ``code[k]``, and where row k
    sits in it, as the layout places it.  Below lambda_0 = m - n, where c =
    k mod n, row k is the column's (k // n)-th row, one per copy of I_n
    above it; from lambda_0 on, where c = k - lambda_0, it is the column's
    last.  ``_plan_geometry`` checks every one-code index's place."""
    m, n = code.size, indptr.size - 1
    ks, c = np.arange(start, stop), code[start:stop]
    lo, hi = indptr.take(c), indptr.take(c + 1)
    return ks, lo, hi, np.where(ks < m - n, lo + ks // n, hi - 1)


def _plan_geometry(matrix):
    """The compiled decode recipe for the generator ``matrix``, in O(m + n)
    arrays.

    Independent of the problem: the case dispatch and code choices depend
    only on the chain, and the side terms are the rows of odd multiplicity
    over the chosen columns' supports (the wanted row excluded), read from
    the generator's CSC.  An index with one code keeps its code alone: its
    row must sit at its layout place in that column (``_layout_place``),
    which is checked here; the fewer than n indices with several codes are
    resolved together by one sort of (index, row) keys and keep their codes
    and side rows.  Raises PlanError naming the first index whose wanted
    row is absent from its XOR, or from its layout place.
    """
    m, n = matrix.m, matrix.n
    indptr, rows = matrix.csc
    weight = np.diff(indptr)
    cases, multi, codes, count = _recipes(matrix)
    # several codes: their supports' rows of odd multiplicity, by index
    owner = np.repeat(np.repeat(np.arange(multi.size), count), weight[codes])
    keys, times = np.unique(owner * m + rows[concat_ranges(indptr[codes], weight[codes])], return_counts=True)
    owner, row = np.divmod(keys[times % 2 == 1], m)
    wanted = row == multi[owner]
    # one code: k mod n below lambda_0, k - lambda_0 from there on, and
    # row k at its layout place in that column, checked chunk by chunk so
    # that each temporary holds at most _GROUP_BYTES
    lam0 = m - n
    code = np.arange(m)
    code[:lam0] %= n
    code[lam0:] -= lam0
    found = np.empty(m, dtype=bool)
    step = max(1, _GROUP_BYTES // 8)
    for start in range(0, m, step):
        ks, lo, hi, place = _layout_place(indptr, code, start, min(start + step, m))
        found[start : start + step] = (lo <= place) & (place < hi) & (rows.take(place, mode="clip") == ks)
    found[multi] = True
    missing = np.concatenate([np.delete(multi, owner[wanted]), np.flatnonzero(~found)])
    if missing.size:
        k = missing.min()
        where = "XOR" if found[k] else f"its layout place in column {code[k]}"
        raise PlanError(f"codeword index {k}: wanted row absent from {where}")
    starts = np.zeros((2, multi.size + 1), dtype=np.intp)
    np.cumsum([count, np.bincount(owner[~wanted], minlength=multi.size)], axis=1, out=starts[:, 1:])
    return PlanGeometry(
        cases=cases, code=code, indptr=indptr, rows=rows, multi=multi, multi_codes=codes,
        multi_starts=starts[0], multi_side=row[~wanted], side_starts=starts[1],
    )


def _lacked_sum(matrix, problem, run, t, c):
    """Per receiver t and generator column c, broadcast together: the sum
    over the rows of column c that t lacks, for ``run[i]`` the running sum
    of a value per CSC row over the first i rows (the oracle's x_W G_W).

    Receiver t lacks the rows of its window (``_window``), one cyclic
    interval that holds its own block: two ``searchsorted`` calls on the
    CSC keys bound it in column c, and a wrapped interval adds the column.
    """
    m, indptr, keys = matrix.m, matrix.csc[0], matrix.csc_keys
    lo, size = _window(problem, m // problem.K, t)
    hi = lo + size
    wrap = hi > m
    start = np.searchsorted(keys, c * m + lo)
    stop = np.searchsorted(keys, c * m + hi - wrap * m)
    # summed left to right, no partial sum exceeds run[-1] in size
    return (
        run.take(stop, axis=0) - run.take(start, axis=0) - run.take(indptr.take(c), axis=0)
        + run.take(indptr.take(c + wrap), axis=0)
    )


def _unknown_side_row(matrix, problem):
    """The first (k, row), in index order with side rows ascending, of a
    side row of codeword index k of the plan of ``matrix`` that its receiver
    k // b does not know; None when it knows them all.

    An index with one code reads the rows of its column ``code[k]`` but row
    k, and its receiver lacks one cyclic interval of rows, its window
    (``_window``), which holds row k.  If another row r of the column lay in
    the window, one of the two arcs from row k to row r would lie in it, and
    the column's first row along that arc, the cyclic successor or
    predecessor of row k in the column, would lie in the window too.  So it
    is enough to test those two neighbours of row k's layout place
    (``_layout_place``), wrapped within the column's CSC run; a one-row
    column has no other row.  The indices are tested chunk by chunk in
    index order, so that each temporary holds at most ``_GROUP_BYTES``.
    The side rows of the indices with several codes are checked one by
    one.
    """
    m, b = matrix.m, matrix.m // problem.K
    g = matrix.derived(_plan_geometry)
    indptr, rows = g.indptr, g.rows
    found = []
    step = max(1, _GROUP_BYTES // 8)
    for start in range(0, m, step):
        ks, lo, hi, at = _layout_place(indptr, g.code, start, min(start + step, m))
        first, size = _window(problem, b, ks // b)
        prev = rows.take(np.where(at > lo, at, hi) - 1)
        succ = rows.take(np.where(at + 1 < hi, at + 1, lo))
        bad = ((prev - first) % m < size) | ((succ - first) % m < size)
        case = g.cases[start : start + ks.size]
        bad = np.flatnonzero(bad & ((case == 0) | (case == 3)) & (hi - lo > 1))  # cases I and IV
        if bad.size:
            k0 = start + int(bad[0])
            col = matrix.column_support(g.code[k0])
            first, size = _window(problem, b, k0 // b)
            col = col[(col != k0) & ((col - first) % m < size)]
            found.append((k0, int(col[0])))
            break
    owner = np.repeat(g.multi, np.diff(g.side_starts))
    first, size = _window(problem, b, owner // b)
    bad = np.flatnonzero((g.multi_side - first) % m < size)
    if bad.size:
        found.append((int(owner[bad[0]]), int(g.multi_side[bad[0]])))
    return min(found, default=None)


def decode_plan(problem, a, b):
    """The compiled decode plan for (problem, a, b), validated: every side
    row it reads is side information of its receiver.

    Its two compile-time checks together imply that every receiver decodes
    its block right from its view of every message x, with y = x G: each
    index's wanted row lies in an odd number of its codes' columns
    (``_plan_geometry``), so it survives the XOR, and every side row lies
    outside the receiver's window (``_unknown_side_row``), so it is known;
    every other row cancels.  ``sim.run``'s view check guards both checks
    and the kernel at one random bit per lane, and
    ``test_plan_reads_only_known_rows_on_the_grid`` checks every receiver
    of the acceptance grid."""
    matrix = encoding_matrix(problem, a, b)
    unknown = matrix.derived(_unknown_side_row, problem)
    if unknown is not None:
        k, r = unknown
        raise PlanError(
            f"plan for t={k // b}, j={k % b + 1} uses row {r} from block {r // b}, "
            f"which receiver {k // b} does not know"
        )
    return DecodePlan(problem=problem, a=a, b=b, m=matrix.m, n=matrix.n, geometry=matrix.derived(_plan_geometry))


def format_plan(plan, symbols=None):
    """One text line per (t, j) of ``symbols``, every symbol by default:
    't j CASE II codes 0,13 side (0,1);(2,4);(5,2)'.  Raises ValueError
    for a symbol that the plan does not hold."""
    entries = plan.entries.values() if symbols is None else [plan.entry(t, j) for t, j in symbols]
    lines = []
    for e in entries:
        codes = ",".join(str(c) for c in e.codes)
        side = ";".join("(%d,%d)" % _label(r, plan.b) for r in e.side) or "-"
        lines.append(f"{e.t} {e.j} CASE {e.case} codes {codes} side {side}")
    return lines


def verify_lemma1(matrix, problem, p=2):
    """Decodability check: for every receiver, the wanted block's rows add
    rank b on top of the interference rows of its window, over GF(p)."""
    return not rank_deficits(matrix, problem, p).any()


def all_windows_full_rank(matrix, p=2):
    """Whether every window of n cyclically adjacent rows of ``matrix`` is
    nonsingular over GF(p); raises ValueError unless p is a prime in
    [2, 251].

    This is Lemma 1 at (K, D, U, b) = (m, n - 1, 0, 1): receiver t wants
    row t and is interfered by the n - 1 rows after it.  A singular window
    has a dependency among its rows; the first row with a non-zero
    coefficient then lies in the span of the at most n - 1 rows after it,
    so its receiver fails.  Conversely a receiver that fails has a singular
    window starting at its row.
    """
    return verify_lemma1(matrix, SniProblem(matrix.m, matrix.n - 1, 0), p)


# Bytes of the int16 elimination stack of one receiver group, and of each
# intp temporary of one slice of a group in the oracle decode.
_GROUP_BYTES = 1 << 19


def _leading(mask, count):
    """Per row of the bool array ``mask``, the places of its True entries,
    then of its False ones, each ascending: the first ``count`` of them.
    Sorted in slices of rows whose ``intp`` sort holds at most
    ``_GROUP_BYTES``."""
    step = max(1, _GROUP_BYTES // (8 * mask.shape[1]))
    if len(mask) <= step:
        return np.argsort(~mask, axis=1, kind="stable")[:, :count]
    out = np.empty((len(mask), count), dtype=np.intp)
    for i in range(0, len(mask), step):
        out[i : i + step] = _leading(mask[i : i + step], count)
    return out


def _ring_counts(keys, problem, n):
    """(blk, ring) for some of a generator's ones, given as ``keys`` =
    block * n + column: ``blk``, K x n, counts them per block and column,
    and ``ring[t + U + D + 1] - ring[t]`` sums ``blk`` over the blocks t - U
    .. t + D around the ring, receiver t's window.  Both ``int32``, which
    holds every count (at most m) at half the memory of ``intp``."""
    K, U, D = problem.K, problem.U, problem.D
    blk = np.bincount(keys, minlength=K * n).astype(np.int32).reshape(K, n)
    ring = np.zeros((K + U + D + 1, n), dtype=np.int32)
    blk.take(np.arange(-U, K + D), axis=0, mode="wrap", out=ring[1:])
    np.cumsum(ring, axis=0, out=ring)
    return blk, ring


@lru_cache(maxsize=2)
def _window_stacks(matrix, problem):
    """Every receiver's window system ``[A_I | 0 ; A_W | I_b]`` (interference
    rows, then wanted rows augmented with I_b), in receiver groups whose
    int16 elimination stack holds at most ``_GROUP_BYTES``.  Independent of
    the field.

    Weight-1 interference rows are pivots of their own columns: only the
    other (dense) rows enter the system, on the columns that they touch
    outside those pivots.  The per-block counts that find those rows and
    columns are bincounts over the generator's ones, K x n for the weight-1
    rows and then for the others, and each system is gathered from the
    rows' patterns.  Returns one
    read-only ``(ts, cols, C, stack)`` per group: its receivers, the
    generator column of each of their ``C`` unknowns, and the uint8 stack
    of their systems.
    """
    K, U, D = problem.K, problem.U, problem.D
    if matrix.m % K:
        raise ValueError(f"m={matrix.m} is not a multiple of K={K}")
    m, n, b = matrix.m, matrix.n, matrix.m // K
    # per receiver and column: whether its own block's weight-1 rows have a
    # one there, whether those of its interference blocks (t - U .. t + D
    # but t) have, and whether its window's other rows have.  One half of
    # the ones at a time, so that one K x n count and its ring are alive at
    # once
    pattern, table = matrix.row_patterns
    unit = pattern < n
    col, row = np.divmod(matrix.csc_keys, m)
    at, on_unit = row // b * n + col, unit[row]
    blk, ring = _ring_counts(at[on_unit], problem, n)
    own = blk > 0
    blk += ring[:K]  # the interference blocks have a one where the window's sum exceeds this
    pivoted = ring[U + D + 1 :] > blk
    del blk, ring
    blk, ring = _ring_counts(at[~on_unit], problem, n)
    touched = ((ring[U + D + 1 :] > ring[:K]) | own) & ~pivoted
    width = touched.sum(axis=1)
    del blk, ring, own, pivoted
    # window rows, wanted block U blocks in; the wanted block and the
    # dense interference rows enter the system
    first, span = _window(problem, b, np.arange(K))
    wanted = np.arange(span) // b == U
    # lacks[t * b + j]: row first[t] + j (mod m) is no weight-1 row
    lacks = np.take(~unit, np.arange(-U * b, (K + D + 1) * b), mode="wrap")
    dense = wanted | np.lib.stride_tricks.as_strided(lacks, (K, span), (b * lacks.itemsize, lacks.itemsize))
    count = dense.sum(axis=1)
    groups = []
    # groups of receivers with similar dense row counts, each as large as fits
    by = np.argsort(-count, kind="stable")
    while by.size:
        R, Cs = count[by[0]], np.maximum.accumulate(width[by])
        size = max(1, np.searchsorted(np.arange(1, by.size + 1) * R * (Cs + b) * 2, _GROUP_BYTES, "right"))
        ts, by, C = by[:size], by[size:], Cs[size - 1]
        order = _leading(dense[ts], R)
        sel, keep = (first[ts, None] + order) % m, dense[ts[:, None], order]
        cols = _leading(touched[ts], C)
        live = touched[ts[:, None], cols]
        # padding rows and padding columns are all zero; one flat take
        # gathers the entries at half the cost of a two-index gather
        A = table.ravel().take(pattern[sel][:, :, None] * n + cols[:, None, :]) * (keep[:, :, None] & live[:, None, :])
        aug = (wanted[order] & keep)[:, :, None] & (sel[:, :, None] % b == np.arange(b))
        groups.append((ts, cols, int(C), np.concatenate([A, aug], axis=2)))
    freeze(groups)
    return tuple(groups)


@lru_cache(maxsize=4)
def _window_solve(matrix, problem, p):
    """Reduce every receiver's window system (``_window_stacks``) over GF(p).

    Returns read-only ``(groups, deficit)``, one ``(ts, cols, T)`` per group
    of ``_window_stacks``: ``T[g]``, (C, b), is receiver ``ts[g]``'s
    combining matrix T_t on the generator columns ``cols[g]``, zero on the
    others (A_I T_t = 0 and A_W T_t = I_b when t decodes); ``deficit[t]`` is
    t's number of pivots in the augmented columns, b minus the rank that its
    wanted block adds.  Its callers check p first: 2.0 hashes as 2, so a
    check here would not run on a cache hit.
    """
    b = matrix.m // problem.K
    groups, deficit = [], np.zeros(problem.K, dtype=np.intp)
    for ts, cols, C, stack in _window_stacks(matrix, problem):
        red, piv = gf.rref_stack(stack, p)
        deficit[ts] = (piv >= C).sum(axis=1)
        g, i = np.nonzero((piv >= 0) & (piv < C))
        T = np.zeros((ts.size, C, b), dtype=np.int16)
        T[g, piv[g, i]] = red[g, i, C:]
        groups.append((ts, cols, T))
    freeze((groups, deficit))
    return tuple(groups), deficit


def rank_deficits(matrix, problem, p=2):
    """Per receiver, b minus the rank that its wanted block adds on top of
    the interference rows of its window, over GF(p); 0 where it decodes."""
    check_field(p)
    return _window_solve(matrix, problem, p)[1]


class OracleDecoder:
    """Reference decoder for every receiver over GF(p).

    One batched solve (``_window_solve``) gives each receiver t a combining
    matrix T_t with A_I T_t = 0 and A_W T_t = I_b.  Receiver t decodes its
    block as (y - x_t @ G) @ T_t, where x_t is x with the rows of its window
    W, those that it does not know, zeroed: x_t @ G = x @ G - x_W @ G_W,
    both read off one running sum of x over the generator's CSC.  The
    oracle reads generator rows and windows only, never the chain geometry
    or the encoder.
    """

    def __init__(self, matrix, problem, p=2):
        check_field(p)
        self._groups, deficit = _window_solve(matrix, problem, p)
        if deficit.any():
            t = np.flatnonzero(deficit)[0]
            raise NotDecodable(f"receiver {t} cannot isolate its block over GF({p}) (rank deficit {deficit[t]})")
        self.matrix, self.problem, self.p = matrix, problem, p

    def decode(self, y, x):
        """Every message symbol, shaped like ``x``, from the coded symbols
        ``y`` and the message ``x``; batched when y is (trials, n) and x is
        (trials, m); O(trials * (nnz(G) + C * b per receiver)).  Raises
        ValueError unless both hold GF(p) symbols."""
        matrix, problem, p = self.matrix, self.problem, self.p
        x, y = np.asarray(x), np.asarray(y)
        _check_symbols(p, x, matrix.m, y, matrix.n)
        xs = x.reshape(-1, matrix.m).T  # trials last, throughout
        indptr, rows = matrix.csc
        # run[i]: the sum of x over the first i CSC rows, below nnz * (p - 1);
        # every sum and difference below stays within that bound
        acc = np.int32 if rows.size * (p - 1) < 1 << 31 else np.int64
        run = np.zeros((rows.size + 1, xs.shape[1]), dtype=acc)
        run[1:] = xs.take(rows, axis=0)
        np.add.accumulate(run[1:], axis=0, out=run[1:])
        z = y.reshape(-1, matrix.n).T - (run.take(indptr[1:], axis=0) - run.take(indptr[:-1], axis=0))  # y - x @ G
        trials = xs.shape[1]
        out = np.empty((problem.K, matrix.m // problem.K, trials), dtype=np.uint8)
        for ts, cols, T in self._groups:
            # slices of the group whose (receivers, C, trials) temporaries
            # hold at most _GROUP_BYTES each
            step = max(1, _GROUP_BYTES // max(1, 8 * cols.shape[1] * trials))
            for i in range(0, ts.size, step):
                s = slice(i, i + step)
                # y - x_t @ G on the slice's columns: y - x @ G + x_W @ G_W
                v = z.take(cols[s], axis=0) + _lacked_sum(matrix, problem, run, ts[s, None], cols[s])
                # float64 products are exact: every sum stays below 2^53
                v = T[s].transpose(0, 2, 1).astype(np.float64) @ v.astype(np.float64)
                out[ts[s]] = v.astype(np.intp) % p
        return out.reshape(matrix.m, -1).T.reshape(x.shape)


def predicted_side_counts(matrix, plan):
    """Side-term counts derived from column supports alone.

    With N_c the support size of column c, a plan entry XORing the r
    columns (c1, ..., cr) has sum(N_ci) - (2r - 1) side terms: the wanted
    row is no side term, and every column past the first cancels exactly
    two rows of the running XOR.
    """
    g = plan.geometry
    weight = np.diff(matrix.csc[0])
    total = weight[g.code]
    total[g.multi] = np.add.reduceat(weight[g.multi_codes], g.multi_starts[:-1])
    counts = total - (2 * g.counts()[0] - 1)
    return {_label(k, plan.b): c for k, c in enumerate(counts.tolist())}
