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
  word.  Each column gives one term shared by its symbols,
  its coded symbol XORed with its whole support, and a symbol with one
  code is that term XORed with its own row.  ``decode_plan`` checks that
  every receiver knows the side rows its plan reads, once per problem, and
  holds the answer on the generator too.
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
from .air import build_air, concat_ranges, freeze, partitions
from .distances import tau_profile
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
    """Raise ValueError unless p is a prime with 2 <= p <= 251, so that
    GF(p) arithmetic is integer arithmetic mod p and every symbol fits the
    uint8 outputs."""
    if not (2 <= p <= 251 and all(p % d for d in range(2, math.isqrt(p) + 1))):
        raise ValueError(f"p={p} is not a prime in [2, 251]")


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


def _encode_words(matrix, xw):
    """y = x @ G over GF(2) on the (m, words) words of x: each coded
    symbol XORs its column's CSC rows, 64 trials to a word."""
    indptr, rows = matrix.csc
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
        return _unpack(_encode_words(matrix, _pack(x)), x.shape[:-1] + (matrix.n,))
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

    An index k with one code (cases I and IV, all but fewer than n of
    them) XORs its code c = ``code[k]`` with the rest of that column's
    support: ``rows[indptr[c]:indptr[c + 1]]`` of the generator's CSC but
    the row at ``pos[k]``, which is row k.  Every column shares one term,
    its coded symbol XORed with its whole support, so index k is that term
    XORed with its own row.  The i-th index ``multi[i]`` with several codes
    (cases II and III) XORs ``z[multi_terms[multi_starts[i]:multi_starts[i
    + 1]]]`` for ``z = concat(x, y)``: its side rows, ascending, then its
    codes offset by m; its ``code`` is its first code and its ``pos`` is 0,
    neither read.  Index k XORs ``num_codes[k]`` codes and ``num_side[k]``
    side rows.  Every array is O(m + n) long and read-only, and ``indptr``
    and ``rows`` are the generator's own ``AirMatrix.csc``; ``recipe``
    reads one index's codes and side rows from them.
    """

    cases: np.ndarray         # uint8 index into CASES per codeword index
    num_codes: np.ndarray     # per codeword index
    num_side: np.ndarray      # per codeword index
    code: np.ndarray          # per codeword index: its (first) code
    pos: np.ndarray           # per one-code index: its row's place in rows
    indptr: np.ndarray        # the generator's CSC, AirMatrix.csc itself
    rows: np.ndarray
    multi: np.ndarray         # the indices with several codes, ascending
    multi_terms: np.ndarray   # int32, their terms back to back
    multi_starts: np.ndarray  # len(multi) + 1 segment starts in multi_terms

    def recipe(self, k):
        """(codes, side) of codeword index k, tuples of ints: the codes
        that it XORs and its side rows, ascending."""
        m = self.cases.size
        if self.num_codes[k] > 1:
            i = bisect_left(self.multi, k)
            seg = self.multi_terms[self.multi_starts[i] : self.multi_starts[i + 1]].tolist()
            split = int(self.num_side[k])
            return tuple(c - m for c in seg[split:]), tuple(seg[:split])
        c = int(self.code[k])
        lo = self.indptr[c]
        side = self.rows[lo : self.indptr[c + 1]].tolist()
        del side[self.pos[k] - lo]
        return (c,), tuple(side)


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
        """
        x, y = np.asarray(x), np.asarray(y)
        _check_symbols(2, x, self.m, y, self.n)
        return _unpack(self.decode_words(_pack(x), _pack(y)), x.shape)

    def decode_words(self, xw, yw):
        """Every message symbol over GF(2) as (m, words) uint64 words, from
        the words of the message, ``xw`` (m, words), and of the coded
        symbols, ``yw`` (n, words), as ``_pack`` lays them out: one XOR of
        two words adds 64 trials.  One running XOR over the generator's CSC
        rows gives each column one term, its coded symbol XORed with its
        whole support; every single-code symbol is its column's term XORed
        with its own row, read at its place ``pos`` in the running XOR.
        The indices with several codes XOR their explicit terms.  Every
        gather is a ``take`` of whole rows.  O(words * (m + nnz)) for nnz
        ones in the generator.  Zero padding bits decode to zero padding
        bits.
        """
        g = self.geometry
        # run[i]: XOR of the first i gathered CSC rows
        run = np.zeros((g.rows.size + 1, xw.shape[1]), dtype=np.uint64)
        np.bitwise_xor.accumulate(xw.take(g.rows, axis=0), axis=0, out=run[1:])
        # per column: its coded symbol XORed with its whole support
        term = run.take(g.indptr[1:], axis=0)
        term ^= run.take(g.indptr[:-1], axis=0)
        term ^= yw
        # per index: its column's term XORed with its own row; the indices
        # with several codes are overwritten below
        out = run.take(g.pos, axis=0)
        out ^= run[1:].take(g.pos, axis=0)
        out ^= term.take(g.code, axis=0)
        if g.multi.size:
            zw = np.concatenate([xw, yw])
            out[g.multi] = np.bitwise_xor.reduceat(zw.take(g.multi_terms, axis=0), g.multi_starts[:-1], axis=0)
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
    parts = chain.derived(partitions)
    lam0, last = chain.lam(0), (chain.l + 1) // 2
    cases = np.zeros(chain.m, dtype=np.uint8)
    step = np.zeros(chain.m, dtype=np.intp)  # second code minus k'
    for i, (middle, boundary) in enumerate(zip(parts.middle, parts.boundary)):
        cases[middle.start : middle.stop] = 1
        step[middle.start : middle.stop] = chain.lam(2 * i)
        cases[boundary.start : boundary.stop] = 2 if i < last else 3
    multi = np.flatnonzero((cases == 1) | (cases == 2))
    three = cases[multi] == 2
    prof = tau_profile(matrix, multi[three] - lam0)
    step[multi[three]] = prof.mu
    count = np.full(multi.size, 2)
    count[three] += prof.p
    at = np.cumsum(count) - count
    codes = np.empty(count.sum(), dtype=np.intp)
    codes[at] = multi - lam0
    codes[at + 1] = multi - lam0 + step[multi]
    codes[concat_ranges(at[three] + 2, prof.p)] = np.repeat(multi[three] - lam0, prof.p) + prof.taus
    return cases, multi, codes, count


def _plan_geometry(matrix):
    """The compiled decode recipe for the generator ``matrix``, in O(m + n)
    arrays.

    Independent of the problem: the case dispatch and code choices depend
    only on the chain, and the side terms are the rows of odd multiplicity
    over the chosen columns' supports (the wanted row excluded), read from
    the generator's CSC.  An index with one code keeps its code and where
    its row sits in the CSC rows; the fewer than n indices with several
    codes are resolved together by one sort of (index, row) keys and keep
    their terms.
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
    missing = np.delete(multi, owner[wanted])
    side = np.bincount(owner[~wanted], minlength=multi.size)
    # one code: k mod n below lambda_0, k - lambda_0 from there on
    lam0 = m - n
    code = np.arange(m)
    code[:lam0] %= n
    code[lam0:] -= lam0
    num_codes = np.ones(m, dtype=np.intp)
    num_codes[multi] = count
    csc_keys = matrix.csc_keys
    want = code * m + np.arange(m)
    pos = np.searchsorted(csc_keys, want)
    found = csc_keys[np.minimum(pos, csc_keys.size - 1)] == want
    found[multi] = True
    pos[multi] = 0
    missing = np.concatenate([missing, np.flatnonzero(~found)])
    if missing.size:
        raise PlanError(f"codeword index {missing.min()}: wanted row absent from XOR")
    num_side = weight[code] - 1
    num_side[multi] = side
    multi_starts = np.zeros(multi.size + 1, dtype=np.intp)
    np.cumsum(side + count, out=multi_starts[1:])
    multi_terms = np.empty(multi_starts[-1], dtype=np.int32)
    multi_terms[concat_ranges(multi_starts[:-1], side)] = row[~wanted]
    multi_terms[concat_ranges(multi_starts[:-1] + side, count)] = m + codes
    return PlanGeometry(
        cases=cases, num_codes=num_codes, num_side=num_side, code=code, pos=pos,
        indptr=indptr, rows=rows, multi=multi, multi_terms=multi_terms, multi_starts=multi_starts,
    )


def _lacked_sum(matrix, problem, run, t, c):
    """Per receiver t and generator column c, broadcast together: the sum
    over the rows of column c that t lacks, for ``run[i]`` the running sum
    of a value per CSC row over the first i rows; the row count for ``run =
    arange(nnz + 1)``.

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

    An index with one code reads only known rows exactly when its column
    holds one row that its receiver lacks, row k itself; ``_lacked_sum``
    counts them in the column ``code[k]`` of each index of a chunk at once,
    chunk by chunk in index order, whose temporaries hold at most
    ``_GROUP_BYTES`` each.  The side rows of the indices with several codes
    are checked one by one.
    """
    m, b = matrix.m, matrix.m // problem.K
    g = matrix.derived(_plan_geometry)
    found = []
    count, step = np.arange(g.rows.size + 1), max(1, _GROUP_BYTES // 8)
    for start in range(0, m, step):
        ks, t = slice(start, start + step), np.arange(start, min(start + step, m)) // b
        bad = np.flatnonzero((_lacked_sum(matrix, problem, count, t, g.code[ks]) > 1) & (g.num_codes[ks] == 1))
        if bad.size:
            k0 = start + int(bad[0])
            col = matrix.column_support(g.code[k0])
            first, size = _window(problem, b, k0 // b)
            col = col[(col != k0) & ((col - first) % m < size)]
            found.append((k0, int(col[0])))
            break
    owner = np.repeat(g.multi, np.diff(g.multi_starts))
    first, size = _window(problem, b, owner // b)
    bad = np.flatnonzero((g.multi_terms < m) & ((g.multi_terms - first) % m < size))
    if bad.size:
        found.append((int(owner[bad[0]]), int(g.multi_terms[bad[0]])))
    return min(found, default=None)


def decode_plan(problem, a, b):
    """The compiled decode plan for (problem, a, b), validated: every side
    row it reads is side information of its receiver."""
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


@lru_cache(maxsize=2)
def _window_stacks(matrix, problem):
    """Every receiver's window system ``[A_I | 0 ; A_W | I_b]`` (interference
    rows, then wanted rows augmented with I_b), in receiver groups whose
    int16 elimination stack holds at most ``_GROUP_BYTES``.  Independent of
    the field.

    Weight-1 interference rows are pivots of their own columns: only the
    other (dense) rows enter the system, on the columns that they touch
    outside those pivots.  The per-block counts that find those rows and
    columns are one bincount over the generator's ones, K x 2n, and each
    system is gathered from the rows' patterns.  Returns one
    read-only ``(ts, cols, C, stack)`` per group: its receivers, the
    generator column of each of their ``C`` unknowns, and the uint8 stack
    of their systems.
    """
    K, U, D = problem.K, problem.U, problem.D
    if matrix.m % K:
        raise ValueError(f"m={matrix.m} is not a multiple of K={K}")
    m, n, b = matrix.m, matrix.n, matrix.m // K
    # per block: the columns of its weight-1 rows and those of its other
    # rows, one bincount over the ones, then summed over every receiver's
    # interference blocks (t - U .. t + D but t) through a cumulative sum
    # around the ring; int32 holds every count (at most m) at half the peak
    # memory of intp
    pattern, table = matrix.row_patterns
    keys, unit = matrix.csc_keys, pattern < n
    row = keys % m
    blk = np.bincount(row // b * 2 * n + keys // m + n * ~unit[row], minlength=K * 2 * n)
    blk = blk.astype(np.int32).reshape(K, 2 * n)
    del row
    ring = np.zeros((K + U + D + 1, 2 * n), dtype=np.int32)
    np.cumsum(blk.take(np.arange(-U, K + D), axis=0, mode="wrap"), axis=0, out=ring[1:])
    inter = ring[U + D + 1 :] - ring[:K]
    del ring
    inter -= blk
    touched = (inter[:, n:] + blk[:, :n] + blk[:, n:] > 0) & (inter[:, :n] == 0)
    width = touched.sum(axis=1)
    del blk, inter
    # window rows, wanted block U blocks in; the wanted block and the
    # dense interference rows enter the system
    first, span = _window(problem, b, np.arange(K))
    rows = (first[:, None] + np.arange(span)) % m
    wanted = np.arange(span) // b == U
    dense = wanted | ~unit[rows]
    count = dense.sum(axis=1)
    groups = []
    # groups of receivers with similar dense row counts, each as large as fits
    by = np.argsort(-count, kind="stable")
    while by.size:
        R, Cs = count[by[0]], np.maximum.accumulate(width[by])
        size = max(1, np.searchsorted(np.arange(1, by.size + 1) * R * (Cs + b) * 2, _GROUP_BYTES, "right"))
        ts, by, C = by[:size], by[size:], Cs[size - 1]
        order = np.argsort(~dense[ts], axis=1, kind="stable")[:, :R]
        sel, keep = rows[ts[:, None], order], dense[ts[:, None], order]
        cols = np.argsort(~touched[ts], axis=1, kind="stable")[:, :C]
        live = touched[ts[:, None], cols]
        # padding rows and padding columns are all zero
        A = table[pattern[sel][:, :, None], cols[:, None, :]] * (keep[:, :, None] & live[:, None, :])
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
    wanted block adds.
    """
    check_field(p)
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
    g, m = plan.geometry, plan.m
    # weights over z = concat(x, y): 0 for a side row, N_c for code c
    weight = np.concatenate([np.zeros(m, dtype=np.intp), np.diff(matrix.csc[0])])
    total = weight[m + g.code]
    if g.multi.size:
        total[g.multi] = np.add.reduceat(weight[g.multi_terms], g.multi_starts[:-1])
    counts = total - (2 * g.num_codes - 1)
    return {_label(k, plan.b): c for k, c in enumerate(counts.tolist())}
