"""Encoding, decoding plans, and decodability verification.

The encoder sums each column's support of an AIR generator, read from its
CSC (``AirMatrix.csc``).  Two decoders are provided:

* a plan decoder — each receiver symbol is recovered as an XOR of a small,
  precomputed set of coded symbols plus known side-information symbols; the
  plan is derived from the chain geometry of the generator and is what makes
  the scheme low-complexity.  Plans execute over GF(2): a plan is compiled
  once per generator shape (m, n) to O(m + n) arrays, and the decoder XORs
  64 trials at a time, packed into machine words.  A codeword index k with
  one code c (all but fewer than n of them) XORs y_c with the rest of
  column c's support, so its plan is c and the place of row k in the CSC;
  the decoder gets every such symbol from one running XOR over the CSC
  rows, as the exclusive prefix and suffix XORs of row k within column c,
  in O(trials * (m + nnz(G))).  The indices with several codes are
  resolved by one sort of (index, row) keys and keep explicit terms.  The
  per-symbol listings read one index at a time from these arrays, so no
  form of the plan holds the terms of every index, about m^2 / n of them.
  ``decode_plan`` checks that every receiver knows the side rows its plan
  reads: receiver t lacks one cyclic interval of rows, so a single-code
  index passes when its column holds one row in that interval, its own,
  which a binary search of the CSC counts.
* an oracle decoder — solves for every receiver's combining matrix T with
  A_W @ T = E over its window of unknown blocks in one batched elimination,
  then decodes as (y - x_t @ G) @ T, x_t being x with the rows that the
  receiver does not know zeroed.  Works over any small prime field and
  serves as the correctness reference for the plan decoder.

Both decoders take the full message array ``x``; what they return for a
receiver depends only on the rows that it knows as side information.

`verify_lemma1` checks the decodability condition itself: every receiver's
wanted block must add full rank on top of its interference rows, read from
the oracle decoder's batched solve.  The window systems of that solve are
assembled once per (generator, problem) and reduced once per field; both
results are cached and read-only, so Lemma 1 and the oracle decoder over
the same field share one solve.  Both read the generator's rows as row
patterns (``AirMatrix.row_patterns``), indices into a table of fewer than
2n distinct rows, so no path here builds its dense m x n array.
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
from .air import build_air, concat_ranges, partitions
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


def _require_member(problem, a, b):
    if not in_S(problem, a, b):
        raise NotAchievablePair(
            f"(a={a}, b={b}) not achievable for K={problem.K}, D={problem.D}, "
            f"U={problem.U}: {membership(problem, a, b)}"
        )


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


def _known(problem, t, blocks):
    """Whether block(s) ``blocks`` are side information of receiver t: the
    cyclic offset of the block from t lies outside [-U, D]."""
    return (blocks - t + problem.U) % problem.K > problem.U + problem.D


def encoding_matrix(problem, a, b):
    """The AIR generator for pair (a, b); raises NotAchievablePair."""
    _require_member(problem, a, b)
    return build_air(problem.K * b, b * (problem.D + 1) + a)


def encode(matrix, x, p=2):
    """y = x @ G mod p.  ``x`` may be a vector or a (trials, m) batch of
    integer symbols in [0, p); raises ValueError otherwise.  Each coded
    symbol sums its column's support, read from the generator's CSC: one
    gather and one segmented sum, O(trials * nnz)."""
    check_field(p)
    x = np.asarray(x)
    _check_symbols(p, x, matrix.m)
    indptr, rows = matrix.csc
    y = np.add.reduceat(x.take(rows, axis=-1), indptr[:-1], axis=-1, dtype=np.intp)
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

    The i-th index k = ``single[i]`` with one code (cases I and IV, all but
    fewer than n of them) XORs its code c = ``code[i]`` with the rest of
    that column's support: ``rows[indptr[c]:indptr[c + 1]]`` of the
    generator's CSC but the row at ``pos[i]``, which is row k.  The i-th
    index ``multi[i]`` with several codes (cases II and III) XORs
    ``z[multi_terms[multi_starts[i]:multi_starts[i + 1]]]`` for ``z =
    concat(x, y)``: its side rows, ascending, then its codes offset by m.
    Index k XORs ``num_codes[k]`` codes and ``num_side[k]`` side rows.
    Every array is O(m + n) long and read-only; ``recipe`` reads one
    index's codes and side rows from them.
    """

    cases: np.ndarray         # uint8 index into CASES per codeword index
    num_codes: np.ndarray     # per codeword index
    num_side: np.ndarray      # per codeword index
    single: np.ndarray        # the indices with one code, ascending
    code: np.ndarray          # their codes
    pos: np.ndarray           # their rows' places in rows
    indptr: np.ndarray        # the generator's CSC, as AirMatrix.csc
    rows: np.ndarray
    keys: np.ndarray          # its ones as AirMatrix.csc_keys
    multi: np.ndarray         # the indices with several codes, ascending
    multi_terms: np.ndarray   # int32, their terms back to back
    multi_starts: np.ndarray  # len(multi) + 1 segment starts in multi_terms

    def recipe(self, k):
        """(codes, side) of codeword index k, tuples of ints: the codes
        that it XORs and its side rows, ascending."""
        m = self.cases.size
        i = bisect_left(self.multi, k)
        if self.num_codes[k] > 1:
            seg = self.multi_terms[self.multi_starts[i] : self.multi_starts[i + 1]].tolist()
            split = int(self.num_side[k])
            return tuple(c - m for c in seg[split:]), tuple(seg[:split])
        i = k - i
        c = int(self.code[i])
        lo = self.indptr[c]
        side = self.rows[lo : self.indptr[c + 1]].tolist()
        del side[self.pos[i] - lo]
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
        Trials are bit-sliced: each symbol's trials are packed into uint64
        words, so one XOR of two words adds 64 trials.  One running XOR over
        the generator's CSC rows gives every single-code symbol as the
        exclusive prefix XOR and the exclusive suffix XOR of row k within
        its column's segment, XORed with the column's code; the indices
        with several codes XOR their explicit terms.  O(trials * (m + nnz))
        for nnz ones in the generator.  Raises ValueError unless x and y
        hold GF(2) symbols, m and n per trial.
        """
        x, y = np.asarray(x), np.asarray(y)
        _check_symbols(2, x, self.m, y, self.n)
        z = np.concatenate([x, y], axis=-1).reshape(-1, self.m + self.n)
        trials = z.shape[0]
        words = -(-trials // 64)
        bits = np.zeros((z.shape[1], 64 * words), dtype=np.uint8)
        bits[:, :trials] = z.T
        # zw[s, w]: trials 64w .. 64w + 63 of symbol s, one per bit
        zw = np.packbits(bits, bitorder="little").view(np.uint64).reshape(z.shape[1], words)
        g = self.geometry
        # run[i]: XOR of the first i gathered CSC rows
        run = np.zeros((g.rows.size + 1, words), dtype=np.uint64)
        np.bitwise_xor.accumulate(zw[g.rows], axis=0, out=run[1:])
        c, at = g.code, g.pos
        prefix = run[at] ^ run[g.indptr[c]]
        suffix = run[g.indptr[c + 1]] ^ run[at + 1]
        out = np.empty((self.m, words), dtype=np.uint64)
        out[g.single] = prefix ^ suffix ^ zw[self.m + c]
        if g.multi.size:
            out[g.multi] = np.bitwise_xor.reduceat(zw[g.multi_terms], g.multi_starts[:-1], axis=0)
        bits = np.unpackbits(out.view(np.uint8), bitorder="little").reshape(self.m, 64 * words)[:, :trials]
        return np.ascontiguousarray(bits.T).reshape(x.shape)


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
    parts = partitions(chain)
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


@lru_cache(maxsize=1024)
def _plan_geometry(m, n):
    """The compiled decode recipe for the m x n generator, in O(m + n)
    arrays.

    Independent of the problem: the case dispatch and code choices depend
    only on the chain, and the side terms are the rows of odd multiplicity
    over the chosen columns' supports (the wanted row excluded), read from
    the generator's CSC.  An index with one code keeps only where its row
    sits in its column's support; the fewer than n indices with several
    codes are resolved together by one sort of (index, row) keys and keep
    their terms.
    """
    matrix = build_air(m, n)
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
    single = np.flatnonzero(num_codes == 1)
    csc_keys = matrix.csc_keys
    want = code[single] * m + single
    pos = np.searchsorted(csc_keys, want)
    found = csc_keys[np.minimum(pos, csc_keys.size - 1)] == want
    missing = np.concatenate([missing, single[~found]])
    if missing.size:
        raise PlanError(f"codeword index {missing.min()}: wanted row absent from XOR")
    num_side = weight[code] - 1
    num_side[multi] = side
    multi_starts = np.zeros(multi.size + 1, dtype=np.intp)
    np.cumsum(side + count, out=multi_starts[1:])
    multi_terms = np.empty(multi_starts[-1], dtype=np.int32)
    multi_terms[concat_ranges(multi_starts[:-1], side)] = row[~wanted]
    multi_terms[concat_ranges(multi_starts[:-1] + side, count)] = m + codes
    geometry = PlanGeometry(
        cases=cases, num_codes=num_codes, num_side=num_side, single=single, code=code[single], pos=pos,
        indptr=indptr, rows=rows, keys=csc_keys, multi=multi, multi_terms=multi_terms, multi_starts=multi_starts,
    )
    for arr in vars(geometry).values():
        arr.flags.writeable = False
    return geometry


@lru_cache(maxsize=1024)
def _unknown_side_row(problem, n, b):
    """The first (k, row), in index order with side rows ascending, of a
    side row of codeword index k that its receiver k // b does not know;
    None when it knows them all.

    Receiver t lacks the rows of one cyclic interval, [(t - U)b, (t + D +
    1)b) mod m, which holds row k itself.  So an index with one code reads
    only known rows exactly when its column holds one row in that interval;
    two ``searchsorted`` calls on the CSC keys count them for every such
    index at once.  The side rows of the indices with several codes are
    checked one by one.
    """
    m = problem.K * b
    g = _plan_geometry(m, n)
    keys, k, c = g.keys, g.single, g.code
    lo = (k // b - problem.U) % problem.K * b
    hi = lo + (problem.U + problem.D + 1) * b
    wrap = hi > m
    inside = np.searchsorted(keys, c * m + hi - wrap * m) - np.searchsorted(keys, c * m + lo)
    inside += wrap * np.diff(g.indptr)[c]
    found = []
    bad = np.flatnonzero(inside > 1)
    if bad.size:
        k0, c0 = int(k[bad[0]]), c[bad[0]]
        col = g.rows[g.indptr[c0] : g.indptr[c0 + 1]]
        col = col[(col != k0) & ~_known(problem, k0 // b, col // b)]
        found.append((k0, int(col[0])))
    owner = np.repeat(g.multi, np.diff(g.multi_starts))
    bad = np.flatnonzero((g.multi_terms < m) & ~_known(problem, owner // b, g.multi_terms // b))
    if bad.size:
        found.append((int(owner[bad[0]]), int(g.multi_terms[bad[0]])))
    return min(found, default=None)


def decode_plan(problem, a, b):
    """The compiled decode plan for (problem, a, b), validated: every side
    row it reads is side information of its receiver."""
    _require_member(problem, a, b)
    m = problem.K * b
    n = b * (problem.D + 1) + a
    unknown = _unknown_side_row(problem, n, b)
    if unknown is not None:
        k, r = unknown
        raise PlanError(
            f"plan for t={k // b}, j={k % b + 1} uses row {r} from block {r // b}, "
            f"which receiver {k // b} does not know"
        )
    return DecodePlan(problem=problem, a=a, b=b, m=m, n=n, geometry=_plan_geometry(m, n))


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


# Bytes of the largest array of one receiver group: the int16 elimination
# stack (2 bytes a cell) or the float64 decode map (8 bytes a cell).
_GROUP_BYTES = 1 << 19


def _readonly(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


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
    keys, unit = matrix.csc_keys, matrix.unit_columns >= 0
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
    # each weight-1 interference row counts once in inter[:, :n]; the
    # others and the wanted block enter the system
    width, count = touched.sum(axis=1), (U + D + 1) * b - inter[:, :n].sum(axis=1)
    del blk, inter
    # window rows, wanted block at U; the dense ones enter the system
    rows = (np.arange(K)[:, None] * b + np.arange(-U * b, (D + 1) * b)) % m
    wanted = np.arange(rows.shape[1]) // b == U
    dense = wanted | ~unit[rows]
    pattern, table = matrix.row_patterns
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
        ts, cols, stack = _readonly(ts, cols, np.concatenate([A, aug], axis=2))
        groups.append((ts, cols, int(C), stack))
    return tuple(groups)


@lru_cache(maxsize=4)
def _window_solve(matrix, problem, p):
    """Reduce every receiver's window system (``_window_stacks``) over GF(p).

    Returns read-only ``(T, deficit)``: ``T[:, t*b:(t+1)*b]`` is receiver
    t's combining matrix (A_I T_t = 0 and A_W T_t = I_b when t decodes) and
    ``deficit[t]`` its number of pivots in the augmented columns, which is
    b minus the rank that its wanted block adds.
    """
    check_field(p)
    b = matrix.m // problem.K
    T, deficit = np.zeros((matrix.n, matrix.m), dtype=np.int16), np.zeros(problem.K, dtype=np.intp)
    for ts, cols, C, stack in _window_stacks(matrix, problem):
        red, piv = gf.rref_stack(stack, p)
        deficit[ts] = (piv >= C).sum(axis=1)
        g, i = np.nonzero((piv >= 0) & (piv < C))
        T[cols[g, piv[g, i]][:, None], ts[g][:, None] * b + np.arange(b)] = red[g, i, C:]
    return _readonly(T, deficit)


def rank_deficits(matrix, problem, p=2):
    """Per receiver, b minus the rank that its wanted block adds on top of
    the interference rows of its window, over GF(p); 0 where it decodes."""
    return _window_solve(matrix, problem, p)[1]


class OracleDecoder:
    """Reference decoder for every receiver over GF(p).

    One batched solve (``_window_solve``) gives each receiver t a combining
    matrix T_t with A_I T_t = 0 and A_W T_t = I_b.  Receiver t decodes its
    block as (y - x_t @ G) @ T_t, where x_t is x with the rows that t does
    not know (``_known``) zeroed.  The oracle reads generator rows and
    windows only, never the chain geometry.
    """

    def __init__(self, matrix, problem, p=2):
        self._T, deficit = _window_solve(matrix, problem, p)
        bad = np.flatnonzero(deficit)
        if bad.size:
            t = bad[0]
            raise NotDecodable(f"receiver {t} cannot isolate its block over GF({p}) (rank deficit {deficit[t]})")
        self.matrix, self.problem, self.p = matrix, problem, p

    def decode(self, y, x):
        """Every message symbol, shaped like ``x``, from the coded symbols
        ``y`` and the message ``x``; batched when y is (trials, n) and x is
        (trials, m).  Raises ValueError unless both hold GF(p) symbols."""
        matrix, K = self.matrix, self.problem.K
        b = matrix.m // K
        x, y = np.asarray(x), np.asarray(y)
        _check_symbols(self.p, x, matrix.m, y, matrix.n)
        xs = x.reshape(-1, matrix.m).astype(np.float64)
        ys = y.reshape(-1, matrix.n).astype(np.float64)
        out = np.empty(xs.shape, dtype=np.uint8)
        unit = matrix.unit_columns
        dense = np.flatnonzero(unit < 0)
        table = matrix.row_patterns[1]
        step = max(1, _GROUP_BYTES // (8 * matrix.m * b))
        for t0 in range(0, K, step):
            ts = np.arange(t0, min(K, t0 + step))
            cols = slice(t0 * b, (ts[-1] + 1) * b)
            T = self._T[:, cols].astype(np.float64)
            # x_t @ G @ T_t = x @ H for H = G @ T_t with the rows of blocks
            # that t does not know zeroed; a weight-1 row of G picks a row of
            # T, and the other rows of G are the pattern table's past n
            H = T[np.maximum(unit, 0)]
            H[dense] = table[matrix.n :] @ T
            H.reshape(K, b, ts.size, b)[...] *= _known(self.problem, ts, np.arange(K)[:, None])[:, None, :, None]
            out[:, cols] = np.mod(ys @ T - xs @ H, self.p)
        return out.reshape(x.shape)


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
    total = np.empty(m, dtype=np.intp)
    total[g.single] = weight[m + g.code]
    if g.multi.size:
        total[g.multi] = np.add.reduceat(weight[g.multi_terms], g.multi_starts[:-1])
    counts = total - (2 * g.num_codes - 1)
    return {_label(k, plan.b): c for k, c in enumerate(counts.tolist())}
