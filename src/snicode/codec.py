"""Encoding, decoding plans, and decodability verification.

The encoder is a plain vector-matrix product against an AIR generator.  Two
decoders are provided:

* a plan decoder — each receiver symbol is recovered as an XOR of a small,
  precomputed set of coded symbols plus known side-information symbols; the
  plan is derived from the chain geometry of the generator and is what makes
  the scheme low-complexity.  Plans execute over GF(2): a plan is compiled
  to flat arrays once per generator shape (m, n), and the decoder XORs 64
  trials at a time, packed into machine words.
* an oracle decoder — solves for a linear combining matrix T with
  A_W @ T = E over the receiver's window of unknown blocks, then decodes as
  (y - side @ S) @ T.  Works over any small prime field and serves as the
  correctness reference for the plan decoder.

Both decoders take the full message array ``x`` and read only the rows that
the decoding receiver knows as side information.

`verify_lemma1` checks the decodability condition itself: every receiver's
wanted block must add full rank on top of its interference rows.
"""
from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import gf
from .air import build_air, partitions
from .distances import down_distance, right_distance, tau_profile
from .rates import SniProblem, in_S

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
    "lemma1_failures",
    "complexity_stats",
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
        m = problem.K * b
        n = b * (problem.D + 1) + a
        raise NotAchievablePair(
            f"(a={a}, b={b}) not achievable for K={problem.K}, D={problem.D}, "
            f"U={problem.U}: gcd({m}, {n}) = {math.gcd(m, n)} < "
            f"b*(U+1) = {b * (problem.U + 1)}"
        )


def check_field(p):
    """Raise ValueError unless p is a prime with 2 <= p <= 251, so that
    GF(p) arithmetic is integer arithmetic mod p and every symbol fits the
    uint8 outputs."""
    if not (2 <= p <= 251 and all(p % d for d in range(2, math.isqrt(p) + 1))):
        raise ValueError(f"p={p} is not a prime in [2, 251]")


def _known(problem, t, blocks):
    """Whether block(s) ``blocks`` are side information of receiver t: the
    cyclic offset of the block from t lies outside [-U, D]."""
    return (blocks - t + problem.U) % problem.K > problem.U + problem.D


def _block_rows(blocks, b):
    """Message-row indices of the given blocks, in block order."""
    return (np.asarray(blocks, dtype=np.int64)[:, None] * b + np.arange(b)).ravel()


def encoding_matrix(problem, a, b):
    """The AIR generator for pair (a, b); raises NotAchievablePair."""
    _require_member(problem, a, b)
    return build_air(problem.K * b, b * (problem.D + 1) + a)


def encode(matrix, x, p=2):
    """y = x @ G mod p.  ``x`` may be a vector or a (trials, m) batch of
    symbols in [0, p)."""
    check_field(p)
    x = np.asarray(x)
    if x.size and (x.min() < 0 or x.max() >= p):
        raise ValueError(f"message symbols must lie in [0, {p})")
    y = x.astype(np.float64) @ matrix.bits.astype(np.float64)
    return np.mod(y, p).astype(np.uint8)


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
    cancelled: tuple  # message rows that appear an even number of times


CASES = ("I", "II", "III", "IV")

# Terms read per pass over a plan's term array: one XOR pass of
# DecodePlan.decode gathers this many uint64 words (256 KiB), which stays in
# cache, and no temporary spans the whole array.
_CHUNK_TERMS = 1 << 15


@dataclass(frozen=True, eq=False)
class PlanGeometry:
    """The decode recipe of every codeword index of an m x n generator.

    Codeword index k XORs ``z[terms[offsets[k]:offsets[k + 1]]]`` for
    ``z = concat(x, y)``: its side rows of x, ascending, then its
    ``num_codes[k]`` codes offset by m.  All arrays are read-only.
    """

    terms: np.ndarray      # int32
    offsets: np.ndarray    # m + 1 segment starts
    cases: np.ndarray      # uint8 index into CASES per codeword index
    num_codes: np.ndarray  # per codeword index
    cancelled: dict        # k -> rows that appear an even number of times, if any


@dataclass(frozen=True, eq=False)
class DecodePlan:
    problem: SniProblem
    a: int
    b: int
    m: int
    n: int
    geometry: PlanGeometry

    @cached_property
    def entries(self):
        """(t, j) -> PlanEntry, unpacked from the geometry on first use."""
        g, m = self.geometry, self.m
        out = {}
        for k, seg in enumerate(np.split(g.terms, g.offsets[1:-1])):
            seg = seg.tolist()
            split = len(seg) - int(g.num_codes[k])
            t, j = _label(k, self.b)
            out[(t, j)] = PlanEntry(
                t=t,
                j=j,
                case=CASES[g.cases[k]],
                codes=tuple(c - m for c in seg[split:]),
                side=tuple(seg[:split]),
                cancelled=g.cancelled.get(k, ()),
            )
        return out

    def entry(self, t, j):
        return self.entries[(t, j)]

    def labels(self):
        """(t, j) of every codeword index, in index order."""
        return itertools.product(range(self.problem.K), range(1, self.b + 1))

    def cases(self):
        """(t, j) -> case tag of every plan entry."""
        return dict(zip(self.labels(), map(CASES.__getitem__, self.geometry.cases.tolist())))

    def decode(self, y, x):
        """Every message symbol over GF(2), shaped like ``x``.

        ``y`` is the coded vector (or a (trials, n) batch) and ``x`` the
        message batch it encodes; receiver t reads only the rows of ``x``
        that its plan entries name, all of them its side information.
        Trials are bit-sliced: each symbol's trials are packed into uint64
        words, so one XOR of two words adds 64 trials.
        """
        x = np.asarray(x)
        z = np.concatenate([x, np.asarray(y)], axis=-1)
        z = z.reshape(-1, z.shape[-1])
        trials = z.shape[0]
        words = -(-trials // 64)
        packed = np.zeros((z.shape[1], 8 * words), dtype=np.uint8)
        packed[:, : -(-trials // 8)] = np.packbits(z.T, axis=1, bitorder="little")
        # zw[w, s]: trials 64w .. 64w + 63 of symbol s, one per bit
        zw = np.ascontiguousarray(packed.view(np.uint64).T)
        g = self.geometry
        out = np.empty((words, self.m), dtype=np.uint64)
        # whole codeword indices per pass, about _CHUNK_TERMS terms each
        cuts = np.searchsorted(g.offsets, np.arange(0, g.offsets[-1], _CHUNK_TERMS), "right") - 1
        cuts = np.unique(cuts).tolist() + [self.m]
        for k0, k1 in zip(cuts, cuts[1:]):
            lo = g.offsets[k0]
            terms = g.terms[lo : g.offsets[k1]]
            starts = g.offsets[k0:k1] - lo
            for w in range(words):
                out[w, k0:k1] = np.bitwise_xor.reduceat(zw[w].take(terms), starts)
        packed = np.ascontiguousarray(out.T).view(np.uint8)
        bits = np.unpackbits(packed, axis=1, count=trials, bitorder="little")
        return np.ascontiguousarray(bits.T).reshape(x.shape)


@lru_cache(maxsize=1024)
def _plan_geometry(m, n):
    """The compiled decode recipe for the m x n generator.

    Independent of the problem: the case dispatch and code choices depend
    only on the chain, and the side terms are the symmetric difference of
    the chosen columns' supports (the wanted row excluded).
    """
    matrix = build_air(m, n)
    chain = matrix.chain
    parts = partitions(chain)
    lam0 = chain.lam(0)
    last = (chain.l + 1) // 2
    supports = [frozenset(matrix.column_support(c).tolist()) for c in range(n)]

    terms = array("i")
    offsets = np.zeros(m + 1, dtype=np.intp)
    cases = np.empty(m, dtype=np.uint8)
    num_codes = np.empty(m, dtype=np.intp)
    cancelled = {}
    for k in range(m):
        if k < lam0:
            case, codes = "I", (k % n,)
        else:
            for i, ct in enumerate(parts.cols_shifted):
                if k in ct:
                    break
            else:
                raise AssertionError("codeword bands must cover [lam0, m)")
            kp = k - lam0
            if k in parts.middle[i]:
                d = down_distance(chain, kp)
                mu = right_distance(chain, kp + d, kp)
                case, codes = "II", (kp, kp + mu)
            elif i < last:
                prof = tau_profile(matrix, kp)
                case = "III"
                codes = (kp, kp + prof.mu) + tuple(kp + t for t in prof.taus)
            else:
                case, codes = "IV", (kp,)
        picked = set()
        for c in codes:
            picked ^= supports[c]
        if k not in picked:
            raise PlanError(f"codeword index {k}: wanted row absent from XOR")
        picked.discard(k)
        if len(codes) > 1:
            gone = set().union(*(supports[c] for c in codes)) - picked - {k}
            if gone:
                cancelled[k] = tuple(sorted(gone))
        terms.extend(sorted(picked))
        terms.extend(m + c for c in codes)
        offsets[k + 1] = len(terms)
        cases[k] = CASES.index(case)
        num_codes[k] = len(codes)
    terms = np.array(terms, dtype=np.int32)
    for arr in (terms, offsets, cases, num_codes):
        arr.flags.writeable = False
    return PlanGeometry(terms=terms, offsets=offsets, cases=cases, num_codes=num_codes, cancelled=cancelled)


@lru_cache(maxsize=1024)
def _side_offset_range(m, n, b):
    """(least, greatest) cyclic block offset ``(r // b - k // b) mod (m // b)``
    of a side row r of a codeword index k, over the whole plan of the m x n
    generator with blocks of b rows; None when no index has side rows."""
    g = _plan_geometry(m, n)
    K = m // b
    lo, hi = K, -1
    for start in range(0, int(g.offsets[-1]), _CHUNK_TERMS):
        rows = g.terms[start : start + _CHUNK_TERMS]
        pos = np.flatnonzero(rows < m)
        if pos.size:
            k = np.searchsorted(g.offsets, start + pos, "right") - 1
            off = (rows[pos] // b - k // b) % K
            lo, hi = min(lo, int(off.min())), max(hi, int(off.max()))
    return None if hi < 0 else (lo, hi)


def _unknown_side_row_error(problem, b, geometry):
    """PlanError for the first side row, in (t, j) order, that its receiver
    does not know."""
    m = problem.K * b
    k = np.repeat(np.arange(m), np.diff(geometry.offsets))
    rows = geometry.terms
    bad = np.flatnonzero((rows < m) & ~_known(problem, k // b, rows // b))
    k, r = int(k[bad[0]]), int(rows[bad[0]])
    return PlanError(
        f"plan for t={k // b}, j={k % b + 1} uses row {r} from block {r // b}, "
        f"which receiver {k // b} does not know"
    )


def decode_plan(problem, a, b):
    """The compiled decode plan for (problem, a, b), validated: every side
    row it reads is side information of its receiver."""
    _require_member(problem, a, b)
    m = problem.K * b
    n = b * (problem.D + 1) + a
    geometry = _plan_geometry(m, n)
    # receiver t knows block t + o iff D < o < K - U (see _known), so the
    # extreme offsets of the plan's side rows decide for every receiver
    span = _side_offset_range(m, n, b)
    if span is not None and not (problem.D < span[0] and span[1] < problem.K - problem.U):
        raise _unknown_side_row_error(problem, b, geometry)
    return DecodePlan(problem=problem, a=a, b=b, m=m, n=n, geometry=geometry)


def format_plan(plan):
    """One text line per (t, j):
    't j CASE II codes 0,13 side (0,1);(2,4);(5,2)'."""
    lines = []
    for (t, j) in sorted(plan.entries):
        e = plan.entries[(t, j)]
        codes = ",".join(str(c) for c in e.codes)
        side = ";".join("(%d,%d)" % _label(r, plan.b) for r in e.side) or "-"
        lines.append(f"{t} {j} CASE {e.case} codes {codes} side {side}")
    return lines


def verify_lemma1(matrix, problem, p=2):
    """Decodability check: for every receiver, the wanted block's rows add
    rank b on top of the interference rows of its window, over GF(p)."""
    return not lemma1_failures(matrix, problem, p)


def _absorb_blocks(elim, blocks, b, matrix):
    """Add the generator rows of ``blocks`` to ``elim``: weight-1 rows in
    bulk as unit columns, the rest one at a time."""
    rows = _block_rows(blocks, b)
    ucols = matrix.unit_columns[rows]
    elim.add_units(ucols[ucols >= 0])
    for r in rows[ucols < 0]:
        elim.add_row(matrix.bits[r])


def lemma1_failures(matrix, problem, p=2):
    """Receivers (if any) whose wanted block does not add full rank on top
    of the interference rows of its window, over GF(p)."""
    if matrix.m % problem.K:
        raise ValueError(f"m={matrix.m} is not a multiple of K={problem.K}")
    check_field(p)
    b = matrix.m // problem.K
    bad = []
    for t in range(problem.K):
        elim = gf.IncrementalRref(matrix.n, p)
        _absorb_blocks(elim, problem.interference(t), b, matrix)
        before = elim.rank
        _absorb_blocks(elim, (t,), b, matrix)
        if elim.rank - before != b:
            bad.append(t)
    return bad


class OracleDecoder:
    """Reference decoder for one receiver over GF(p).

    Solves A_W @ T = E where A_W stacks the generator rows of the
    receiver's unknown blocks (interference + wanted) and E selects the
    wanted block; decoding is then (y - x_side @ S) @ T, where x_side are
    the rows of the message that receiver t knows.
    """

    def __init__(self, matrix, problem, t, p=2):
        K = problem.K
        if matrix.m % K:
            raise ValueError(f"m={matrix.m} is not a multiple of K={K}")
        check_field(p)
        b = matrix.m // K
        n = matrix.n
        self.p = p
        self.b = b
        self.t = t
        elim = gf.IncrementalRref(n + b, p)
        _absorb_blocks(elim, problem.interference(t), b, matrix)
        for i in range(b):
            aug = np.zeros(n + b, dtype=np.int64)
            aug[:n] = matrix.bits[t * b + i]
            aug[n + i] = 1
            elim.add_row(aug)
        T = np.zeros((n, b), dtype=np.int64)
        for c, row in elim.pivot_rows():
            if c >= n:
                raise NotDecodable(
                    f"receiver {t} cannot isolate its block over GF({p})"
                )
            T[c] = row[n:]
        self._T = T.astype(np.float64)
        self.side_rows = _block_rows(problem.side_info(t), b)
        self._S = matrix.bits[self.side_rows].astype(np.float64)

    def decode(self, y, x):
        """Recover the wanted block from the coded symbols ``y`` and the
        message ``x``, of which only ``side_rows`` are read; batched when
        y is (trials, n) and x is (trials, m)."""
        xs = np.asarray(x)[..., self.side_rows].astype(np.float64)
        z = np.asarray(y, dtype=np.float64) - xs @ self._S
        return np.mod(z @ self._T, self.p).astype(np.uint8)


def complexity_stats(plan):
    """(t, j) -> dict with the decode cost of each plan entry: number of
    coded symbols combined and number of side-information terms added."""
    g = plan.geometry
    num_side = np.diff(g.offsets) - g.num_codes
    return {
        key: {"num_codes": nc, "num_side": ns}
        for key, nc, ns in zip(plan.labels(), g.num_codes.tolist(), num_side.tolist())
    }


def predicted_side_counts(matrix, plan):
    """Side-term counts derived from column supports alone.

    With N_c the support size of column c, a plan entry using columns
    (c1, ..., cr) has N_{c1} - 1 side terms for the single-column cases,
    N_{c1} + N_{c2} - 3 for the two-column case, and
    sum(N_ci) - 2*(r - 2) - 3 in general: every extra column past the
    second cancels exactly two rows of the running XOR.
    """
    N = matrix.bits.sum(axis=0)
    out = {}
    for key, e in plan.entries.items():
        total = int(sum(N[c] for c in e.codes))
        if e.case in ("I", "IV"):
            out[key] = total - 1
        elif e.case == "II":
            out[key] = total - 3
        else:
            out[key] = total - 2 * (len(e.codes) - 2) - 3
    return out
