"""Seeded end-to-end simulation: encode random messages, decode at every
receiver, count failures and per-symbol decode cost.

Over GF(2) a run works on 64 trials to a uint64 word throughout: it draws
its messages as seeded words (the padding bits past the last trial zeroed),
encodes, plan-decodes and compares them word by word, and unpacks symbols
only for the oracle decoder and to list the trials that mismatch.  This
seeded stream replaced a draw of one uint8 symbol per trial, so a GF(2) run
of an earlier version drew other messages from the same seed.  Over a
larger field the messages are drawn as uint8 symbols.

The plan decoder gets what a receiver has, not the whole message: trial i
decodes the view of receiver t_i = i mod K, x with t_i's window zeroed
(the oracle's x_t), and only t_i's block is compared with x and with the
oracle.  So the decoder's own encode removes what t_i knows, and a recipe
that reads a row t_i lacks, or misses its wanted row, shows as a plan
failure on some trial with one random bit per lane.  A run checks
min(trials, K) receivers and trials * b symbols; ``decode_plan``'s compile
checks cover every receiver.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .codec import (
    CASES, DecodePlan, OracleDecoder, _encode_words, _pack, _unpack, check_field, decode_plan, encode,
    encoding_matrix,
)
from .rates import SniProblem, format_rate

__all__ = ["SimConfig", "SimReport", "run"]


@dataclass(frozen=True)
class SimConfig:
    problem: SniProblem
    a: int
    b: int
    p: int = 2
    trials: int = 100
    seed: int = 0
    decoder: str = "both"  # "plan" | "oracle" | "both"


@dataclass
class SimReport:
    config: SimConfig
    rate: Fraction
    plan_failures: int = 0
    oracle_failures: int = 0
    disagreements: int = 0
    symbol_decodes: int = 0
    details: list = field(default_factory=list)  # at most 10 (kind, t, j, trial)
    plan: DecodePlan = field(default=None, repr=False)

    def _costs(self):
        """Per symbol, (K, b) arrays: the codes and side terms that its
        plan entry XORs, and its case tag."""
        g, shape = self.plan.geometry, (self.config.problem.K, self.config.b)
        return g.num_codes.reshape(shape), g.num_side.reshape(shape), np.array(CASES)[g.cases].reshape(shape)

    @property
    def failures(self):
        return self.plan_failures + self.oracle_failures + self.disagreements

    def text(self):
        c = self.config
        pr = c.problem
        lines = [
            f"simulation K={pr.K} D={pr.D} U={pr.U} a={c.a} b={c.b} p={c.p} "
            f"trials={c.trials} seed={c.seed} decoder={c.decoder}",
            "rng: numpy default_rng (PCG64)",
            f"rate: {format_rate(self.rate)}  excess over D+1: {Fraction(c.a, c.b)}",
        ]
        num_codes, num_side, _ = self._costs()
        for t, (nc, ns) in enumerate(zip(num_codes.tolist(), num_side.tolist())):
            lines.append(
                f"t={t}: codes/symbol min={min(nc)} mean={sum(nc) / len(nc):.2f} "
                f"max={max(nc)}; side terms min={min(ns)} "
                f"mean={sum(ns) / len(ns):.2f} max={max(ns)}"
            )
        if c.decoder != "oracle":
            lines.append(
                f"plan check: trial i decodes the view of receiver i mod K, its window zeroed; "
                f"{min(c.trials, pr.K)} receivers, {c.trials * c.b} symbols checked"
            )
        lines.append(
            f"failures: {self.failures} (plan {self.plan_failures}, oracle "
            f"{self.oracle_failures}, disagreements {self.disagreements}) "
            f"over {self.symbol_decodes} symbol decodes"
        )
        lines += [f"  {kind} t={t} j={j} trial={trial}" for kind, t, j, trial in self.details]
        return "\n".join(lines)

    def csv_lines(self):
        lines = ["t,j,case,num_codes,num_side"]
        num_codes, num_side, cases = (a.tolist() for a in self._costs())
        for t in range(self.config.problem.K):
            for j in range(self.config.b):
                lines.append(f"{t},{j + 1},{cases[t][j]},{num_codes[t][j]},{num_side[t][j]}")
        lines.append(
            f"# trials={self.config.trials} failures={self.failures} "
            f"rate={format_rate(self.rate)}"
        )
        return lines


def _view_masks(matrix, problem, trials):
    """(known, mine), two (m, words) uint64 masks of a GF(2) run's trials:
    bit i of row r is set in ``known`` when receiver t_i = i mod K knows
    row r, outside its window (``codec._window``), and in ``mine`` when row
    r lies in t_i's own block.  Padding bits past the last trial are zero.

    Built per block in words, then each block's words repeated for its b
    rows.  Block B lies in the windows of receivers B - D .. B + U, and
    each trial's bit is set in one block of ``mine``, so OR-ing those blocks
    is XOR-ing them: one running XOR around the ring, as
    ``codec._ring_counts`` sums, gives every block's lacking trials, and
    the XOR of K blocks in a row gives every trial."""
    K, U, D = problem.K, problem.U, problem.D
    i = np.arange(trials)
    mine = np.zeros((K, -(-trials // 64) * 8), dtype=np.uint8)
    np.bitwise_or.at(mine, (i % K, i >> 3), (1 << (i & 7)).astype(np.uint8))
    mine = mine.view(np.uint64)
    ring = np.zeros((K + U + D + 1, mine.shape[1]), dtype=np.uint64)
    mine.take(np.arange(-D, K + U), axis=0, mode="wrap", out=ring[1:])
    np.bitwise_xor.accumulate(ring, axis=0, out=ring)
    known = ring[U + D + 1 :] ^ ring[:K] ^ ring[K]
    return np.repeat(known, matrix.m // K, axis=0), np.repeat(mine, matrix.m // K, axis=0)


def run(config):
    pr = config.problem
    if config.decoder not in ("plan", "oracle", "both"):
        raise ValueError(f"unknown decoder {config.decoder!r}")
    if config.decoder in ("plan", "both") and config.p != 2:
        raise ValueError("plan decoding is defined over GF(2) only")
    check_field(config.p)
    if config.trials < 1:
        raise ValueError(f"need at least one trial, got trials={config.trials}")
    matrix = encoding_matrix(pr, config.a, config.b)
    plan = decode_plan(pr, config.a, config.b)
    b, m, trials = config.b, matrix.m, config.trials
    use_plan, use_oracle = config.decoder in ("plan", "both"), config.decoder in ("oracle", "both")
    rng = np.random.default_rng(config.seed)
    if config.p == 2:
        xw = rng.integers(0, 2**64, size=(m, -(-trials // 64)), dtype=np.uint64)
        xw[:, -1] &= np.uint64(2**64 - 1) >> np.uint64(-trials % 64)
        yw = _encode_words(matrix.csc, xw)
        if use_oracle:
            x, y = _unpack(xw, (trials, m)), _unpack(yw, (trials, matrix.n))
    else:
        x = rng.integers(0, config.p, size=(trials, m), dtype=np.uint8)
        y = encode(matrix, x, config.p)

    report = SimReport(config=config, rate=pr.D + 1 + Fraction(config.a, config.b), plan=plan)

    def mismatches(kind, wrong):
        """Count the wrong symbols that ``wrong`` marks, (m, trials), or over
        GF(2) (m, words) words with the wrong trials' bits set; note the
        first few, in (t, j) order, as (kind, t, j, trial)."""
        if not wrong.any():
            return 0
        if config.p == 2:
            wrong = _unpack(wrong, (trials, m)).T
        cols, rows = np.nonzero(wrong)
        for col, trial in zip(cols[: 10 - len(report.details)], rows):
            report.details.append((kind, int(col) // b, int(col) % b + 1, int(trial)))
        return cols.size

    if use_plan:
        # trial i decodes receiver i mod K's view and is checked on its block
        known, mine = matrix.derived(_view_masks, pr, trials)
        plan_hat = plan.decode_words(xw & known, yw)
        report.plan_failures = mismatches("plan", (plan_hat ^ xw) & mine)
        report.symbol_decodes += trials * m
    if use_oracle:
        oracle_hat = OracleDecoder(matrix, pr, config.p).decode(y, x)
        if config.p == 2:
            oracle_hat = _pack(oracle_hat)
            report.oracle_failures = mismatches("oracle", oracle_hat ^ xw)
        else:
            report.oracle_failures = mismatches("oracle", (oracle_hat != x).T)
        report.symbol_decodes += trials * m
    if use_plan and use_oracle:
        report.disagreements = mismatches("disagree", (plan_hat ^ oracle_hat) & mine)
    return report
