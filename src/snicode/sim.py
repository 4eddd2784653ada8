"""Seeded end-to-end simulation: encode random messages, decode at every
receiver, count failures and per-symbol decode cost."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .codec import CASES, DecodePlan, OracleDecoder, check_field, decode_plan, encode, encoding_matrix
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
    b, m = config.b, matrix.m
    rng = np.random.default_rng(config.seed)
    x = rng.integers(0, config.p, size=(config.trials, m), dtype=np.uint8)
    y = encode(matrix, x, config.p)

    report = SimReport(
        config=config,
        rate=pr.D + 1 + Fraction(config.a, config.b),
        plan=plan,
    )

    def mismatches(kind, got, want):
        """Count symbols where got != want; note the first few, in (t, j)
        order, as (kind, t, j, trial)."""
        diff = got != want
        if not diff.any():
            return 0
        cols, trials = np.nonzero(diff.T)
        for col, trial in zip(cols[: 10 - len(report.details)], trials):
            report.details.append((kind, int(col) // b, int(col) % b + 1, int(trial)))
        return cols.size

    plan_hat = oracle_hat = None
    if config.decoder in ("plan", "both"):
        plan_hat = plan.decode(y, x)
        report.plan_failures = mismatches("plan", plan_hat, x)
        report.symbol_decodes += x.size
    if config.decoder in ("oracle", "both"):
        oracle_hat = OracleDecoder(matrix, pr, config.p).decode(y, x)
        report.oracle_failures = mismatches("oracle", oracle_hat, x)
        report.symbol_decodes += x.size
    if plan_hat is not None and oracle_hat is not None:
        report.disagreements = mismatches("disagree", plan_hat, oracle_hat)
    return report
