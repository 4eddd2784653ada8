"""The benchmark's workloads.

Each workload is built from a seed (that is the set-up's input building),
hands out whole rounds of items, runs one item as one op through snicode's
public entry points, and checks the op's outputs with checks.py.  A round
is one op for ring_broadcast and block_sweep and the whole instance stride
for grid_verify, so every run attempts the same mix of ops.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace

import numpy as np

from snicode import codec, rates, sim

from checks import CheckFailed, best_pair, check_pair, check_receivers, check_report, check_windows

SAMPLES = 2   # receivers and windows checked per generator and field
PROBLEM_SEED = 20170530   # block_sweep's problem sequence, the same for every run


@dataclass(frozen=True)
class Item:
    K: int
    D: int
    U: int
    a: int          # the pair the op uses; block_sweep's op searches it again
    b: int
    seed: int       # message seed of the op's simulation runs
    b_max: int = 0  # search cap the pair came from, 0 for a pair not searched


def _seed(rng):
    return rng.randrange(2**32)


def _check_generator(item, primes):
    """Sampled receivers and windows of the generator that sim.run used."""
    bits = codec.encoding_matrix(rates.SniProblem(item.K, item.D, item.U), item.a, item.b).bits
    pick = random.Random(item.seed)
    for p in primes:
        check_receivers(bits, item.K, item.D, item.U, pick.sample(range(item.K), min(SAMPLES, item.K)), p)
        check_windows(bits, pick.sample(range(bits.shape[0]), SAMPLES), p)


class RingBroadcast:
    """One large ring, plan decoding of a fixed batch of trials over GF(2).

    K = 1001 = 7*11*13 with D = 4, U = 1 has its best pair at b = 2
    (a = 1, rate 11/2), so the 2002 x 11 generator mixes several chain bands
    and every receiver decodes two symbols.
    """

    name = "ring_broadcast"
    full = dict(K=1001, D=4, U=1, b_max=2, trials=32)
    tiny = dict(K=13, D=4, U=1, b_max=2, trials=4)
    rss_ops = 8

    def __init__(self, seed, size="full"):
        s = getattr(self, size)
        self.trials = s["trials"]
        self.problem = rates.SniProblem(s["K"], s["D"], s["U"])
        self.pair = rates.search_best_pair(self.problem, b_max=s["b_max"])
        self.b_max = s["b_max"]
        self.rng = random.Random(seed)

    def round(self):
        pr, pair = self.problem, self.pair
        return [Item(pr.K, pr.D, pr.U, pair.a, pair.b, _seed(self.rng), self.b_max)]

    def op(self, item):
        config = sim.SimConfig(self.problem, item.a, item.b, 2, self.trials, item.seed, "plan")
        return sim.run(config)

    def symbols(self, report):
        return report.symbol_decodes

    def check(self, item, report):
        p = self.pair
        check_pair(item.K, item.D, item.U, p.a, p.b, p.m, p.n, p.rate, b_max=item.b_max)
        check_report(report, self.trials * item.K * item.b)
        _check_generator(item, (2,))

    def probe_item(self, item, report):
        return item, self.trials


def grid_problems():
    """Every (K, D, U) of the acceptance grid, in the tests' order."""
    return [(K, D, U) for K in range(3, 41) for D in range(1, K - 1) for U in range(1, D + 1) if U + D < K]


class GridVerify:
    """A fixed stride through the acceptance grid of criteria 6 and 7.

    Every 61st grid problem plus (35, 1, 1), whose best pair (1, 17)
    gives the grid's largest generator (595 x 35); each problem contributes
    its best pair under b <= 600 // K and its canonical pair when that fits
    in 600 rows, as the acceptance grid does.
    """

    name = "grid_verify"
    M_MAX = 600
    full = dict(K_max=40, stride=61, extra=[(35, 1, 1)], trials=20)
    tiny = dict(K_max=8, stride=4, extra=[], trials=4)

    def __init__(self, seed, size="full"):
        s = getattr(self, size)
        self.trials = s["trials"]
        chosen = [p for p in grid_problems() if p[0] <= s["K_max"]][:: s["stride"]]
        self.instances = {}
        for K, D, U in chosen + s["extra"]:
            pr = rates.SniProblem(K, D, U)
            cap = self.M_MAX // K
            best = rates.search_best_pair(pr, b_max=cap)
            pairs = {(best.a, best.b): (best, cap)}
            a, b = K % (D + 1), K // (D + 1)
            if K * b <= self.M_MAX:
                pairs.setdefault((a, b), (rates.make_pair(pr, a, b), 0))
            for (a, b), (pair, b_max) in sorted(pairs.items()):
                self.instances[K, D, U, a, b] = (pr, pair, b_max, codec.encoding_matrix(pr, a, b))
        self.rng = random.Random(seed)
        self.rss_ops = len(self.instances)

    def round(self):
        return [Item(*key, _seed(self.rng), inst[2]) for key, inst in self.instances.items()]

    def op(self, item):
        pr, _, _, matrix = self.instances[item.K, item.D, item.U, item.a, item.b]
        ok2 = codec.verify_lemma1(matrix, pr, 2)
        ok3 = codec.verify_lemma1(matrix, pr, 3)
        both = sim.run(sim.SimConfig(pr, item.a, item.b, 2, self.trials, item.seed, "both"))
        oracle3 = sim.run(sim.SimConfig(pr, item.a, item.b, 3, self.trials, item.seed, "oracle"))
        return ok2, ok3, both, oracle3

    def symbols(self, result):
        return result[2].symbol_decodes + result[3].symbol_decodes

    def check(self, item, result):
        ok2, ok3, both, oracle3 = result
        _, pair, _, matrix = self.instances[item.K, item.D, item.U, item.a, item.b]
        if not (ok2 and ok3):
            raise CheckFailed(f"verify_lemma1 rejects the member pair {item} (GF(2) {ok2}, GF(3) {ok3})")
        check_pair(item.K, item.D, item.U, pair.a, pair.b, pair.m, pair.n, pair.rate, b_max=item.b_max or None)
        if (matrix.m, matrix.n) != (pair.m, pair.n):
            raise CheckFailed(f"generator for {item} is {matrix.m} x {matrix.n}")
        check_report(both, 2 * self.trials * item.K * item.b)
        check_report(oracle3, self.trials * item.K * item.b)
        _check_generator(item, (2, 3))

    def probe_item(self, item, result):
        return item, self.trials


class BlockSweep:
    """Codes designed from scratch: pair search, generator, plan, short run.

    Problems come from a fixed pseudo-random sequence and are kept only
    when their best pair under b <= 40 has b >= 10 (wide generators) and an
    (m, n) not seen before in this process, so the program's caches start
    cold on each op.  The seed draws the messages.  Problem sizes vary
    several-fold, and a seeded sequence made the median op move with the
    sample of problems; a fixed one leaves only the machine's noise.  The
    first item, the set-up's warm-up op, is (53, 6, 1), whose best pair
    (1, 15) gives a mid-sized 795 x 106 generator.  The caches keep every
    design, so memory grows with the op count; peak_rss_mb is read after a
    fixed rss_ops ops for that reason.
    """

    name = "block_sweep"
    full = dict(K=(24, 96), b_max=40, b_min=10, trials=4, warmup=(53, 6, 1))
    tiny = dict(K=(8, 16), b_max=6, b_min=2, trials=2, warmup=None)
    rss_ops = 128

    def __init__(self, seed, size="full"):
        s = getattr(self, size)
        self.K_range, self.b_max, self.b_min, self.trials = s["K"], s["b_max"], s["b_min"], s["trials"]
        self.warmup = s["warmup"]
        self.problems = random.Random(PROBLEM_SEED)
        self.rng = random.Random(seed)
        self.seen = set()

    def round(self):
        while True:
            if self.warmup:
                (K, D, U), self.warmup = self.warmup, None
            else:
                K = self.problems.randint(*self.K_range)
                D = self.problems.randint(2, K // 4)
                U = self.problems.randint(1, D)
            a, b = best_pair(K, D, U, self.b_max)
            if b >= self.b_min and (K * b, b * (D + 1) + a) not in self.seen:
                self.seen.add((K * b, b * (D + 1) + a))
                return [Item(K, D, U, a, b, _seed(self.rng), self.b_max)]

    def op(self, item):
        pr = rates.SniProblem(item.K, item.D, item.U)
        pair = rates.search_best_pair(pr, b_max=item.b_max)
        matrix = codec.encoding_matrix(pr, pair.a, pair.b)
        plan = codec.decode_plan(pr, pair.a, pair.b)
        report = sim.run(sim.SimConfig(pr, pair.a, pair.b, 2, self.trials, item.seed, "plan"))
        return pair, matrix, plan, report

    def symbols(self, result):
        return result[3].symbol_decodes

    def check(self, item, result):
        pair, matrix, _, report = result
        check_pair(item.K, item.D, item.U, pair.a, pair.b, pair.m, pair.n, pair.rate, b_max=item.b_max)
        if (matrix.m, matrix.n) != (pair.m, pair.n):
            raise CheckFailed(f"generator for {item} is {matrix.m} x {matrix.n}")
        check_report(report, self.trials * item.K * item.b)
        _check_generator(item, (2,))

    def probe_item(self, item, result):
        return replace(item, a=result[0].a, b=result[0].b), self.trials


WORKLOADS = {w.name: w for w in (RingBroadcast, GridVerify, BlockSweep)}


def probe(tracer, item, trials):
    """Replay one op's plan decoding through the per-symbol public
    functions, timing each call; returns the layers that are absent.

    Uses the message draw of sim.run (default_rng(seed), GF(2)) and checks
    every decoded symbol against the message itself.
    """
    plan_decode = getattr(codec, "plan_decode", None)
    side_info_view = getattr(sim, "side_info_view", None)
    absent = [name for name, fn in (("codec.plan_decode", plan_decode), ("sim.side_info_view", side_info_view)) if fn is None]
    if plan_decode is None:
        return absent
    pr = rates.SniProblem(item.K, item.D, item.U)
    a, b = item.a, item.b
    matrix = codec.encoding_matrix(pr, a, b)
    plan = codec.decode_plan(pr, a, b)
    x = np.random.default_rng(item.seed).integers(0, 2, size=(trials, matrix.m), dtype=np.uint8)
    y = codec.encode(matrix, x, 2)
    everything = {blk: x[:, blk * b : (blk + 1) * b] for blk in range(pr.K)}
    for t in range(pr.K):
        side = tracer.call("sim.side_info_view", side_info_view, pr, b, x, t) if side_info_view else everything
        for j in range(1, b + 1):
            got = tracer.call("codec.plan_decode", plan_decode, plan, y, side, t, j)
            if not np.array_equal(got, x[:, t * b + j - 1]):
                raise CheckFailed(f"plan_decode gets symbol ({t}, {j}) of {item} wrong")
        tracer.counts[tracer.op]["codec.plan_symbols"] += trials * b
    return absent
