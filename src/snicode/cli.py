"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors or infeasible inputs, 2 when a
verification run finds a receiver that cannot decode.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import air as air_mod
from . import codec, sim
from .rates import SniProblem, canonical_pair, format_rate, in_S, membership, range_violation, search_best_pair

CSV_HEADER = "K,D,U,a,b,rate,m,n"


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; exit code 2 is reserved for failed verification
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_problem(sp):
    sp.add_argument("--K", type=int, required=True, help="number of messages")
    sp.add_argument("--D", type=int, required=True, help="forward interference span")
    sp.add_argument("--U", type=int, required=True, help="backward interference span")


def _add_pair(sp):
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)


def _problem(args):
    return SniProblem(args.K, args.D, args.U)


def _csv_row(problem, pair):
    return (
        f"{problem.K},{problem.D},{problem.U},{pair.a},{pair.b},"
        f"{format_rate(pair.rate)},{pair.m},{pair.n}"
    )


def cmd_chain(args):
    chain = air_mod.euclid_chain(args.m, args.n)
    print("lambda: " + ",".join(map(str, chain.lambdas)))
    print("beta: " + ",".join(map(str, chain.betas)))
    print(f"l: {chain.l}")
    print(f"gcd: {chain.gcd}")
    return 0


def cmd_air(args):
    print(air_mod.format_matrix(air_mod.build_air(args.m, args.n)), end="")
    return 0


def cmd_pairs(args):
    problem = _problem(args)
    best = search_best_pair(problem, b_max=args.b_max)
    print(CSV_HEADER)
    if problem.U == 0:
        print("# note: U=0 is below the tabulated range of the reference tables")
    print(_csv_row(problem, canonical_pair(problem)))
    print(_csv_row(problem, best))
    return 0


def cmd_table(args):
    # checked here too: a K with no (D, U) to tabulate never searches
    if args.b_max < 1:
        raise ValueError(f"need b_max >= 1, got b_max={args.b_max}")
    d_max = args.D_max if args.D_max is not None else min(15, args.K - 2)
    lines = [CSV_HEADER]
    for d in range(1, d_max + 1):
        for u in range(1, d + 1):
            if u + d >= args.K:
                continue
            problem = SniProblem(args.K, d, u)
            lines.append(_csv_row(problem, search_best_pair(problem, b_max=args.b_max)))
    print("\n".join(lines))
    return 0


def cmd_encode(args):
    problem = _problem(args)
    matrix = codec.encoding_matrix(problem, args.a, args.b)
    if args.symbolic:
        for line in codec.symbolic_codes(matrix, args.b):
            print(line)
        return 0
    if args.x is not None:
        x = np.array([int(v) for v in args.x.split(",")], dtype=np.int64)
    else:
        x = np.random.default_rng(args.seed).integers(0, args.p, size=matrix.m)
    y = codec.encode(matrix, x, args.p)
    print("x " + ",".join(map(str, x)))
    print("y " + ",".join(map(str, y)))
    return 0


def cmd_plan(args):
    problem = _problem(args)
    plan = codec.decode_plan(problem, args.a, args.b)
    if (args.t is None) != (args.j is None):
        raise ValueError("--t and --j must be given together")
    for line in codec.format_plan(plan, None if args.t is None else [(args.t, args.j)]):
        print(line)
    return 0


def cmd_verify(args):
    problem = _problem(args)
    codec.check_field(args.p)
    violation = range_violation(problem, args.a, args.b)
    if violation:
        raise ValueError(f"pair (a={args.a}, b={args.b}): {violation}")
    verdict = "member" if in_S(problem, args.a, args.b) else "not a member"
    print(f"pair (a={args.a}, b={args.b}): {membership(problem, args.a, args.b)} -> {verdict}")
    matrix = air_mod.build_air(problem.K * args.b, args.b * (problem.D + 1) + args.a)
    deficit = codec.rank_deficits(matrix, problem, args.p)
    bad = np.flatnonzero(deficit).tolist()
    if bad:
        print(f"FAIL: receivers {bad} cannot isolate their block over GF({args.p})")
        for t in bad:
            print(f"receiver {t}: rank deficit {deficit[t]} over GF({args.p})")
        return 2
    print(f"PASS: all {problem.K} receivers isolate their block over GF({args.p})")
    return 0


def cmd_simulate(args):
    problem = _problem(args)
    config = sim.SimConfig(
        problem=problem,
        a=args.a,
        b=args.b,
        p=args.p,
        trials=args.trials,
        seed=args.seed,
        decoder=args.decoder,
    )
    report = sim.run(config)
    if args.format == "csv":
        print("\n".join(report.csv_lines()))
    else:
        print(report.text())
    return 0 if report.failures == 0 else 2


def main(argv=None):
    parser = _Parser(prog="snicode", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("chain", parents=[], help="remainder chain of (m, n)")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_chain)

    sp = sub.add_parser("air", help="print the m x n generator matrix")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_air)

    sp = sub.add_parser("pairs", help="canonical and best achievable pair")
    _add_problem(sp)
    sp.add_argument("--b-max", dest="b_max", type=int, default=64)
    sp.set_defaults(func=cmd_pairs)

    sp = sub.add_parser("table", help="best achievable pair per (D, U)")
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--D-max", dest="D_max", type=int, default=None)
    sp.add_argument("--b-max", dest="b_max", type=int, default=35)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("encode", help="encode a message vector")
    _add_problem(sp)
    _add_pair(sp)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    given = sp.add_mutually_exclusive_group()
    given.add_argument("--x", type=str, default=None, help="comma-separated symbols")
    given.add_argument("--symbolic", action="store_true", help="print c_k formulas")
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("plan", help="decode plan lines")
    _add_problem(sp)
    _add_pair(sp)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--j", type=int, default=None)
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("verify", help="check per-receiver decodability")
    _add_problem(sp)
    _add_pair(sp)
    sp.add_argument("--p", type=int, default=2)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("simulate", help="seeded encode/decode trials")
    _add_problem(sp)
    _add_pair(sp)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--decoder", choices=["plan", "oracle", "both"], default="both")
    sp.add_argument("--format", choices=["text", "csv"], default="text")
    sp.set_defaults(func=cmd_simulate)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ValueError, codec.NotAchievablePair, codec.PlanError, codec.NotDecodable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
