"""Show that the benchmark's checks can fail.

    python3 perfbench/selftest.py

Runs one op of each workload at a tiny size, confirms that its checks pass
on the real outputs, and then that each check rejects a corrupted input: a
generator with one flipped bit, a pair outside the achievable set, a pair
that is achievable but not the search optimum, a simulation report with one
failure, and an expected decode count that is off by one either way.
Exits 1 if any corruption goes through.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from snicode import codec, rates  # noqa: E402

from checks import CheckFailed, check_pair, check_receivers, check_report, check_windows, in_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def rejects(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except CheckFailed:
        return True
    return False


def reports_of(result):
    if isinstance(result, tuple):
        return [r for r in result if hasattr(r, "symbol_decodes")]
    return [result]


def main():
    missed = []
    for name, cls in WORKLOADS.items():
        wl = cls(seed=7, size="tiny")
        item = max(wl.round(), key=lambda it: it.K - it.D)   # room for a worse pair
        result = wl.op(item)
        wl.check(item, result)
        used, trials = wl.probe_item(item, result)
        K, D, U, a, b = used.K, used.D, used.U, used.a, used.b
        primes = (2, 3) if name == "grid_verify" else (2,)

        bits = codec.encoding_matrix(rates.SniProblem(K, D, U), a, b).bits.copy()
        bits[0, bits[0].argmax()] ^= 1   # row 0 is a unit row of the top identity
        cases = {f"flipped bit, receiver 0 over GF({p})": (check_receivers, (bits, K, D, U, [0], p)) for p in primes}
        cases.update({f"flipped bit, window at row 0 over GF({p})": (check_windows, (bits, [0], p)) for p in primes})

        bad_a = next(x for x in range(b * (K - D - 1) + 1) if not in_S(K, D, U, x, b))
        cases["non-member pair"] = (check_pair, (K, D, U, bad_a, b, K * b, b * (D + 1) + bad_a, D + 1 + Fraction(bad_a, b)))
        cap = max(used.b_max, b)
        wa, wb = next((x, y) for y in range(1, cap + 1) for x in range(y * (K - D - 1) + 1)
                      if in_S(K, D, U, x, y) and Fraction(x, y) > Fraction(a, b))
        cases["member pair that is not the optimum"] = (
            check_pair, (K, D, U, wa, wb, K * wb, wb * (D + 1) + wa, D + 1 + Fraction(wa, wb), cap))

        for i, report in enumerate(reports_of(result)):
            count = report.symbol_decodes
            if rejects(check_report, report, count):
                missed.append(f"{name}: the real report {i} fails its own count")
            cases[f"report {i}, decode count + 1"] = (check_report, (report, count + 1))
            cases[f"report {i}, decode count - 1"] = (check_report, (report, count - 1))
            cases[f"report {i}, one plan failure"] = (
                check_report, (dataclasses.replace(report, plan_failures=1), count))

        for label, (fn, args) in cases.items():
            ok = rejects(fn, *args)
            print(f"{'ok  ' if ok else 'MISS'} {name}: {label} rejected")
            if not ok:
                missed.append(f"{name}: {label}")
    if missed:
        print("checks that let a corruption through: " + "; ".join(missed))
        return 1
    print("every corruption was rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
