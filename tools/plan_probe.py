"""Time a cold decode plan at 10^6 x 100 stage by stage, and its memory.

    PYTHONPATH=src python3 tools/plan_probe.py

At (K, D, U, a, b) = (10^5, 9, 4, 0, 10) builds the 10^6 x 100 generator,
its CSC and its compiled plan, then runs ``decode_plan``, whose remaining
work is the side check: every side row that the plan reads must be known to
its receiver.  Prints one JSON line: the seconds of each stage and the max
RSS before and after the compile and the side check.  Exits 1 if the
compile raised the max RSS by more than ``PLAN_MB``, its few m-long arrays,
or the side check by more than ``SIDE_MB``: it works in chunks of indices,
so its temporaries stay small beside the plan's m-long arrays.
"""
from __future__ import annotations

import json
import resource
import sys
import time

from snicode import codec
from snicode.air import build_air
from snicode.rates import SniProblem

PROBLEM, A, B = SniProblem(100_000, 9, 4), 0, 10
PLAN_MB = 40
SIDE_MB = 16


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    seconds = {}
    start = time.perf_counter()
    matrix = build_air(PROBLEM.K * B, B * (PROBLEM.D + 1) + A)
    seconds["build_air"] = time.perf_counter() - start
    rss = {}
    for stage, build in (
        ("csc", lambda: matrix.csc),
        ("plan_geometry", lambda: matrix.derived(codec._plan_geometry)),
        ("side_check", lambda: codec.decode_plan(PROBLEM, A, B)),
    ):
        rss[stage], start = max_rss_mb(), time.perf_counter()
        build()
        seconds[stage] = time.perf_counter() - start
    rss_after = max_rss_mb()
    report = {
        "m": matrix.m, "n": matrix.n, "seconds": {k: round(v, 3) for k, v in seconds.items()},
        "max_rss_mb_before_plan_geometry": round(rss["plan_geometry"], 1),
        "max_rss_mb_before_side_check": round(rss["side_check"], 1), "max_rss_mb": round(rss_after, 1),
        "plan_bound_mb": PLAN_MB, "side_bound_mb": SIDE_MB,
    }
    print(json.dumps(report))
    plan_ok = rss["side_check"] <= rss["plan_geometry"] + PLAN_MB
    return 0 if plan_ok and rss_after <= rss["side_check"] + SIDE_MB else 1


if __name__ == "__main__":
    sys.exit(main())
