"""Build past build_air's byte budget and report what the cache holds.

    PYTHONPATH=src python3 tools/cache_probe.py

Compiles REF's plan, (K, D, U, a, b) = (13, 4, 1, 1, 5), then ``PLANS``
cold decode plans at (2*10^4 + 10 i, 9, 4, 0, 10), generators of about
2*10^5 x 100 that each hold about 4.8 MB of derived arrays.  Prints one JSON
line: the bytes that build_air holds against its budget, the generators
held and built, the seconds and the max RSS before and after.  Exits 1
unless the held bytes stayed within the budget after every plan, some
generators were dropped, REF's plan compiled again holds its rebuilt
generator's CSC, and the max RSS grew by less than the budget and 100 MB.
"""
from __future__ import annotations

import json
import resource
import sys
import time

from snicode import air
from snicode.codec import decode_plan, encoding_matrix
from snicode.rates import SniProblem

REF = SniProblem(13, 4, 1)
PLANS = 40
MB = 1 << 20


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    air.build_air.cache_clear()
    first = encoding_matrix(REF, 1, 5)
    decode_plan(REF, 1, 5)
    rss_before, start, most = max_rss_mb(), time.perf_counter(), 0
    for i in range(PLANS):
        decode_plan(SniProblem(20000 + 10 * i, 9, 4), 0, 10)
        most = max(most, air.build_air.cache_info().nbytes)
    seconds = time.perf_counter() - start
    info = air.build_air.cache_info()
    rebuilt = encoding_matrix(REF, 1, 5)
    shares = decode_plan(REF, 1, 5).geometry.rows is rebuilt.csc[1]
    report = {
        "plans": PLANS, "budget_mb": air._BUDGET / MB, "most_held_mb": round(most / MB, 1),
        "held_mb": round(info.nbytes / MB, 1), "held": info.currsize, "built": info.misses,
        "ref_rebuilt": rebuilt is not first, "ref_plan_shares_csc": shares, "seconds": round(seconds, 2),
        "max_rss_mb_before": round(rss_before, 1), "max_rss_mb": round(max_rss_mb(), 1),
    }
    print(json.dumps(report))
    ok = (
        most <= air._BUDGET and info.currsize < info.misses and rebuilt is not first and shares
        and max_rss_mb() < rss_before + air._BUDGET / MB + 100
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
