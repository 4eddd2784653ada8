"""Benchmark of snicode: one workload per process, one thread.

    python3 perfbench/run.py --workload ring_broadcast --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the program is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 runs the same ops with spans around snicode's public
functions and reports the per-layer metrics, writing the spans to
perfbench/results/.  End-to-end times are scaled to a reference core (see
RefClock); per-layer times are wall seconds.  The exit code is 1 when a
check fails and 2 when the program is missing.
"""
import os

# numpy's BLAS would otherwise start one thread per core for encode's matmul.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
REF_ROUNDS = 30      # rounds of the reference loop per reading, about 30 ms here
REF_S = 0.03         # nominal duration of one reading: the scale of reported times
REF_EVERY_S = 0.5    # wall time between readings
REF_X = np.arange(64 * 512, dtype=np.int64).reshape(64, 512) % 3

LAYER_METRICS = [
    "sim.run_s", "sim.symbol_decodes", "sim.side_info_view_s", "codec.plan_decode_s",
    "codec.plan_symbols", "codec.decode_plan_s", "codec.encode_s", "codec.encode_macs",
    "codec.verify_lemma1_s", "codec.lemma1_rows", "codec.oracle_setup_s", "codec.oracle_decode_s",
    "rates.search_best_pair_s", "air.build_air_s", "air.build_air_cache_hits",
    "air.build_air_cache_misses", "distances.closed_form_s", "bench.check_s",
    "bench.traced_op_p50_s", "bench.trace_overhead_s",
]


def clear_caches():
    """Empty every lru_cache in snicode, so that each set-up starts cold."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "snicode":
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class RefClock:
    """Scales op times by the core's speed at the time of the op.

    The cores of a shared 2-core machine run faster and slower for
    stretches of seconds to minutes: the median ring_broadcast op took
    1.05 s in one process and 1.55 s in the next.  A fixed reference loop
    of the benchmark's own (dicts of numpy views and small reductions, the
    kind of work snicode's hot loops do) is read every REF_EVERY_S between
    ops, and each op's wall time is multiplied by REF_S over the mean of
    the readings just before and just after it.  The reported seconds are
    those of a core on which one reading takes REF_S.  Across those six
    processes the op's time over the reference's ranged over 8 % where the
    wall time ranged over 34 %.
    """

    def __init__(self):
        self.readings = [self._read()]
        self.pending = []   # (kind, wall seconds, symbols) since the last reading
        self.samples = []   # (kind, scaled seconds, symbols)
        self.wall = []      # (kind, wall seconds)
        self.last = time.perf_counter()

    @staticmethod
    def _read():
        start = time.perf_counter()
        for _ in range(REF_ROUNDS):
            views = {k: REF_X[:, k : k + 2] for k in range(500)}
            for k in range(0, 500, 5):
                int(views[k].sum(axis=0)[1]) + int(np.flatnonzero(REF_X[k % 64, k:])[0])
        return time.perf_counter() - start

    def add(self, kind, seconds, symbols=0):
        self.pending.append((kind, seconds, symbols))
        self.wall.append((kind, seconds))

    def tick(self, force=False):
        if not force and time.perf_counter() - self.last < REF_EVERY_S:
            return
        reading = self._read()
        scale = REF_S / ((self.readings[-1] + reading) / 2)
        self.samples += [(kind, sec * scale, sym) for kind, sec, sym in self.pending]
        self.pending.clear()
        self.readings.append(reading)
        self.last = time.perf_counter()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(cls, seed, seconds, out):
    from checks import CheckFailed

    clock = RefClock()
    for _ in range(SETUP_REPEATS):
        clear_caches()
        start = time.perf_counter()
        wl = cls(seed)
        item = wl.round()[0]
        result = wl.op(item)
        clock.add("setup", time.perf_counter() - start)
        clock.tick(force=True)
        wl.check(item, result)

    ops, rss = 0, None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for item in wl.round():
            out["attempted"] += 1
            start = time.perf_counter()
            try:
                result = wl.op(item)
            except Exception:
                out["failed"] += 1
                traceback.print_exc()
                continue
            clock.add("op", time.perf_counter() - start, wl.symbols(result))
            ops += 1
            if ops == wl.rss_ops:
                rss = peak_rss_mb()
            try:
                wl.check(item, result)
            except CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                out["correct"] = False
            clock.tick()
    clock.tick(force=True)

    def scaled(kind):
        return [(sec, sym) for k, sec, sym in clock.samples if k == kind]

    out["metrics"] = {
        "setup_s": metric(statistics.median(sec for sec, _ in scaled("setup")), "s"),
        "symbols_per_s": metric(statistics.median(sym / sec for sec, sym in scaled("op")), "1/s"),
        "op_p50_s": metric(statistics.median(sec for sec, _ in scaled("op")), "s"),
        "peak_rss_mb": metric(rss or peak_rss_mb(), "MB"),
    }
    for kind in ("setup", "op"):
        wall = statistics.median(sec for k, sec in clock.wall if k == kind)
        print(f"wall {kind} median {wall:.6g} s")
    print(f"reference reading median {statistics.median(clock.readings):.6g} s (scale 1 at {REF_S} s)")


def run_traced(cls, seed, seconds, out, trace_path):
    """Alternate plain and traced ops; after each traced op, replay its plan
    decoding through the layer probe.  Layer values are per traced op (per
    probe for the probe's three)."""
    from checks import CheckFailed
    from snicode import air
    from spans import Tracer
    from workloads import probe

    wl = cls(seed)
    item = wl.round()[0]
    wl.check(item, wl.op(item))

    cache_info = getattr(air.build_air, "cache_info", None)
    tracer = Tracer()
    absent = set()
    plain, traced, checks, ops, probes = [], [], [], [], []
    hits = misses = 0
    n = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for item in wl.round():
            n += 1
            out["attempted"] += 1
            on = n % 2 == 0
            if on:
                tracer.op = f"op{n}"
                absent.update(tracer.install())
                before = cache_info() if cache_info else None
            start = time.perf_counter()
            try:
                result = wl.op(item)
            except Exception:
                out["failed"] += 1
                traceback.print_exc()
                tracer.uninstall()
                continue
            (traced if on else plain).append(time.perf_counter() - start)
            try:
                if on:
                    ops.append(tracer.op)
                    if before is not None:
                        after = cache_info()
                        hits += after.hits - before.hits
                        misses += after.misses - before.misses
                    tracer.op = f"probe{n}"
                    probes.append(tracer.op)
                    absent.update(probe(tracer, *wl.probe_item(item, result)))
                    tracer.uninstall()   # the checks run untraced
                start = time.perf_counter()
                wl.check(item, result)
                checks.append(time.perf_counter() - start)
            except CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                out["correct"] = False
            finally:
                tracer.uninstall()
    if cache_info is None:
        absent.update(("air.build_air_cache_hits", "air.build_air_cache_misses"))

    per_op = tracer.totals(set(ops))
    per_probe = tracer.totals(set(probes))
    values = {name: per_op[name] / max(len(ops), 1) for name in LAYER_METRICS}
    for name in ("sim.side_info_view_s", "codec.plan_decode_s", "codec.plan_symbols"):
        values[name] = per_probe[name] / max(len(probes), 1)
    values["air.build_air_cache_hits"] = hits / max(len(ops), 1)
    values["air.build_air_cache_misses"] = misses / max(len(ops), 1)
    values["bench.check_s"] = statistics.fmean(checks) if checks else 0.0
    values["bench.traced_op_p50_s"] = statistics.median(traced) if traced else 0.0
    values["bench.trace_overhead_s"] = values["bench.traced_op_p50_s"] - (statistics.median(plain) if plain else 0.0)
    out["metrics"] = {
        name: metric(values[name], "s" if name.endswith("_s") else "count") for name in LAYER_METRICS
    }
    if absent:
        print("absent layers (reported as 0): " + ", ".join(sorted(absent)))
    for name in LAYER_METRICS:
        print(f"{name:28s} {values[name]:.6g}")
    trace_path.parent.mkdir(exist_ok=True)
    tracer.dump(trace_path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "snicode" / "__init__.py").is_file():
        print(f"no snicode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import snicode  # noqa: F401  (imports end here; set-up time starts after)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    if args.trace:
        run_traced(cls, args.seed, args.seconds, out, HERE / "results" / f"trace-{cls.name}-{args.seed}.json")
    else:
        run_untraced(cls, args.seed, args.seconds, out)
        for name, m in out["metrics"].items():
            print(f"{name:16s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
