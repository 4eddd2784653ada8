"""Spans around calls into snicode's public functions, recorded from here.

The program is not edited: ``Tracer.install`` swaps each traced function for
a wrapper in every snicode module that holds it, so the benchmark's own
calls and the program's internal calls both pass through the wrapper.  A
function or class that a later version no longer has is skipped and its
layer reads as absent (zero).  Spans stay in memory until ``dump``.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


def _nrows(x):
    return x.shape[0] if getattr(x, "ndim", 1) > 1 else 1


# (span name, module, attribute, count name, counter(args, result))
FUNCTIONS = [
    ("sim.run", "snicode.sim", "run", "sim.symbol_decodes", lambda args, r: r.symbol_decodes),
    ("rates.search_best_pair", "snicode.rates", "search_best_pair", None, None),
    ("air.build_air", "snicode.air", "build_air", None, None),
    ("codec.decode_plan", "snicode.codec", "decode_plan", None, None),
    ("codec.encode", "snicode.codec", "encode",
     "codec.encode_macs", lambda args, r: _nrows(args[1]) * args[0].m * args[0].n),
    ("codec.verify_lemma1", "snicode.codec", "verify_lemma1",
     "codec.lemma1_rows", lambda args, r: args[0].m // args[1].K * (args[1].U + args[1].D + 1) * args[1].K),
    ("distances.closed_form", "snicode.distances", "down_distance", None, None),
    ("distances.closed_form", "snicode.distances", "right_distance", None, None),
    ("distances.closed_form", "snicode.distances", "tau_profile", None, None),
]
# (module, class, {method: span name})
CLASSES = [
    ("snicode.codec", "OracleDecoder", {"__init__": "codec.oracle_setup", "decode": "codec.oracle_decode"}),
]


class Tracer:
    def __init__(self):
        self.spans = []   # (op, name, start, end, parent index)
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> name -> count
        self.op = None    # label shared by the spans of one op
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, count_name=None, counter=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (self.op, name, start, end, parent)
            if counter is not None:
                self.counts[self.op][count_name] += counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args):
        return self.wrap(name, fn)(*args)

    def _swap(self, orig, replacement):
        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "snicode"]:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, orig))

    def install(self):
        """Wrap every traced function that this version of snicode has;
        returns the names of the layers it could not find."""
        absent = []
        for name, modname, attr, count_name, counter in FUNCTIONS:
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is None:
                absent.append(name)
                continue
            self._swap(orig, self.wrap(name, orig, count_name, counter))
        for modname, attr, methods in CLASSES:
            cls = getattr(sys.modules.get(modname), attr, None)
            if cls is None:
                absent.extend(methods.values())
                continue
            ns = {meth: self.wrap(span, getattr(cls, meth)) for meth, span in methods.items()}
            self._swap(cls, type(cls.__name__, (cls,), ns))
        return absent

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def totals(self, ops):
        """Layer name -> summed self time (span minus its direct children),
        and count name -> summed count, over the spans of the given ops."""
        child = [0.0] * len(self.spans)
        for op, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (op, name, start, end, _) in enumerate(self.spans):
            if op in ops:
                out[name + "_s"] += end - start - child[i]
        for op in ops:
            for name, value in self.counts[op].items():
                out[name] += value
        return out

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["op", "name", "start", "end", "parent"], "spans": self.spans,
                       "counts": self.counts}, f)
