"""In-memory spans around the public calls of each dvs layer.

The spans are taken from the benchmark's side: :class:`Tracer` replaces a
module attribute (``dvs.solver.lift``, ``dvs.dual.factorize_g``, ...) with
a timing wrapper for as long as :meth:`Tracer.installed` is active, so the
call sites inside dvs pick the wrapper up through their module globals and
no file under ``src/`` changes.  Each span records its name, start, end,
self time (its duration minus the time its child spans cover), its parent
and the root span of the operation it belongs to.  Spans stay in memory
until :meth:`Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name, attrs(args, result) or None).  One span
# name may cover several call sites of the same function: dvs.serialize
# imports lift, round_binary and verify_kkt for `check`, and dvs.dual calls
# its own factorize_g from dual_value and in_dual_cone.


def _lift_attrs(args, q):
    # B, D, H and h, the dense arrays the lift materialises.
    return {"bytes": 8 * (q.B.size + q.D.size + q.H.size + q.h.size)}


def _factorize_attrs(args, fact):
    return {"pd": bool(fact.positive_definite)}


def _ascent_attrs(args, result):
    _, trace = result
    return {"iterations": trace.iterations, "termination": trace.termination}


def _parsed_bytes(args, result):
    return {"bytes": len(args[0])}


def _emitted_bytes(args, data):
    return {"bytes": len(data)}


WRAPPED = (
    ("dvs.solver", "lift", "lift", _lift_attrs),
    ("dvs.serialize", "lift", "lift", _lift_attrs),
    ("dvs.solver", "maximize_dual", "solver.maximize_dual", _ascent_attrs),
    ("dvs.solver", "factorize_g", "dual.factorize_g", _factorize_attrs),
    ("dvs.dual", "factorize_g", "dual.factorize_g", _factorize_attrs),
    ("dvs.solver", "recover_y", "dual.recover_y", None),
    ("dvs.solver", "round_binary", "solver.round_binary", None),
    ("dvs.serialize", "round_binary", "solver.round_binary", None),
    ("dvs.solver", "verify_kkt", "solver.verify_kkt", None),
    ("dvs.serialize", "verify_kkt", "solver.verify_kkt", None),
    ("dvs.solver", "enumerate_discrete", "oracle.enumerate_discrete", None),
    ("dvs.cli", "check", "serialize.check", None),
    ("dvs.serialize", "parse_problem", "serialize.parse_problem", _parsed_bytes),
    ("dvs.serialize", "parse_report", "serialize.parse_report", _parsed_bytes),
    ("dvs.serialize", "emit_report", "serialize.emit_report", _emitted_bytes),
    ("dvs.generator", "generate", "generator.generate", None),
)


class Tracer:
    """Collects nested spans; single-threaded, like the benchmark loop."""

    def __init__(self):
        self.spans = []
        self._stack = []  # [span id, root id, time covered by children]

    def call(self, name, fn, args=(), kwargs=None, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = parent[1] if parent else span_id
        self.spans.append(None)  # reserve the id; filled in at the end
        frame = [span_id, root, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if parent:
                parent[2] += end - start
            self.spans[span_id] = {
                "id": span_id, "parent": parent[0] if parent else None,
                "op": root, "name": name, "start": start, "end": end,
                "self": (end - start) - frame[2], "attrs": {}}
        if attrs is not None:
            self.spans[span_id]["attrs"] = attrs(args, result)
        return result

    def _wrapper(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return traced

    def installed(self):
        """Context manager that puts the wrappers in place and restores."""
        return _Installed(self)

    def by_name(self, name):
        return [s for s in self.spans if s["name"] == name]

    def busy(self, name) -> float:
        return sum(s["end"] - s["start"] for s in self.by_name(name))

    def self_time(self, name) -> float:
        return sum(s["self"] for s in self.by_name(name))

    def summary(self) -> dict:
        """Calls, busy and self seconds per span name."""
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for s in self.spans:
            row = out[s["name"]]
            row["calls"] += 1
            row["busy_s"] += s["end"] - s["start"]
            row["self_s"] += s["self"]
        return dict(out)

    def dump(self, path, context: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"context": context, "summary": self.summary(),
               "spans": self.spans}
        path.write_text(json.dumps(doc) + "\n")


class _Installed:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        for module_name, attr, name, attrs in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, self.tracer._wrapper(name, original, attrs))
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()
        return False
