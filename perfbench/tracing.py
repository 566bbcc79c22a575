"""Spans around the calls into each traced layer, from outside the program.

``Tracer.install`` replaces every traced function at every ``vknots``
module that binds it (``vknots.fastdet.det_gaussian_many`` is also bound as
``vknots.invariants.det_gaussian_many``, for example) with a wrapper that
records one span per call: name, start, end, parent span and op id.  The
program looks its callees up as module globals at call time, so calls made
inside a module go through the wrappers too.  ``Tracer.uninstall`` puts the
original functions back.  Spans stay in memory until ``write``.
"""

import functools
import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from . import layers

OP = "op"  # name of the root span the harness opens around each op


class Tracer:
    def __init__(self):
        # one [name, start, end, parent index or None, op id, raised] per call
        self.spans = []
        self.counts = defaultdict(int)  # (layer name, count name) -> total
        self.missing = []  # traced functions the program no longer has
        self._stack = []
        self._op = None
        self._patches = []  # (module, attribute, original function)

    # --- installing --------------------------------------------------------

    def install(self):
        self.missing = []
        wrappers = {}  # id(original function) -> (original, wrapper)
        for layer in layers.LAYERS:
            try:
                module = importlib.import_module(f"vknots.{layer.module}")
            except ModuleNotFoundError:
                module = None
            original = getattr(module, layer.function, None)
            if original is None:
                self.missing.append(layer.name)
                continue
            wrappers[id(original)] = (original, self._wrap(layer.name, original))
        for mod in _vknots_modules():
            for attr, value in list(vars(mod).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def _wrap(self, name, fn):
        counter = layers.COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self._op, True]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[5] = False
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self._count(name, key, value)
            return result

        traced.perfbench_layer = name
        return traced

    def _count(self, name, key, value):
        if key in layers.MAX_COUNTS:
            self.counts[name, key] = max(self.counts[name, key], value)
        else:
            self.counts[name, key] += value

    @contextmanager
    def op(self, op_id):
        """Root span around one op; layer spans inside it carry op_id."""
        self._op = op_id
        idx = len(self.spans)
        span = [OP, perf_counter(), 0.0, None, op_id, False]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self._op = None

    # --- aggregating ---------------------------------------------------------

    def layer_totals(self):
        """{layer name: {"calls", "busy_s", "self_s"}} over all spans.

        busy_s sums only calls with no enclosing call of the same layer, so
        a recursive layer is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _op, _err in spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = {
            layer.name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            for layer in layers.LAYERS
        }
        for idx, (name, start, end, parent, _op, _err) in enumerate(spans):
            if name == OP:
                continue
            t = totals[name]
            t["calls"] += 1
            t["self_s"] += end - start - child_time[idx]
            while parent is not None and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent is None:
                t["busy_s"] += end - start
        return totals

    def coverage(self, entry, wall):
        """Share of ``wall`` spent in layers called directly by ``entry``."""
        spans = self.spans
        inside = sum(
            end - start
            for _name, start, end, parent, _op, _err in spans
            if parent is not None and spans[parent][0] == entry
        )
        return inside / wall

    def metrics(self, entry, n_ops, untraced_wall, traced_wall):
        """Every per-layer metric, as {name: (value, unit)}."""
        totals = self.layer_totals()
        values = {}
        for layer in layers.LAYERS:
            t = totals[layer.name]
            for key in ("calls", "busy_s", "self_s"):
                values[f"{layer.name}.{key}"] = t[key]
            for key in layer.counts:
                values[f"{layer.name}.{key}"] = self.counts[layer.name, key]
        values["gausscode.edge_structure.calls_per_op"] = (
            totals["gausscode.edge_structure"]["calls"] / n_ops
        )
        steps = self.counts["cli.fuzz_walks", "steps"]
        values["cli.fuzz.memo_hit_ratio"] = (
            1 - self.counts["cli.fuzz_walks", "distinct_codes"] / steps
            if steps else 0.0
        )
        values["trace.ops"] = n_ops
        values["trace.layer_errors"] = sum(
            1 for s in self.spans if s[5] and s[0] != OP
        )
        values["trace.coverage"] = self.coverage(entry, traced_wall)
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.traced_wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        return {
            name: (values[name], unit) for name, unit, _ in layers.metric_specs()
        }

    def layer_table(self, wall, fuzz=False):
        """Human-readable per-layer breakdown, largest busy time first."""
        totals = self.layer_totals()
        rows = sorted(totals.items(), key=lambda kv: -kv[1]["busy_s"])
        lines = [
            f"{'layer':44} {'calls':>8} {'busy_s':>9} {'busy%':>6} "
            f"{'self_s':>9} {'self%':>6}"
        ]
        for name, t in rows:
            lines.append(
                f"{name:44} {t['calls']:8d} {t['busy_s']:9.4f} "
                f"{100 * t['busy_s'] / wall:6.1f} {t['self_s']:9.4f} "
                f"{100 * t['self_s'] / wall:6.1f}"
            )
        if fuzz:
            lines.append("ROADMAP criterion-5 breakdown beside this run:")
            for label, names, ref in layers.ROADMAP_FUZZ_SHARES:
                busy = sum(totals[n]["busy_s"] for n in names)
                lines.append(f"  {label:42} ROADMAP {ref:3d}%   measured "
                             f"{100 * busy / wall:5.1f}%")
        return "\n".join(lines)

    def write(self, path, header):
        """Write the spans (and a header dict) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "missing_layers": self.missing,
                       "span_fields": ["name", "start", "end", "parent",
                                       "op", "raised"],
                       "spans": self.spans}, fh)


def _vknots_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "vknots" or name.startswith("vknots."))
    ]


def leftover_wrappers():
    """(module, attribute) pairs in vknots that still hold a trace wrapper."""
    found = []
    for mod in _vknots_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "perfbench_layer"):
                found.append((mod.__name__, attr))
    return found
