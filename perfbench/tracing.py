"""Span tracer for the benchmark's traced runs.

The tracer replaces each traced perdec function at every module binding
that holds it.  `from .orbits import find_relation` copies the binding into
`perdec.decomp`, so wrapping `perdec.orbits.find_relation` alone would miss
the calls the constructions make; the tracer therefore scans every perdec
module namespace (and the package namespace) for the same function object.
Nothing inside perdec changes: spans sit at the layer boundaries, as seen
from the benchmark.

A span is (name, start, end, parent, op).  Spans stay in memory while the
traced pass runs and are written out by the caller at the end.  Self time
is a span's duration minus the part its direct children cover.  Calls made
while no op is active (input generation, cross-checks) pass straight
through and are not recorded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("cli", "serialize", "decomp", "star", "kernels", "orbits",
          "cohomology", "oracle", "lattice", "core", "generators")

# Per-element helpers: called once per value or per power step, so a span
# each would cost more than the work.  Their time stays with the caller.
_PER_ELEMENT = {"as_fraction", "compose", "frac_to_str", "frac_from_json"}

# Private functions traced because a per-layer metric is defined on them.
_PRIVATE_TRACED = {("orbits", "_word_grid")}

# Span-name groups behind the named per-layer time metrics.
GROUPS = {
    "kernels.star_scan": ("kernels.star_scan",),
    "kernels.compat_scan": ("kernels.compat_scan",),
    "star.check_star": ("star.check_star",),
    "star.abelian": ("star.check_star_abelian",),
    "star.replay": ("star.replay_violation", "star.replay_abelian_violation"),
    "orbits.find_relation": ("orbits.find_relation",),
    "orbits.prescribed_points": ("orbits.prescribed_points",),
    "oracle.elim": ("oracle.linear_feasibility",),
    "oracle.nullspace": ("oracle.nullspace",),
    "cli.verify": ("cli._verify_*",),
    "core.validate": ("core.validate_system", "core.validate_transform",
                      "core.CommutingSystem.__post_init__"),
    "core.verify": ("core.verify_decomposition",),
}

# Work counters, taken from call arguments or return values.
COUNTERS = (
    "kernels.star_scan.cells", "kernels.star_scan.hits",
    "kernels.compat_scan.cells",
    "kernels.route.pure", "kernels.route.compiled",
    "kernels.route.int64_fallback",
    "orbits.find_relation.found", "orbits.find_relation.grid_cells",
    "oracle.elim.cells", "oracle.dual.max_bits",
    "serialize.bytes_in", "serialize.bytes_out",
)
# The counters computed from a call's arguments rather than its result.
COMPUTED = ("kernels.star_scan.cells", "kernels.compat_scan.cells",
            "kernels.route.pure", "kernels.route.compiled",
            "kernels.route.int64_fallback", "orbits.find_relation.grid_cells",
            "oracle.elim.cells", "serialize.bytes_in")


def _kernel_route(kernels, f_num, bound) -> str:
    """The branch the dispatcher takes, by its own predicate."""
    if kernels._compiled is None:
        return "pure"
    if kernels._fits_int64(f_num, bound):
        return "compiled"
    return "int64_fallback"


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


class Tracer:
    """Records spans and work counters for calls made inside an op."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Optional[Tuple[int, float, float, int, int]]] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced perdec function at all of its bindings."""
        from perdec import core, kernels

        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "perdec" or name.startswith("perdec."))
                   and isinstance(m, types.ModuleType)]
        wrappers: Dict[object, Callable] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                # perdec._kernels_py is reached only through the dispatcher
                # in perdec.kernels, which is what gets traced
                package, _, layer = obj.__module__.partition(".")
                if package != "perdec" or layer not in LAYERS:
                    continue
                name = obj.__name__
                traced = (not name.startswith("_")
                          or (layer, name) in _PRIVATE_TRACED
                          or (layer == "cli" and name.startswith("_verify_")))
                if not traced or name in _PER_ELEMENT:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}",
                                               self._counter_for(layer, name,
                                                                 kernels))
                self._replace(module, attr, wrappers[obj])
        post_init = core.CommutingSystem.__post_init__
        self._replace(core.CommutingSystem, "__post_init__",
                      self._wrap(post_init,
                                 "core.CommutingSystem.__post_init__", None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _counter_for(self, layer: str, name: str, kernels):
        c = self.counters
        if (layer, name) == ("kernels", "star_scan"):
            def count(a, result):
                f_num, bound = a["f_num"], a["bound"]
                c["kernels.star_scan.cells"] += len(f_num) * _prod(a["kmax"])
                c["kernels.star_scan.hits"] += result is not None
                c["kernels.route." + _kernel_route(kernels, f_num, bound)] += 1
            return count
        if (layer, name) == ("kernels", "compat_scan"):
            def count(a, result):
                f_num, bound = a["f_num"], a["bound"]
                c["kernels.compat_scan.cells"] += len(f_num) * (bound + 1) ** 2
                c["kernels.route." + _kernel_route(kernels, f_num, bound)] += 1
            return count
        if (layer, name) == ("orbits", "find_relation"):
            def count(a, result):
                c["orbits.find_relation.found"] += result is not None
            return count
        if (layer, name) == ("orbits", "_word_grid"):
            def count(a, result):
                c["orbits.find_relation.grid_cells"] += (a["bound"] + 1) ** 2
            return count
        if (layer, name) == ("oracle", "linear_feasibility"):
            def count(a, result):
                m = len(a["rows"])
                c["oracle.elim.cells"] += m * (a["ncols"] + 1 + m)
                dual = result[1]
                if dual:
                    bits = max(abs(w).bit_length() for w in dual)
                    c["oracle.dual.max_bits"] = max(c["oracle.dual.max_bits"],
                                                    bits)
            return count
        if (layer, name) == ("serialize", "load_json"):
            def count(a, result):
                c["serialize.bytes_in"] += len(a["text"].encode())
            return count
        if (layer, name) == ("serialize", "dumps"):
            def count(a, result):
                c["serialize.bytes_out"] += len(result.encode())
            return count
        return None

    def _wrap(self, fn: Callable, name: str, count) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        bind = inspect.signature(fn).bind if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, op)
            if count is not None:
                count(bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def per_name(self) -> Dict[str, Tuple[int, float]]:
        """name -> (calls, self seconds)."""
        out: Dict[str, List] = defaultdict(lambda: [0, 0.0])
        for span, own in zip(self.spans, self.self_times()):
            entry = out[self.names[span[0]]]
            entry[0] += 1
            entry[1] += own
        return {name: (calls, own) for name, (calls, own) in out.items()}

    def write_spans(self, path: str) -> None:
        """One line per span: name, op, parent, start and duration in ns."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\top\tparent\tstart_ns\tdur_ns\n")
            for name_id, start, end, parent, op in self.spans:
                fh.write(f"{self.names[name_id]}\t{op}\t{parent}\t"
                         f"{round((start - base) * 1e9)}\t"
                         f"{round((end - start) * 1e9)}\n")


def _matches(name: str, pattern: str) -> bool:
    if pattern.endswith("*"):
        return name.startswith(pattern[:-1])
    return name == pattern


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer calls and self time, grouped span metrics and counters."""
    per_name = tracer.per_name()
    out: Dict[str, float] = {}
    for layer in LAYERS:
        calls = sum(c for n, (c, _) in per_name.items()
                    if n.startswith(layer + "."))
        own = sum(s for n, (_, s) in per_name.items()
                  if n.startswith(layer + "."))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = own
    for group, patterns in GROUPS.items():
        hits = [(c, s) for n, (c, s) in per_name.items()
                if any(_matches(n, p) for p in patterns)]
        out[f"{group}.calls"] = sum(c for c, _ in hits)
        out[f"{group}.self_s"] = sum(s for _, s in hits)
    for key in COUNTERS:
        out[key] = tracer.counters.get(key, 0)
    scans = out["kernels.star_scan.calls"]
    out["kernels.star_scan.hit_ratio"] = (
        out["kernels.star_scan.hits"] / scans if scans else 0.0)
    searches = out["orbits.find_relation.calls"]
    out["orbits.find_relation.found_ratio"] = (
        out["orbits.find_relation.found"] / searches if searches else 0.0)
    return out
