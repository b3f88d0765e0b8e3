"""Span tracer for the benchmark's traced run.

The library's public functions are wrapped by replacing module attributes,
at the defining module and at every module that bound the same function
with ``from ... import`` (e.g. ``cli.build_deformed``).  A wrapped call
records a span (layer, start, end, parent) in memory while the tracer is
enabled, which the runner does only around a request.  A span's self time
is its duration minus the time covered by its child spans, so the self
times of all spans, the request spans included, add up to the traced wall
time exactly.  ``NonlinearityFunction.__call__`` costs about a microsecond,
less than a span, so it is counted and never spanned.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

REQUEST = "request"

# (layer, module, attribute) of every spanned public function
LAYERS = (
    ("states.ladder_elements", "states", "ladder_elements"),
    ("states.build_deformed", "states", "build_deformed"),
    ("states.continued_fraction_ratio", "states", "continued_fraction_ratio"),
    ("states.build_linear_closed", "states", "build_linear_closed"),
    ("states.build_hermite_reference", "states", "build_hermite_reference"),
    ("states.eigen_residual", "states", "eigen_residual"),
    ("states.convergence_report", "states", "convergence_report"),
    ("diagnostics.moments", "diagnostics", "moments"),
    ("diagnostics.full_report", "diagnostics", "full_report"),
    ("diagnostics.photon_distribution", "diagnostics", "photon_distribution"),
    ("husimi.husimi_grid", "husimi", "husimi_grid"),
    ("husimi.husimi_point", "husimi", "husimi_point"),
    ("husimi.husimi_norm_check", "husimi", "husimi_norm_check"),
    ("cli", "cli", "main"),
)
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _ladder_hook(tracer, args, kwargs, result):
    f, q, n_max = (_arg(args, kwargs, i, k) for i, k in enumerate(("f", "q", "n_max")))
    tracer.ladder_keys.add((f.kind, tuple(sorted(f.params.items())), q, n_max))
    tracer.counts["ladder_elements.elements"] += 2 * (n_max + 1)


def _build_hook(tracer, args, kwargs, result):
    tracer.counts["build_deformed.steps"] += _arg(args, kwargs, 3, "trunc").n_max
    if result is not None:
        tracer.counts["build_deformed.rescales"] += result.rescale_count


def _moments_hook(tracer, args, kwargs, result):
    state = _arg(args, kwargs, 0, "state")
    if state is not tracer.last_state:
        tracer.last_state = state
        tracer.counts["moments.states"] += 1


def _coeffs_hook(key):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += _arg(args, kwargs, 2, "trunc").n_max + 1
    return hook


def _grid_hook(tracer, args, kwargs, result):
    state = _arg(args, kwargs, 0, "state")
    nodes = _arg(args, kwargs, 2, "x_range")[2] * _arg(args, kwargs, 3, "y_range")[2]
    tracer.counts["husimi_grid.node_terms"] += nodes * (state.n_max + 1)


def _norm_hook(tracer, args, kwargs, result):
    state = _arg(args, kwargs, 0, "state")
    tracer.counts["husimi_norm_check.sample_terms"] += (
        _arg(args, kwargs, 1, "samples") * (state.n_max + 1))


HOOKS = {
    "states.ladder_elements": _ladder_hook,
    "states.build_deformed": _build_hook,
    "diagnostics.moments": _moments_hook,
    "states.build_linear_closed": _coeffs_hook("build_linear_closed.coeffs"),
    "states.build_hermite_reference": _coeffs_hook("build_hermite_reference.coeffs"),
    "husimi.husimi_grid": _grid_hook,
    "husimi.husimi_norm_check": _norm_hook,
}


class Tracer:
    """Spans and work counters of one traced run, kept in memory."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.ladder_keys: set = set()
        self.last_state = None
        self._restore: list = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> int:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()
        return self.end[i] - self.start[i]

    def _wrap(self, layer, fn):
        tracer, hook = self, HOOKS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            i = tracer.open(layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(i)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
        return wrapper

    def install(self, lib):
        """Wrap every layer of the imported library ``lib`` in place."""
        modules = [lib.package] + [getattr(lib, m) for m in ("states", "diagnostics", "husimi",
                                                             "cli", "nonlinearity")]
        for layer, module, attr in LAYERS:
            original = getattr(getattr(lib, module), attr)
            wrapped = self._wrap(layer, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, name, original))
                        setattr(m, name, wrapped)
        cls = lib.nonlinearity.NonlinearityFunction
        call = cls.__call__
        tracer = self

        def counted(f, n):
            if tracer.enabled:
                tracer.counts["nonlinearity.calls"] += 1
            return call(f, n)
        self._restore.append((cls, "__call__", call))
        cls.__call__ = counted

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def layer_metrics(self) -> dict:
        """Per-layer calls, self/total time and work counters, as
        name -> (value, unit)."""
        names = np.array(self.names, dtype=object)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_ns = dur - child
        wall_ns = int(dur[names == REQUEST].sum())
        m = {}

        def ns(layer, total=False):
            return int((dur if total else self_ns)[names == layer].sum())

        for layer in LAYER_NAMES:
            m[f"{layer}.calls"] = (int((names == layer).sum()), "count")
            m[f"{layer}.self_ms"] = (ns(layer) / 1e6, "ms")
            m[f"{layer}.total_ms"] = (ns(layer, total=True) / 1e6, "ms")
            m[f"{layer}.self_share"] = (ns(layer) / wall_ns if wall_ns else 0.0, "share")

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        ladder_calls = m["states.ladder_elements.calls"][0]
        m["nonlinearity.calls"] = (c["nonlinearity.calls"], "count")
        m["nonlinearity.calls_per_element"] = (
            ratio(c["nonlinearity.calls"], c["ladder_elements.elements"]), "count")
        m["states.ladder_elements.redundant_share"] = (
            ratio(ladder_calls - len(self.ladder_keys), ladder_calls), "share")
        m["states.build_deformed.steps"] = (c["build_deformed.steps"], "count")
        m["states.build_deformed.rescales"] = (c["build_deformed.rescales"], "count")
        m["states.build_deformed.ns_per_step"] = (
            ratio(ns("states.build_deformed"), c["build_deformed.steps"]), "ns")
        m["diagnostics.moments.calls_per_state"] = (
            ratio(m["diagnostics.moments.calls"][0], c["moments.states"]), "count")
        in_report = nested & (names == "states.build_deformed")
        in_report[in_report] = names[parent[in_report]] == "states.convergence_report"
        m["states.convergence_report.builds"] = (int(in_report.sum()), "count")
        for layer, key in (("states.build_linear_closed", "build_linear_closed.coeffs"),
                           ("states.build_hermite_reference", "build_hermite_reference.coeffs")):
            m[f"{layer}.ms_per_coeff"] = (ratio(ns(layer) / 1e6, c[key]), "ms")
        m["husimi.husimi_grid.ns_per_node_term"] = (
            ratio(ns("husimi.husimi_grid"), c["husimi_grid.node_terms"]), "ns")
        m["husimi.husimi_point.ns_per_call"] = (
            ratio(ns("husimi.husimi_point"), m["husimi.husimi_point.calls"][0]), "ns")
        m["husimi.husimi_norm_check.ns_per_sample_term"] = (
            ratio(ns("husimi.husimi_norm_check"), c["husimi_norm_check.sample_terms"]), "ns")
        m["trace.wall_ms"] = (wall_ns / 1e6, "ms")
        m["trace.unattributed_ms"] = (ns(REQUEST) / 1e6, "ms")
        m["trace.spans"] = (len(dur), "count")
        return m
