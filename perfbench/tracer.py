"""Outside-in tracer: wraps the program's public functions from outside.

Each traced function is replaced by a wrapper wherever any
``ratinglab.*`` module holds a reference to it, so ``from .x import y``
bindings are covered too.  Spans (name, start, end, parent) are kept in
memory; :func:`aggregate` turns them into totals, self times and call
counts.  A function that no longer exists is skipped and reports zero
calls.
"""

from __future__ import annotations

import functools
import sys
import time

# Span name -> (module, attribute path).  ``cli.<command>`` names the
# handler that ``cli.main`` dispatches to.
TARGETS = {
    "cli.main": ("ratinglab.cli", "main"),
    "cli.simulate": ("ratinglab.cli", "cmd_simulate"),
    "cli.counts": ("ratinglab.cli", "cmd_counts"),
    "cli.moments": ("ratinglab.cli", "cmd_moments"),
    "cli.homogeneity": ("ratinglab.cli", "cmd_homogeneity"),
    "cli.ck": ("ratinglab.cli", "cmd_ck"),
    "simulator.simulate": ("ratinglab.simulator", "simulate"),
    "simulator.load_scenario": ("ratinglab.simulator", "load_scenario"),
    "ingest.write_panel_csv": ("ratinglab.ingest", "write_panel_csv"),
    "ingest.infer_span": ("ratinglab.ingest", "infer_span"),
    "ingest.parse_panel": ("ratinglab.ingest", "parse_panel"),
    "ingest.daily_counts": ("ratinglab.ingest", "daily_counts"),
    "ingest.transitions_per_bank": ("ratinglab.ingest", "transitions_per_bank"),
    "ingest.write_count_series_csv": ("ratinglab.ingest", "write_count_series_csv"),
    "panel.states_at": ("ratinglab.panel", "Panel.states_at"),
    "panel.daily_state_counts": ("ratinglab.panel", "Panel.daily_state_counts"),
    "estimation.count_transitions": ("ratinglab.estimation", "count_transitions"),
    "estimation.exposures": ("ratinglab.estimation", "exposures"),
    "estimation.estimate_generator": ("ratinglab.estimation", "estimate_generator"),
    "estimation.matrix_exponential": ("ratinglab.estimation", "matrix_exponential"),
    "estimation.empirical_transition_matrix": ("ratinglab.estimation", "empirical_transition_matrix"),
    "diagnostics.rolling_series": ("ratinglab.diagnostics", "rolling_series"),
    "diagnostics.ck_deviation": ("ratinglab.diagnostics", "ck_deviation"),
    "diagnostics.homogeneity_statistic": ("ratinglab.diagnostics", "homogeneity_statistic"),
    "diagnostics.l2_norm": ("ratinglab.diagnostics", "l2_norm"),
    "diagnostics.write_test_series_csv": ("ratinglab.diagnostics", "write_test_series_csv"),
    "descriptive.moment_series": ("ratinglab.descriptive", "moment_series"),
    "descriptive.moments": ("ratinglab.descriptive", "moments"),
    "descriptive.write_moment_series_csv": ("ratinglab.descriptive", "write_moment_series_csv"),
}

# The first states_at / daily_state_counts on each freshly parsed panel
# also pays for building the panel's lazy array views.
FIRST_QUERY = "panel.first_query"
QUERIES = ("panel.states_at", "panel.daily_state_counts")
LAYERS = ("cli", "simulator", "ingest", "panel", "estimation", "diagnostics", "descriptive")
SPAN_NAMES = tuple(TARGETS) + (FIRST_QUERY,)


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores the program."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._fresh: set[int] = set()  # ids of parsed panels not yet queried
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func):
        tracer = self

        if name == "ingest.parse_panel":
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                index = tracer._open(name)
                try:
                    panel = func(*args, **kwargs)
                finally:
                    tracer._close(index)
                tracer._fresh.add(id(panel))
                return panel
        elif name in QUERIES:
            @functools.wraps(func)
            def wrapper(panel, *args, **kwargs):
                first = None
                if id(panel) in tracer._fresh:
                    tracer._fresh.discard(id(panel))
                    first = tracer._open(FIRST_QUERY)
                index = tracer._open(name)
                try:
                    return func(panel, *args, **kwargs)
                finally:
                    tracer._close(index)
                    if first is not None:
                        tracer._close(first)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                index = tracer._open(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._close(index)
        return wrapper

    # -- installing ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "ratinglab" or key.startswith("ratinglab."))]
        for name, (module_name, path) in TARGETS.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__.get(attr)
            if original is None:
                continue  # removed by a refactor: reports zero calls
            if owner_name:  # an attribute of a class, shared by every holder
                self._set(owner, attr, self._wrap_attribute(name, attr, owner, original))
                continue
            wrapper = self._wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, key, wrapper)

    def _wrap_attribute(self, name: str, attr: str, owner, original):
        if isinstance(original, functools.cached_property):
            replaced = functools.cached_property(self._wrap(name, original.func))
            replaced.__set_name__(owner, attr)
            return replaced
        if isinstance(original, property):
            return property(self._wrap(name, original.fget))
        return self._wrap(name, original)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        self._fresh.clear()


def aggregate(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: total seconds ``s``, ``self_s`` and ``calls``.

    Self time is a span's duration minus that of its direct children;
    spans on one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(tracer.names)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child_time[parent] += tracer.ends[i] - tracer.starts[i]
    out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
    for i, name in enumerate(tracer.names):
        d = tracer.ends[i] - tracer.starts[i]
        row = out[name]
        row["s"] += d
        row["self_s"] += d - child_time[i]
        row["calls"] += 1
    return out


def spans_as_records(tracer: Tracer) -> list[list]:
    """[name, start, end, parent] per span, for writing out at the end."""
    return [list(r) for r in zip(tracer.names, tracer.starts, tracer.ends, tracer.parents)]
