"""Span tracing around the public functions of each coarraylab module.

The tracer wraps every public module-level function of the package layers
and patches the wrapper into every namespace that holds the original: the
defining module, the package root, modules that imported the name directly
(``estimation`` imports ``simulate_snapshots``, ``verify`` imports
``difference_set``) and module-level registries such as
``verify._CHECKERS``.  Spans stay in memory as plain tuples and are written
out once, when the run ends.  Nothing inside ``src/coarraylab`` changes.
"""

from __future__ import annotations

import gzip
import inspect
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, NamedTuple

LAYERS = ("geometry", "coarray", "coupling", "signal", "estimation", "verify", "presets", "cli")


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: object


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_spectrum(fn, args, kwargs, result, counters):
    bound = _bound(fn, args, kwargs)
    evals = bound["r_ss"].shape[0] * bound["config"].grid_points
    counters["estimation.music_spectrum.grid_evals"] += evals
    counters["estimation.music_spectrum.steering_bytes"] += 16 * evals


def _count_snapshots(fn, args, kwargs, result, counters):
    bound = _bound(fn, args, kwargs)
    counters["signal.simulate_snapshots.samples"] += bound["array"].n * bound["scenario"].snapshots


def _count_detection(fn, args, kwargs, result, counters):
    counters["estimation.trials_estimated"] += 1
    counters["estimation.trials_detected"] += int(not result.under_detected)


def _count_report(fn, args, kwargs, result, counters):
    counters["verify.reports"] += 1
    counters["verify.reports_passed"] += int(result.passed)


#: Work counters taken at the layer boundary, keyed by traced name.
COUNTERS: dict[str, Callable] = {
    "estimation.music_spectrum": _count_spectrum,
    "signal.simulate_snapshots": _count_snapshots,
    "estimation.estimate_doas": _count_detection,
    **{f"verify.check_lemma{k}": _count_report for k in (1, 2, 3, 4)},
    "verify.check_weights": _count_report,
}


class Tracer:
    """Records one span per call of a wrapped function while installed.

    ``run`` labels the spans of one top-level call (or ``"setup"``), so all
    spans of one operation share an identifier.
    """

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.run: object = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = Span(sid, name, start, end, parent, self.run)
            if hook is not None:
                hook(fn, args, kwargs, result, counters)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package) -> None:
        """Patch wrappers into every namespace of ``package``."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))

        def lookup(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for namespace in [package, *modules]:
            for attr, value in list(vars(namespace).items()):
                if attr.startswith("__"):
                    continue
                wrapper = lookup(value)
                if wrapper is not None:
                    setattr(namespace, attr, wrapper)
                    self._undo.append((setattr, namespace, attr, value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        wrapper = lookup(item)
                        if wrapper is not None:
                            value[key] = wrapper
                            self._undo.append((dict.__setitem__, value, key, item))

    def uninstall(self) -> None:
        while self._undo:
            restore, target, key, original = self._undo.pop()
            restore(target, key, original)

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.finished():
                fh.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start) - covered_length(children[s.span_id], s.start, s.end)
        for s in spans
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    trials: int,
    ops_wall_s: float,
    untraced_wall_s: float,
) -> dict[str, float]:
    """Per-function calls and self times, per-module self times and shares,
    and the derived work counters.

    Function and module figures cover the spans of the timed operations;
    ``setup.*`` covers the traced set-up.  Shares are self time divided by
    ``trace.ops_wall_s``, the traced wall time of the same operations.
    Ratios whose base is zero read 0.
    """
    spans = tracer.finished()
    own = self_times(spans)
    metrics: dict[str, float] = defaultdict(float)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if s.run == "setup":
            metrics[f"setup.{layer}.self_s"] += own[s.span_id]
            continue
        metrics[f"{s.name}.calls"] += 1
        metrics[f"{s.name}.self_s"] += own[s.span_id]
        metrics[f"{layer}.self_s"] += own[s.span_id]
    for layer in LAYERS:
        metrics[f"{layer}.share"] = _ratio(metrics[f"{layer}.self_s"], ops_wall_s)
    metrics["estimation.music_spectrum.share"] = _ratio(
        metrics["estimation.music_spectrum.self_s"], ops_wall_s
    )
    c = tracer.counters
    for name in (
        "estimation.music_spectrum.grid_evals",
        "estimation.music_spectrum.steering_bytes",
        "signal.simulate_snapshots.samples",
    ):
        metrics[name] = c[name]
    metrics["estimation.detected_ratio"] = _ratio(
        c["estimation.trials_detected"], c["estimation.trials_estimated"]
    )
    metrics["verify.passed_ratio"] = _ratio(c["verify.reports_passed"], c["verify.reports"])
    for name in ("signal.simulate_snapshots", "coarray.sum_difference_coarray"):
        metrics[f"{name}.calls_per_trial"] = _ratio(metrics[f"{name}.calls"], trials)
    metrics["trace.spans"] = len(spans)
    metrics["trace.ops_wall_s"] = ops_wall_s
    metrics["trace.untraced_wall_s"] = untraced_wall_s
    metrics["trace.overhead_s"] = ops_wall_s - untraced_wall_s
    return dict(metrics)
