"""Span recorder that times busloss's public functions from outside the package.

Each wrapped function becomes a layer named `<module>.<function>`. While a
`Tracer` is installed, every call records a span (layer, start, end, parent,
error flag, work counts) in memory; nothing is written until the run ends.
The wrapper replaces the function at every busloss module that holds it by
name, so `from .models import builtin_registry` inside `cli` is traced too.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

MODULES = ("busloss", "busloss.cli", "busloss.fit", "busloss.pdp",
           "busloss.geometry", "busloss.linkbudget", "busloss.models")


@dataclass
class Span:
    layer: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0


@functools.lru_cache(maxsize=8)
def _tree_bytes(root: str) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def _load_dir_counts(arg, sets):
    sweeps = [rec for mset in sets for rec in mset.sweeps]
    return {"files": len(sweeps), "bins": sum(len(rec) for rec in sweeps),
            "bytes": _tree_bytes(os.fspath(arg["root"]))}


def _partition_counts(arg, result):
    return {"cells_fitted": len(result.fits), "cells_skipped": len(result.skipped)}


def _draw_links(arg, result):
    return {"draw_links": arg["n_draws"] * len(result)}


# (module, function, layer, counter). A counter maps the call's bound
# arguments and its result to the work done; it runs after the span ends.
TARGETS = (
    ("pdp", "load_measurement_dir", "pdp.load_measurement_dir", _load_dir_counts),
    ("pdp", "aggregate_measurement", "pdp.aggregate_measurement",
     lambda arg, r: {"sweeps": len(arg["mset"].sweeps)}),
    ("fit", "samples_to_csv", "fit.samples_to_csv",
     lambda arg, r: {"rows": len(arg["samples"]), "bytes": len(r)}),
    ("fit", "samples_from_csv", "fit.samples_from_csv",
     lambda arg, r: {"rows": len(r), "bytes": len(arg["text"])}),
    ("fit", "fit_by_partition", "fit.fit_by_partition", _partition_counts),
    ("fit", "fit_log_distance", "fit.fit_log_distance",
     lambda arg, r: {"samples": r.n}),
    ("linkbudget", "interference_footprint", "linkbudget.interference_footprint",
     _draw_links),
    ("linkbudget", "empirical_coverage", "linkbudget.empirical_coverage",
     _draw_links),
    ("linkbudget", "seat_sweep", "linkbudget.seat_sweep",
     lambda arg, r: {"seats": len(r)}),
    ("linkbudget", "reports_to_csv", "linkbudget.emit", None),
    ("linkbudget", "report_to_dict", "linkbudget.emit", None),
    ("linkbudget", "footprint_to_csv", "linkbudget.emit", None),
    ("linkbudget", "footprint_to_dict", "linkbudget.emit", None),
    ("cli", "build_parser", "cli.build_parser", None),
    # main reports failure as a nonzero exit code rather than raising.
    ("cli", "main", "cli.main", lambda arg, r: {"errors": int(r != 0)}),
    ("geometry", "default_layout", "geometry.default_layout", None),
    ("geometry", "load_layout", "geometry.load_layout", None),
    ("models", "builtin_registry", "models.builtin_registry", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in TARGETS))


class Tracer:
    """Collects spans while installed; `take()` hands them over and clears."""

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._open: list[Span] = []

    def _wrap(self, fn, layer, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, self._open[-1] if self._open else None)
            self._open.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                self._open.pop()
                self._spans.append(span)
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
            if counter is not None:
                span.counts = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target at every busloss module; restore on exit."""
        modules = [sys.modules[name] for name in MODULES]
        patched = []
        for mod_name, fn_name, layer, counter in TARGETS:
            original = getattr(sys.modules[f"busloss.{mod_name}"], fn_name)
            wrapper = self._wrap(original, layer, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def take(self) -> list[Span]:
        spans, self._spans = self._spans, []
        return spans


def summarise(spans: list[Span]) -> dict:
    """Per-layer totals of one iteration: inclusive and self seconds, calls,
    errors and summed counts; plus the inclusive seconds of top-level spans."""
    out = {layer: {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0}
           for layer in LAYERS}
    toplevel = 0.0
    for span in spans:
        row = out[span.layer]
        duration = span.end - span.start
        row["s"] += duration
        row["self_s"] += duration - span.child_s
        row["calls"] += 1
        row["errors"] += span.error
        for key, value in span.counts.items():
            row[key] = row.get(key, 0) + value
        if span.parent is None:
            toplevel += duration
    return {"layers": out, "toplevel_s": toplevel}
