"""Span tracing around calls into foldspec's public functions, from outside.

`Tracer.installed()` replaces each traced function with a wrapper at every
place a caller looks it up: the defining module's attribute and every other
foldspec module that bound the same object with `from ... import`. The
originals come back when the context exits, so untraced repetitions in the
same process run the unmodified program.

Spans are aggregated as they close (calls, busy time, self time, failures)
rather than stored one by one: algebra.compare alone runs ~600k times per
repetition. A span's self time is its duration minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

import foldspec.cli
from foldspec import algebra, courant, eigenfn, folding, nodal, qlattice, spectrum


@dataclass
class SpanStat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    failures: int = 0


# span name -> (module object, attribute name) of the function to wrap
SPANS = {
    "cli.main": (foldspec.cli, "main"),
    "courant.classify": (courant, "classify"),
    "spectrum.build_index": (spectrum, "build_index"),
    "qlattice.enumerate_below": (qlattice, "enumerate_below"),
    "algebra.compare": (algebra, "compare"),
    "algebra.is_below": (algebra, "is_below"),
    "folding.partition_count": (folding, "partition_count"),
    "eigenfn.eval_on_axes": (eigenfn, "eval_on_axes"),
    "nodal.count_grid": (nodal, "count_grid"),
    "nodal.deficiency_bound": (nodal, "deficiency_bound"),
}

# called too often to time cheaply, and cheap each time: counted only
COUNTS = {
    "algebra.from_quantum_number": (algebra, "from_quantum_number"),
}


def _foldspec_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "foldspec" or name.startswith("foldspec."))
    ]


class Tracer:
    """Aggregated spans and counters for one traced repetition."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStat] = {name: SpanStat() for name in SPANS}
        self.stats["spectrum.counting"] = SpanStat()
        self.stats["nodal.label"] = SpanStat()
        self.stats["folding.label"] = SpanStat()
        self.counts: dict[str, int] = {
            "algebra.from_quantum_number.calls": 0,
            "qlattice.points": 0,
            "qlattice.exact_checks": 0,
            "spectrum.levels": 0,
            "eigenfn.eval_on_axes.elements": 0,
            "nodal.label.pixels": 0,
            "folding.label.pixels": 0,
            "folding.partition_count.misses": 0,
        }
        # one entry per open span: time covered by its direct children so far
        self._children: list[float] = []
        self._enumerating = 0  # depth of open qlattice.enumerate_below spans

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        stat = self.stats[name]
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stat.failures += 1
                raise
            finally:
                dt = clock() - t0
                inner = children.pop()
                stat.calls += 1
                stat.busy_s += dt
                stat.self_s += dt - inner
                if children:
                    children[-1] += dt
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, fn):
        if name == "qlattice.enumerate_below":
            inner = self._span(name, fn, after=self._after_enumerate)

            @functools.wraps(fn)
            def enumerate_wrapper(*args, **kwargs):
                self._enumerating += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    self._enumerating -= 1

            return enumerate_wrapper
        if name == "algebra.is_below":
            inner = self._span(name, fn)

            @functools.wraps(fn)
            def is_below_wrapper(*args, **kwargs):
                if self._enumerating:
                    self.counts["qlattice.exact_checks"] += 1
                return inner(*args, **kwargs)

            return is_below_wrapper
        if name == "spectrum.build_index":
            return self._span(name, fn, after=self._after_build)
        if name == "eigenfn.eval_on_axes":
            return self._span(name, fn, after=self._after_eval)
        if name == "folding.partition_count":
            return self._partition_wrapper(fn)
        return self._span(name, fn)

    def _after_enumerate(self, args, region) -> None:
        self.counts["qlattice.points"] += len(region.points)

    def _after_build(self, args, index) -> None:
        self.counts["spectrum.levels"] += len(index)

    def _after_eval(self, args, values) -> None:
        self.counts["eigenfn.eval_on_axes.elements"] += int(np.size(values))

    def _partition_wrapper(self, cached):
        timed = self._span("folding.partition_count", cached)

        @functools.wraps(cached)
        def wrapper(*args, **kwargs):
            before = cached.cache_info().misses
            try:
                return timed(*args, **kwargs)
            finally:
                self.counts["folding.partition_count.misses"] += (
                    cached.cache_info().misses - before
                )

        # callers (and the benchmark's cold-state reset) keep the cache API
        wrapper.cache_clear = cached.cache_clear
        wrapper.cache_info = cached.cache_info
        return wrapper

    def _label_proxy(self, owner: str):
        """Stand-in for scipy.ndimage inside one module; label is traced."""
        label = self._span(f"{owner}.label", ndimage.label)
        pixels = f"{owner}.label.pixels"
        counts = self.counts

        def traced_label(image, *args, **kwargs):
            counts[pixels] += int(np.size(image))
            return label(image, *args, **kwargs)

        class Proxy:
            def __getattr__(self, attr):
                return getattr(ndimage, attr)

        proxy = Proxy()
        proxy.label = traced_label
        return proxy

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original bindings on exit."""
        saved: list[tuple[object, str, object]] = []

        def rebind(original, replacement) -> int:
            hits = 0
            for module in _foldspec_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, value))
                        setattr(module, attr, replacement)
                        hits += 1
            return hits

        try:
            for name, (module, attr) in SPANS.items():
                original = getattr(module, attr)
                if rebind(original, self._wrap(name, original)) == 0:
                    raise RuntimeError(f"no binding of {name} found to trace")
            for name, (module, attr) in COUNTS.items():
                original = getattr(module, attr)
                rebind(original, self._counter(f"{name}.calls", original))
            counting = spectrum.SpectrumIndex.counting
            saved.append((spectrum.SpectrumIndex, "counting", counting))
            spectrum.SpectrumIndex.counting = self._span("spectrum.counting", counting)
            for owner, module in (("nodal", nodal), ("folding", folding)):
                if module.ndimage is not ndimage:
                    raise RuntimeError(f"{owner}.ndimage is not scipy.ndimage")
                saved.append((module, "ndimage", ndimage))
                module.ndimage = self._label_proxy(owner)
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics of everything recorded so far."""
        s, c = self.stats, self.counts
        out: dict[str, float] = {}
        for name in (
            "spectrum.build_index", "qlattice.enumerate_below", "algebra.compare",
            "algebra.is_below", "folding.partition_count", "eigenfn.eval_on_axes",
            "nodal.count_grid", "nodal.label", "nodal.deficiency_bound",
            "spectrum.counting",
        ):
            out[f"{name}.calls"] = s[name].calls
            out[f"{name}.busy_s"] = s[name].busy_s
        out["cli.main.busy_s"] = s["cli.main"].busy_s
        out["cli.self_s"] = s["cli.main"].self_s
        out["courant.classify.busy_s"] = s["courant.classify"].busy_s
        out["courant.self_s"] = s["courant.classify"].self_s
        out["spectrum.build_index.self_s"] = s["spectrum.build_index"].self_s
        out["nodal.count_grid.self_s"] = s["nodal.count_grid"].self_s
        out["nodal.count_grid.failures"] = s["nodal.count_grid"].failures
        out.update(c)
        checks = c["qlattice.exact_checks"]
        out["qlattice.keep_ratio"] = c["qlattice.points"] / checks if checks else 0.0
        points = c["qlattice.points"]
        out["algebra.values_per_point"] = (
            c["algebra.from_quantum_number.calls"] / points if points else 0.0
        )
        return out
