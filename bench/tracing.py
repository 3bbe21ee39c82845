"""Layer tracing for the benchmark's traced run.

The tracer wraps public functions of each layer by replacing the module
attribute the callers look up, so nothing inside ``cfqm`` is edited and no
private name is touched.  Three lookups matter:

* ``bounds`` imported ``sum_tail`` into its own namespace, so the call
  sites in ``bounds`` only see a wrapper installed on ``bounds.sum_tail``;
* ``propagators`` calls ``np.linalg.eigh`` by attribute, so the dense
  kernel is traced on the ``numpy.linalg`` module;
* ``planner.sweep`` calls ``plan`` through the planner module globals, so
  the sweep's plans are traced like direct ones.

Spans are aggregated in memory as they close (calls, total seconds, self
seconds per name) instead of being stored one by one: a plan-grid round
opens ~5*10^4 spans, and keeping them would grow the traced process's
memory far beyond the untraced one's.  Self time is a span's duration
minus the durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

import numpy as np

from cfqm import bounds, cli, planner, propagators, schemes, series_core, spin_model
from cfqm.errors import DivergentRegimeError

#: (module, attribute, span name) for every traced entry point.
TRACED = (
    (cli, "main", "cli.main"),
    (planner, "plan", "planner.plan"),
    (planner, "sweep", "planner.sweep"),
    (bounds, "step_error", "bounds.step_error"),
    (bounds, "magnus_remainder", "bounds.magnus_remainder"),
    (bounds, "cfqm_remainder", "bounds.cfqm_remainder"),
    (bounds, "quadrature_remainder", "bounds.quadrature_remainder"),
    (bounds, "trotter_step_error", "bounds.trotter_step_error"),
    (bounds, "sum_tail", "series_core.sum_tail"),
    (series_core, "sum_tail", "series_core.sum_tail"),
    (schemes, "compute_cbar", "schemes.compute_cbar"),
    (schemes, "load_scheme", "schemes.load_scheme"),
    (propagators, "trotterized_cfqm_step", "propagators.trotterized_cfqm_step"),
    (propagators, "cfqm_step", "propagators.cfqm_step"),
    (propagators, "split_step", "propagators.split_step"),
    (propagators, "reference_propagator", "propagators.reference_propagator"),
    (propagators, "spectral_distance", "propagators.spectral_distance"),
    (spin_model, "split_at", "spin_model.split_at"),
    (spin_model, "hamiltonians_at", "spin_model.hamiltonians_at"),
    (np.linalg, "eigh", "numpy.eigh"),
)


class Tracer:
    """Span aggregates plus the counts measured at the same boundaries."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = Counter()
        self._stack: list[list] = []  # [name, child seconds] per open span

    def take(self) -> tuple[dict, Counter]:
        """Return the aggregates gathered so far and start new ones."""
        spans, counts = dict(self.spans), self.counts
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = Counter()
        return spans, counts

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += duration
            agg = self.spans[name]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[1]


def _plain(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return traced


def _step_error(tracer: Tracer, name: str, fn):
    """Also counts plan attempts and the guard trips among them."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.parent() != "planner.plan":
            return tracer.call(name, fn, *args, **kwargs)
        tracer.counts["planner.plan.attempts"] += 1
        try:
            return tracer.call(name, fn, *args, **kwargs)
        except DivergentRegimeError:
            tracer.counts["planner.plan.guard_trips"] += 1
            raise

    return traced


def _sum_tail(tracer: Tracer, name: str, fn):
    """Also counts the tail terms evaluated."""

    @functools.wraps(fn)
    def traced(term, *args, **kwargs):
        def counted(p):
            tracer.counts["series_core.sum_tail.terms"] += 1
            return term(p)

        return tracer.call(name, fn, counted, *args, **kwargs)

    return traced


def _eigh(tracer: Tracer, name: str, fn):
    """Also accumulates the computed work sum(batch * d**3)."""

    @functools.wraps(fn)
    def traced(a, *args, **kwargs):
        shape = np.shape(a)
        tracer.counts["numpy.eigh.d3"] += math.prod(shape[:-2]) * shape[-1] ** 3
        return tracer.call(name, fn, a, *args, **kwargs)

    return traced


def _hamiltonians_at(tracer: Tracer, name: str, fn):
    """Also counts the micro-step times the reference asks for."""

    @functools.wraps(fn)
    def traced(model, times, *args, **kwargs):
        tracer.counts["propagators.reference_propagator.microsteps"] += np.size(times)
        return tracer.call(name, fn, model, times, *args, **kwargs)

    return traced


def _reference_propagator(tracer: Tracer, name: str, fn):
    """Also counts memo hits: a call that builds no micro-step
    Hamiltonians was answered from the memo."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        key = "propagators.reference_propagator.microsteps"
        before = tracer.counts[key]
        result = tracer.call(name, fn, *args, **kwargs)
        if tracer.counts[key] == before:
            tracer.counts["propagators.reference_propagator.cache_hits"] += 1
        return result

    return traced


_WRAPPERS = {
    "bounds.step_error": _step_error,
    "series_core.sum_tail": _sum_tail,
    "numpy.eigh": _eigh,
    "spin_model.hamiltonians_at": _hamiltonians_at,
    "propagators.reference_propagator": _reference_propagator,
}


def install() -> Tracer:
    """Wrap every entry point in ``TRACED`` and return the tracer."""
    tracer = Tracer()
    for module, attr, name in TRACED:
        factory = _WRAPPERS.get(name, _plain)
        setattr(module, attr, factory(tracer, name, getattr(module, attr)))
    return tracer
