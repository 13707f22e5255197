"""In-memory spans recorded around the calls into each qionize layer.

The wrappers live here, outside the package: patched() swaps the module
attributes that the benchmark and the package call through, and restores
them on exit. A span is a dict with id, name, start and end (perf_counter
ns), parent (span id or None) and request (the id shared by every span under
one top-level call), plus per-boundary counts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, List

import numpy as np

from qionize import observables, oracle, sweep
from qionize.observables import TabulatedKernel

from workloads import INTEGRAL_NAMES


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._requests = 0

    def current(self):
        return self.spans[self._stack[-1]] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self.current()
        if parent is None:
            request = self._requests
            self._requests += 1
        else:
            request = parent["request"]
        record = {"id": len(self.spans), "name": name,
                  "parent": None if parent is None else parent["id"],
                  "request": request, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()


def seconds(span) -> float:
    return (span["end"] - span["start"]) * 1e-9


def named(spans: Iterable[Dict], name: str) -> List[Dict]:
    return [s for s in spans if s["name"] == name]


def self_seconds(span, spans: List[Dict]) -> float:
    """Span duration minus the time its direct children cover."""
    covered = sum(seconds(s) for s in spans if s["parent"] == span["id"])
    return seconds(span) - covered


def _wrap_call(tracer: Tracer, name: str, func):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return func(*args, **kwargs)

    return wrapper


def _wrap_integrate(tracer: Tracer, func):
    # observables calls integrate_2d six times per enhancement_ratio, in
    # INTEGRAL_NAMES order; the parent ratio span counts the calls
    def integrate_2d(f, domain, spec=None, initial_panels=(2, 2)):
        parent = tracer.current()
        index = 0
        if parent is not None and parent["name"] == "enhancement_ratio":
            index = parent["integrals"]
            parent["integrals"] += 1
        name = INTEGRAL_NAMES[index] if index < len(INTEGRAL_NAMES) else f"I{index}"
        with tracer.span("integrate_2d", integral=name, rounds=0, max_nodes=0) as record:

            def integrand(x, y):
                with tracer.span("integrand"):
                    values = f(x, y)
                record["rounds"] += 1
                record["max_nodes"] = max(record["max_nodes"], int(np.size(values)))
                return values

            result = func(integrand, domain, spec, initial_panels)
            record["evals"] = result.evals
            return result

    return integrate_2d


def _wrap_ratio(tracer: Tracer, func):
    def enhancement_ratio(*args, **kwargs):
        with tracer.span("enhancement_ratio", integrals=0):
            return func(*args, **kwargs)

    return enhancement_ratio


@contextmanager
def patched(tracer: Tracer):
    """Route the layer boundaries through tracer for the duration."""
    ratio = _wrap_ratio(tracer, observables.enhancement_ratio)
    replacements = [
        (observables, "enhancement_ratio", ratio),
        (sweep, "enhancement_ratio", ratio),
        (observables, "integrate_2d", _wrap_integrate(tracer, observables.integrate_2d)),
        (TabulatedKernel, "evaluate",
         _wrap_call(tracer, "kernel.evaluate", TabulatedKernel.evaluate)),
        (sweep, "run_sweep", _wrap_call(tracer, "run_sweep", sweep.run_sweep)),
        (sweep, "write_csv", _wrap_call(tracer, "write_csv", sweep.write_csv)),
        (sweep, "write_jsonl", _wrap_call(tracer, "write_jsonl", sweep.write_jsonl)),
        (oracle, "mc_enhancement_ratio",
         _wrap_call(tracer, "mc_enhancement_ratio", oracle.mc_enhancement_ratio)),
        (oracle, "mc_integral", _wrap_call(tracer, "mc_integral", oracle.mc_integral)),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, wrapper in replacements:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
