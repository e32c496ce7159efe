"""In-memory span recorder for the benchmark.

A span is one timed call: name, layer (the helmdd module that owns the
code), start, end, parent span and optional attributes.  Spans are kept in
a list and written out only when the run ends.  Calls are timed from the
benchmark's own files: the pipeline opens spans around the public calls it
makes, and ``instrument`` swaps a few module attributes for timing wrappers
for the duration of a traced repetition.
"""

import time
from contextlib import contextmanager

import scipy.sparse.linalg as spla

import helmdd.eigencoarse as eigencoarse


class Tracer:
    """Collects nested spans of one process (single-threaded use)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, layer, **attrs):
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, layer, annotate=None):
        """Return ``fn`` wrapped in a span; ``annotate(record, result)`` may add attributes."""
        def traced(*args, **kwargs):
            with self.span(name, layer) as record:
                result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(record, result)
            return result
        return traced


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Per span id: duration minus the time its direct children cover."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def _annotate_modes(record, modes):
    record["computed"] = int(modes.eigvals.size)
    record["kept"] = int(modes.kept)


@contextmanager
def instrument(tracer):
    """Time the per-subdomain eigensolves and ARPACK calls inside helmdd.

    ``build_coarse_space`` looks up ``solve_local_eigenproblem`` in its module
    and the ARPACK path calls ``scipy.sparse.linalg.eigsh`` through the module,
    so replacing those attributes reaches every call; both are restored on exit.
    """
    saved_solve = eigencoarse.solve_local_eigenproblem
    saved_eigsh = spla.eigsh
    eigencoarse.solve_local_eigenproblem = tracer.wrap(
        saved_solve, "eigencoarse.solve_local_eigenproblem", "eigencoarse",
        annotate=_annotate_modes)
    spla.eigsh = tracer.wrap(saved_eigsh, "eigencoarse.eigsh", "eigencoarse")
    try:
        yield tracer
    finally:
        eigencoarse.solve_local_eigenproblem = saved_solve
        spla.eigsh = saved_eigsh
