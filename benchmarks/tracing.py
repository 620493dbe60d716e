"""Spans recorded from the benchmark's side of each module boundary.

``instrument`` swaps traced wrappers into the names ``countnet.cli`` calls
(and two ``Filter`` methods for the per-step spans), then restores the
originals. Nothing in the package itself is changed. Spans are kept in
memory and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

from countnet import cli
from countnet.filtering import Filter

# (name looked up by countnet.cli, span name); the prefix is the layer
CLI_CALLS = (
    ("simulate", "hawkes.simulate"),
    ("save_count_series", "hawkes.save_count_series"),
    ("load_count_series", "hawkes.load_count_series"),
    ("simulate_abm", "abm.simulate_abm"),
    ("read_event_csv", "ingest.read_event_csv"),
    ("clean", "ingest.clean"),
    ("aggregate", "ingest.aggregate"),
    ("save_cleaning_report", "ingest.save_cleaning_report"),
    ("init_ensemble", "filtering.init_ensemble"),
    ("run_filter", "filtering.run_filter"),
    ("save_filter_result", "filtering.save_filter_result"),
    ("load_ensemble_snapshots", "filtering.load_ensemble_snapshots"),
    ("mean_network", "network.mean_network"),
    ("threshold_subnetwork", "network.threshold_subnetwork"),
    ("rank_distribution", "network.rank_distribution"),
    ("save_network", "network.save_network"),
    ("save_rank_distribution", "network.save_rank_distribution"),
    ("error_metrics", "network.error_metrics"),
)
FILTER_METHODS = (
    ("assimilate_step", "filtering.assimilate_step"),
    ("param_moments", "filtering.param_moments"),
)
LAYERS = ("cli", "hawkes", "abm", "ingest", "filtering", "network")


class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 is a root."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return traced

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover.

        Calls are sequential in one thread, so children never overlap and
        their covered time is the sum of their durations.
        """
        child = np.zeros(len(self.spans))
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name.split(".")[0]] += end - start - covered
        return out


@contextmanager
def instrument(tracer: Tracer, calls=CLI_CALLS, methods=FILTER_METHODS):
    """Route the given cli names and Filter methods through ``tracer``."""
    saved = [(cli, attr, getattr(cli, attr)) for attr, _ in calls]
    saved += [(Filter, attr, getattr(Filter, attr)) for attr, _ in methods]
    try:
        for attr, name in calls:
            setattr(cli, attr, tracer.wrap(name, getattr(cli, attr)))
        for attr, name in methods:
            setattr(Filter, attr, tracer.wrap(name, getattr(Filter, attr)))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
