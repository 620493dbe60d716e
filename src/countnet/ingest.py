"""Timestamped event logs: loading, cleaning, and binning into counts.

Events are attributed to the sender only; receiver columns in input files
are ignored. Timestamps are fractional hours from the observation start,
or ISO-8601 strings which get converted to hours on load.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from .hawkes import CountSeries

HOURS_PER_DAY = 24.0


@dataclass
class EventLog:
    """Sender events over an observation window [t0, t1], times in hours."""

    times: np.ndarray
    nodes: list[str]
    t0: float
    t1: float
    labels: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.times.ndim != 1 or self.times.shape[0] != len(self.nodes):
            raise ValueError("times and nodes must align")
        if not self.t1 >= self.t0:
            raise ValueError("observation window must have t1 >= t0")
        if self.times.size and (
            self.times.min() < self.t0 or self.times.max() > self.t1
        ):
            raise ValueError("timestamps must lie within [t0, t1]")
        if not self.labels:
            self.labels = sorted(set(self.nodes))
        known = set(self.labels)
        for node in self.nodes:
            if node not in known:
                raise ValueError(f"event node {node!r} not in declared label set")

    @property
    def n_events(self) -> int:
        return self.times.shape[0]


def aggregate(log: EventLog, dt: float) -> CountSeries:
    """Bin events into counts per node per interval of length ``dt``.

    Bin k (1-based) covers [t0 + (k-1)*dt, t0 + k*dt); an event exactly on
    a boundary belongs to the later bin. An event at exactly t1 lands in
    the final bin so the bins partition the whole window.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    span = log.t1 - log.t0
    n_steps = max(1, int(np.ceil(span / dt))) if span > 0 else 1
    m = len(log.labels)
    counts = np.zeros((n_steps, m), dtype=np.uint64)
    col = {label: j for j, label in enumerate(log.labels)}
    if log.n_events:
        bins = np.floor((log.times - log.t0) / dt).astype(np.int64)
        bins = np.minimum(bins, n_steps - 1)
        for b, node in zip(bins, log.nodes):
            counts[b, col[node]] += 1
    return CountSeries(counts, dt, node_labels=list(log.labels))


@dataclass
class CleaningReport:
    removed_nodes: list[str]
    removed_days: list[int]
    events_before: int
    events_after: int

    def to_json(self) -> dict:
        return {
            "removed_nodes": self.removed_nodes,
            "removed_days": self.removed_days,
            "events_before": self.events_before,
            "events_after": self.events_after,
        }


def clean(
    log: EventLog, min_node_total: int, dead_day_threshold: int = 0
) -> tuple[EventLog, CleaningReport]:
    """Drop quiet nodes and dead days, splicing time across removed days.

    Nodes with fewer than ``min_node_total`` events are removed; whole days
    whose network-wide count is at or below ``dead_day_threshold`` are cut
    out and later timestamps shifted back so the remaining days stay
    contiguous. The two passes repeat until stable, so cleaning the result
    again with the same thresholds changes nothing.
    """
    if min_node_total < 0 or dead_day_threshold < 0:
        raise ValueError("thresholds must be non-negative")
    times = log.times.copy()
    nodes = list(log.nodes)
    labels = list(log.labels)
    t0, t1 = log.t0, log.t1
    removed_nodes: list[str] = []
    removed_days: list[int] = []

    changed = True
    while changed:
        changed = False
        totals = dict.fromkeys(labels, 0)
        for node in nodes:
            totals[node] += 1
        drop = {label for label in labels if totals[label] < min_node_total}
        if drop:
            changed = True
            removed_nodes.extend(sorted(drop))
            keep = [i for i, node in enumerate(nodes) if node not in drop]
            times = times[keep]
            nodes = [nodes[i] for i in keep]
            labels = [label for label in labels if label not in drop]
        if times.size == 0:
            break  # nothing left for the day pass; handled below
        n_days = max(1, int(np.ceil((t1 - t0) / HOURS_PER_DAY))) if t1 > t0 else 1
        day_of = np.minimum(
            np.floor((times - t0) / HOURS_PER_DAY).astype(np.int64), n_days - 1
        )
        day_totals = np.zeros(n_days, dtype=np.int64)
        for d in day_of:
            day_totals[d] += 1
        dead = np.flatnonzero(day_totals <= dead_day_threshold)
        if dead.size:
            changed = True
            removed_days.extend(int(d) for d in dead)
            keep_mask = ~np.isin(day_of, dead)
            shift = np.cumsum(np.isin(np.arange(n_days), dead))  # days removed so far
            times = times[keep_mask] - HOURS_PER_DAY * shift[day_of[keep_mask]]
            nodes = [node for node, k in zip(nodes, keep_mask) if k]
            # the final day may be partial; only its width inside the window
            # leaves t1 (no events can sit beyond it, so shifts stay whole days)
            widths = np.minimum(HOURS_PER_DAY, t1 - (t0 + HOURS_PER_DAY * dead))
            t1 -= float(widths.sum())

    if not labels or (log.n_events > 0 and times.size == 0):
        raise ValueError(
            "cleaning removed everything: "
            f"nodes dropped {removed_nodes}, days dropped {removed_days}"
        )
    report = CleaningReport(removed_nodes, removed_days, log.n_events, int(times.size))
    return EventLog(times, nodes, t0, t1, labels), report


def _parse_timestamp(raw: str, origin: datetime | None) -> tuple[float, datetime | None]:
    """Fractional hours, or ISO-8601 converted to hours from the first stamp."""
    try:
        return float(raw), origin
    except ValueError:
        pass
    stamp = datetime.fromisoformat(raw)
    if origin is None:
        origin = stamp
    return (stamp - origin).total_seconds() / 3600.0, origin


def read_event_csv(path: str | Path, t0: float | None = None, t1: float | None = None) -> EventLog:
    """Load (timestamp, sender[, ...]) rows; extra columns are ignored.

    The window defaults to [min, max] of the parsed timestamps; pass t0/t1
    to pin a wider observation window.
    """
    times: list[float] = []
    nodes: list[str] = []
    origin: datetime | None = None
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or len(header) < 2:
            raise ValueError("event CSV needs at least (timestamp, sender) columns")
        for row in reader:
            if not row or not row[0].strip():
                continue
            value, origin = _parse_timestamp(row[0].strip(), origin)
            times.append(value)
            nodes.append(row[1].strip())
    arr = np.asarray(times, dtype=np.float64)
    lo = float(arr.min()) if arr.size else 0.0
    hi = float(arr.max()) if arr.size else 0.0
    return EventLog(arr, nodes, lo if t0 is None else t0, hi if t1 is None else t1)


def save_cleaning_report(report: CleaningReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_json(), indent=2) + "\n")
