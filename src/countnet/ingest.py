"""Timestamped event logs: loading, cleaning, and binning into counts.

Events are attributed to the sender only; receiver columns in input files
are ignored. Timestamps are fractional hours from the observation start, or
ISO-8601 strings converted to hours on load; a file keeps one format.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .hawkes import CountSeries

HOURS_PER_DAY = 24.0


@dataclass
class EventLog:
    """Sender events over an observation window [t0, t1], times in hours.

    ``nodes[e]`` is the sender of event e as a position in ``labels``.
    """

    times: np.ndarray
    nodes: np.ndarray
    t0: float
    t1: float
    labels: list[str]

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        if self.times.ndim != 1 or self.nodes.shape != self.times.shape:
            raise ValueError("times and nodes must align")
        if not (np.isfinite(self.times).all() and np.isfinite([self.t0, self.t1]).all()):
            raise ValueError("timestamps and the window bounds t0, t1 must be finite")
        if not self.t1 >= self.t0:
            raise ValueError("observation window must have t1 >= t0")
        if self.times.size and not self.t0 <= self.times.min() <= self.times.max() <= self.t1:
            raise ValueError("timestamps must lie within [t0, t1]")
        if self.nodes.size and not 0 <= self.nodes.min() <= self.nodes.max() < len(self.labels):
            raise ValueError("event node codes must be positions in the label list")

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
    bins = np.minimum(np.floor((log.times - log.t0) / dt).astype(np.int64), n_steps - 1)
    counts = np.bincount(bins * m + log.nodes, minlength=n_steps * m).astype(np.uint64)
    return CountSeries(counts.reshape(n_steps, m), dt, node_labels=list(log.labels))


@dataclass
class CleaningReport:
    removed_nodes: list[str]
    removed_days: list[int]
    events_before: int
    events_after: int


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
    times, nodes = log.times.copy(), log.nodes.copy()
    labels = list(log.labels)
    t0, t1 = log.t0, log.t1
    removed_nodes: list[str] = []
    removed_days: list[int] = []

    changed = True
    while changed:
        changed = False
        quiet = np.bincount(nodes, minlength=len(labels)) < min_node_total
        if quiet.any():
            changed = True
            removed_nodes.extend(sorted(label for label, q in zip(labels, quiet) if q))
            keep = ~quiet[nodes]
            times = times[keep]
            nodes = (np.cumsum(~quiet) - 1)[nodes[keep]]  # kept labels' positions after the drop
            labels = [label for label, q in zip(labels, quiet) if not q]
        if times.size == 0:
            break  # nothing left for the day pass; handled below
        n_days = max(1, int(np.ceil((t1 - t0) / HOURS_PER_DAY))) if t1 > t0 else 1
        day_of = np.minimum(
            np.floor((times - t0) / HOURS_PER_DAY).astype(np.int64), n_days - 1
        )
        dead = np.bincount(day_of, minlength=n_days) <= dead_day_threshold
        if dead.any():
            changed = True
            dead_days = np.flatnonzero(dead)
            removed_days.extend(dead_days.tolist())
            keep = ~dead[day_of]
            shift = np.cumsum(dead)  # days removed so far
            times = times[keep] - HOURS_PER_DAY * shift[day_of[keep]]
            nodes = nodes[keep]
            # the final day may be partial; only its width inside the window
            # leaves t1 (no events can sit beyond it, so shifts stay whole days)
            widths = np.minimum(HOURS_PER_DAY, t1 - (t0 + HOURS_PER_DAY * dead_days))
            t1 -= float(widths.sum())

    if not labels or (log.n_events > 0 and times.size == 0):
        raise ValueError(
            "cleaning removed everything: "
            f"nodes dropped {removed_nodes}, days dropped {removed_days}"
        )
    report = CleaningReport(removed_nodes, removed_days, log.n_events, int(times.size))
    return EventLog(times, nodes, t0, t1, labels), report


def _finite_hours(stamp: str) -> float:
    hours = float(stamp)
    if not math.isfinite(hours):
        raise ValueError(f"timestamp {stamp!r} is not a finite number of hours")
    return hours


def _hours_parser(first: str):
    """Fractional hours if a file's first stamp is a number, else ISO-8601 as hours from that stamp."""
    try:
        float(first)
        return _finite_hours
    except ValueError:
        origin = datetime.fromisoformat(first)
        return lambda stamp: (datetime.fromisoformat(stamp) - origin).total_seconds() / 3600.0


def read_event_csv(path: str | Path, t0: float | None = None, t1: float | None = None) -> EventLog:
    """Load (timestamp, sender[, ...]) rows; extra columns are ignored.

    Senders are coded in sorted label order. The window defaults to
    [min, max] of the parsed timestamps; pass t0/t1 to pin a wider
    observation window.
    """
    times: list[float] = []
    codes: list[int] = []
    code_of: dict[str, int] = {}  # sender -> code in first-seen order
    hours = None
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or len(header) < 2:
            raise ValueError("event CSV needs at least (timestamp, sender) columns")
        try:
            for row in reader:
                if not row or not row[0].strip():
                    continue
                if len(row) < 2:
                    raise ValueError("row has a timestamp but no sender")
                stamp = row[0].strip()
                hours = hours or _hours_parser(stamp)  # the first data row fixes the format
                times.append(hours(stamp))
                codes.append(code_of.setdefault(row[1].strip(), len(code_of)))
        except (TypeError, ValueError) as err:  # TypeError: ISO stamps with and without offsets
            raise ValueError(f"{path}: line {reader.line_num}: {err}") from err
    rank = {label: k for k, label in enumerate(sorted(code_of))}
    nodes = np.array([rank[name] for name in code_of], dtype=np.int64)[np.asarray(codes, dtype=np.int64)]
    arr = np.asarray(times, dtype=np.float64)
    lo, hi = (float(arr.min()), float(arr.max())) if arr.size else (0.0, 0.0)
    return EventLog(arr, nodes, lo if t0 is None else t0, hi if t1 is None else t1, list(rank))


def save_cleaning_report(report: CleaningReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(report), indent=2) + "\n")
