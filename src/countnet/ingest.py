"""Timestamped event logs: loading, cleaning, and binning into counts.

Events are attributed to the sender only; receiver columns in input files
are ignored. Timestamps are fractional hours from the observation start, or
ISO-8601 strings converted to hours on load; a file keeps one format.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from . import hawkes
from .hawkes import CountSeries, CsvBlock, byte_matrix, csv_blocks

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
        nodes = np.asarray(self.nodes)
        if nodes.size and nodes.dtype.kind not in "iu":
            raise ValueError(f"event node codes must be integers, not {nodes.dtype}")
        self.nodes = nodes.astype(np.int64, copy=False)
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
    times, nodes = log.times, log.nodes  # each pass below makes new arrays
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
        # the day index and the shift are built in place: at most two event-length temporaries at once
        day_of = np.subtract(times, t0)
        day_of /= HOURS_PER_DAY
        day_of = np.floor(day_of, out=day_of).astype(np.int64)
        np.minimum(day_of, n_days - 1, out=day_of)
        dead = np.bincount(day_of, minlength=n_days) <= dead_day_threshold
        if dead.any():
            changed = True
            dead_days = np.flatnonzero(dead)
            removed_days.extend(dead_days.tolist())
            keep = (~dead)[day_of]
            day_of = day_of[keep]
            times, nodes = times[keep], nodes[keep]
            times -= (HOURS_PER_DAY * np.cumsum(dead))[day_of]  # the hours of the days removed so far
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


def _stamp_hours(stamp: str, origin: datetime | None) -> float:
    """A stamp as hours: a finite number when ``origin`` is None, else ISO-8601 hours after ``origin``."""
    if origin is None:
        hours = float(stamp)
        if not math.isfinite(hours):
            raise ValueError(f"timestamp {stamp!r} is not a finite number of hours")
        return hours
    return (datetime.fromisoformat(stamp) - origin).total_seconds() / 3600.0


def _origin(first: str) -> datetime | None:
    """None if a file's first stamp is a number (fractional hours), else that stamp as the ISO-8601 origin."""
    try:
        float(first)
        return None
    except ValueError:
        return datetime.fromisoformat(first)


# A stamp of at most this many printable ASCII bytes without outer spaces is
# read in bulk; any other is stripped and read per element.
STAMP_BYTES = 32
_ISO_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]


def _iso_microseconds(raw: np.ndarray, length: np.ndarray, origin: datetime) -> tuple[np.ndarray, np.ndarray]:
    """Microseconds after a naive ``origin`` of the stamps in ``raw`` laid out YYYY-MM-DD[T ]HH:MM:SS[.fff[fff]]
    from year 0001 on, and which those are; numpy's ValueError if one has a field out of range. Of these
    stamps, numpy reads exactly those that ``datetime.fromisoformat`` reads, and to the same instant."""
    r = np.zeros((26, len(raw)), dtype=np.uint8)  # one stamp per column, so each position is contiguous
    r[:min(26, raw.shape[1])] = raw[:, :26].T
    digit = r - np.uint8(48) < 10
    ok = np.isin(length, (19, 23, 26)) & digit[_ISO_DIGITS].all(axis=0) & (r[:4] != 48).any(axis=0)
    ok &= (r[4] == 45) & (r[7] == 45) & ((r[10] == 84) | (r[10] == 32)) & (r[13] == 58) & (r[16] == 58)
    fraction_ok = (r[19] == 46) & digit[20:23].all(axis=0) & ((length == 23) | digit[23:26].all(axis=0))
    ok &= (length == 19) | fraction_ok
    micro = np.zeros(len(raw), dtype=np.int64)
    stamps = raw[ok].view(f"S{raw.shape[1]}").ravel().astype("datetime64[us]")
    micro[ok] = (stamps - np.datetime64(origin, "us")).astype(np.int64)
    return micro, ok


class _EventRows:
    """An event file's rows, read block by block from ``hawkes.csv_blocks``.

    Rows without a stamp are skipped, the first row with one fixes the
    format, and the first bad row raises its error and line. Stamps read
    in bulk where that gives ``_stamp_hours``'s value: hours with numpy's
    string cast, which calls ``float``, and naive ISO stamps with numpy's
    ``datetime64`` parser once ``_iso_microseconds`` has checked their
    layout. A block where numpy raises is read per stamp. Senders are coded
    per distinct byte string, and each is stripped once. ``times`` and
    ``codes`` grow by ``hawkes.append_rows``.
    """

    def __init__(self) -> None:
        self.origin: datetime | None = None
        self.fixed = False  # whether a first stamp has fixed the format
        self.code_of: dict[str, int] = {}  # sender -> code in first-seen order
        self.n = 0  # events read
        self.times = np.empty(0)
        self.codes = np.empty(0, dtype=np.int64)

    def read(self, block: CsvBlock) -> None:
        length = block.ends[:, 0] - block.starts[:, 0]
        width = max(1, min(int(length.max(initial=0)), STAMP_BYTES))
        raw = byte_matrix(block.data, block.starts[:, 0], block.ends[:, 0], width)
        last = raw[np.arange(len(raw)), np.clip(length - 1, 0, width - 1)]
        # all bytes printable (padding is not), so also length <= width
        plain = np.count_nonzero(raw - np.uint8(32) < 95, axis=1) == length
        plain &= (length > 0) & (raw[:, 0] != 32) & (last != 32)
        stripped = {r: block.text(r, 0).strip() for r in np.flatnonzero(~plain & (length > 0)).tolist()}
        event = plain.copy()
        event[[r for r, stamp in stripped.items() if stamp]] = True
        rows = np.flatnonzero(event)
        if rows.size == 0:
            return

        def stamp(k: int) -> str:
            return stripped.get(rows[k]) or block.text(rows[k], 0)

        no_sender = block.fields[rows] < 2
        if not self.fixed:
            try:
                if no_sender[0]:
                    raise ValueError("row has a timestamp but no sender")
                self.origin = _origin(stamp(0))
            except ValueError as err:
                raise ValueError(f"line {block.lines[rows[0]]}: {err}") from err
            self.fixed = True
        hours, fast = self._bulk_hours(raw[rows], length[rows], plain[rows])
        first = int(np.argmax(no_sender)) if no_sender.any() else rows.size
        for k in np.flatnonzero(~fast[:first]).tolist():
            try:
                hours[k] = _stamp_hours(stamp(k), self.origin)
            except (TypeError, ValueError) as err:  # TypeError: ISO stamps with and without offsets
                raise ValueError(f"line {block.lines[rows[k]]}: {err}") from err
        if first < rows.size:
            raise ValueError(f"line {block.lines[rows[first]]}: row has a timestamp but no sender")
        hawkes.append_rows(self.times, self.n, hours)
        self.n = hawkes.append_rows(self.codes, self.n, self._sender_codes(block, rows))

    def _bulk_hours(self, raw: np.ndarray, length: np.ndarray,
                    plain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hours of the plain stamps that read in bulk, and which those are."""
        hours, fast = np.empty(len(raw)), plain.copy()
        try:
            if self.origin is None:
                hours[fast] = raw[fast].view(f"S{raw.shape[1]}").ravel().astype(np.float64)
                fast &= np.isfinite(hours)
            elif self.origin.tzinfo is None:
                delta, ok = _iso_microseconds(raw[fast], length[fast], self.origin)
                ok &= np.abs(delta) < 2**53  # exact in float64, as timedelta.total_seconds divides
                fast[fast] = ok
                hours[fast] = delta[ok] / 1e6 / 3600.0
            else:
                fast[:] = False
        except ValueError:  # a stamp numpy does not read: _stamp_hours reads each, and names a bad one's line
            fast[:] = False
        return hours, fast

    def _sender_codes(self, block: CsvBlock, rows: np.ndarray) -> np.ndarray:
        starts, ends = block.starts[rows, 1], block.ends[rows, 1]
        width = int((ends - starts).max(initial=0)) + 1  # room for a terminator
        codes = np.empty(rows.size, dtype=np.int64)
        step = max(1, hawkes.READ_CHUNK_CHARS // width)
        for lo in range(0, rows.size, step):
            s, e = starts[lo:lo + step], ends[lo:lo + step]
            keys = byte_matrix(block.data, s, e, max(width, 8))
            # 0xff, never in UTF-8, ends each key, so senders that differ in trailing NULs stay apart
            keys[np.arange(len(keys)), e - s] = 0xFF
            keys = keys.view("<u8" if width <= 8 else f"S{width}").ravel()
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            code = [self.code_of.setdefault(block.text(rows[lo + i], 1).strip(), len(self.code_of))
                    for i in first.tolist()]
            codes[lo:lo + step] = np.array(code, dtype=np.int64)[inverse.ravel()]
        return codes


def read_event_csv(path: str | Path, t0: float | None = None, t1: float | None = None) -> EventLog:
    """Load (timestamp, sender[, ...]) rows; extra columns are ignored.

    Senders are coded in sorted label order. The window defaults to
    [min, max] of the parsed timestamps; pass t0/t1 to pin a wider
    observation window. Rows are split and read in blocks
    (``hawkes.csv_blocks``, ``_EventRows``).
    """
    rows = _EventRows()
    with Path(path).open(newline="") as fh:
        blocks = csv_blocks(fh, 2)
        header = next(blocks)
        if not header or len(header) < 2:
            raise ValueError("event CSV needs at least (timestamp, sender) columns")
        try:
            for block in blocks:
                rows.read(block)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err
    rows.times.resize(rows.n, refcheck=False)
    rows.codes.resize(rows.n, refcheck=False)
    rank = {label: k for k, label in enumerate(sorted(rows.code_of))}
    nodes = np.array([rank[name] for name in rows.code_of], dtype=np.int64)[rows.codes]
    arr = rows.times
    lo, hi = (float(arr.min()), float(arr.max())) if arr.size else (0.0, 0.0)
    return EventLog(arr, nodes, lo if t0 is None else t0, hi if t1 is None else t1, list(rank))


def save_cleaning_report(report: CleaningReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(report), indent=2) + "\n")
