"""Discrete-time multidimensional Hawkes process over count data.

The conditional intensity of node ``i`` on time bin ``k+1`` follows

    lam[i, k+1] = mu[i] + (lam[i, k] - mu[i]) * (1 - beta[i] * dt)
                  + sum_j alpha[i, j] * counts[j, k]

with lam[i, 0] = mu[i], and the count of bin k drawn Poisson(lam[i, k] * dt).
``alpha[i, j]`` is the intensity jump at node i caused by one event at
node j, so the excitation matrix reads as a directed, weighted influence
network (column j = influence exerted by j).

This module provides the parameter/count containers, the forward simulator
used as a data generator, the one-step intensity propagation reused as the
filter's forecast model, and CSV/JSON serialization for both.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rng


def json_floats(value, ndim: int = 0):
    """A parsed JSON number as a float (ndim 0), or ndim-deep arrays of them as float64."""
    cells = np.array(value, dtype=object)
    # type() keeps JSON true and false out; the bound rejects NaN, infinities and too large integers
    if cells.ndim != ndim or not all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                                     for v in cells.flat):
        raise ValueError(f"must be a {ndim}-d array of finite numbers" if ndim else "must be a finite number")
    return cells.astype(np.float64) if ndim else float(cells)


def check_counts(counts: np.ndarray) -> None:
    """Raise ValueError unless every count is a finite, non-negative integer."""
    # among finite x, floor(x) == |x| holds for exactly the non-negative integers
    if not (np.isfinite(counts).all() and (np.floor(counts) == np.abs(counts)).all()):
        raise ValueError("counts must be finite, non-negative integers")


def labels_or_default(labels: list[str] | None, m: int) -> list[str]:
    """The given node labels as a new list, or node_1 .. node_m when there are none."""
    return list(labels) if labels else [f"node_{j + 1}" for j in range(m)]


@dataclass
class HawkesParams:
    """Per-network parameter set: baselines, decay rates, excitation matrix.

    baseline[i] > 0 (events per unit time), decay[i] > 0 (1/time),
    excitation[i, j] >= 0 (intensity jump at i per event at j).
    """

    baseline: np.ndarray
    decay: np.ndarray
    excitation: np.ndarray

    def __post_init__(self) -> None:
        self.baseline = np.asarray(self.baseline, dtype=np.float64)
        self.decay = np.asarray(self.decay, dtype=np.float64)
        self.excitation = np.asarray(self.excitation, dtype=np.float64)
        m = self.baseline.shape[0]
        if self.baseline.ndim != 1 or self.decay.shape != (m,):
            raise ValueError("baseline and decay must be vectors of equal length")
        if self.excitation.shape != (m, m):
            raise ValueError(f"excitation must be {m}x{m}, got {self.excitation.shape}")
        if not all(np.isfinite(a).all() for a in (self.baseline, self.decay, self.excitation)):
            raise ValueError("parameters must be finite")
        if not (self.baseline > 0).all():
            raise ValueError("baseline rates must be positive")
        if not (self.decay > 0).all():
            raise ValueError("decay rates must be positive")
        if not (self.excitation >= 0).all():
            raise ValueError("excitation weights must be non-negative")

    @property
    def m(self) -> int:
        return self.baseline.shape[0]

    def branching_matrix(self) -> np.ndarray:
        """excitation[i, j] / decay[i]; spectral radius < 1 means subcritical."""
        return self.excitation / self.decay[:, None]

    def to_json(self) -> dict:
        return {
            "mu": self.baseline.tolist(),
            "beta": self.decay.tolist(),
            "alpha": self.excitation.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HawkesParams":
        return cls(json_floats(obj["mu"], 1), json_floats(obj["beta"], 1), json_floats(obj["alpha"], 2))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "HawkesParams":
        return cls.from_json(json.loads(Path(path).read_text()))


@dataclass
class CountSeries:
    """Time-indexed event counts, one row per bin of length ``dt``."""

    counts: np.ndarray
    dt: float
    node_labels: list[str] | None = field(default=None)

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise ValueError("counts must be a n_steps x m matrix")
        if counts.dtype.kind != "u":
            check_counts(counts)
        # cells sized for >= 2^32 events
        self.counts = counts.astype(np.uint64)
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.node_labels is not None and len(self.node_labels) != self.m:
            raise ValueError("node_labels length must match column count")

    @property
    def n_steps(self) -> int:
        return self.counts.shape[0]

    @property
    def m(self) -> int:
        return self.counts.shape[1]

    def labels(self) -> list[str]:
        return labels_or_default(self.node_labels, self.m)


def advance_intensity(lam, baseline, decay, excite, dt):
    """One step of the intensity recursion; broadcasts over any shape.

    ``excite`` is the already-summed excitation input, i.e. alpha @ counts.
    """
    return baseline + (lam - baseline) * (1.0 - decay * dt) + excite


def simulate(
    params: HawkesParams,
    dt: float,
    n_steps: int,
    seed: int,
    burn_in: int = 0,
) -> CountSeries:
    """Generate a CountSeries from the process, starting at lam = baseline.

    Draws each node's bin counts from its own named stream, so results are
    reproducible and independent of evaluation order. ``burn_in`` extra steps
    are simulated and discarded before recording starts (default keeps the
    lam_0 = baseline convention untouched).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if (params.decay * dt >= 1.0).any():
        raise ValueError(
            "decay * dt >= 1: simulated intensities could undershoot the "
            "baseline or oscillate; choose a smaller dt"
        )
    m = params.m
    streams = rng.node_streams(seed, rng.SIM_COUNTS, range(m))
    lam = params.baseline.copy()
    out = np.zeros((n_steps, m), dtype=np.uint64)
    row = np.zeros(m, dtype=np.int64)
    for k in range(burn_in + n_steps):
        for i in range(m):
            row[i] = streams[i].poisson(lam[i] * dt)
        if k >= burn_in:
            out[k - burn_in] = row
        excite = params.excitation @ row.astype(np.float64)
        lam = advance_intensity(lam, params.baseline, params.decay, excite, dt)
    return CountSeries(out, dt)


def stationary_rate(params: HawkesParams) -> np.ndarray:
    """Mean intensity vector solving lam = baseline + branching @ lam.

    Only defined for subcritical parameters (spectral radius of the
    branching matrix below 1).
    """
    branching = params.branching_matrix()
    radius = np.abs(np.linalg.eigvals(branching)).max()
    if radius >= 1.0:
        raise ValueError(
            f"supercritical parameters: branching spectral radius {radius:.3f} >= 1"
        )
    return np.linalg.solve(np.eye(params.m) - branching, params.baseline)


def save_count_series(
    series: CountSeries,
    csv_path: str | Path,
    seed: int | None = None,
    params: HawkesParams | None = None,
) -> None:
    """Write counts as CSV plus a JSON sidecar with the run metadata."""
    csv_path = Path(csv_path)
    labels = series.labels()
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + labels)
        for k in range(series.n_steps):
            t = k * series.dt
            writer.writerow([f"{t:.10g}"] + [int(c) for c in series.counts[k]])
    sidecar = {
        "dt": series.dt,
        "n_steps": series.n_steps,
        "m": series.m,
        "seed": seed,
        "params": params.to_json() if params is not None else None,
        "node_labels": labels,
    }
    csv_path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_count_series(csv_path: str | Path) -> tuple[CountSeries, dict]:
    """Read a counts CSV and its sidecar; returns (series, metadata)."""
    csv_path = Path(csv_path)
    meta = json.loads(csv_path.with_suffix(".json").read_text())
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        labels = header[1:]
        rows = [[int(c) for c in row[1:]] for row in reader]
    counts = np.asarray(rows, dtype=np.uint64).reshape(len(rows), len(labels))
    return CountSeries(counts, float(meta["dt"]), node_labels=labels), meta
