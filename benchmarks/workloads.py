"""Benchmark workloads: seeded inputs, the subcommands of one pass, output checks.

Every workload drives the user-facing ``countnet`` CLI. The benchmark writes
all inputs and configs from its seed; the program only receives them.

six-node (Hawkes toy m=6, M=500, workers=1, param + intensity history,
betweenness; then ABM m=6, M=500, no history)
    Chosen because small m with large M makes filter time per-step Python
    overhead and per-row perturbed-observation draws, not the regression
    kernel. Exercises history recording (``Filter.param_moments`` every
    step), the per-row ``diagnostics.csv`` writer, ``network.error_metrics``
    and the whole ``abm`` layer. Betweenness on 6 nodes costs almost nothing.

net100 (sparse subcritical truth m=100, M=128, workers=2, no history,
out_degree with a relative threshold)
    Chosen because the (m, M, m) excitation-tensor regression dominates and
    this is the only workload on the parallel path. Counts CSV round trip
    and snapshot write/read scale with m. Bypasses history, betweenness,
    ``abm`` and ``ingest``: changes there should show no change here.

events-betweenness (ISO-8601 event CSV, 32 senders of which 26 stay after
clean, hourly bins, M=64, workers=1, no history, betweenness)
    Chosen as the real-data path: ``ingest`` (ISO parsing, cleaning of quiet
    senders and dead days, binning) and the pure-Python Brandes in
    ``network.rank_distribution`` do most of their work here and almost
    none elsewhere. Snapshot reads weigh more than writes. Bypasses ``abm``,
    history and the parallel path. The events come from a discrete hourly
    Hawkes process over one fixed sparse network, so ``edge_corr`` is
    defined here too.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable

import numpy as np

from countnet import experiments
from countnet.filtering import load_ensemble_snapshots
from countnet.hawkes import load_count_series

POSITIVITY_FLOOR = 1e-8  # the filter's default, which every workload keeps

# Run lengths. ``FULL`` is what the benchmark measures; ``TINY`` keeps the
# same code paths at a size the self-test runs in seconds.
FULL = {
    "six-node": {"hawkes_steps": 1000, "abm_steps": 2000, "M": 500},
    "net100": {"m": 100, "steps": 300, "M": 128, "workers": 2, "prefix_steps": 40},
    "events-betweenness": {"senders": 32, "quiet": 6, "days": 56, "dead_days": 2, "M": 64},
}
TINY = {
    "six-node": {"hawkes_steps": 60, "abm_steps": 60, "M": 20},
    "net100": {"m": 12, "steps": 30, "M": 8, "workers": 2, "prefix_steps": 10},
    "events-betweenness": {"senders": 10, "quiet": 2, "days": 5, "dead_days": 1, "M": 8},
}


class CheckFailed(Exception):
    """An artifact is missing, does not parse, or violates an invariant."""


@dataclass
class Op:
    """One ``countnet`` subcommand call and the check of its artifacts.

    ``check(out_dir)`` raises CheckFailed or returns measured facts, such as
    ``edge_corr`` or ``counts_cells``, that the runner aggregates.
    """

    phase: str  # "prepare", "filter" or "analyze"
    mode: str
    config: dict
    out: str
    check: Callable[[Path], dict]
    workers: int = 1


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _pearson(truth: np.ndarray, estimate: np.ndarray) -> float:
    return float(np.corrcoef(truth.ravel(), estimate.ravel())[0, 1])


# ---------------------------------------------------------------- checks

def check_counts(out: Path, n_steps: int, m: int) -> dict:
    try:
        series, _meta = load_count_series(out / "counts.csv")
    except (OSError, ValueError, KeyError) as err:
        raise CheckFailed(f"counts.csv does not parse: {err}") from err
    _require(series.m == m, f"counts have {series.m} columns, expected {m}")
    _require(series.n_steps == n_steps, f"counts have {series.n_steps} rows, expected {n_steps}")
    return {"counts_cells": series.n_steps * series.m}


def check_filter(out: Path, m: int, M: int, n_steps: int, truth: np.ndarray | None,
                 history: bool) -> dict:
    try:
        result = json.loads((out / "result.json").read_text())
        alpha = np.loadtxt(out / "alpha_mean.csv", delimiter=",", ndmin=2)
        ensembles = load_ensemble_snapshots(out)
    except (OSError, ValueError) as err:
        raise CheckFailed(f"filter artifacts do not parse: {err}") from err
    _require(result.get("n_steps") == n_steps, "result.json n_steps disagrees with the counts")
    _require(alpha.shape == (m, m) and np.isfinite(alpha).all(), "alpha_mean.csv is not a finite m x m matrix")
    _require(len(ensembles) == m, f"{len(ensembles)} snapshots, expected {m}")
    for e in ensembles:
        _require(e.params.shape == (M, m + 2), f"node {e.node_index} snapshot has shape {e.params.shape}")
        _require(bool(np.isfinite(e.params).all() and np.isfinite(e.intensity).all()),
                 f"node {e.node_index} snapshot holds non-finite values")
        _require(bool((e.params >= POSITIVITY_FLOOR).all()),
                 f"node {e.node_index} snapshot holds parameters below the positivity floor")
    if history:
        with (out / "diagnostics.csv").open(newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        _require(rows == n_steps * m, f"diagnostics.csv has {rows} rows, expected {n_steps * m}")
        json.loads((out / "metrics.json").read_text())
    written = [out / "result.json", out / "alpha_mean.csv", out / "diagnostics.csv"]
    written += [p for p in (out / "ensembles").rglob("*") if p.is_file()]
    facts = {
        "node_steps": m * n_steps,
        "tensor_bytes": m * M * m * 8,
        "result_bytes": sum(p.stat().st_size for p in written if p.exists()),
    }
    if truth is not None:
        facts["edge_corr"] = _pearson(truth, alpha)
    return facts


def check_analyze(out: Path, m: int, M: int, measure: str, threshold: bool) -> dict:
    try:
        net = json.loads((out / "network.json").read_text())
        with (out / "edges.csv").open(newline="") as fh:
            header = next(csv.reader(fh))
        ranks = np.loadtxt(out / f"rank_{measure}.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        if threshold:
            json.loads((out / "subnetwork.json").read_text())
    except (OSError, ValueError, StopIteration) as err:
        raise CheckFailed(f"analyze artifacts do not parse: {err}") from err
    _require(np.asarray(net["adjacency"]).shape == (m, m), "network.json adjacency is not m x m")
    _require(header == ["src", "dst", "weight", "weight_sd"], "edges.csv header changed")
    _require(ranks.shape == (m, m), f"rank distribution has shape {ranks.shape}, expected {(m, m)}")
    _require(bool((ranks.sum(axis=0) == M).all() and (ranks.sum(axis=1) == M).all()),
             "rank-distribution rows and columns must each sum to M")
    return {"members_ranked": M}


# ---------------------------------------------------------------- six-node

def _toy_priors() -> dict:
    mu, beta, alpha = experiments.toy_priors(1.5, 1.5)
    return {
        "baseline": {"mean": mu.mean, "variance": mu.variance},
        "decay": {"mean": beta.mean, "variance": beta.variance},
        "excitation": {"mean": alpha.mean, "variance": alpha.variance},
    }


@dataclass
class Inputs:
    """Files and truths written once per run; every pass reads them."""

    size: dict
    files: dict = field(default_factory=dict)
    truth: np.ndarray | None = None
    labels: list[str] = field(default_factory=list)


def six_node_inputs(work: Path, seed: int, size: dict) -> Inputs:
    truth = experiments.toy_truth(1.5, 1.5)
    path = work / "truth.json"
    path.write_text(json.dumps(truth.to_json()) + "\n")
    return Inputs(size, {"truth": path}, truth.excitation)


def six_node_ops(inp: Inputs, d: Path) -> list[Op]:
    n, n_abm, M = inp.size["hawkes_steps"], inp.size["abm_steps"], inp.size["M"]
    m = experiments.TOY_M
    return [
        Op("prepare", "simulate-hawkes",
           {"params": json.loads(inp.files["truth"].read_text()), "dt": experiments.TOY_DT, "n_steps": n},
           "sim", check=lambda o: check_counts(o, n, m)),
        Op("filter", "filter",
           {"counts_path": str(d / "sim" / "counts.csv"), "ensemble_size": M, "priors": _toy_priors(),
            "record_param_history": True, "record_intensity_history": True,
            "truth_path": str(inp.files["truth"]), "excitation_scale": 1.5},
           "flt", check=lambda o: check_filter(o, m, M, n, inp.truth, history=True)),
        Op("analyze", "analyze", {"result_dir": str(d / "flt"), "measure": "betweenness"},
           "ana", check=lambda o: check_analyze(o, m, M, "betweenness", threshold=False)),
        Op("prepare", "simulate-abm",
           {"abm": experiments.abm_test_config().to_json(), "n_steps": n_abm},
           "abm", check=lambda o: {**check_counts(o, n_abm, m), "abm_location_steps": n_abm * m}),
        Op("filter", "filter",
           {"counts_path": str(d / "abm" / "counts.csv"), "ensemble_size": M, "priors": _toy_priors()},
           "abm_flt", check=lambda o: check_filter(o, m, M, n_abm, None, history=False)),
    ]


# ---------------------------------------------------------------- net100

NET_DT = 0.1
NET_DECAY = 7.0
NET_PRIORS = {
    "baseline": {"mean": 15.0, "variance": 100.0},
    "decay": {"mean": 8.0, "variance": 8.0},
    "excitation": {"mean": 0.1, "variance": 0.01},
}


def sparse_truth(m: int, seed: int, gen_key: int, decay: float, in_degree: int,
                 base_range: tuple[float, float], radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Baselines and a sparse excitation matrix with a fixed in-degree.

    Every node receives ``in_degree`` edges of one common weight, so every
    row of the branching matrix sums to ``radius``, which is then its
    spectral radius: the process is subcritical for ``radius`` < 1. Equal
    in-degrees and weights keep event totals and recoverability alike
    across seeds, so ``edge_corr`` varies little from seed to seed.
    """
    gen = np.random.default_rng([seed, gen_key])
    baseline = gen.uniform(*base_range, m)
    alpha = np.zeros((m, m))
    for i in range(m):
        alpha[i, gen.choice(m, in_degree, replace=False)] = radius * decay / in_degree
    return baseline, alpha


def net100_inputs(work: Path, seed: int, size: dict) -> Inputs:
    m = size["m"]
    baseline, alpha = sparse_truth(m, seed, 100, NET_DECAY, 2, (8.0, 12.0), 0.8)
    params = {"mu": baseline.tolist(), "beta": [NET_DECAY] * m, "alpha": alpha.tolist()}
    path = work / "truth.json"
    path.write_text(json.dumps(params) + "\n")
    return Inputs(size, {"truth": path}, alpha)


def net100_ops(inp: Inputs, d: Path, workers: int | None = None, steps: int | None = None) -> list[Op]:
    """The net100 pass; ``workers`` and ``steps`` override the shape for the
    traced serial pass and the reproducibility prefix."""
    m, M = inp.size["m"], inp.size["M"]
    n = inp.size["steps"] if steps is None else steps
    w = inp.size["workers"] if workers is None else workers
    return [
        Op("prepare", "simulate-hawkes",
           {"params": json.loads(inp.files["truth"].read_text()), "dt": NET_DT, "n_steps": n},
           "sim", check=lambda o: check_counts(o, n, m)),
        Op("filter", "filter",
           {"counts_path": str(d / "sim" / "counts.csv"), "ensemble_size": M, "priors": NET_PRIORS},
           "flt", workers=w, check=lambda o: check_filter(o, m, M, n, inp.truth, history=False)),
        Op("analyze", "analyze",
           {"result_dir": str(d / "flt"), "measure": "out_degree", "threshold": {"relative_factor": 2.0}},
           "ana", check=lambda o: check_analyze(o, m, M, "out_degree", threshold=True)),
    ]


# ---------------------------------------------------------------- events-betweenness

EVENT_DECAY = 0.5  # per hour; decay * dt stays below 1 at hourly bins
EVENT_MIN_NODE_TOTAL = 30
EVENT_DEAD_DAY_THRESHOLD = 2
EVENT_ORIGIN = datetime(2024, 3, 1)
EVENT_PRIORS = {
    "baseline": {"mean": 2.5, "variance": 2.0},
    "decay": {"mean": 0.5, "variance": 0.04},
    "excitation": {"mean": 0.02, "variance": 0.0004},
}


def events_inputs(work: Path, seed: int, size: dict) -> Inputs:
    """Write an ISO-8601 event CSV from a discrete hourly Hawkes process.

    Active senders follow a sparse Hawkes network. Quiet senders emit fewer
    than EVENT_MIN_NODE_TOTAL isolated events, and dead days carry no
    events at all, so ``clean`` removes both. The first event sits at the
    origin so the hourly bins of ``aggregate`` line up with the generator's.
    """
    n_all, n_quiet, days = size["senders"], size["quiet"], size["days"]
    gen = np.random.default_rng([seed, 200])
    labels = [f"user{k:03d}" for k in range(n_all)]
    quiet = set(gen.choice(n_all, n_quiet, replace=False).tolist())
    active = [k for k in range(n_all) if k not in quiet]
    m = len(active)
    # one generator network for every seed, as for six-node: the seed
    # draws the events, the quiet senders and the dead days
    baseline, alpha = sparse_truth(m, 0, 201, EVENT_DECAY, 3, (1.5, 2.5), 0.7)
    hours = 24 * days
    dead = set((1 + gen.choice(days - 2, size["dead_days"], replace=False)).tolist())
    counts = np.zeros((hours, m), dtype=np.int64)
    lam = baseline.copy()
    for h in range(hours):
        if h // 24 not in dead:
            counts[h] = gen.poisson(lam)
        lam = baseline + (lam - baseline) * (1.0 - EVENT_DECAY) + alpha @ counts[h]
    events = []  # (seconds from origin, sender)
    for j, k in enumerate(active):
        for h in np.flatnonzero(counts[:, j]):
            for offset in gen.uniform(0.0, 3600.0, counts[h, j]):
                events.append((3600.0 * h + offset, labels[k]))
    live_hours = [h for h in range(hours) if h // 24 not in dead]
    for k in quiet:
        for h in gen.choice(live_hours, EVENT_MIN_NODE_TOTAL // 3, replace=False):
            events.append((3600.0 * h + gen.uniform(0.0, 3600.0), labels[k]))
    events.sort()
    events[0] = (0.0, events[0][1])
    path = work / "events.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "sender", "receiver"])
        for seconds, sender in events:
            stamp = EVENT_ORIGIN + timedelta(seconds=round(seconds, 3))
            writer.writerow([stamp.isoformat(timespec="milliseconds"), sender, labels[0]])
    return Inputs(size, {"events": path}, alpha, [labels[k] for k in active])


def events_ops(inp: Inputs, d: Path) -> list[Op]:
    M = inp.size["M"]
    m = len(inp.labels)
    n_steps = 24 * (inp.size["days"] - inp.size["dead_days"])
    return [
        Op("prepare", "aggregate",
           {"events_path": str(inp.files["events"]), "dt": 1.0, "clean": True,
            "min_node_total": EVENT_MIN_NODE_TOTAL, "dead_day_threshold": EVENT_DEAD_DAY_THRESHOLD},
           "agg", check=lambda o: check_events_counts(o, inp, n_steps)),
        Op("filter", "filter",
           {"counts_path": str(d / "agg" / "counts.csv"), "ensemble_size": M, "priors": EVENT_PRIORS},
           "flt", check=lambda o: check_filter(o, m, M, n_steps, inp.truth, history=False)),
        Op("analyze", "analyze", {"result_dir": str(d / "flt"), "measure": "betweenness"},
           "ana", check=lambda o: check_analyze(o, m, M, "betweenness", threshold=False)),
    ]


def check_events_counts(out: Path, inp: Inputs, n_steps: int) -> dict:
    try:
        series, _meta = load_count_series(out / "counts.csv")
        report = json.loads((out / "cleaning.json").read_text())
    except (OSError, ValueError, KeyError) as err:
        raise CheckFailed(f"aggregate artifacts do not parse: {err}") from err
    _require(series.labels() == inp.labels, "cleaning kept other senders than the active ones")
    _require(series.n_steps == n_steps, f"{series.n_steps} hourly bins, expected {n_steps}")
    total = int(series.counts.sum())
    _require(total == report["events_after"], f"counts total {total} != events_after {report['events_after']}")
    return {
        "counts_cells": series.n_steps * series.m,
        "events": report["events_before"],
        "events_removed": report["events_before"] - report["events_after"],
    }


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[Path, int, dict], Inputs]
    make_ops: Callable[..., list[Op]]


WORKLOADS = {
    "six-node": Workload(six_node_inputs, six_node_ops),
    "net100": Workload(net100_inputs, net100_ops),
    "events-betweenness": Workload(events_inputs, events_ops),
}
