"""Reference implementations the network analytics are checked against.

``brute_betweenness`` enumerates every simple path; ``heapq_betweenness`` is
the scalar Brandes (one heap-based Dijkstra per source), the bit-level
reference for the batched kernel in ``countnet.network``. Both take a dense adjacency whose entry (i, j) weighs the edge j -> i.
``rank_nodes`` is the scalar ranking that ``rank_distribution`` tallies.

``clean`` and ``aggregate`` are the name-based event-log path that
``countnet.ingest`` replaced with sender codes: their ``EventLog`` holds
each event's sender name, and every step works per event in Python. They
are the exact reference for the coded path.

``analyze_rows`` is the per-row intensity analysis that
``countnet.filtering._analyze_rows`` replaced with whole-board operations:
each row with a count of at least 1 draws its perturbed observations with
``gamma(dN, 1)`` at its step, a flat row too, and is updated on its own,
its deviations' sum of squares one ``np.einsum`` of that row. It is the
bit-level reference for the batched kernel, draws and stream states
included. ``_analyze_rows`` is now ``board_analysis`` below done in place
in the filter's work boards, in one pass over every row, and its draws come
from ``_draw_block``, a block of bins at a time: a zero count has weight 0
where ``board_analysis`` leaves it out through its index. Both move the
members in closed form, ``a * lam_f + b * draws``.

``filter_step`` is one step of ``countnet.filtering.Filter.assimilate_step``
as it ran before the filter kept its work arrays, on an (n, M, m+2) board:
each row's forecast written out as one expression over a member-minor
(m+2, M) copy of the row, its excitation a ``prev @ row`` product, the
whole-board analysis ``board_analysis`` (new arrays for every pass, the
perturbed observations drawn row by row into a new board, the observed rows
updated through fancy indexing), the regression ``board_regression`` (one
row at a time on its member-minor copy: its row vectors, a ``np.matvec``
gain and an outer product per row) and a copy of the analysed intensity
into the board. With ``param_moments`` below for the history, it is the
bit-level per-step reference for the board, the diagnostics, the history
and every analysis stream's state.

``param_moments`` is the per-row reduction that
``countnet.filtering.param_moments`` replaced with one blocked kernel: each
row's mean from its own ``np.matvec`` of its member-minor copy with a vector
of ones, the BLAS call the kernel makes per row, and its variance from an
``einsum`` sum of squares of that row. It is the bit-level reference for the
truth curves, ``result.json`` and the network. The batched kernels make one
call per row, so these per-row calls give their bits for a given numpy and
BLAS build.

``error_metrics`` is ``countnet.network.error_metrics`` as it ran over a
recorded (n_steps + 1, m, m + 2) history of parameter means and variances,
before ``run_filter`` scored each step against the truth and kept only the
per-node curves: the byte-level reference for the six per-node curves, and
within a few ulps for ``frobenius`` (its sum then went over the whole matrix
at once, now over the rows' sums).

``save_snapshot_archive`` is the ``np.savez`` call that
``countnet.filtering.save_filter_result`` replaced with a writer that sends
each board out from its own buffer: the byte-level reference for the archive.

``init_board`` is the whole-board draw that ``countnet.filtering.init_ensemble``
replaced with a prior source whose rows are drawn where they are filled: the
bit-level reference for ``PriorEnsemble.draw`` and ``fill``.

``save_network``, ``save_rank_distribution`` and ``save_count_series`` are
the ``csv.writer`` and ``json.dumps`` writers that ``countnet.network`` and
``countnet.hawkes`` replaced with bulk ``%`` passes: the byte-level
references for ``edges.csv``, ``network.json``, the rank CSV and the counts
CSV with its sidecar.

``save_filter_tables``, ``save_agents`` and ``save_sweep`` are the
``np.savetxt`` and ``csv.writer`` writers that ``countnet.filtering`` and
``countnet.cli`` replaced with ``hawkes.write_table``: the byte-level
references for ``alpha_mean.csv``, ``diagnostics.csv``, the error curves,
``metrics.json``, ``agents.csv`` and ``sweep.csv``.

``attractiveness``, ``attractiveness_update``, ``movement_probabilities``,
``step_agents`` and ``simulate_abm`` are the per-location agent model that
``countnet.abm`` replaced with one step kernel: a few vector passes per step
and a loop that keeps only each location's draws. They are the bit-level
reference for the counts, the agent trace and B at every step.

``read_event_csv`` and ``load_count_series`` are the per-row ``csv.reader``
readers that ``countnet.ingest`` and ``countnet.hawkes`` replaced with
block passes (``hawkes.csv_blocks``): the exact references for the event
log's times, codes, labels and window, for the loaded counts, and for each
error's message and line.
"""

import csv
import heapq
import json
import math
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from countnet import filtering, ingest, rng
from countnet.abm import ABMConfig, ABMState, initial_state
from countnet.filtering import AnalysisDiagnostics, Ensemble, FilterResult
from countnet.hawkes import CountSeries, HawkesParams, labels_or_default
from countnet.ingest import HOURS_PER_DAY, CleaningReport
from countnet.network import BETWEENNESS_WEIGHT_FLOOR, InfluenceNetwork, RankDistribution


def rank_nodes(scores: np.ndarray) -> np.ndarray:
    """Node indices in rank order: descending score, ties by node index."""
    return np.lexsort((np.arange(scores.shape[0]), -scores))


def analyze_rows(lam_f, counts, dt, floor, streams) -> tuple[np.ndarray, AnalysisDiagnostics]:
    """Intensity analysis of a board of rows, one row at a time; one stream per row."""
    M = lam_f.shape[1]
    lam_a = np.empty_like(lam_f)
    diags = []
    for i, (x, count) in enumerate(zip(lam_f, counts)):
        mean_f = x.mean()
        ydev = x - mean_f
        prior_rv = np.einsum("j,j->", ydev, ydev) / ((M - 1) * mean_f * mean_f)
        degenerate = prior_rv == 0.0
        inv_prior = np.inf if degenerate else 1.0 / prior_rv
        innovation = count - mean_f * dt
        post_mean = mean_f + mean_f / (inv_prior + mean_f * dt) * innovation
        # the draws' share c, 0 for a flat row, moves each relative deviation toward its draw's
        if count >= 1:
            c = prior_rv / (prior_rv + 1.0 / count)
            draws = streams[i].gamma(float(int(count)), 1.0, size=M)
            row = x * (post_mean * (1.0 - c) / mean_f) + draws * (post_mean * c / draws.mean())
        else:
            row = x * (post_mean / mean_f)
        lam_a[i] = np.maximum(row, floor)
        post_rv = prior_rv if count == 0 else 1.0 / (inv_prior + count)
        diags.append((mean_f, post_mean, prior_rv, post_rv, innovation, degenerate))
    return lam_a, AnalysisDiagnostics(*map(np.array, zip(*diags)))


def _perturbed_rows(counts, M: int, streams) -> tuple[np.ndarray, np.ndarray]:
    """A (rows, M) board of gamma(count, 1) draws, row r from ``streams[r]``, and its row means."""
    t = np.empty((len(counts), M))
    for r, (count, gen) in enumerate(zip(counts, streams)):
        gen.standard_gamma(count, out=t[r])
    return t, np.add.reduce(t, axis=1) / M


def board_analysis(lam_f, counts, dt, floor, streams) -> tuple[np.ndarray, AnalysisDiagnostics]:
    """Intensity analysis for a board of rows; one stream per row."""
    n_rows, M = lam_f.shape
    mean_f = np.add.reduce(lam_f, axis=1) / M
    ydev = lam_f - mean_f[:, None]
    prior_rv = np.einsum("ij,ij->i", ydev, ydev) / ((M - 1) * mean_f * mean_f)
    degenerate = prior_rv == 0.0
    inv_prior = np.divide(1.0, prior_rv, out=np.full(n_rows, np.inf), where=~degenerate)

    innovation = counts - mean_f * dt
    gain = mean_f / (inv_prior + mean_f * dt)  # degenerate rows get gain 0
    post_mean = mean_f + gain * innovation

    # move the drawing rows' relative deviations toward their draws'; the other rows keep theirs
    act = np.flatnonzero(counts >= 1)
    c = np.zeros(n_rows)
    c[act] = prior_rv[act] / (prior_rv[act] + 1.0 / counts[act])
    lam_a = lam_f * (post_mean * (1.0 - c) / mean_f)[:, None]
    if act.size:
        t, t_mean = _perturbed_rows(counts[act], M, [streams[i] for i in act])
        lam_a[act] += t * (post_mean[act] * c[act] / t_mean)[:, None]
    np.maximum(lam_a, floor, out=lam_a)

    post_rv = np.where(counts == 0, prior_rv, 1.0 / (inv_prior + counts))
    diag = AnalysisDiagnostics(mean_f, post_mean, prior_rv, post_rv, innovation, degenerate)
    return lam_a, diag


def board_regression(q, lam_f, lam_a, floor) -> None:
    """Parameter regression for an (n, M, p) board of rows, in place, one row at a time."""
    for qi, yf, ya in zip(q, lam_f, lam_a):
        row = qi.T.copy()  # parameters by members
        ydev, yadev = yf - yf.mean(), ya - ya.mean()
        denom = np.einsum("j,j->", ydev, ydev) + np.einsum("j,j->", yadev, yadev)
        gain = np.matvec(row, ydev) * (1.0 / denom if denom > 0 else 0.0)
        row += np.multiply.outer(gain, ya - yf)
        qi[...] = np.maximum(row, floor).T


def filter_step(lam, params, prev, counts_next, nodes, dt, floor, streams) -> AnalysisDiagnostics:
    """One filter step on the board ``lam`` (n, M), ``params`` (n, M, m+2), in place.

    ``prev`` is the previous bin's full count vector and ``counts_next`` the
    new one; row r assimilates column ``nodes[r]`` with ``streams[r]``.
    """
    counts_next = np.asarray(counts_next, dtype=np.float64)
    own_counts = counts_next[nodes]
    lam_f = np.empty_like(lam)
    for i, q in enumerate(params):
        row = q.T.copy()  # parameters by members
        lam_f[i] = row[0] + (lam[i] - row[0]) * (1.0 - row[1] * dt) + prev @ row[2:]
    np.maximum(lam_f, floor, out=lam_f)
    with np.errstate(over="ignore", invalid="ignore"):
        lam_a, diag = board_analysis(lam_f, own_counts, dt, floor, streams)
    board_regression(params, lam_f, lam_a, floor)
    lam[...] = lam_a
    return diag


def param_moments(params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means, variances and sds (ddof=1) over the members of an (n, M, p) board, one row at a time."""
    n, M, p = params.shape
    mean, var = np.empty((n, p)), np.empty((n, p))
    for i, q in enumerate(params):
        row = q.T.copy()  # parameters by members
        mean[i] = np.matvec(row, np.ones(M)) / M
        dev = row - mean[i][:, None]
        var[i] = np.einsum("jm,jm->j", dev, dev) / (M - 1)
    return mean, var, np.sqrt(var)


def error_metrics(mean: np.ndarray, var: np.ndarray, truth: HawkesParams, excitation_scale: float = 1.0) -> dict:
    """The error and variance curves over every step's (m, m + 2) parameter means and variances."""
    dev_mu = np.abs(mean[:, :, 0] - truth.baseline)
    dev_beta = np.abs(mean[:, :, 1] - truth.decay)
    dev_alpha = np.abs(mean[:, :, 2:] - truth.excitation).mean(axis=2)
    frob = np.linalg.norm(mean[:, :, 2:] - truth.excitation, axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = {
            "baseline_error": dev_mu / dev_mu[0],
            "decay_error": dev_beta / dev_beta[0],
            "excitation_error": dev_alpha / dev_alpha[0],
            "frobenius": frob / excitation_scale,
            "baseline_var_ratio": var[:, :, 0] / var[0, :, 0],
            "decay_var_ratio": var[:, :, 1] / var[0, :, 1],
            "excitation_var_ratio": var[:, :, 2:].mean(axis=2) / var[0, :, 2:].mean(axis=1),
        }
    for key in ("baseline_error", "decay_error", "excitation_error"):
        zero_start = np.isnan(out[key][0])
        out[key][:, zero_start] = np.nan
    out["final"] = {
        "baseline_error": out["baseline_error"][-1].tolist(),
        "decay_error": out["decay_error"][-1].tolist(),
        "excitation_error": out["excitation_error"][-1].tolist(),
        "frobenius": float(out["frobenius"][-1]),
    }
    return out


def save_snapshot_archive(path, intensity: np.ndarray, params: np.ndarray) -> None:
    """The snapshot archive as ``np.savez`` writes it, with a whole-board copy of each entry."""
    np.savez(path, intensity=intensity, params=params)


def init_board(m, M, baseline_prior, decay_prior, excitation_prior, seed) -> Ensemble:
    params = np.empty((m, M, m + 2))
    for i in range(m):
        gen = rng.node_stream(seed, rng.ENSEMBLE_INIT, i)
        params[i, :, 0] = baseline_prior.draw(gen, M)
        params[i, :, 1] = decay_prior.draw(gen, M)
        params[i, :, 2:] = excitation_prior.draw(gen, (M, m))
    return Ensemble(params[:, :, 0].copy(), params)


def brute_betweenness(adjacency: np.ndarray) -> np.ndarray:
    """Exhaustive-enumeration oracle: all simple paths, prefix-sum lengths."""
    m = adjacency.shape[0]
    off = adjacency.copy()
    np.fill_diagonal(off, 0.0)
    edges = {
        (j, i): 1.0 / off[i, j]
        for i in range(m)
        for j in range(m)
        if i != j and off[i, j] > BETWEENNESS_WEIGHT_FLOOR
    }
    out = {j: [i for (jj, i) in edges if jj == j] for j in range(m)}
    scores = np.zeros(m)
    for s in range(m):
        for t in range(m):
            if s == t:
                continue
            paths = []

            def walk(node, dist, visited, trail):
                if node == t:
                    paths.append((dist, tuple(trail)))
                    return
                for nxt in out[node]:
                    if nxt not in visited:
                        walk(nxt, dist + edges[(node, nxt)], visited | {nxt}, trail + [nxt])

            walk(s, 0.0, {s}, [s])
            if not paths:
                continue
            best = min(d for d, _ in paths)
            shortest = [trail for d, trail in paths if d == best]
            sigma = len(shortest)
            for trail in shortest:
                for v in trail[1:-1]:
                    scores[v] += 1.0 / sigma
    return scores


def heapq_betweenness(off: np.ndarray) -> np.ndarray:
    """Brandes accumulation over Dijkstra trees; edge j->i has weight off[i, j]."""
    m = off.shape[0]
    out_edges: list[list[tuple[int, float]]] = [[] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            w = off[i, j]
            if i != j and w > BETWEENNESS_WEIGHT_FLOOR:
                out_edges[j].append((i, 1.0 / w))
    scores = np.zeros(m)
    for s in range(m):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(m)]
        sigma = np.zeros(m)
        sigma[s] = 1.0
        dist = np.full(m, np.inf)
        seen = {s: 0.0}
        counter = 0
        heap: list[tuple[float, int, int, int]] = [(0.0, counter, s, s)]
        while heap:
            d, _, pred, v = heapq.heappop(heap)
            if np.isfinite(dist[v]):
                continue
            sigma[v] += sigma[pred]
            stack.append(v)
            dist[v] = d
            for w, length in out_edges[v]:
                vw = d + length
                if not np.isfinite(dist[w]) and (w not in seen or vw < seen[w]):
                    seen[w] = vw
                    counter += 1
                    heapq.heappush(heap, (vw, counter, v, w))
                    sigma[w] = 0.0
                    preds[w] = [v]
                elif vw == seen.get(w):
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(m)
        while stack:
            w = stack.pop()
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                scores[w] += delta[w]
    return scores


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


def read_event_csv(path: str | Path, t0: float | None = None, t1: float | None = None) -> ingest.EventLog:
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
    return ingest.EventLog(arr, nodes, lo if t0 is None else t0, hi if t1 is None else t1, list(rank))


def save_network(net: InfluenceNetwork, edge_csv: str | Path, adjacency_json: str | Path) -> None:
    """Edge list CSV (src, dst, weight, weight_sd) of the positive off-diagonal edges plus JSON adjacency."""
    labels = net.labels()
    edge = net.adjacency > 0
    np.fill_diagonal(edge, False)
    dst, src = np.nonzero(edge)
    weights, sds = net.adjacency[dst, src].tolist(), net.edge_sd[dst, src].tolist()
    with Path(edge_csv).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "weight", "weight_sd"])
        writer.writerows([labels[s], labels[d], f"{w:.17g}", f"{sd:.17g}"]
                         for d, s, w, sd in zip(dst.tolist(), src.tolist(), weights, sds))
    payload = {
        "node_labels": labels,
        "adjacency": net.adjacency.tolist(),
        "edge_sd": net.edge_sd.tolist(),
    }
    Path(adjacency_json).write_text(json.dumps(payload, indent=2) + "\n")


def save_rank_distribution(dist: RankDistribution, path: str | Path) -> None:
    """Rank-by-node count matrix as CSV with a header of node labels."""
    m = dist.counts.shape[0]
    labels = labels_or_default(dist.node_labels, m)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank"] + labels)
        for r in range(m):
            writer.writerow([r + 1] + [int(c) for c in dist.counts[r]])


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
    # the CSV holds the labels and the shape
    sidecar = {"dt": series.dt, "seed": seed, "params": params.to_json() if params is not None else None}
    csv_path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_count_series(csv_path: str | Path) -> tuple[CountSeries, dict]:
    """Read a counts CSV and its sidecar; returns (series, metadata).

    A row without one whole count in 0 .. 2**64 - 1 per label is an error naming its line.
    """
    csv_path = Path(csv_path)
    meta = json.loads(csv_path.with_suffix(".json").read_text())
    rows = []
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{csv_path}: empty file, no header row")
        labels = header[1:]
        try:
            for row in reader:
                if len(row) != len(labels) + 1:
                    raise ValueError(f"need a time and {len(labels)} counts, not {len(row)} cells")
                values = [int(c) for c in row[1:]]
                if values and not 0 <= min(values) <= max(values) < 2**64:
                    raise ValueError("counts must lie in 0 .. 2**64 - 1")
                rows.append(values)
        except ValueError as err:
            raise ValueError(f"{csv_path}: line {reader.line_num}: {err}") from err
    counts = np.asarray(rows, dtype=np.uint64).reshape(len(rows), len(labels))
    try:
        return CountSeries(counts, float(meta["dt"]), node_labels=labels), meta
    except ValueError as err:
        raise ValueError(f"{csv_path}: {err}") from err


def save_filter_tables(result: FilterResult, out_dir: Path, report: dict | None = None) -> None:
    """``alpha_mean.csv``, ``diagnostics.csv``, the error curves and ``metrics.json`` of a result directory."""
    mean, _ = filtering.ensemble_moments(result.ensembles)
    np.savetxt(out_dir / "alpha_mean.csv", mean[:, 2:], delimiter=",", fmt="%.17g")
    if "prior_mean" in result.history:
        h = result.history
        n_steps, m = h["prior_mean"].shape
        keys = ("prior_mean", "post_mean", "prior_rel_var", "post_rel_var", "innovation")
        columns = [np.repeat(np.arange(n_steps), m), np.tile(np.arange(m), n_steps)]
        columns += [h[key].ravel() for key in keys]
        np.savetxt(
            out_dir / "diagnostics.csv",
            np.column_stack(columns),
            fmt=["%d", "%d"] + ["%.17g"] * len(keys),
            delimiter=",",
            newline="\r\n",
            header=",".join(("step", "node") + keys),
            comments="",
        )
    if report is None:
        return
    for key, curve in report.items():
        if key != "final":
            np.savetxt(out_dir / f"{key}.csv", curve, delimiter=",", fmt="%.17g")

    def null_nan(v):
        if isinstance(v, list):
            return [null_nan(x) for x in v]
        return v if np.isfinite(v) else None

    final = {k: null_nan(v) for k, v in report["final"].items()}
    (out_dir / "metrics.json").write_text(json.dumps(final, indent=2) + "\n")


def save_agents(path: Path, agents: np.ndarray) -> None:
    """The per-step agent counts of ``simulate-abm``'s ``agents.csv``."""
    np.savetxt(path, agents, delimiter=",", fmt="%d")


def save_sweep(path: Path, rows: list[dict]) -> None:
    """``sweep.csv``: one row per (s1, s2) pair of ``run_excitation_sweep``."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s1", "s2", "frobenius_mean"])
        for row in rows:
            writer.writerow([row["s1"], row["s2"], f"{row['frobenius_mean']:.10g}"])


def attractiveness(state: ABMState, cfg: ABMConfig) -> np.ndarray:
    return cfg.baseline + state.B


def attractiveness_update(state: ABMState, events, cfg: ABMConfig) -> np.ndarray:
    """Next dynamic component B given this bin's per-location event counts.

    Diffusion exchanges mass only between distinct neighbouring locations;
    self-excitation enters through the W @ events term.
    """
    events = np.asarray(events, dtype=np.float64)
    if events.shape != (cfg.m,):
        raise ValueError("events must have one entry per location")
    if (events < 0).any():
        raise ValueError("event counts must be non-negative")
    B = state.B
    mixed = np.empty(cfg.m)
    for s, hood in enumerate(cfg.neighbourhoods()):
        if hood.size == 0:
            mixed[s] = B[s]  # nothing to exchange with
        else:
            mixed[s] = (1.0 - cfg.diffusion) * B[s] + cfg.diffusion * B[hood].mean()
    return mixed * (1.0 - cfg.decay * cfg.dt) + cfg.excitation @ events


def movement_probabilities(
    state: ABMState, cfg: ABMConfig, location: int
) -> tuple[np.ndarray, np.ndarray]:
    """Destinations D(s) and their probabilities for an agent leaving ``location``.

    Movement is biased toward attractive neighbours; the probability of
    each destination is its attractiveness over the neighbourhood total.
    Empty neighbourhood means the agent stays (empty arrays returned).
    """
    hood = cfg.neighbourhoods()[location]
    if hood.size == 0:
        return hood, np.empty(0)
    weights = attractiveness(state, cfg)[hood]
    total = weights.sum()
    if total > 0:
        return hood, weights / total
    return hood, np.full(hood.size, 1.0 / hood.size)


def step_agents(
    state: ABMState, cfg: ABMConfig, streams: list[np.random.Generator]
) -> tuple[np.ndarray, ABMState]:
    """One agent step: events, biased movement, spawning.

    Per location s: each agent generates an event with probability p_s and
    is removed; the rest move to a neighbour in D(s) with probability
    proportional to the neighbour's attractiveness (an agent with no
    neighbours stays put). New agents spawn per location at spawn_rate.
    Each location draws from its own stream.
    """
    m = cfg.m
    p = 1.0 - np.exp(-attractiveness(state, cfg) * cfg.dt)
    events = np.zeros(m, dtype=np.int64)
    arrivals = np.zeros(m, dtype=np.int64)
    for s in range(m):
        gen = streams[s]
        n = int(state.agents[s])
        ev = int(gen.binomial(n, p[s])) if n > 0 else 0
        events[s] = ev
        movers = n - ev
        if movers > 0:
            hood, probs = movement_probabilities(state, cfg, s)
            if hood.size == 0:
                arrivals[s] += movers
            else:
                np.add.at(arrivals, hood, gen.multinomial(movers, probs))
        arrivals[s] += int(gen.poisson(cfg.spawn_rate * cfg.dt))
    new_state = ABMState(state.B.copy(), arrivals)
    return events, new_state


def simulate_abm(
    cfg: ABMConfig,
    n_steps: int,
    seed: int,
    node_indices: list[int] | None = None,
    return_agent_trace: bool = False,
):
    """Run the model and emit per-step per-location event counts.

    ``node_indices`` names the stream key of each location (defaults to
    0..m-1); a sub-model run with the original indices reproduces the same
    per-location draws, which is what makes decoupled configurations
    separable. With ``return_agent_trace`` the per-step agent counts are
    returned alongside the CountSeries.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    m = cfg.m
    if node_indices is None:
        node_indices = list(range(m))
    if len(node_indices) != m:
        raise ValueError("node_indices must name every location")
    streams = rng.node_streams(seed, rng.ABM_AGENTS, node_indices)
    state = initial_state(cfg)
    out = np.zeros((n_steps, m), dtype=np.uint64)
    trace = np.zeros((n_steps, m), dtype=np.int64) if return_agent_trace else None
    for k in range(n_steps):
        if return_agent_trace:
            trace[k] = state.agents
        events, state = step_agents(state, cfg, streams)
        out[k] = events
        # state.B still holds B(t); the update consumes it with this bin's events
        state.B = attractiveness_update(state, events, cfg)
    series = CountSeries(out, cfg.dt)
    if return_agent_trace:
        return series, trace
    return series
