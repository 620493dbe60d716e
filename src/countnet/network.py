"""Network views of filter ensembles and their uncertainty.

The excitation matrix doubles as a weighted directed graph: entry (i, j)
is the influence of node j on node i, i.e. an edge j -> i. The diagonal
is each node's self-excitation; all edge analytics (thresholding, degrees,
betweenness, rankings) use the off-diagonal part.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .filtering import BLOCK_ELEMENTS, Ensemble, FilterHistory, ensemble_moments
from .hawkes import check_labels, csv_field, labels_or_default, write_table

OUT_DEGREE = "out_degree"
IN_DEGREE = "in_degree"
BETWEENNESS = "betweenness"
MEASURES = (OUT_DEGREE, IN_DEGREE, BETWEENNESS)

# edges weaker than this are dropped before shortest-path work
BETWEENNESS_WEIGHT_FLOOR = 1e-6


@dataclass
class InfluenceNetwork:
    """Ensemble-mean weighted adjacency plus per-edge ensemble spread."""

    adjacency: np.ndarray
    edge_sd: np.ndarray | None = None
    node_labels: list[str] | None = field(default=None)

    def __post_init__(self) -> None:
        self.adjacency = np.asarray(self.adjacency, dtype=np.float64)
        if self.adjacency.ndim != 2 or self.adjacency.shape[0] != self.adjacency.shape[1]:
            raise ValueError("adjacency must be square")
        if not np.isfinite(self.adjacency).all():
            raise ValueError("edge weights must be finite")
        if (self.adjacency < 0).any():
            raise ValueError("edge weights must be non-negative")
        if self.edge_sd is None:
            self.edge_sd = np.zeros_like(self.adjacency)
        else:
            self.edge_sd = np.asarray(self.edge_sd, dtype=np.float64)
            if self.edge_sd.shape != self.adjacency.shape:
                raise ValueError("edge_sd must match adjacency shape")
            if not np.isfinite(self.edge_sd).all():
                raise ValueError("edge_sd must be finite")
        check_labels(self.node_labels, self.m)

    @property
    def m(self) -> int:
        return self.adjacency.shape[0]

    def labels(self) -> list[str]:
        return labels_or_default(self.node_labels, self.m)


@dataclass
class RankDistribution:
    """counts[r, j] = number of members ranking node j at rank r."""

    counts: np.ndarray
    node_labels: list[str] | None = None

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError("counts must be square (ranks x nodes)")
        check_labels(self.node_labels, self.counts.shape[1])


def mean_network(ensembles: Ensemble, node_labels: list[str] | None = None) -> InfluenceNetwork:
    """Ensemble-mean excitation matrix with per-edge standard deviations."""
    ensembles.check_complete()
    mean, sd = ensemble_moments(ensembles)
    return InfluenceNetwork(mean[:, 2:], sd[:, 2:], node_labels)


def threshold_subnetwork(
    net: InfluenceNetwork,
    relative_factor: float | None = None,
    absolute: float | None = None,
) -> InfluenceNetwork:
    """Keep only strong off-diagonal edges and drop isolated nodes.

    The relative rule keeps edges strictly above relative_factor times the
    mean of the positive off-diagonal weights; the absolute rule keeps
    edges strictly above the given weight. Exactly one rule must be given,
    with a value >= 0.
    """
    if (relative_factor is None) == (absolute is None):
        raise ValueError("give exactly one of relative_factor or absolute")
    if not (absolute if relative_factor is None else relative_factor) >= 0:
        raise ValueError("the threshold rule's value must be >= 0")
    weights = net.adjacency.copy()
    np.fill_diagonal(weights, 0.0)
    if relative_factor is not None:
        positive = weights[weights > 0]
        if positive.size == 0:
            warnings.warn("network has no positive off-diagonal edges", stacklevel=2)
            return InfluenceNetwork(np.zeros((0, 0)), None, [])
        threshold = relative_factor * positive.mean()
    else:
        threshold = absolute
    kept = weights > threshold
    keep_nodes = np.flatnonzero(kept.any(axis=0) | kept.any(axis=1))
    if keep_nodes.size == 0:
        warnings.warn("threshold removed every edge", stacklevel=2)
        return InfluenceNetwork(np.zeros((0, 0)), None, [])
    sub = np.where(kept, weights, 0.0)[np.ix_(keep_nodes, keep_nodes)]
    sub_sd = np.where(kept, net.edge_sd, 0.0)[np.ix_(keep_nodes, keep_nodes)]
    labels = [net.labels()[i] for i in keep_nodes]
    return InfluenceNetwork(sub, sub_sd, labels)


def centrality(net: InfluenceNetwork, measure: str) -> np.ndarray:
    """Per-node centrality scores over the off-diagonal influence graph.

    out_degree(j) sums the influence node j exerts (column j), in_degree(i)
    the influence node i receives (row i). Betweenness runs shortest-path
    search with edge distance 1/weight, so stronger influence means shorter
    distance, and accumulates unnormalized pair dependencies; edges at or
    below BETWEENNESS_WEIGHT_FLOOR are dropped, and paths tie only when
    their float64 lengths are equal.
    """
    if net.m == 0:
        raise ValueError(f"{measure} is undefined on an empty network")
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    off = net.adjacency.copy()
    np.fill_diagonal(off, 0.0)
    return _scores(off[None], measure)[0]


def _scores(off: np.ndarray, measure: str) -> np.ndarray:
    """Scores of a batch of graphs; off[b] has a zero diagonal."""
    if measure == OUT_DEGREE:
        return off.sum(axis=1)
    if measure == IN_DEGREE:
        return off.sum(axis=2)
    return _betweenness(off)


def _betweenness(off: np.ndarray) -> np.ndarray:
    """Brandes betweenness of B graphs at once; edge j->i of graph b weighs off[b, i, j].

    Dijkstra runs for every (graph, source) pair together, one finalized
    node per iteration. Ties in distance finalize in the order a binary heap
    keyed by (distance, push counter) would pop them: earliest strict
    improvement first, then lowest node index. That order fixes the order in
    which dependencies are summed, so scores are reproducible to the bit.
    """
    B, m, _ = off.shape
    # length[b, i, j]: distance of edge j -> i; inf where there is no edge
    length = np.full_like(off, np.inf)
    np.divide(1.0, off, out=length, where=off > BETWEENNESS_WEIGHT_FLOOR)
    out_len = np.ascontiguousarray(length.transpose(0, 2, 1))  # row u: edges leaving u
    bi = np.arange(B)[:, None]
    nodes = np.arange(m)

    dist = np.full((B, m, m), np.inf)  # [graph, source, node]
    dist[:, nodes, nodes] = 0.0
    open_dist = dist.copy()  # inf once finalized
    sigma = np.zeros((B, m, m))
    sigma[:, nodes, nodes] = 1.0
    # heap position of a node's current best entry: improvement step * m + node
    no_entry = np.iinfo(np.int64).max
    pushed = np.full((B, m, m), no_entry, dtype=np.int64)
    pushed[:, nodes, nodes] = -1
    order = np.empty((B, m, m), dtype=np.intp)
    reached = np.empty((B, m, m), dtype=bool)
    for t in range(m):
        d = open_dist.min(axis=2)
        u = np.where(open_dist == d[..., None], pushed, no_entry).argmin(axis=2)
        ok = np.isfinite(d)
        order[:, :, t] = u
        reached[:, :, t] = ok
        open_dist[bi, nodes, u] = np.inf
        cand = d[..., None] + out_len[bi, u]
        # finalized nodes have dist <= d < cand, so only open nodes improve
        better = cand < dist
        su = np.where(ok, sigma[bi, nodes, u], 0.0)[..., None]
        sigma += np.where(cand == dist, su, 0.0)
        np.copyto(sigma, su, where=better)
        np.copyto(dist, cand, where=better)
        np.copyto(open_dist, cand, where=better)
        np.copyto(pushed, t * m + nodes, where=better)

    delta = np.zeros((B, m, m))
    for t in range(m - 1, -1, -1):
        w = order[:, :, t]
        ok = reached[:, :, t]
        coeff = np.zeros((B, m))
        np.divide(1.0 + delta[bi, nodes, w], sigma[bi, nodes, w], out=coeff, where=ok)
        # predecessors of w: nodes v with dist[v] + length(v -> w) == dist[w]
        pred = dist + length[bi, w] == dist[bi, nodes, w][..., None]
        pred &= ok[..., None]
        np.add(delta, sigma * coeff[..., None], out=delta, where=pred)

    delta[:, nodes, nodes] = 0.0  # a source lies on none of its own paths
    scores = np.zeros((B, m))
    for s in range(m):
        scores += delta[:, s]
    return scores


def rank_distribution(
    ensembles: Ensemble,
    measure: str,
    node_labels: list[str] | None = None,
) -> RankDistribution:
    """Empirical distribution of centrality ranks across the ensemble.

    Member s of every node ensemble together forms one network sample; the
    chosen measure is computed on each sample and the resulting rank of
    every node tallied. Samples are scored in batches by one kernel.
    """
    ensembles.check_complete()
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    m, M = ensembles.m, ensembles.params.shape[1]
    # a (members, m, m) batch of about BLOCK_ELEMENTS bounds the betweenness working set
    batch = max(1, BLOCK_ELEMENTS // (m * m))
    nodes = np.arange(m)
    tally = np.zeros(m * m, dtype=np.int64)
    for lo in range(0, M, batch):
        # (members, receiving node, source): member s of every row is one network
        off = ensembles.params[:, lo : lo + batch, 2:].transpose(1, 0, 2).copy()
        off[:, nodes, nodes] = 0.0
        # rank order is descending score; stable, so ties go by node index
        order = np.argsort(-_scores(off, measure), axis=1, kind="stable")
        tally += np.bincount((nodes * m + order).ravel(), minlength=m * m)
    return RankDistribution(tally.reshape(m, m), node_labels)


def error_metrics(history: FilterHistory, excitation_scale: float = 1.0) -> dict:
    """Normalized-error and variance-reduction curves from the truth curves of a run given a truth.

    Per node and step: baseline/decay error is the absolute deviation of
    the ensemble mean from truth divided by the initial deviation;
    excitation error averages the absolute deviations over source nodes
    before normalizing. The whole-matrix error, the Frobenius norm of the
    excitation deviation (the root of the sum of the nodes' row sums of
    squares), is divided by ``excitation_scale``. Variance ratios divide
    each step's ensemble variance by the initial one. An exact initial
    mean makes the normalization undefined; those entries are NaN.
    """
    if history is None or history.baseline_abs_error is None:
        raise ValueError("error_metrics needs the history of a run given a truth")
    h = history
    with np.errstate(divide="ignore", invalid="ignore"):
        out = {
            "baseline_error": h.baseline_abs_error / h.baseline_abs_error[0],
            "decay_error": h.decay_abs_error / h.decay_abs_error[0],
            "excitation_error": h.excitation_abs_error / h.excitation_abs_error[0],
            "frobenius": np.sqrt(np.add.reduce(h.excitation_sq_error, axis=1)) / excitation_scale,
            "baseline_var_ratio": h.baseline_var / h.baseline_var[0],
            "decay_var_ratio": h.decay_var / h.decay_var[0],
            "excitation_var_ratio": h.excitation_var / h.excitation_var[0],
        }
    errors = ("baseline_error", "decay_error", "excitation_error")
    for key in errors:  # a zero initial deviation gives 0/0 at step 0 and x/0 after it
        out[key][:, np.isnan(out[key][0])] = np.nan
    out["final"] = {key: out[key][-1].tolist() for key in (*errors, "frobenius")}
    return out


def save_network(net: InfluenceNetwork, edge_csv: str | Path, adjacency_json: str | Path) -> None:
    """Edge list CSV (src, dst, weight, weight_sd) of the positive off-diagonal edges plus JSON adjacency.

    The JSON has the layout of ``json.dumps(payload, indent=2)``, written one
    matrix row at a time; a finite float's JSON text is its ``repr``, which
    ``%r`` gives for the Python floats of ``tolist``.
    """
    labels = net.labels()
    edge = net.adjacency > 0
    np.fill_diagonal(edge, False)
    dst, src = np.nonzero(edge)
    quoted = np.array([csv_field(label) for label in labels], dtype=object)
    write_table(edge_csv, ["src", "dst", "weight", "weight_sd"], "%s,%s,%.17g,%.17g\r\n", quoted[src],
                quoted[dst], net.adjacency[dst, src], net.edge_sd[dst, src])
    row_format = _json_array(["%r"] * net.m, 2)
    with Path(adjacency_json).open("w") as fh:
        fh.write('{\n  "node_labels": ' + _json_array(list(map(encode_basestring_ascii, labels)), 1))
        for key, matrix in (("adjacency", net.adjacency), ("edge_sd", net.edge_sd)):
            fh.write(f',\n  "{key}": ')
            if not net.m:
                fh.write("[]")
                continue
            sep = "[\n    "
            for row in matrix:
                fh.write(sep + row_format % tuple(row.tolist()))
                sep = ",\n    "
            fh.write("\n  ]")
        fh.write("\n}\n")


def _json_array(items: list[str], depth: int) -> str:
    """Encoded JSON values as the array ``json.dumps(indent=2)`` writes at this nesting depth."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def save_rank_distribution(dist: RankDistribution, path: str | Path) -> None:
    """Rank-by-node count matrix as CSV with a header of node labels."""
    m = dist.counts.shape[0]
    labels = labels_or_default(dist.node_labels, m)
    write_table(path, ["rank", *labels], "%d" + ",%d" * m + "\r\n", np.arange(1, m + 1), dist.counts)
