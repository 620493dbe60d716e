"""Ensemble Poisson-Gamma filter for count-driven Hawkes inference.

Per node and per time bin the filter runs four stages:

1. forecast: push every member's intensity through the Hawkes recursion
   using that member's own parameter sample and the previous bin's counts;
2. intensity analysis: move the intensity members so that their mean and
   relative variance follow the exact gamma-conjugate posterior for the
   observed count (Poisson likelihood, gamma prior), using independently
   drawn perturbed observations to keep the member spread consistent;
3. parameter regression: update each member's parameter vector by
   regressing it on the member-wise intensity innovation (a stochastic
   ensemble-Kalman step whose observation space is scalar);
4. roll the state forward to the next bin.

Nodes never read each other's ensembles; they couple only through the
shared observed counts. A node's index is its data column, and every
random draw comes from a stream named by (seed, purpose, node index), so
results are bitwise independent of node ordering and worker count.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import rng
from .hawkes import CountSeries, advance_intensity, check_counts

SNAPSHOT_ARCHIVE = "ensembles.npz"
# default lower clamp for intensity and parameter members
POSITIVITY_FLOOR = 1e-8
_INTENSITY_KEYS = ("prior_mean", "post_mean", "prior_rel_var", "post_rel_var", "innovation")


class FilterDivergence(RuntimeError):
    """A non-finite ensemble member (``what``: intensity or parameter) was detected mid-run."""

    def __init__(self, step: int, node: int, what: str = "intensity"):
        super().__init__(f"non-finite {what} member at step {step}, node {node}")
        self.step = step
        self.node = node
        self.what = what

    def __reduce__(self):  # rebuilt from its fields when a worker raises it
        return type(self), (self.step, self.node, self.what)


@dataclass(frozen=True)
class GammaSpec:
    """Gamma distribution given by mean and variance.

    variance == 0 is the degenerate limit: every draw equals the mean.
    """

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not self.mean > 0:
            raise ValueError("GammaSpec mean must be positive")
        if self.variance < 0:
            raise ValueError("GammaSpec variance must be non-negative")

    def draw(self, gen: np.random.Generator, size) -> np.ndarray:
        if self.variance == 0.0:
            return np.full(size, self.mean, dtype=np.float64)
        shape = self.mean**2 / self.variance
        scale = self.variance / self.mean
        return gen.gamma(shape, scale, size=size)


@dataclass
class NodeEnsemble:
    """M joint samples of (intensity, parameter vector) for one node.

    ``params`` columns are [baseline, decay, excitation_1, ..., excitation_m],
    where excitation_j multiplies the observed counts of node j.
    """

    node_index: int
    intensity: np.ndarray
    params: np.ndarray

    def __post_init__(self) -> None:
        self.intensity = np.asarray(self.intensity, dtype=np.float64)
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.intensity.ndim != 1 or self.params.ndim != 2:
            raise ValueError("intensity must be (M,), params must be (M, m+2)")
        if self.params.shape[0] != self.intensity.shape[0]:
            raise ValueError("intensity and params must have the same member count")
        if self.ensemble_size < 2:
            raise ValueError("ensemble size must be at least 2")
        if self.params.shape[1] < 3:
            raise ValueError("params must have at least 3 columns (m >= 1)")

    @property
    def ensemble_size(self) -> int:
        return self.intensity.shape[0]

    @property
    def m(self) -> int:
        return self.params.shape[1] - 2

    @property
    def baseline(self) -> np.ndarray:
        return self.params[:, 0]

    @property
    def decay(self) -> np.ndarray:
        return self.params[:, 1]

    @property
    def excitation(self) -> np.ndarray:
        return self.params[:, 2:]


@dataclass
class AnalysisDiagnostics:
    """Analysis-step summary; scalar per node, or arrays for a whole step."""

    prior_mean: float | np.ndarray
    post_mean: float | np.ndarray
    prior_rel_var: float | np.ndarray
    post_rel_var: float | np.ndarray
    innovation: float | np.ndarray
    degenerate: bool | np.ndarray


@dataclass(frozen=True)
class FilterConfig:
    """Run settings; the member count M comes from the ensembles and dt from the counts."""

    seed: int
    positivity_floor: float = POSITIVITY_FLOOR
    record_param_history: bool = False
    record_intensity_history: bool = False

    def __post_init__(self) -> None:
        if not self.positivity_floor > 0:
            raise ValueError("positivity_floor must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def to_json(self) -> dict:
        return asdict(self)


def analytic_posterior(
    mean: float, rel_var: float, dN: int, dt: float
) -> tuple[float, float]:
    """Exact gamma-conjugate update of (mean, relative variance).

    This closed form is the oracle the stochastic ensemble analysis must
    reproduce in the large-ensemble limit.
    """
    if not mean > 0 or not rel_var > 0:
        raise ValueError("mean and rel_var must be positive")
    if dN < 0:
        raise ValueError("dN must be a non-negative count")
    if not dt > 0:
        raise ValueError("dt must be positive")
    post_mean = mean + mean / (1.0 / rel_var + mean * dt) * (dN - mean * dt)
    # a zero count carries no information about the relative spread
    post_rel_var = rel_var if dN == 0 else 1.0 / (1.0 / rel_var + dN)
    return post_mean, post_rel_var


def _perturbed_rows(counts, M: int, streams) -> tuple[np.ndarray, np.ndarray]:
    """A (rows, M) board of gamma(count, 1) draws, row r from ``streams[r]``, and its row means."""
    t = np.empty((len(counts), M))
    for r, (count, gen) in enumerate(zip(counts, streams)):
        gen.standard_gamma(count, out=t[r])
    return t, np.add.reduce(t, axis=1) / M


def perturbed_observations(
    dN: int, M: int, gen: np.random.Generator
) -> tuple[np.ndarray, float]:
    """M independent gamma draws with mean dN and variance dN, plus their mean.

    Shape dN and rate 1 give relative variance 1/dN, the observation-noise
    scale of a Poisson count of size dN; the redistribution step needs
    exactly that scale for the updated ensemble's relative variance to land
    on the conjugate posterior. This is the analysis kernel's draw for one row.
    """
    if dN < 1:
        raise ValueError("perturbed observations are only drawn for dN >= 1")
    if M < 2:
        raise ValueError("need at least two draws")
    draws, mean = _perturbed_rows([float(dN)], M, [gen])
    return draws[0], float(mean[0])


def _analyze_rows(lam_f, counts, dt, floor, streams) -> tuple[np.ndarray, AnalysisDiagnostics]:
    """Intensity analysis for a board of rows; one stream per row.

    Only a row with a count of at least 1 and some forecast spread draws from its stream.
    """
    n_rows, M = lam_f.shape
    mean_f = np.add.reduce(lam_f, axis=1) / M
    u = lam_f / mean_f[:, None] - 1.0
    prior_rv = np.einsum("im,im->i", u, u) / (M - 1)
    degenerate = prior_rv == 0.0
    inv_prior = np.divide(1.0, prior_rv, out=np.full(n_rows, np.inf), where=~degenerate)

    innovation = counts - mean_f * dt
    gain = mean_f / (inv_prior + mean_f * dt)  # degenerate rows get gain 0
    post_mean = mean_f + gain * innovation

    # redistribute relative deviations; the other rows keep theirs
    act = np.flatnonzero((counts >= 1) & ~degenerate)
    if act.size:
        t, t_mean = _perturbed_rows(counts[act], M, [streams[i] for i in act])
        c = prior_rv[act] / (prior_rv[act] + 1.0 / counts[act])
        u_act = u[act]
        u[act] = u_act + c[:, None] * (t / t_mean[:, None] - 1.0 - u_act)
    lam_a = post_mean[:, None] * (1.0 + u)
    np.maximum(lam_a, floor, out=lam_a)

    post_rv = np.where(counts == 0, prior_rv, 1.0 / (inv_prior + counts))
    diag = AnalysisDiagnostics(mean_f, post_mean, prior_rv, post_rv, innovation, degenerate)
    return lam_a, diag


def pg_analysis(
    lam_f: np.ndarray,
    dN: int,
    dt: float,
    gen: np.random.Generator,
    floor: float = POSITIVITY_FLOOR,
) -> tuple[np.ndarray, AnalysisDiagnostics]:
    """Poisson-Gamma analysis of one node's forecast intensity ensemble.

    Returns the analysed members and diagnostics holding the prior and
    posterior (mean, relative variance); the posterior pair follows
    ``analytic_posterior`` applied to the empirical prior.
    """
    lam_f = np.asarray(lam_f, dtype=np.float64)
    if lam_f.ndim != 1 or lam_f.shape[0] < 2:
        raise ValueError("lam_f must be a vector with at least two members")
    if not (lam_f > 0).all():
        raise ValueError("forecast intensities must be positive")
    check_counts(np.asarray(dN, dtype=np.float64))
    if not dt > 0:
        raise ValueError("dt must be positive")
    board, diag = _analyze_rows(lam_f[None, :].copy(), np.array([float(dN)]), dt, floor, [gen])
    # the board's one row, as Python floats and a bool
    return board[0], AnalysisDiagnostics(**{k: v[0].item() for k, v in vars(diag).items()})


def _regress_rows(q, lam_f, lam_a, floor, tmp) -> None:
    """Parameter regression for a board of rows, in place.

    ``q`` is (n_rows, M, p), each row's members by parameters, and ``tmp``
    is scratch of the same shape. A row's gain is the cross-covariance
    between its parameter members and the forecast-intensity deviations,
    divided by the sum of the forecast and analysis intensity variances;
    each member moves by gain * (lam_a - lam_f) and is clamped at
    ``floor``. A row without intensity spread gets gain 0.
    """
    M = q.shape[1]
    ydev = lam_f - (np.add.reduce(lam_f, axis=1) / M)[:, None]
    yadev = lam_a - (np.add.reduce(lam_a, axis=1) / M)[:, None]
    denom = (np.einsum("im,im->i", ydev, ydev) + np.einsum("im,im->i", yadev, yadev)) / (M - 1)
    safe = denom > 0
    scale = np.zeros_like(denom)
    scale[safe] = 1.0 / denom[safe]
    # ydev has zero member mean, so cov(q, y) = sum_m q_m * ydev_m / (M-1)
    # and the parameter members need no centring pass
    gain = np.einsum("imj,im->ij", q, ydev) / (M - 1) * scale[:, None]
    # per-row outer products; einsum writes them faster than a broadcast
    np.einsum("im,ij->imj", lam_a - lam_f, gain, out=tmp)
    q += tmp
    np.maximum(q, floor, out=q)


def enkf_regress(
    q: np.ndarray,
    lam_f: np.ndarray,
    lam_a: np.ndarray,
    floor: float = POSITIVITY_FLOOR,
) -> np.ndarray:
    """Regress one node's parameter members on its intensity innovation.

    ``q`` is M x p (members by parameters). This is the regression kernel
    ``Filter`` runs, applied to one row: the gain is the cross-covariance
    between parameter members and forecast-intensity deviations divided by
    the sum of forecast and analysis intensity variances, each member
    moves by gain * (lam_a - lam_f), and results are clamped at ``floor``.
    The parameter members are not centred: the covariance is taken against
    the forecast deviations, whose member sum is zero only up to round-off.
    So the update lies in the span of the parameter deviations, and a
    zero-spread ensemble is a fixed point, only up to that round-off: a
    constant column moves by a few ulps of its level times
    mean(lam_f) * max|lam_a - lam_f| / (forecast + analysis variance), and
    on many inputs not at all.
    """
    q = np.asarray(q, dtype=np.float64)
    lam_f = np.asarray(lam_f, dtype=np.float64)
    lam_a = np.asarray(lam_a, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError("q must be members by parameters")
    M = q.shape[0]
    if lam_f.shape != (M,) or lam_a.shape != (M,):
        raise ValueError("q, lam_f and lam_a must share the member count")
    board = q[None].copy()
    _regress_rows(board, lam_f[None], lam_a[None], floor, np.empty_like(board))
    return board[0]


@dataclass
class FilterHistory:
    """Per-step diagnostics kept when the config flags request them.

    ``param_mean``/``param_var`` have shape (n_steps + 1, m, m + 2): row 0 is
    the initial ensemble, row k the state after assimilating bin k - 1.
    Intensity arrays have shape (n_steps, m).
    """

    param_mean: np.ndarray | None = None
    param_var: np.ndarray | None = None
    prior_mean: np.ndarray | None = None
    post_mean: np.ndarray | None = None
    prior_rel_var: np.ndarray | None = None
    post_rel_var: np.ndarray | None = None
    innovation: np.ndarray | None = None

    @staticmethod
    def concat(parts: list[FilterHistory]) -> FilterHistory:
        """Join histories of consecutive node ranges along the node axis."""
        if len(parts) == 1:
            return parts[0]
        joined = {}
        for f in fields(FilterHistory):
            arrays = [getattr(h, f.name) for h in parts]
            joined[f.name] = None if arrays[0] is None else np.concatenate(arrays, axis=1)
        return FilterHistory(**joined)


@dataclass
class FilterResult:
    """Final ensembles, the assimilated bins' count and width, the data's
    node labels (None: the default names) and optional recorded history."""

    ensembles: list[NodeEnsemble]
    config: FilterConfig
    n_steps: int
    dt: float
    history: FilterHistory | None = None
    node_labels: list[str] | None = None


def check_node_set(ensembles: list[NodeEnsemble], m: int) -> None:
    """Raise ValueError unless ``ensembles[i]`` is node i's ensemble over m >= 1 nodes, for each i < m."""
    if not ensembles:
        raise ValueError("need at least one node ensemble")
    if len(ensembles) != m:
        raise ValueError(f"need one ensemble per node of {m}, not {len(ensembles)} ensembles")
    for i, e in enumerate(ensembles):
        if e.node_index != i:
            raise ValueError(f"position {i} holds node {e.node_index}'s ensemble, not node {i}'s")
        if e.m != m:
            raise ValueError(f"node {i}'s ensemble is over {e.m} nodes, not {m}")


def ensemble_moments(ensembles: list[NodeEnsemble]) -> tuple[np.ndarray, np.ndarray]:
    """Every node's parameter means and sds (ddof=1) over its members, (n_nodes, m+2) each.

    Columns 2: of the means form the inferred network. Each node is reduced
    on its own, adding its members in order as a reduction over the member
    axis of the stacked board would, without a copy of that board.
    """
    mean = np.stack([e.params.mean(axis=0) for e in ensembles])
    return mean, np.stack([e.params.std(axis=0, ddof=1) for e in ensembles])


class Filter:
    """Stateful assimilation over a set of nodes, bins of width ``dt``.

    Holds the board representation of the node ensembles (an (n_nodes, M)
    intensity board and one (n_nodes, M, m+2) tensor of the stacked
    ``NodeEnsemble.params``), the previous bin's full count vector (the
    forecast needs every node's counts; zero before the first bin), the
    step index, and one analysis stream per node. Each ensemble assimilates
    data column ``node_index``, and its stream is keyed by that index, so a
    sub-filter over any subset of nodes, in any order, reproduces those
    nodes' results bit for bit.
    """

    def __init__(self, ensembles: list[NodeEnsemble], dt: float, cfg: FilterConfig):
        if not ensembles:
            raise ValueError("need at least one node ensemble")
        if not dt > 0:
            raise ValueError("dt must be positive")
        M, m = ensembles[0].ensemble_size, ensembles[0].m
        for e in ensembles:
            if e.ensemble_size != M:
                raise ValueError("all node ensembles must share the member count M")
            if e.m != m:
                raise ValueError("all node ensembles must share the node count m")
            if not 0 <= e.node_index < m:
                raise ValueError(f"node index {e.node_index} is not a data column of {m} nodes")
            if not np.isfinite(e.intensity).all() or (e.intensity < 0).any():
                raise ValueError("intensity members must be finite and non-negative")
            if not np.isfinite(e.params).all() or (e.params < 0).any():
                raise ValueError("parameter members must be finite and non-negative")
        self.cfg = cfg
        self.dt = dt
        self.node_indices = [e.node_index for e in ensembles]
        self.m = m
        self._cols = np.array(self.node_indices, dtype=np.intp)
        # prior draws can legitimately fall below the floor (gamma shapes < 1)
        self._lam = np.maximum(
            np.stack([e.intensity for e in ensembles]).astype(np.float64),
            cfg.positivity_floor,
        )
        self._params = np.stack([e.params for e in ensembles])
        self._mu = self._params[:, :, 0]
        self._beta = self._params[:, :, 1]
        self._alpha = self._params[:, :, 2:]
        self._prev = np.zeros(m)
        self._streams = rng.node_streams(cfg.seed, rng.ANALYSIS, self.node_indices)
        self.k = 0
        self._tmp = np.empty_like(self._params)

    @property
    def n_nodes(self) -> int:
        return len(self.node_indices)

    def param_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Current per-node parameter means and variances, (n_nodes, m+2) each.

        The mean is taken once and the variance is formed from the
        deviations about it (ddof=1).
        """
        M = self._params.shape[1]
        # einsum adds the members in order in one pass; a reduce over the
        # middle axis of the (n, M, p) tensor is several times slower
        mean = np.einsum("imj->ij", self._params) / M
        np.subtract(self._params, mean[:, None, :], out=self._tmp)
        var = np.einsum("imj,imj->ij", self._tmp, self._tmp) / (M - 1)
        return mean, var

    def assimilate_step(self, counts_next) -> AnalysisDiagnostics:
        """Forecast with the held previous counts, then assimilate the new bin.

        ``counts_next`` is the full m-node count vector for the next bin.
        """
        counts_next = np.asarray(counts_next, dtype=np.float64)
        if counts_next.shape != (self.m,):
            raise ValueError("counts_next must hold the full m-node count vector")
        check_counts(counts_next)
        cfg = self.cfg
        floor = cfg.positivity_floor
        own_counts = counts_next[self._cols]

        # Stage 1: member-specific forecast from the previous bin's counts
        excite = self._alpha @ self._prev
        lam_f = advance_intensity(self._lam, self._mu, self._beta, excite, self.dt)
        np.maximum(lam_f, floor, out=lam_f)

        # Stage 2: conjugate intensity analysis; overflow surfaces as the
        # explicit divergence error right below, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            lam_a, diag = _analyze_rows(lam_f, own_counts, self.dt, floor, self._streams)
        if not np.isfinite(lam_a).all():
            bad = int(np.argwhere(~np.isfinite(lam_a))[0][0])
            raise FilterDivergence(self.k, self.node_indices[bad])

        # Stage 3: regress parameter members on the intensity innovations
        _regress_rows(self._params, lam_f, lam_a, floor, self._tmp)

        # Stage 4: roll forward
        self._lam = lam_a
        self._prev = counts_next.copy()
        self.k += 1
        return diag

    def ensembles(self) -> list[NodeEnsemble]:
        """The node ensembles as row views of the board, without copies.

        The next step updates the parameter rows in place, so copy them to
        keep this state.
        """
        return [
            NodeEnsemble(node, self._lam[i], self._params[i])
            for i, node in enumerate(self.node_indices)
        ]


def init_ensemble(
    m: int,
    M: int,
    baseline_prior: GammaSpec,
    decay_prior: GammaSpec,
    excitation_prior: GammaSpec,
    seed: int,
) -> list[NodeEnsemble]:
    """Draw initial node ensembles from per-group gamma priors.

    Each node draws from its own named stream; member intensities start at
    the member's own baseline draw.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if M < 2:
        raise ValueError("M must be >= 2")
    out = []
    for i in range(m):
        gen = rng.node_stream(seed, rng.ENSEMBLE_INIT, i)
        mu = baseline_prior.draw(gen, M)
        beta = decay_prior.draw(gen, M)
        alpha = excitation_prior.draw(gen, (M, m))
        params = np.concatenate([mu[:, None], beta[:, None], alpha], axis=1)
        out.append(NodeEnsemble(i, mu.copy(), params))
    return out


def _run_chunk(
    counts: np.ndarray,
    dt: float,
    ensembles: list[NodeEnsemble],
    cfg: FilterConfig,
    progress=None,
) -> tuple[list[NodeEnsemble], FilterHistory | None]:
    """Full assimilation loop for a subset of nodes; used by the workers."""
    n_steps = counts.shape[0]
    filt = Filter(ensembles, dt, cfg)
    record_p = cfg.record_param_history
    record_i = cfg.record_intensity_history
    history = FilterHistory() if record_p or record_i else None
    if record_p:
        shape = (n_steps + 1, filt.n_nodes, filt.m + 2)
        history.param_mean, history.param_var = np.empty(shape), np.empty(shape)
        history.param_mean[0], history.param_var[0] = filt.param_moments()
    if record_i:
        for key in _INTENSITY_KEYS:
            setattr(history, key, np.empty((n_steps, filt.n_nodes)))
    rows = counts.astype(np.float64)
    report_every = max(1, n_steps // 20)
    for k in range(n_steps):
        diag = filt.assimilate_step(rows[k])
        if record_p:
            history.param_mean[k + 1], history.param_var[k + 1] = filt.param_moments()
        if record_i:
            for key in _INTENSITY_KEYS:
                getattr(history, key)[k] = getattr(diag, key)
        if progress is not None and (k + 1) % report_every == 0:
            progress(k + 1, n_steps)
    # an earlier step's non-finite parameter fails the next forecast's check
    bad = ~np.isfinite(filt._params)
    if bad.any():
        raise FilterDivergence(filt.k - 1, filt.node_indices[int(np.argwhere(bad)[0][0])], "parameter")
    return filt.ensembles(), history


def run_filter(
    data: CountSeries,
    init: list[NodeEnsemble],
    cfg: FilterConfig,
    workers: int = 1,
    progress=None,
) -> FilterResult:
    """Assimilate every bin of ``data`` starting from the given ensembles.

    ``init[i]`` is node i's ensemble over the data's m columns, for each i
    (``check_node_set``). ``workers`` > 1 splits the nodes across processes
    (at most one per node); the per-node streams make the result identical
    to a serial run, bit for bit. ``progress``, if given, is called as
    progress(step, n_steps) from the serial path.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    m = data.m
    check_node_set(init, m)
    counts = data.counts
    workers = min(workers, m)
    if workers <= 1:
        chunks = [_run_chunk(counts, data.dt, init, cfg, progress)]
    else:
        # contiguous node ranges in order, so the chunks concatenate
        splits = np.array_split(np.arange(m), workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_chunk, counts, data.dt, [init[i] for i in part], cfg)
                for part in splits
            ]
            chunks = [f.result() for f in futures]
    ensembles = [e for chunk_ens, _ in chunks for e in chunk_ens]
    histories = [h for _, h in chunks]
    history = None if histories[0] is None else FilterHistory.concat(histories)
    return FilterResult(ensembles, cfg, data.n_steps, data.dt, history, data.node_labels)


def save_filter_result(
    result: FilterResult,
    out_dir: str | Path,
    rmse_norm: np.ndarray | None = None,
) -> None:
    """Write the manifest (baseline and decay moments), mean excitation matrix, diagnostics and snapshots.

    ``rmse_norm`` (n_steps x m), when available from a truth comparison,
    is appended as an extra diagnostics column.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mean, sd = ensemble_moments(result.ensembles)
    nodes = [
        {
            "index": e.node_index,
            "baseline_mean": float(mu[0]),
            "baseline_sd": float(s[0]),
            "decay_mean": float(mu[1]),
            "decay_sd": float(s[1]),
        }
        for e, mu, s in zip(result.ensembles, mean, sd)
    ]
    manifest = {
        "config": result.config.to_json(),
        "n_steps": result.n_steps,
        "dt": result.dt,
        "ensemble_size": result.ensembles[0].ensemble_size,
        "node_labels": result.node_labels,
        "nodes": nodes,
    }
    (out_dir / "result.json").write_text(json.dumps(manifest, indent=2) + "\n")
    np.savetxt(out_dir / "alpha_mean.csv", mean[:, 2:], delimiter=",", fmt="%.17g")
    if result.history is not None and result.history.prior_mean is not None:
        h = result.history
        n_steps, m = h.prior_mean.shape
        header = ["step", "node"] + list(_INTENSITY_KEYS)
        columns = [np.repeat(np.arange(n_steps), m), np.tile(np.arange(m), n_steps)]
        columns += [getattr(h, key).ravel() for key in _INTENSITY_KEYS]
        if rmse_norm is not None:
            header.append("rmse_norm")
            columns.append(np.asarray(rmse_norm).ravel())
        np.savetxt(
            out_dir / "diagnostics.csv",
            np.column_stack(columns),
            fmt=["%d", "%d"] + ["%.17g"] * (len(columns) - 2),
            delimiter=",",
            newline="\r\n",
            header=",".join(header),
            comments="",
        )
    snap_dir = out_dir / "ensembles"
    snap_dir.mkdir(exist_ok=True)
    tables = {f"node_{e.node_index:04d}": np.column_stack([e.intensity, e.params])
              for e in result.ensembles}
    np.savez(snap_dir / SNAPSHOT_ARCHIVE, **tables)


def load_ensemble_snapshots(out_dir: str | Path) -> list[NodeEnsemble]:
    """Rebuild node ensembles from the snapshot archive, which holds node_0000 .. node_{n-1}."""
    path = Path(out_dir) / "ensembles" / SNAPSHOT_ARCHIVE
    if not path.is_file():
        raise FileNotFoundError(f"no ensemble snapshot archive {path}")
    out, shape = [], None
    with np.load(path, allow_pickle=False) as archive:
        n = len(archive.files)
        if n == 0:
            raise ValueError(f"{path}: the archive holds no ensemble snapshots")
        # by position, so node_10000 follows node_9999 and a gap is named
        for node in range(n):
            name = f"node_{node:04d}"
            try:
                table = archive[name]
            except KeyError:
                raise ValueError(f"{path}: the archive holds {n} entries but no {name}") from None
            shape = shape or table.shape
            if table.ndim != 2 or table.shape != shape:
                raise ValueError(f"{path}[{name}]: ensemble snapshot has shape {table.shape}, not {shape}")
            if not np.isfinite(table).all():
                raise ValueError(f"{path}[{name}]: ensemble snapshot holds non-finite values")
            if (table < 0).any():
                raise ValueError(f"{path}[{name}]: ensemble snapshot holds negative values")
            out.append(NodeEnsemble(node, table[:, 0], table[:, 1:]))
    return out
