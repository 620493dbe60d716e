"""Ensemble Poisson-Gamma filter for count-driven Hawkes inference.

Per node and per time bin the filter runs four stages:

1. forecast: push every member's intensity through the Hawkes recursion
   using that member's own parameter sample and the previous bin's counts;
2. intensity analysis: move the intensity members so that their mean and
   relative variance follow the exact gamma-conjugate posterior for the
   observed count (Poisson likelihood, gamma prior), using independently
   drawn perturbed observations to keep the member spread consistent. Each
   member's relative deviation moves toward its draw's by the conjugate
   weight prior_rv / (prior_rv + 1 / count), which is 0 for a zero count
   and for a flat row (no spread), in the same whole-board pass. A row draws
   if and only if its count is at least 1, so ``run_filter`` draws a block
   of bins before their steps (``_draw_block``), from the second block on
   in a forked draw helper on a CPU of its own when the process may use two
   CPUs per node range;
3. parameter regression: update each member's parameter vector by
   regressing it on the member-wise intensity innovation (a stochastic
   ensemble-Kalman step whose observation space is scalar);
4. roll the state forward to the next bin: the analysis writes the
   analysed intensities straight into the board, so this is that write.

``Filter`` runs each stage over all its rows at once, in a few (rows, M)
work arrays allocated when the filter is made; the regression and the
parameter moments go over the parameter board in blocks of rows with one
block of scratch. The board is member-minor, (rows, m+2, M), so every pass
runs along contiguous members (``Ensemble.params`` shows (rows, M, m+2)
views; only this module knows the layout). Each row contraction is one
call (a BLAS product of two or more outputs, or an ``einsum``), so a row's
bits, fixed for a given numpy and BLAS build, do not depend on the other
rows, its block or its alignment. ``run_filter`` runs every bin and keeps
a history, a mapping from key to one (steps, nodes) array, which its
recorders fill: each writes its keys' rows after the fill and after every step.

Nodes never read each other's ensembles; they couple only through the
shared observed counts. A node's index is its data column, and every
random draw comes from a stream named by (seed, purpose, node index), so
results are bitwise independent of node ordering, worker count and the
draw block.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import multiprocessing
import operator
import os
import signal
import struct
import sys
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import rng
from .hawkes import CountSeries, HawkesParams, advance_intensity, check_counts, write_table

SNAPSHOT_ARCHIVE = "ensembles.npz"
# batched passes work in blocks of about this many elements: the regression's
# and the moments' rows of a parameter board and rank_distribution's member batches
BLOCK_ELEMENTS = 1 << 16
# the lower clamp of every intensity and parameter member the filter holds
POSITIVITY_FLOOR = 1e-8
# how long a draw helper and its range sleep between looks at each other's counter, in seconds
_POLL_S = 1e-4
_INTENSITY_KEYS = ("prior_mean", "post_mean", "prior_rel_var", "post_rel_var", "innovation")
_CURVE_KEYS = ("baseline_abs_error", "decay_abs_error", "excitation_abs_error", "excitation_sq_error",
               "baseline_var", "decay_var", "excitation_var")
# the .npy header readers of the format versions a snapshot entry may have
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0, (2, 0): np.lib.format.read_array_header_2_0}


class FilterDivergence(RuntimeError):
    """A non-finite ensemble member (``what``: intensity or parameter) was detected mid-run.

    A ``Filter`` that raised it holds an invalid board: the failed step's
    analysed intensities are written, its parameters are not regressed.
    """

    def __init__(self, step: int, node: int, what: str = "intensity"):
        super().__init__(f"non-finite {what} member at step {step}, node {node}")
        self.step, self.node, self.what = step, node, what

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
        if not 0 < self.mean < np.inf:
            raise ValueError("GammaSpec mean must be positive and finite")
        if not 0 <= self.variance < np.inf:
            raise ValueError("GammaSpec variance must be non-negative and finite")
        if self.variance:
            # draw's shape and scale; past the float range a product or quotient is inf or 0, where ** raises
            mean = float(self.mean)
            shape, scale = mean * mean / self.variance, self.variance / mean
            if not (0 < shape < np.inf and 0 < scale < np.inf):
                raise ValueError(f"GammaSpec shape mean**2 / variance ({shape:g}) and scale variance / mean "
                                 f"({scale:g}) must be positive and finite")

    def draw(self, gen: np.random.Generator, size) -> np.ndarray:
        if self.variance == 0.0:
            return np.full(size, self.mean, dtype=np.float64)
        return gen.gamma(self.mean**2 / self.variance, self.variance / self.mean, size=size)


@dataclass
class NodeEnsemble:
    """One node's row of an ``Ensemble``: its M joint samples of (intensity, parameter vector).

    ``params`` columns are [baseline, decay, excitation_1, ..., excitation_m],
    where excitation_j multiplies the observed counts of node j.
    """

    node_index: int
    intensity: np.ndarray
    params: np.ndarray

    @property
    def baseline(self) -> np.ndarray:
        return self.params[:, 0]

    @property
    def decay(self) -> np.ndarray:
        return self.params[:, 1]

    @property
    def excitation(self) -> np.ndarray:
        return self.params[:, 2:]


class _NodeRows:
    """What a board and a board source share: row r is node ``nodes[r]``, a data column of ``m``."""

    def check_complete(self) -> None:
        """Raise ValueError unless row i is node i's ensemble, for every one of the m nodes."""
        misplaced = np.flatnonzero(self.nodes != np.arange(len(self.nodes)))
        if misplaced.size:
            row = misplaced[0]
            raise ValueError(f"row {row} holds node {self.nodes[row]}'s ensemble, not node {row}'s")
        if len(self.nodes) != self.m:
            raise ValueError(f"need one ensemble per node of {self.m}, not {len(self.nodes)} ensembles")


@dataclass(eq=False)
class Ensemble(_NodeRows):
    """The ensembles of n nodes as one board, and the one place that checks ensemble arrays.

    ``intensity`` is (n, M) and ``params`` (n, M, m+2) with ``NodeEnsemble``'s columns; row r
    is node ``nodes[r]``, a data column and the row's analysis-stream key (default ``arange(n)``).
    As a sequence, ``len``, iteration and ``ens[i]`` give the rows as ``NodeEnsemble`` views.
    As a board source, ``fill`` copies its rows.
    """

    intensity: np.ndarray
    params: np.ndarray
    nodes: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.intensity = np.asarray(self.intensity, dtype=np.float64)
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.params.ndim != 3 or self.intensity.shape != self.params.shape[:2]:
            raise ValueError(f"intensity {self.intensity.shape} and params {self.params.shape} "
                             "are not (n, M) and (n, M, m+2)")
        n, M, width = self.params.shape
        if n < 1 or M < 2 or width < 3:
            raise ValueError(f"params {self.params.shape} is not (n, M, m+2) with n >= 1, M >= 2 and m >= 1")
        nodes = np.arange(n) if self.nodes is None else np.asarray(self.nodes)
        if nodes.shape != (n,) or nodes.dtype.kind not in "iu":
            raise ValueError(f"need one integer node index per row, not {nodes.dtype} {nodes.shape}")
        self.nodes = nodes.astype(np.intp)
        outside = self.nodes[(self.nodes < 0) | (self.nodes >= self.m)]
        if outside.size:
            raise ValueError(f"node index {outside[0]} is not a data column of {self.m} nodes")
        repeated = np.flatnonzero(np.bincount(self.nodes, minlength=self.m) > 1)
        if repeated.size:
            raise ValueError(f"node {repeated[0]} has more than one ensemble")
        for what, board in (("intensity", self.intensity), ("parameter", self.params)):
            if not (board.min() >= 0 and board.max() < np.inf):  # NaN fails both
                node = self.nodes[np.argmin(((board >= 0) & (board < np.inf)).reshape(n, -1).all(axis=1))]
                raise ValueError(f"node {node}'s {what} members must be finite and non-negative")

    @property
    def m(self) -> int:
        return self.params.shape[2] - 2

    @property
    def M(self) -> int:
        return self.params.shape[1]

    def __len__(self) -> int:
        return self.params.shape[0]

    def __getitem__(self, row: int) -> NodeEnsemble:
        row = operator.index(row)
        return NodeEnsemble(int(self.nodes[row]), self.intensity[row], self.params[row])

    def take(self, rows) -> Ensemble:
        """The sub-board of ``rows``: an index array picks rows in any order (a copy), a slice gives views."""
        return Ensemble(self.intensity[rows], self.params[rows], self.nodes[rows])

    def fill(self, rows, intensity: np.ndarray, params: np.ndarray) -> None:
        """Copy rows ``rows`` into ``intensity`` and ``params``."""
        intensity[...] = self.intensity[rows]
        params[...] = self.params[rows]


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
    """Run settings; the member count M comes from the ensembles and dt from the counts, and
    every member is clamped at ``POSITIVITY_FLOOR``."""

    seed: int
    record_intensity_history: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", operator.index(self.seed))  # a float would alias an integer's streams
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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


def _draw_block(streams, counts, out) -> np.ndarray:
    """The perturbed observations of a block of bins, written into ``out`` (bins, rows, M).

    ``counts`` (bins, rows) holds the rows' counts as floats. Row r draws gamma(count, 1) members
    from ``streams[r]`` for each bin where its count is at least 1, in bin order; a zero count's
    slots hold 1.0. A block of many bins of few members makes one call per row with an array of
    shapes, any other block one call per row and counted bin. Each bin gets the bits and stream
    state of a call of its own either way, so no blocking of the bins changes the draws.
    """
    M = out.shape[2]
    out.fill(1.0)
    # an array of shapes saves about 1 us a bin past the first, and costs about 5 us a call and 5 ns a member
    if len(counts) * (1000 - 5 * M) > 5000:
        row, k = np.nonzero(counts.T >= 1)  # row by row, each row's counted bins in order
        shapes = counts[k, row]
        ends = np.cumsum(np.bincount(row, minlength=len(streams))).tolist()
        for r, (lo, hi) in enumerate(zip([0, *ends], ends)):  # a row with no counted bin draws nothing
            out[k[lo:hi], r] = streams[r].standard_gamma(np.repeat(shapes[lo:hi], M)).reshape(-1, M)
    else:  # bin by bin, so a one-bin block pays no index pass
        for board, shapes in zip(out, counts.tolist()):
            for r, shape in enumerate(shapes):
                if shape >= 1:
                    streams[r].standard_gamma(shape, out=board[r])
    return out


def _analyze_rows(lam_f, counts, dt, floor, t, out,
                  ydev) -> tuple[np.ndarray, AnalysisDiagnostics, np.ndarray]:
    """Intensity analysis for a board of rows, given the bin's draws ``t`` from ``_draw_block``.

    Writes the analysed members into ``out`` and the forecast deviations into ``ydev``, boards of
    ``lam_f``'s shape, and scales ``t`` in place. Returns ``out``, the diagnostics (``prior_mean``
    the forecast's row means) and the deviations' row sums of squares. A zero count or a flat row
    has weight 0, from a 1 / 0 the caller's ``np.errstate(divide="ignore")`` allows."""
    M = lam_f.shape[1]
    mean_f = np.add.reduce(lam_f, axis=1) / M
    np.subtract(lam_f, mean_f[:, None], out=ydev)
    ss_f = np.einsum("ij,ij->i", ydev, ydev)
    prior_rv = ss_f / ((M - 1) * mean_f * mean_f)
    degenerate = prior_rv == 0.0
    inv_prior = 1.0 / prior_rv  # inf for a flat row, as 1 / counts for a zero count: weight c = 0
    c = prior_rv / (prior_rv + 1.0 / counts)

    expected = mean_f * dt
    innovation = counts - expected
    gain = mean_f / (inv_prior + expected)  # flat rows get gain 0
    post_mean = mean_f + gain * innovation

    # each relative deviation moves to (1 - c) of its own plus c of its draw's, so the members are
    # post_mean * ((1 - c) * lam_f / mean_f + c * t / mean(t)); a zero count has t = 1, and with c = 0
    # a row moves by b * t = 0
    b = post_mean * c / (np.add.reduce(t, axis=1) / M)
    np.multiply(lam_f, (post_mean * (1.0 - c) / mean_f)[:, None], out=out)
    t *= b[:, None]
    out += t
    np.maximum(out, floor, out=out)

    # a row with a zero count keeps its prior relative variance
    post_rv = np.where(counts == 0, prior_rv, 1.0 / (inv_prior + counts))
    diag = AnalysisDiagnostics(mean_f, post_mean, prior_rv, post_rv, innovation, degenerate)
    return out, diag, ss_f


def pg_analysis(
    lam_f: np.ndarray,
    dN: int,
    dt: float,
    gen: np.random.Generator,
) -> tuple[np.ndarray, AnalysisDiagnostics]:
    """Poisson-Gamma analysis of one node's forecast intensity ensemble.

    Returns the analysed members, clamped at ``POSITIVITY_FLOOR``, and
    diagnostics holding the prior and posterior (mean, relative variance);
    the posterior pair follows ``analytic_posterior`` applied to the
    empirical prior. ``gen`` draws a block of one bin for ``Filter``'s kernel.
    """
    lam_f = np.asarray(lam_f, dtype=np.float64)
    if lam_f.ndim != 1 or lam_f.shape[0] < 2:
        raise ValueError("lam_f must be a vector with at least two members")
    if not (lam_f > 0).all():
        raise ValueError("forecast intensities must be positive")
    check_counts(np.asarray(dN, dtype=np.float64))
    if not dt > 0:
        raise ValueError("dt must be positive")
    counts, (board, ydev, t) = np.array([[float(dN)]]), np.empty((3, 1, len(lam_f)))
    with np.errstate(divide="ignore"):
        _, diag, _ = _analyze_rows(lam_f[None, :].copy(), counts[0], dt, POSITIVITY_FLOOR,
                                   _draw_block([gen], counts, t[None])[0], board, ydev)
    # the board's one row, as Python floats and a bool
    return board[0], AnalysisDiagnostics(**{k: v[0].item() for k, v in vars(diag).items()})


def _regress_board(params, lam_f, ydev, ss_f, lam_a, sum_a, innov, tmp) -> None:
    """Parameter regression for a board of rows with forecast deviations ``ydev``, in place.

    ``ss_f`` and ``sum_a`` are its rows' sums of ``ydev**2`` and ``lam_a``. Writes lam_a - lam_f into
    ``innov``, gives each row the scale one over its forecast's plus analysis' squared deviations (0
    without spread) and runs ``_regress_rows`` over blocks of ``len(tmp)`` rows.
    """
    M = lam_f.shape[1]
    yadev = np.subtract(lam_a, (sum_a / M)[:, None], out=innov)
    denom = ss_f + np.einsum("ij,ij->i", yadev, yadev)
    scale = np.divide(1.0, denom, out=np.zeros_like(denom), where=denom > 0)
    np.subtract(lam_a, lam_f, out=innov)
    for lo in range(0, len(params), len(tmp)):
        rows = slice(lo, lo + len(tmp))
        q = params[rows]
        _regress_rows(q, ydev[rows], innov[rows], scale[rows], tmp[: len(q)])


def _regress_rows(q, ydev, innov, scale, tmp) -> None:
    """Parameter regression for a block of rows of the member-minor board, in place.

    ``q`` is (n_rows, p, M), each row's parameters by members, and ``tmp``
    is scratch of the same shape; ``ydev`` is the rows' forecast deviations
    and ``innov`` and ``scale`` those ``_regress_board`` gives. A row's gain is
    the cross-covariance between its parameter members and ``ydev`` over
    the forecast plus analysis intensity variance; each member moves by
    gain * (lam_a - lam_f) and is clamped at ``POSITIVITY_FLOOR``. Each row's gain is
    one BLAS call of p outputs, so any blocks of rows and any alignment give the same bits.
    """
    # ydev has zero member mean, so the parameter members need no centring pass; the (M-1)s cancel
    gain = np.matvec(q, ydev)
    gain *= scale[:, None]
    # per-row outer products; einsum writes them faster than a broadcast multiply
    np.einsum("ij,im->ijm", gain, innov, out=tmp)
    q += tmp
    np.maximum(q, POSITIVITY_FLOOR, out=q)


def enkf_regress(
    q: np.ndarray,
    lam_f: np.ndarray,
    lam_a: np.ndarray,
) -> np.ndarray:
    """Regress one node's parameter members on its intensity innovation.

    ``q`` is M x p (members by parameters). This is the regression kernel
    ``Filter`` runs, applied to one row: the gain is the cross-covariance
    between parameter members and forecast-intensity deviations divided by
    the sum of forecast and analysis intensity variances, each member
    moves by gain * (lam_a - lam_f), and results are clamped at ``POSITIVITY_FLOOR``.
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
    board, lam_f, lam_a = q.T[None].copy(), lam_f[None], lam_a[None]  # member-minor
    ydev = lam_f - (np.add.reduce(lam_f, axis=1) / M)[:, None]
    _regress_board(board, lam_f, ydev, np.einsum("ij,ij->i", ydev, ydev), lam_a, np.add.reduce(lam_a, axis=1),
                   np.empty((1, M)), np.empty_like(board))
    return board[0].T


@dataclass
class FilterResult:
    """Final ensembles, the assimilated bins' count and width, the recorded history and the
    data's node labels (None: the default names). The history maps each recorded key to its
    per-step (steps, m) array, whose rows ``run_filter`` gives, and is empty when nothing was
    recorded. From ``run_filter``, the board (its ``params`` a view of the member-minor board) and
    the history live in anonymous shared mmaps: copy them to keep them past the result."""

    ensembles: Ensemble
    config: FilterConfig
    n_steps: int
    dt: float
    history: dict[str, np.ndarray] = field(default_factory=dict)
    node_labels: list[str] | None = None


def param_moments(params: np.ndarray, scratch=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-row means and variances (ddof=1) over the members of an (n, M, p) board, (n, p) each.

    Rows go in blocks of ``len(scratch)``, (rows, p, M) scratch, by default about BLOCK_ELEMENTS
    elements. A block in any layout but member-minor (a loaded archive's) is first copied into the
    scratch. A row's member sums are one BLAS call of p outputs and its sums of squares one
    ``einsum``, so any layout, blocks and alignment give the same bits.
    """
    n, M, p = params.shape
    scratch = np.empty((_block_rows(params), p, M)) if scratch is None else scratch
    rows, mean, var, ones = len(scratch), np.empty((n, p)), np.empty((n, p)), np.ones(M)
    for lo in range(0, n, rows):
        block = params[lo : lo + rows].transpose(0, 2, 1)
        dev = scratch[: len(block)]
        if not block.flags.c_contiguous:
            dev[...] = block
            block = dev
        mu = mean[lo : lo + rows] = np.matvec(block, ones) / M
        np.subtract(block, mu[:, :, None], out=dev)
        var[lo : lo + rows] = np.einsum("ijm,ijm->ij", dev, dev) / (M - 1)
    return mean, var


def _block_rows(board: np.ndarray) -> int:
    """Rows per block of a board of n rows: about BLOCK_ELEMENTS elements, at least one row, at most n."""
    return min(len(board), max(1, BLOCK_ELEMENTS // math.prod(board.shape[1:])))


def ensemble_moments(ens: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Every node's parameter means and sds (ddof=1), (n_nodes, m+2) each; mean columns 2: are the network."""
    mean, var = param_moments(ens.params)
    return mean, np.sqrt(var)


class Filter:
    """Stateful assimilation over a set of nodes, bins of width ``dt``.

    Holds a board, updated in place: rows ``rows`` of a board source (an
    ``Ensemble`` copies them, ``init_ensemble``'s prior draws them) filled
    into new arrays or ``out``, an (intensity, params) pair of shapes (rows, M)
    and (rows, m+2, M), the member-minor board that ``ensembles`` shows; the
    previous bin's full count vector (zero before the first bin); the step
    index; and one analysis stream per node. Row r assimilates data
    column ``nodes[r]``, and its stream is keyed by that index, so a sub-filter
    over any subset of nodes, in any order (see ``Ensemble.take``), reproduces
    those nodes' results bit for bit.

    The step's working memory is allocated here, once: four (rows, M) boards
    (the forecast, its deviations, the excitation product then a step's own
    draws, and the forecast's scratch then the innovations) and the scratch
    of the regression and the moments, one block of rows of the parameter
    board. A step allocates only vectors of one value per row. Each step
    reads the board afresh, so writes made to it between steps are honoured.
    The analysis writes into the board before the divergence check, so after
    a ``FilterDivergence`` the board is invalid and the filter must not step on.
    """

    def __init__(self, source, dt: float, cfg: FilterConfig, out=None, rows=slice(None)):
        if not dt > 0:
            raise ValueError("dt must be positive")
        nodes, M, p = source.nodes[rows], source.M, source.m + 2
        lam, params = out or (np.empty((len(nodes), M)), np.empty((len(nodes), p, M)))
        source.fill(rows, lam, params.transpose(0, 2, 1))
        # the filled rows are checked: a board's rows can be written in place after its own check
        board = Ensemble(lam, params.transpose(0, 2, 1), nodes)
        self.cfg = cfg
        self.dt = dt
        self.nodes, self.m = board.nodes, board.m
        # prior draws can legitimately fall below the floor (gamma shapes < 1)
        self._lam = np.maximum(board.intensity, POSITIVITY_FLOOR, out=lam)
        self._params = params
        self._prev = np.zeros(self.m)
        self._streams = rng.node_streams(cfg.seed, rng.ANALYSIS, self.nodes.tolist())
        self.k = 0
        self._lam_f, self._t, self._ydev, self._excite = np.empty((4, *lam.shape))
        self._tmp = np.empty((_block_rows(params), p, M))

    def param_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Current per-node parameter means and variances (ddof=1), (n_nodes, m+2) each."""
        return param_moments(self._params.transpose(0, 2, 1), self._tmp)

    def assimilate_step(self, counts_next, draws=None) -> AnalysisDiagnostics:
        """Forecast with the held previous counts, then assimilate the new bin.

        ``counts_next`` is the full m-node count vector for the next bin; ``draws``, the bin's
        (rows, M) board of ``_draw_block`` from this filter's streams, or None: a block of one bin.
        """
        unsigned = np.asarray(counts_next).dtype.kind == "u"  # its type meets the counts rule (CountSeries rows)
        counts = np.array(counts_next, dtype=np.float64)  # the filter's own copy, kept as _prev
        if counts.shape != (self.m,):
            raise ValueError("counts_next must hold the full m-node count vector")
        if not unsigned:
            check_counts(counts)
        lam, params, lam_f, own = self._lam, self._params, self._lam_f, counts[self.nodes]

        # overflow surfaces as the explicit divergence error below, not as numpy warnings; 1 / 0
        # gives a zero count's and a flat row's analysis weight 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # Stage 1: member-specific forecast from the previous bin's counts
            np.matmul(self._prev, params[:, 2:], out=self._excite)
            advance_intensity(lam, params[:, 0], params[:, 1], self._excite, self.dt, lam_f, self._t)
            np.maximum(lam_f, POSITIVITY_FLOOR, out=lam_f)
            if draws is None:  # a block of one bin, in the excitation board the forecast is done with
                draws = _draw_block(self._streams, own[None], self._excite[None])[0]
            # Stage 2: conjugate intensity analysis, written into the board (Stage 4, the roll
            # forward, is this write)
            lam_a, diag, ss_f = _analyze_rows(lam_f, own, self.dt, POSITIVITY_FLOOR, draws, lam, self._ydev)
            sum_a = np.add.reduce(lam_a, axis=1)
            if not sum_a.max() < np.inf:  # a non-finite member (NaN fails too) or a sum past the float range
                # a non-finite parameter left by the last regression shows first in this forecast
                self._check_finite("parameter", self.k - 1, params)
                self._check_finite("intensity", self.k, lam_a)

            # Stage 3: regress parameter members on the intensity innovations, by blocks of rows
            _regress_board(params, lam_f, self._ydev, ss_f, lam_a, sum_a, self._t, self._tmp)

        self._prev = counts
        self.k += 1
        return diag

    def _check_finite(self, what: str, step: int, board: np.ndarray) -> None:
        """Raise FilterDivergence(step, node, what) for the first row of ``board`` with a non-finite member."""
        bad = ~np.isfinite(board).reshape(len(board), -1).all(axis=1)
        if bad.any():
            raise FilterDivergence(step, int(self.nodes[np.argmax(bad)]), what)

    def ensembles(self) -> Ensemble:
        """The filter's board, as (rows, M) and (rows, M, m+2) views without copies.

        The next step updates it in place, so copy it to keep this state.
        """
        return Ensemble(self._lam, self._params.transpose(0, 2, 1), self.nodes)


@dataclass(frozen=True)
class PriorEnsemble(_NodeRows):
    """The initial board of all m nodes as a board source: rows are drawn where they are filled.

    Node i draws from its own stream, keyed (seed, ENSEMBLE_INIT, i), so any split of the rows
    fills the bits of one ``draw()``; member intensities start at the member's own baseline draw.
    """

    m: int
    M: int
    baseline_prior: GammaSpec
    decay_prior: GammaSpec
    excitation_prior: GammaSpec
    seed: int

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.m)

    def fill(self, rows, intensity: np.ndarray, params: np.ndarray) -> None:
        """Draw rows ``rows`` into ``intensity`` and ``params``."""
        for r, node in enumerate(self.nodes[rows].tolist()):
            gen = rng.node_stream(self.seed, rng.ENSEMBLE_INIT, node)
            params[r, :, 0] = self.baseline_prior.draw(gen, self.M)
            params[r, :, 1] = self.decay_prior.draw(gen, self.M)
            params[r, :, 2:] = self.excitation_prior.draw(gen, (self.M, self.m))
        intensity[...] = params[:, :, 0]

    def draw(self) -> Ensemble:
        """The whole board, in new arrays."""
        intensity, params = np.empty((self.m, self.M)), np.empty((self.m, self.M, self.m + 2))
        self.fill(slice(None), intensity, params)
        return Ensemble(intensity, params)


def init_ensemble(m: int, M: int, baseline_prior: GammaSpec, decay_prior: GammaSpec,
                  excitation_prior: GammaSpec, seed: int) -> PriorEnsemble:
    """The initial board of all m nodes from per-group gamma priors, as a source not yet drawn:
    ``run_filter`` and ``Filter`` draw its rows into their own board, ``.draw()`` gives a new one."""
    return PriorEnsemble(m, M, baseline_prior, decay_prior, excitation_prior, seed)


def _shared(shape: tuple) -> np.ndarray:
    """A float64 array in an anonymous shared mmap, written in place by forked processes (none if empty)."""
    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * size)).reshape(shape) if size else np.empty(shape)


def _truth_curves(filt: Filter, target: np.ndarray) -> tuple:
    """The truth curves of the filter's state against the truth's (m, m+2) parameter rows ``target``.

    From each row's parameter moments: |mean - truth| of its baseline and decay, the mean of
    |mean - truth| over its excitation row and the sum of its squares, and its baseline, decay
    and mean excitation variances. A diverging board's inf or NaN moments and squares past the
    float range are the curves' values, not numpy warnings; the run's divergence check reports them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean, var = filt.param_moments()
        dev = np.abs(mean - target[filt.nodes])
        return (dev[:, 0], dev[:, 1], np.add.reduce(dev[:, 2:], axis=1) / filt.m,
                np.add.reduce(dev[:, 2:] ** 2, axis=1), var[:, 0], var[:, 1],
                np.add.reduce(var[:, 2:], axis=1) / filt.m)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask's, or 1 where the platform has no mask
    or no /proc/self/stat, which names the CPU a draw helper keeps off."""
    if hasattr(os, "sched_getaffinity") and os.path.exists("/proc/self/stat"):
        return len(os.sched_getaffinity(0))
    return 1


def _draw_helper(counts, streams, ring, bins, done, cpus, parent) -> None:
    """A draw helper's body, on ``cpus``: from block 1 on (the range drew block 0), draw block i of
    its range's ``counts`` (n_steps, rows) into slot i % 2 of ``ring`` once the range has freed it,
    then count it in ``done[0]``; ``done[1]`` counts the blocks the range is done with. It stops
    when its range's process ``parent`` is gone."""
    os.sched_setaffinity(0, cpus)
    for i, lo in enumerate(range(bins, len(counts), bins), 1):
        while done[1] < i + 1 - len(ring):
            if os.getppid() != parent:
                return
            time.sleep(_POLL_S)
        block = counts[lo : lo + bins].astype(np.float64)
        _draw_block(streams, block, ring[i % len(ring)][: len(block)])
        done[0] = i + 1


def _fork_draw_helper(counts, streams, ring, bins):
    """Start ``_draw_helper`` for a range that has drawn its block 0; return the helper process and
    its counters, the blocks drawn and the blocks the range is done with."""
    ctx = multiprocessing.get_context("fork")
    done = ctx.Array("q", [1, 0])  # its lock orders the ring's writes before the counters'
    with open("/proc/self/stat", "rb") as stat:  # field 39: the CPU this process last ran on
        cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])
    cpus = os.sched_getaffinity(0) - {cpu} or os.sched_getaffinity(0)
    helper = ctx.Process(target=_draw_helper, args=(counts, streams, ring, bins, done, cpus, os.getpid()))
    helper.start()
    return helper, done


def _bin_draws(counts, streams, shape, ahead):
    """Yield each bin's perturbed observations for a range's steps: its ``counts`` (n_steps, rows)
    drawn from its ``streams`` by ``_draw_block``, by blocks of bins into a ring of (rows, M) boards
    of ``shape`` in a shared map, the last block cut at the run's end, or None for every bin where a
    block would be one bin long (each step draws its own). The ring holds at most BLOCK_ELEMENTS
    values: one block drawn here, or with ``ahead`` two. Then this process draws block 0 and, if a
    second block exists, forks a draw helper, which takes the streams over and fills the ring from
    block 1 on, one block ahead of the steps, on the allowed CPUs but the one this process is on;
    each side polls the other's counter, so neither wakes the other. Close the generator to stop
    the helper."""
    slots = 2 if ahead else 1
    bins = min(len(counts), BLOCK_ELEMENTS // (slots * math.prod(shape)))
    if slots * bins < 2:
        yield from [None] * len(counts)
        return
    ring, helper = _shared((slots, bins, *shape)), None
    try:
        for i, lo in enumerate(range(0, len(counts), bins)):
            block = ring[i % slots][: len(counts) - lo]
            if helper is None:
                _draw_block(streams, counts[lo : lo + bins].astype(np.float64), block)
                if ahead and lo + bins < len(counts):  # block 0 of several: a helper draws the others
                    helper, done = _fork_draw_helper(counts, streams, ring, bins)
            else:
                while done[0] <= i:
                    if helper.exitcode is not None and done[0] <= i:  # it may have drawn the block, then ended
                        raise RuntimeError(f"the draw helper process ended with exit code {helper.exitcode}")
                    time.sleep(_POLL_S)
            yield from block
            if helper is not None:
                done[1] = i + 1
    finally:
        if helper is not None:
            helper.terminate()
            helper.join()


def _run_range(data: CountSeries, source, cfg: FilterConfig, board: tuple, history: dict, recorders: list,
               rows: slice, ahead: bool, progress=None) -> None:
    """Fill ``rows`` of the shared board from ``source``, assimilate them there and write their
    columns of the history: after k steps (k = 0: the fill), each recorder ``(keys, first, columns)``
    with k >= first writes ``columns(filt, diag)``, one column per key, at row k - first. The bins'
    perturbed observations come from ``_bin_draws``, drawn a block ahead by a draw helper if ``ahead``."""
    filt = Filter(source, data.dt, cfg, (board[0][rows], board[1][rows]), rows)
    n_steps = data.n_steps
    report_every = max(1, n_steps // 20)
    draws, diag = _bin_draws(data.counts[:, rows], filt._streams, filt._lam.shape, ahead), None
    with contextlib.closing(draws):
        for k in range(n_steps + 1):
            if k:
                diag = filt.assimilate_step(data.counts[k - 1], next(draws))
            for keys, first, columns in recorders:
                if k >= first:
                    for key, column in zip(keys, columns(filt, diag)):
                        history[key][k - first, rows] = column
            if k and progress is not None and (k % report_every == 0 or k == n_steps):
                progress(k, n_steps)
    # the next forecast finds an earlier step's non-finite parameter; the last step's is found here
    if not filt._params.max() < np.inf:  # NaN fails too; every other member is at least the floor
        filt._check_finite("parameter", filt.k - 1, filt._params)


def _range_worker(conn, *args) -> None:
    """Run ``_run_range(*args)`` in a forked process; send back None, or the error it raised. A
    SIGTERM from ``run_filter`` exits through the range's cleanup, which stops its draw helper."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        conn.send(_run_range(*args))
    except Exception as err:  # noqa: BLE001 - run_filter raises it again
        conn.send(err)


def run_filter(data: CountSeries, init, cfg: FilterConfig, workers: int = 1, progress=None,
               truth: HawkesParams | None = None) -> FilterResult:
    """Assimilate every bin of ``data`` from the board source ``init``: ``init_ensemble``'s
    prior, whose rows are drawn, or an ``Ensemble``, whose rows are copied.

    Row i of ``init`` is node i's ensemble over the data's m columns, for each i
    (``check_complete``). The history maps each recorded key to an (n_steps + 1 - first, m)
    array, column i node i, whose row r is the state after r + first steps. A ``truth`` over
    the same m nodes, checked before the first step, records the truth curves ``_CURVE_KEYS``
    (``_truth_curves``) from first = 0, row 0 the initial ensemble, which
    ``network.error_metrics`` normalises; ``cfg.record_intensity_history`` records the
    intensity diagnostics ``_INTENSITY_KEYS`` of each step's ``AnalysisDiagnostics`` from
    first = 1. With neither the history is empty. The result board and the history are
    allocated once, in anonymous shared mmaps (``FilterResult``). The nodes split into
    ``workers`` contiguous ranges (at most one per node); ranges 1.. run in processes from
    ``multiprocessing.get_context("fork")``, which inherit the maps and send back only an
    error, and range 0 runs here and calls ``progress(step, n_steps)``, if given. Each range
    fills its rows of the board from ``init``, assimilates there and writes its history
    columns in place, so no process holds a second board, and the per-node streams give any
    worker count the same bits. When the CPUs this process may use number at least twice the
    ranges, each range also forks a draw helper (``_bin_draws``), which draws its perturbed
    observations a block ahead with the same bits; no helper outlives the run.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    if data.m == 0:
        raise ValueError("the counts have no node columns to filter")
    if init.m != data.m:
        raise ValueError(f"the ensembles are over {init.m} nodes, the counts over {data.m}")
    if truth is not None and truth.m != data.m:
        raise ValueError(f"the truth is over {truth.m} nodes, the counts over {data.m}")
    init.check_complete()
    m, n_steps = data.m, data.n_steps
    board = _shared((m, init.M)), _shared((m, m + 2, init.M))
    recorders = []
    if truth is not None:
        target = np.column_stack((truth.baseline, truth.decay, truth.excitation))
        recorders.append((_CURVE_KEYS, 0, lambda filt, diag: _truth_curves(filt, target)))
    if cfg.record_intensity_history:
        recorders.append((_INTENSITY_KEYS, 1, lambda filt, diag: [getattr(diag, key) for key in _INTENSITY_KEYS]))
    history = {key: _shared((n_steps + 1 - first, m)) for keys, first, _ in recorders for key in keys}
    args = data, init, cfg, board, history, recorders
    ranges = [slice(part[0], part[-1] + 1) for part in np.array_split(range(m), min(workers, m))]
    # each range and its draw helper get a CPU of their own; a daemonic process may not fork one
    ahead = _usable_cpus() >= 2 * len(ranges) and not multiprocessing.current_process().daemon
    conns, procs = [], []
    try:
        for rows in ranges[1:]:
            conn, child_conn = multiprocessing.Pipe(duplex=False)
            procs.append(multiprocessing.get_context("fork").Process(target=_range_worker,
                                                                     args=(child_conn, *args, rows, ahead)))
            procs[-1].start()
            child_conn.close()  # so a worker that dies without a result ends our recv
            conns.append(conn)
        _run_range(*args, ranges[0], ahead, progress)
        for conn in conns:
            try:
                error = conn.recv()
            except EOFError:
                raise RuntimeError("a filter worker process ended without a result") from None
            if error is not None:
                raise error
    finally:
        for proc in procs:  # every range is done, or the run failed
            proc.terminate()
            proc.join()
    return FilterResult(Ensemble(board[0], board[1].transpose(0, 2, 1)), cfg, n_steps, data.dt, history,
                        data.node_labels)


def save_filter_result(result: FilterResult, out_dir: str | Path, report: dict | None = None) -> None:
    """Write a run's result directory: the manifest (baseline and decay moments), the mean
    excitation matrix, the diagnostics and the snapshots; given an ``error_metrics`` report, also
    its curves and its ``final`` block as ``metrics.json``, with null for each non-finite value.

    The snapshot archive is written to a temporary file in ``ensembles/`` that then replaces it
    (``os.replace``), so a map of the old archive (``load_ensemble_snapshots``), in this process
    or another, keeps its bytes, and a save that fails leaves the old archive whole."""
    out_dir = Path(out_dir)
    ens = result.ensembles
    ens.check_complete()
    out_dir.mkdir(parents=True, exist_ok=True)
    mean, sd = ensemble_moments(ens)
    nodes = [{"index": i, "baseline_mean": float(mu[0]), "baseline_sd": float(s[0]), "decay_mean": float(mu[1]),
              "decay_sd": float(s[1])} for i, (mu, s) in enumerate(zip(mean, sd))]
    manifest = {"config": asdict(result.config), "n_steps": result.n_steps, "dt": result.dt,
                "ensemble_size": ens.M, "node_labels": result.node_labels, "nodes": nodes}
    (out_dir / "result.json").write_text(json.dumps(manifest, indent=2) + "\n")
    # every float at the precision that reads back bit for bit
    write_table(out_dir / "alpha_mean.csv", None, ",".join(["%.17g"] * ens.m) + "\n", mean[:, 2:])
    h = result.history
    if "prior_mean" in h:
        n_steps, m = h["prior_mean"].shape
        write_table(out_dir / "diagnostics.csv", ["step", "node", *_INTENSITY_KEYS],
                    "%d,%d" + ",%.17g" * len(_INTENSITY_KEYS) + "\r\n",
                    np.repeat(np.arange(n_steps), m), np.tile(np.arange(m), n_steps),
                    *(h[key].ravel() for key in _INTENSITY_KEYS))
    if report is not None:
        for key, curve in report.items():
            if key != "final":
                write_table(out_dir / f"{key}.csv", None, ",".join(["%.17g"] * curve[0].size) + "\n", curve)
        final = {key: np.where(np.isfinite(value), value, None).tolist() for key, value in report["final"].items()}
        (out_dir / "metrics.json").write_text(json.dumps(final, indent=2) + "\n")
    snap_dir = out_dir / "ensembles"
    snap_dir.mkdir(exist_ok=True)
    import zipfile  # here, as in np.savez: it adds about 4 ms to every start-up, and only a save needs it
    # np.savez's bytes (stored zip64 entries, no clock): each board's C-order bytes by blocks of rows,
    # from its own buffer (which may map the archive replaced here) or a block's copy (member-minor)
    path = snap_dir / SNAPSHOT_ARCHIVE
    tmp = snap_dir / f".{SNAPSHOT_ARCHIVE}.{os.getpid()}.tmp"
    try:
        with zipfile.ZipFile(tmp, "w", allowZip64=True) as archive:
            for name, board in (("intensity", ens.intensity), ("params", ens.params)):
                header = {"descr": np.lib.format.dtype_to_descr(board.dtype), "fortran_order": False,
                          "shape": board.shape}
                rows = _block_rows(board)
                with archive.open(name + ".npy", "w", force_zip64=True) as entry:
                    np.lib.format.write_array_header_1_0(entry, header)
                    for lo in range(0, len(board), rows):
                        entry.write(memoryview(np.ascontiguousarray(board[lo : lo + rows])).cast("B"))
        os.replace(tmp, path)
    finally:  # a failed save leaves the old archive whole and no file of its own
        tmp.unlink(missing_ok=True)


def load_ensemble_snapshots(out_dir: str | Path) -> Ensemble:
    """The board of the snapshot archive, whose stored entries ``intensity.npy`` and ``params.npy``
    it maps read-only where they lie in the file, with no copy.

    Each entry must be stored, not compressed, hold no object data and match its CRC-32, which is
    streamed from the file; the boards must pass ``Ensemble``'s checks. Every refusal is a
    ValueError that names the archive (and the entry). The boards are read-only views of the file:
    copy one to write to it. ``save_filter_result`` replaces the archive with a new file, so a map
    keeps the bytes it was loaded with.
    """
    path = Path(out_dir) / "ensembles" / SNAPSHOT_ARCHIVE
    if not path.is_file():
        raise FileNotFoundError(f"no ensemble snapshot archive {path}")
    import zipfile  # as in save_filter_result

    try:
        with zipfile.ZipFile(path) as archive:
            entries = archive.infolist()
    except zipfile.BadZipFile as err:
        raise ValueError(f"{path}: not a zip archive ({err}); re-run filter") from None
    if sorted(info.filename for info in entries) != ["intensity.npy", "params.npy"]:
        raise ValueError(f"{path}: no intensity and params boards (a per-node archive?); re-run filter")
    boards = {}
    with path.open("rb") as fh:
        for info in entries:
            where = f"{path}: entry {info.filename}"
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"{where} is compressed; the entries must be stored (re-run filter)")
            # the data follows the local header, whose name and extra field lengths are bytes 26-29;
            # its extra field need not be the central directory's
            fh.seek(info.header_offset)
            local = fh.read(30)
            if len(local) < 30 or local[:4] != b"PK\x03\x04":
                raise ValueError(f"{where} has no local header at offset {info.header_offset}")
            data = info.header_offset + 30 + sum(struct.unpack("<HH", local[26:]))
            fh.seek(data)
            try:
                version = np.lib.format.read_magic(fh)
                if version not in _NPY_HEADERS:
                    raise ValueError(f"npy format version {version} is not 1.0 or 2.0")
                shape, fortran_order, dtype = _NPY_HEADERS[version](fh)
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from None
            if dtype.hasobject:
                raise ValueError(f"{where} holds object data, which is not read")
            offset = fh.tell()
            if offset - data + dtype.itemsize * math.prod(shape) != info.compress_size:
                raise ValueError(f"{where} holds {info.compress_size} bytes, not those of the {dtype} "
                                 f"{shape} board its header gives")
            fh.seek(data)
            if _crc32(fh, info.compress_size) != info.CRC:
                raise ValueError(f"{where}: bad CRC-32; the archive is damaged, re-run filter")
            # a map of the file whose bytes were just checked, which stays valid once fh is closed
            boards[info.filename] = np.memmap(fh, dtype, "r", offset, shape, "F" if fortran_order else "C")
    try:
        return Ensemble(boards["intensity.npy"], boards["params.npy"])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _crc32(fh, size: int) -> int:
    """The CRC-32 of the next ``size`` bytes of the file ``fh``, or of those before its end, read
    by blocks of BLOCK_ELEMENTS float64s into one buffer."""
    crc, buf = 0, memoryview(bytearray(min(size, 8 * BLOCK_ELEMENTS)))
    while size:
        n = fh.readinto(buf[: min(size, len(buf))])
        if not n:
            break
        crc = zlib.crc32(buf[:n], crc)
        size -= n
    return crc
