"""Reference experiment protocols: truth setups, priors, and drivers.

Two synthetic regimes are bundled. The six-node benchmark scales a fixed
covert-network-style excitation pattern by ``s2`` and the baselines by
``s1``; node 4 has a low event rate but strong outgoing influence. The
large-network benchmark draws a sparse random excitation matrix over many
nodes. Both come with the gamma priors used to seed the filter ensembles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import rng
from .abm import ABMConfig, simulate_abm
from .filtering import FilterConfig, FilterResult, GammaSpec, init_ensemble, run_filter
from .hawkes import CountSeries, HawkesParams, simulate
from .network import error_metrics

TOY_M = 6
TOY_DT = 0.1
TOY_STEPS = 2000
TOY_ENSEMBLE = 500

_TOY_PATTERN = np.array(
    [
        [1.0, 0.5, 0.5, 0.0, 0.0, 0.0],
        [1.0, 1.0, 0.5, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.2, 0.0, 0.0, 0.0],
        [0.0, 1.0, 2.5, 0.5, 2.5, 0.0],
        [0.0, 0.0, 0.0, 0.4, 1.5, 0.5],
        [0.0, 0.0, 0.0, 0.4, 0.5, 1.5],
    ]
)

# receiver-row form (entry (r, c) = push of location c onto location r);
# column 4 carries the strong outgoing influence of the low-activity hub
_ABM_EXCITATION = np.array(
    [
        [3.0, 3.0, 0.0, 0.0, 0.0, 0.0],
        [3.0, 3.0, 0.0, 6.0, 0.0, 0.0],
        [0.0, 0.0, 3.0, 6.0, 0.0, 0.0],
        [0.0, 0.0, 3.0, 1.5, 0.0, 0.0],
        [0.0, 0.0, 0.0, 6.0, 3.0, 3.0],
        [0.0, 0.0, 0.0, 0.0, 3.0, 3.0],
    ]
)

ABM_STEPS = 39964

# large-network benchmark: bin width, truth generator and baseline prior
LARGE_DT = 0.1
LARGE_DECAY = 7.0
LARGE_DENSITY = 0.03
LARGE_BRANCHING = 0.6
LARGE_BASELINE = GammaSpec(20.0 / 3.0, 200.0 / 9.0)


def toy_truth(s1: float, s2: float) -> HawkesParams:
    """Six-node ground truth: baselines 2*s1 except node 4 at 0.75*s1,
    decay 5 everywhere, excitation pattern scaled by s2."""
    baseline = np.full(TOY_M, 2.0 * s1)
    baseline[3] = 0.75 * s1
    return HawkesParams(baseline, np.full(TOY_M, 5.0), s2 * _TOY_PATTERN)


def toy_priors(s1: float, s2: float) -> tuple[GammaSpec, GammaSpec, GammaSpec]:
    """Initial-ensemble priors: baseline and decay from gamma(mean 4*s1,
    var 8), excitation from gamma(mean s2, var 1/4)."""
    return (
        GammaSpec(4.0 * s1, 8.0),
        GammaSpec(4.0 * s1, 8.0),
        GammaSpec(s2, 0.25),
    )


def abm_test_config() -> ABMConfig:
    """Six-location agent model: decay 5, diffusion 1/4, spawn rate 3,
    dt 0.1, baselines 2 except location 4 at 0.5."""
    baseline = np.full(TOY_M, 2.0)
    baseline[3] = 0.5
    return ABMConfig(
        baseline=baseline,
        decay=5.0,
        diffusion=0.25,
        spawn_rate=3.0,
        excitation=_ABM_EXCITATION.copy(),
        dt=0.1,
    )


def sparse_random_truth(m: int, seed: int) -> HawkesParams:
    """Random sparse network truth for large-scale runs.

    Baselines are LARGE_BASELINE draws, the excitation support is
    Bernoulli(LARGE_DENSITY) with uniform weights, rescaled so the branching
    spectral radius hits LARGE_BRANCHING (keeps the process comfortably
    subcritical).
    """
    gen = rng.node_stream(seed, rng.SIM_COUNTS, 2**20)  # off to the side of node keys
    baseline = LARGE_BASELINE.draw(gen, m)
    mask = gen.random((m, m)) < LARGE_DENSITY
    alpha = np.where(mask, gen.uniform(0.5, 2.0, size=(m, m)), 0.0)
    radius = np.abs(np.linalg.eigvals(alpha / LARGE_DECAY)).max()
    if radius > 0:
        alpha *= LARGE_BRANCHING / radius
    return HawkesParams(baseline, np.full(m, LARGE_DECAY), alpha)


@dataclass
class PerfectModelRun:
    truth: HawkesParams
    data: CountSeries
    result: FilterResult
    report: dict


def run_perfect_model(
    s1: float,
    s2: float,
    seed: int,
    n_steps: int = TOY_STEPS,
    ensemble_size: int = TOY_ENSEMBLE,
    workers: int = 1,
    record_intensity: bool = False,
) -> PerfectModelRun:
    """Simulate the six-node truth and track it with the filter.

    The same seed drives data generation and ensemble initialization, so a
    run is reproducible from (s1, s2, seed) alone.
    """
    truth = toy_truth(s1, s2)
    data = simulate(truth, TOY_DT, n_steps, seed)
    mu_prior, beta_prior, alpha_prior = toy_priors(s1, s2)
    init = init_ensemble(TOY_M, ensemble_size, mu_prior, beta_prior, alpha_prior, seed)
    cfg = FilterConfig(
        ensemble_size=ensemble_size,
        dt=TOY_DT,
        seed=seed,
        record_param_history=True,
        record_intensity_history=record_intensity,
    )
    result = run_filter(data, init, cfg, workers=workers)
    report = error_metrics(result.history, truth, excitation_scale=s2)
    return PerfectModelRun(truth, data, result, report)


def run_excitation_sweep(
    s1_values,
    s2_values,
    seeds,
    n_steps: int = TOY_STEPS,
    ensemble_size: int = TOY_ENSEMBLE,
) -> list[dict]:
    """Seed-averaged final scaled Frobenius error per (s1, s2) pair."""
    rows = []
    for s1 in s1_values:
        for s2 in s2_values:
            errs = [
                run_perfect_model(s1, s2, seed, n_steps, ensemble_size).report["frobenius"][-1]
                for seed in seeds
            ]
            rows.append(
                {
                    "s1": s1,
                    "s2": s2,
                    "frobenius_mean": float(np.mean(errs)),
                    "frobenius_per_seed": [float(e) for e in errs],
                }
            )
    return rows


@dataclass
class ABMRun:
    config: ABMConfig
    data: CountSeries
    result: FilterResult
    structure_overlap: int


def run_abm_experiment(
    seed: int,
    n_steps: int = ABM_STEPS,
    ensemble_size: int = TOY_ENSEMBLE,
    workers: int = 1,
    top_k: int = 5,
) -> ABMRun:
    """Generate data with the agent model, filter it with the Hawkes model,
    and score how many of the top-k estimated off-diagonal edges fall in
    the top-k (ties included) of the generator's excitation matrix."""
    cfg_abm = abm_test_config()
    data = simulate_abm(cfg_abm, n_steps, seed)
    mu_prior, beta_prior, alpha_prior = toy_priors(1.5, 1.5)
    init = init_ensemble(cfg_abm.m, ensemble_size, mu_prior, beta_prior, alpha_prior, seed)
    cfg = FilterConfig(ensemble_size=ensemble_size, dt=cfg_abm.dt, seed=seed)
    result = run_filter(data, init, cfg, workers=workers)
    overlap = structure_overlap(result.mean_excitation(), cfg_abm.excitation, top_k)
    return ABMRun(cfg_abm, data, result, overlap)


def structure_overlap(estimated: np.ndarray, reference: np.ndarray, k: int = 5) -> int:
    """How many of the k strongest estimated off-diagonal edges lie among
    the k strongest reference edges (ties at the cutoff included)."""
    est_pairs = _top_offdiag(estimated, k, include_ties=False)
    ref_pairs = _top_offdiag(reference, k, include_ties=True)
    return len(est_pairs & ref_pairs)


def _top_offdiag(matrix: np.ndarray, k: int, include_ties: bool) -> set[tuple[int, int]]:
    m = matrix.shape[0]
    off = [(float(matrix[i, j]), i, j) for i in range(m) for j in range(m) if i != j]
    off.sort(key=lambda t: (-t[0], t[1], t[2]))
    if not off:
        return set()
    cutoff = off[min(k, len(off)) - 1][0]
    if include_ties:
        return {(i, j) for w, i, j in off if w >= cutoff and w > 0}
    return {(i, j) for w, i, j in off[:k]}


@dataclass
class LargeNetworkRun:
    truth: HawkesParams
    result: FilterResult
    correlation: float
    wall_time: float


def run_large_network(
    m: int = 100,
    n_steps: int = 50_000,
    ensemble_size: int = 128,
    seed: int = 0,
    workers: int = 1,
) -> LargeNetworkRun:
    """Sparse random truth, long simulation, full filter pass.

    Reports the Pearson correlation between true and estimated excitation
    entries and the filter wall time (excluding data generation).
    """
    truth = sparse_random_truth(m, seed)
    data = simulate(truth, LARGE_DT, n_steps, seed)
    init = init_ensemble(
        m,
        ensemble_size,
        LARGE_BASELINE,
        GammaSpec(8.0, 8.0),
        GammaSpec(0.3, 0.09),
        seed,
    )
    cfg = FilterConfig(ensemble_size=ensemble_size, dt=LARGE_DT, seed=seed)
    start = time.perf_counter()
    result = run_filter(data, init, cfg, workers=workers)
    wall = time.perf_counter() - start
    est = result.mean_excitation()
    correlation = float(np.corrcoef(truth.excitation.ravel(), est.ravel())[0, 1])
    return LargeNetworkRun(truth, result, correlation, wall)
