"""Influence-network inference from multivariate count time-series.

Building blocks: a discrete-time multidimensional Hawkes model (simulator
and forecast step), an ensemble Poisson-Gamma filter that jointly tracks
intensities and parameters per node, an agent-based event generator for
model-mismatch studies, network/uncertainty analytics over the resulting
ensembles, and timestamp ingestion. See the README for the CLI.
"""

__version__ = "0.1.0"

from .hawkes import (  # noqa: F401
    CountSeries,
    HawkesParams,
    simulate,
    stationary_rate,
)
from .filtering import (  # noqa: F401
    AnalysisDiagnostics,
    Ensemble,
    Filter,
    FilterConfig,
    FilterDivergence,
    FilterResult,
    GammaSpec,
    NodeEnsemble,
    analytic_posterior,
    enkf_regress,
    ensemble_moments,
    init_ensemble,
    perturbed_observations,
    pg_analysis,
    run_filter,
)
from .abm import ABMConfig, ABMState, attractiveness_update, simulate_abm, step_agents  # noqa: F401
from .network import (  # noqa: F401
    InfluenceNetwork,
    RankDistribution,
    centrality,
    error_metrics,
    mean_network,
    rank_distribution,
    threshold_subnetwork,
)
from .ingest import EventLog, aggregate, clean, read_event_csv  # noqa: F401
