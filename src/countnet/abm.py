"""Agent-based event generator on a node set with an attractiveness field.

A classic urban-crime style model: agents sit on locations, generate an
event with probability p_s = 1 - exp(-A_s * dt) per step, and otherwise
move to a neighbouring location with probability proportional to its
attractiveness. Event-generating agents leave the simulation; new agents
spawn Poisson(spawn_rate * dt) per location. The attractiveness splits as
A_s = baseline_s + B_s, with the dynamic part following

    B_r' = [(1 - eta) * B_r + (eta / z_r) * sum_{r' in D(r)} B_r']
           * (1 - decay * dt) + sum_{c} W[r, c] * events_c

W[r, c] is the attractiveness added at location r per event at location c,
the same receiver-row orientation as the Hawkes excitation matrix, and is
what the Hawkes filter should recover from the counts despite the model
mismatch. The neighbourhood D(s) = {s' != s : W[s', s] > 0} holds the
locations s excites: spillover diffuses outward along influence edges, and
a non-eventing agent moves toward the places its location feeds (the
bracket collapses to B_r when D(r) is empty, so nothing leaks into an
empty neighbourhood). A quiet location with strong outgoing edges thus
stays quiet while its rare events light up its targets.

Dynamics are exchangeable over agents at the same location, so the state
keeps per-location agent counts rather than individual agents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .hawkes import CountSeries

SPAWN_POISSON = "poisson"
SPAWN_FIXED = "fixed"  # deterministic round(spawn_rate * dt) per location per step


@dataclass
class ABMConfig:
    """Static model parameters; ``excitation`` is the m x m matrix W."""

    baseline: np.ndarray
    decay: float
    diffusion: float
    spawn_rate: float
    excitation: np.ndarray
    dt: float
    spawn_law: str = SPAWN_POISSON

    def __post_init__(self) -> None:
        self.baseline = np.asarray(self.baseline, dtype=np.float64)
        self.excitation = np.asarray(self.excitation, dtype=np.float64)
        if self.baseline.ndim != 1:
            raise ValueError("baseline must be a vector")
        m = self.baseline.shape[0]
        if self.excitation.shape != (m, m):
            raise ValueError(f"excitation must be {m}x{m}")
        if (self.baseline < 0).any():
            raise ValueError("baseline attractiveness must be non-negative")
        if (self.excitation < 0).any():
            raise ValueError("excitation weights must be non-negative")
        if not self.decay > 0 or not self.spawn_rate > 0:
            raise ValueError("decay and spawn_rate must be positive")
        if not 0.0 <= self.diffusion <= 1.0:
            raise ValueError("diffusion weight must lie in [0, 1]")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.decay * self.dt >= 1.0:
            raise ValueError("decay * dt must be below 1")
        if self.spawn_law not in (SPAWN_POISSON, SPAWN_FIXED):
            raise ValueError(f"unknown spawn_law {self.spawn_law!r}")

    @property
    def m(self) -> int:
        return self.baseline.shape[0]

    def neighbourhoods(self) -> list[np.ndarray]:
        """D(s): the locations s excites, i.e. s' != s with W[s', s] > 0."""
        return [
            np.flatnonzero((self.excitation[:, s] > 0) & (np.arange(self.m) != s))
            for s in range(self.m)
        ]

    def to_json(self) -> dict:
        return {
            "baseline": self.baseline.tolist(),
            "decay": self.decay,
            "diffusion": self.diffusion,
            "spawn_rate": self.spawn_rate,
            "excitation": self.excitation.tolist(),
            "dt": self.dt,
            "spawn_law": self.spawn_law,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ABMConfig":
        # retired key: files saved with the only event-probability form still load
        if obj.get("event_prob_form", "rate") != "rate":
            raise ValueError(f"event_prob_form {obj['event_prob_form']!r} is not supported; only 'rate' is")
        return cls(
            np.asarray(obj["baseline"]),
            float(obj["decay"]),
            float(obj["diffusion"]),
            float(obj["spawn_rate"]),
            np.asarray(obj["excitation"]),
            float(obj["dt"]),
            obj.get("spawn_law", SPAWN_POISSON),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ABMConfig":
        return cls.from_json(json.loads(Path(path).read_text()))


@dataclass
class ABMState:
    """Dynamic attractiveness component and per-location agent counts."""

    B: np.ndarray
    agents: np.ndarray

    def __post_init__(self) -> None:
        self.B = np.asarray(self.B, dtype=np.float64)
        self.agents = np.asarray(self.agents, dtype=np.int64)
        if self.B.shape != self.agents.shape or self.B.ndim != 1:
            raise ValueError("B and agents must be vectors of equal length")
        if (self.B < 0).any():
            raise ValueError("dynamic attractiveness must be non-negative")
        if (self.agents < 0).any():
            raise ValueError("agent counts must be non-negative")


def initial_state(cfg: ABMConfig) -> ABMState:
    """Empty start: no dynamic attractiveness, no agents."""
    return ABMState(np.zeros(cfg.m), np.zeros(cfg.m, dtype=np.int64))


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
        if cfg.spawn_law == SPAWN_POISSON:
            arrivals[s] += int(gen.poisson(cfg.spawn_rate * cfg.dt))
        else:
            arrivals[s] += int(round(cfg.spawn_rate * cfg.dt))
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
