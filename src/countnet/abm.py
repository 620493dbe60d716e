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

``simulate_abm`` runs one step kernel, ``_step``: a few vector passes over
B(t) (``_fields``) give every event and movement probability and B's
diffused, decayed part; then each location makes only its own draws, on its
own stream. ``step_agents``, ``attractiveness_update`` and
``movement_probabilities`` are thin wrappers over these pieces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .hawkes import CountSeries, json_floats, read_json, require_keys

# retired keys, with the one value the model now has: files saved with that value still load
_RETIRED = {"event_prob_form": "rate", "spawn_law": "poisson"}


@dataclass(frozen=True)
class ABMConfig:
    """Static model parameters; ``excitation`` is the m x m matrix W.

    Frozen, with read-only copies of its arrays, so the step kernel's tables
    built here cannot go stale.
    """

    baseline: np.ndarray
    decay: float
    diffusion: float
    spawn_rate: float
    excitation: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        baseline = np.array(self.baseline, dtype=np.float64)
        excitation = np.array(self.excitation, dtype=np.float64)
        baseline.flags.writeable = excitation.flags.writeable = False
        if baseline.ndim != 1:
            raise ValueError("baseline must be a vector")
        m = baseline.shape[0]
        if excitation.shape != (m, m):
            raise ValueError(f"excitation must be {m}x{m}")
        if not ((baseline >= 0) & (baseline < np.inf)).all():
            raise ValueError("baseline attractiveness must be non-negative and finite")
        if not ((excitation >= 0) & (excitation < np.inf)).all():
            raise ValueError("excitation weights must be non-negative and finite")
        if not (0 < self.decay < np.inf and 0 < self.spawn_rate < np.inf):
            raise ValueError("decay and spawn_rate must be positive and finite")
        if not 0.0 <= self.diffusion <= 1.0:
            raise ValueError("diffusion weight must lie in [0, 1]")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.decay * self.dt >= 1.0:
            raise ValueError("decay * dt must be below 1")
        hoods = [np.flatnonzero((excitation[:, s] > 0) & (np.arange(m) != s)) for s in range(m)]
        # the locations that diffuse, by neighbourhood size; the neighbourhoods of one size k
        # form a group: a slice of them, and a (2, rows, k) index into [A, B]
        sizes = np.array([hood.size for hood in hoods])
        diffusing = np.flatnonzero(sizes)[np.argsort(sizes[sizes > 0], kind="stable")]
        groups, moves_at = [], [None] * m
        for g, k in enumerate(np.unique(sizes[diffusing]).tolist()):
            rows = np.flatnonzero(sizes[diffusing] == k)
            index = np.array([hoods[s] for s in diffusing[rows]])
            groups.append((k, slice(rows[0], rows[-1] + 1), np.stack((index, index + m))))
            for r, s in enumerate(diffusing[rows].tolist()):
                moves_at[s] = (hoods[s].tolist(), g, r)
        for name, value in (("baseline", baseline), ("excitation", excitation), ("_neighbourhoods", hoods),
                            ("_diffusing", diffusing), ("_sizes", sizes[diffusing].astype(np.float64)),
                            ("_groups", groups), ("_moves_at", moves_at), ("_keep", 1.0 - self.decay * self.dt),
                            ("_spawn_mean", self.spawn_rate * self.dt)):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.baseline.shape[0]

    def neighbourhoods(self) -> list[np.ndarray]:
        """D(s): the locations s excites, i.e. s' != s with W[s', s] > 0."""
        return self._neighbourhoods

    def to_json(self) -> dict:
        return {
            "baseline": self.baseline.tolist(),
            "decay": self.decay,
            "diffusion": self.diffusion,
            "spawn_rate": self.spawn_rate,
            "excitation": self.excitation.tolist(),
            "dt": self.dt,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ABMConfig":
        require_keys(obj, ("baseline", "decay", "diffusion", "spawn_rate", "excitation", "dt"))
        for key, value in _RETIRED.items():
            if obj.get(key, value) != value:
                raise ValueError(f"{key} {obj[key]!r} is not supported; only {value!r} is")
        return cls(
            json_floats(obj["baseline"], 1),
            json_floats(obj["decay"]),
            json_floats(obj["diffusion"]),
            json_floats(obj["spawn_rate"]),
            json_floats(obj["excitation"], 2),
            json_floats(obj["dt"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ABMConfig":
        return read_json(path, cls.from_json)


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


def _fields(cfg: ABMConfig, B: np.ndarray) -> tuple[list[float], list[np.ndarray], np.ndarray]:
    """From B(t): the event probabilities, each group's movement probabilities (row r of group
    g for the location whose ``cfg._moves_at`` names g, r) and B's diffused, decayed part."""
    A = cfg.baseline + B
    p = [1.0 - e for e in np.exp(A * -cfg.dt).tolist()]
    AB, at = np.concatenate((A, B)), cfg._diffusing
    totals, moves = np.empty((2, at.size)), []
    for k, span, index in cfg._groups:
        hoods = AB[index]  # C-contiguous: each row's np.add.reduce has the bits of its .sum()
        total = np.add.reduce(hoods, axis=-1, out=totals[:, span])[0, :, None]
        # an agent moves in proportion to attractiveness; uniformly when its neighbourhood has none
        if np.minimum.reduce(total, axis=None) > 0:
            moves.append(hoods[0] / total)
        else:
            moves.append(np.divide(hoods[0], total, out=np.full(hoods[0].shape, 1.0 / k), where=total > 0))
    mixed = B.copy()  # a location with no neighbours has nothing to exchange
    mixed[at] = (1.0 - cfg.diffusion) * B[at] + cfg.diffusion * (totals[1] / cfg._sizes)
    return p, moves, mixed * cfg._keep


def _step(cfg: ABMConfig, B: np.ndarray, agents: list[int], streams) -> tuple[list[int], list[int], np.ndarray]:
    """The step kernel: (events, next step's agents, next B) from B(t) and the agents, as lists of ints."""
    p, moves, decayed = _fields(cfg, B)
    events, arrivals = [], [0] * cfg.m
    for s, (n, hood) in enumerate(zip(agents, cfg._moves_at)):
        gen = streams[s]
        ev = int(gen.binomial(n, p[s])) if n > 0 else 0
        events.append(ev)
        if n > ev and hood is None:
            arrivals[s] += n - ev  # no neighbours: the agents stay
        elif n > ev:
            dests, g, r = hood
            for d, c in zip(dests, gen.multinomial(n - ev, moves[g][r]).tolist()):
                arrivals[d] += c
        arrivals[s] += int(gen.poisson(cfg._spawn_mean))
    return events, arrivals, decayed + cfg.excitation @ np.array(events, dtype=np.float64)


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
    return _fields(cfg, state.B)[2] + cfg.excitation @ events


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
    _, g, r = cfg._moves_at[location]
    return hood, _fields(cfg, state.B)[1][g][r]


def step_agents(
    state: ABMState, cfg: ABMConfig, streams: list[np.random.Generator]
) -> tuple[np.ndarray, ABMState]:
    """One agent step: events, biased movement, spawning.

    Per location s: each agent generates an event with probability p_s and
    is removed; the rest move to a neighbour in D(s) with probability
    proportional to the neighbour's attractiveness (an agent with no
    neighbours stays put). New agents spawn, Poisson(spawn_rate * dt) per location.
    Each location draws from its own stream.
    """
    events, arrivals, _ = _step(cfg, state.B, state.agents.tolist(), streams)
    return np.array(events, dtype=np.int64), ABMState(state.B.copy(), arrivals)


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
    returned alongside the CountSeries. Raises ValueError, naming the step,
    if B overflows.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    m = cfg.m
    if node_indices is None:
        node_indices = list(range(m))
    if len(node_indices) != m:
        raise ValueError("node_indices must name every location")
    streams = rng.node_streams(seed, rng.ABM_AGENTS, node_indices)
    B, agents = np.zeros(m), [0] * m  # the empty start of initial_state
    out = np.zeros((n_steps, m), dtype=np.uint64)
    trace = np.zeros((n_steps, m), dtype=np.int64) if return_agent_trace else None
    try:
        # excitation weights can be finite and still overflow B: that is a model error, not numpy's
        with np.errstate(over="raise", invalid="raise"):
            for k in range(n_steps):
                if trace is not None:
                    trace[k] = agents
                out[k], agents, B = _step(cfg, B, agents, streams)
    except FloatingPointError:
        raise ValueError(f"the dynamic attractiveness B overflowed at step {k}; "
                         "the excitation weights are too large") from None
    series = CountSeries(out, cfg.dt)
    if return_agent_trace:
        return series, trace
    return series
