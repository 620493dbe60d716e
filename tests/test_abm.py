import numpy as np
import pytest

from countnet import rng
from countnet.abm import (
    ABMConfig,
    ABMState,
    attractiveness_update,
    initial_state,
    movement_probabilities,
    simulate_abm,
    step_agents,
)
from countnet.experiments import abm_test_config


def two_node_config(**kw):
    defaults = dict(
        baseline=np.array([1.0, 3.0]),
        decay=2.0,
        diffusion=0.0,
        spawn_rate=1.0,
        excitation=np.array([[0.0, 1.0], [1.0, 0.0]]),
        dt=0.1,
    )
    defaults.update(kw)
    return ABMConfig(**defaults)


class TestAttractivenessUpdate:
    def test_self_excitation_with_decay(self):
        # B' = 1 * (1 - 0.5) + 3 * 1 = 3.5, so A' = mu + B' = 5.5
        cfg = ABMConfig(
            baseline=np.array([2.0]),
            decay=5.0,
            diffusion=0.0,
            spawn_rate=1.0,
            excitation=np.array([[3.0]]),
            dt=0.1,
        )
        state = ABMState(np.array([1.0]), np.array([0]))
        new_b = attractiveness_update(state, np.array([1]), cfg)
        assert new_b[0] == pytest.approx(3.5, rel=1e-15)
        assert (cfg.baseline + new_b)[0] == pytest.approx(5.5, rel=1e-15)

    def test_rest_state_stays_at_rest(self):
        cfg = two_node_config()
        state = initial_state(cfg)
        assert np.array_equal(attractiveness_update(state, np.zeros(2), cfg), np.zeros(2))

    def test_full_diffusion_preserves_equal_field(self):
        cfg = two_node_config(diffusion=1.0)
        state = ABMState(np.array([2.0, 2.0]), np.array([0, 0]))
        new_b = attractiveness_update(state, np.zeros(2), cfg)
        # exchange keeps the field, then decay scales it
        assert np.allclose(new_b, 2.0 * (1.0 - 0.2), rtol=1e-15)

    def test_unstable_decay_rejected_at_config(self):
        with pytest.raises(ValueError):
            two_node_config(decay=10.0, dt=0.1)

    def test_nonnegative_over_long_run(self):
        cfg = abm_test_config()
        streams = rng.node_streams(3, rng.ABM_AGENTS, range(cfg.m))
        state = initial_state(cfg)
        for _ in range(500):
            events, state = step_agents(state, cfg, streams)
            state.B = attractiveness_update(state, events, cfg)
            assert (state.B >= 0).all()


class TestMovement:
    def test_probabilities_proportional_to_attractiveness(self):
        # location 0 excites locations 1 and 2, which hold A = 1 and A = 3
        cfg = ABMConfig(
            baseline=np.array([5.0, 1.0, 3.0]),
            decay=2.0,
            diffusion=0.0,
            spawn_rate=1.0,
            excitation=np.array([[0.0, 0.0, 0.0], [1.0, 0, 0], [1.0, 0, 0]]),
            dt=0.1,
        )
        hood, probs = movement_probabilities(initial_state(cfg), cfg, 0)
        assert list(hood) == [1, 2]
        assert np.allclose(probs, [0.25, 0.75], rtol=1e-15)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_neighbourhood_stays(self):
        cfg = two_node_config(excitation=np.zeros((2, 2)))
        state = ABMState(np.zeros(2), np.array([7, 0]))
        streams = rng.node_streams(0, rng.ABM_AGENTS, range(2))
        events, new_state = step_agents(state, cfg, streams)
        # all non-event agents remain at location 0
        assert new_state.agents[0] >= 7 - events[0]
        assert new_state.agents[1] - 0 <= 2  # only spawns can appear at node 1

    def test_zero_attractiveness_means_no_events(self):
        cfg = two_node_config(baseline=np.zeros(2))
        state = ABMState(np.zeros(2), np.array([50, 50]))
        streams = rng.node_streams(1, rng.ABM_AGENTS, range(2))
        events, _ = step_agents(state, cfg, streams)
        assert (events == 0).all()

    def test_neighbourhood_probabilities_sum_to_one(self):
        cfg = abm_test_config()
        state = ABMState(np.arange(6.0), np.zeros(6, dtype=np.int64))
        for s in range(6):
            hood, probs = movement_probabilities(state, cfg, s)
            if hood.size:
                assert abs(probs.sum() - 1.0) < 1e-12


class TestConservationAndSpawning:
    def test_agents_conserved_exactly_with_fixed_spawning(self):
        # round(spawn_rate * dt) = 0: agents only leave via events
        cfg = abm_test_config()
        cfg = ABMConfig(
            baseline=cfg.baseline,
            decay=cfg.decay,
            diffusion=cfg.diffusion,
            spawn_rate=0.1,
            excitation=cfg.excitation,
            dt=0.1,
            spawn_law="fixed",
        )
        state = ABMState(np.zeros(6), np.full(6, 40, dtype=np.int64))
        streams = rng.node_streams(5, rng.ABM_AGENTS, range(6))
        for _ in range(50):
            before = state.agents.sum()
            events, state = step_agents(state, cfg, streams)
            assert state.agents.sum() == before - events.sum()
            state.B = attractiveness_update(state, events, cfg)

    def test_spawn_rate_monte_carlo(self):
        # one isolated location: spawns = agents_out - agents_in + events
        cfg = ABMConfig(
            baseline=np.array([2.0]),
            decay=5.0,
            diffusion=0.0,
            spawn_rate=3.0,
            excitation=np.array([[0.0]]),
            dt=0.1,
        )
        streams = rng.node_streams(11, rng.ABM_AGENTS, range(1))
        state = initial_state(cfg)
        n_steps = 100_000
        spawned = 0
        for _ in range(n_steps):
            before = int(state.agents[0])
            events, state = step_agents(state, cfg, streams)
            spawned += int(state.agents[0]) - before + int(events[0])
        rate = spawned / n_steps
        se = np.sqrt(0.3 / n_steps)
        assert abs(rate - 0.3) < 3 * se


class TestSimulateABM:
    def test_reference_config_shape_and_low_rate_node(self):
        series = simulate_abm(abm_test_config(), 5000, seed=13)
        assert series.counts.shape == (5000, 6)
        shares = series.counts.sum(axis=0) / series.counts.sum()
        assert shares.argmin() == 3  # the low-baseline location

    def test_seed_determinism(self):
        cfg = abm_test_config()
        a = simulate_abm(cfg, 300, seed=2)
        b = simulate_abm(cfg, 300, seed=2)
        assert np.array_equal(a.counts, b.counts)
        c = simulate_abm(cfg, 300, seed=3)
        assert not np.array_equal(a.counts, c.counts)

    def test_symmetric_nodes_are_exchangeable(self):
        cfg = ABMConfig(
            baseline=np.full(4, 2.0),
            decay=5.0,
            diffusion=0.0,
            spawn_rate=3.0,
            excitation=np.zeros((4, 4)),
            dt=0.1,
        )
        series = simulate_abm(cfg, 40_000, seed=4)
        shares = series.counts.sum(axis=0) / series.counts.sum()
        assert shares.max() - shares.min() < 0.02

    def test_decoupled_nodes_match_solo_runs(self):
        # diagonal excitation, no diffusion: locations evolve independently
        cfg = ABMConfig(
            baseline=np.array([1.0, 2.0, 3.0]),
            decay=4.0,
            diffusion=0.0,
            spawn_rate=2.0,
            excitation=np.diag([1.0, 2.0, 0.5]),
            dt=0.1,
        )
        joint = simulate_abm(cfg, 400, seed=8)
        for s in range(3):
            solo_cfg = ABMConfig(
                baseline=cfg.baseline[[s]],
                decay=cfg.decay,
                diffusion=cfg.diffusion,
                spawn_rate=cfg.spawn_rate,
                excitation=cfg.excitation[[s]][:, [s]],
                dt=cfg.dt,
            )
            solo = simulate_abm(solo_cfg, 400, seed=8, node_indices=[s])
            assert np.array_equal(joint.counts[:, s], solo.counts[:, 0])

    def test_agent_trace(self):
        series, trace = simulate_abm(abm_test_config(), 100, seed=1, return_agent_trace=True)
        assert trace.shape == (100, 6)
        assert trace[0].sum() == 0  # empty start

    def test_config_json_round_trip(self, tmp_path):
        cfg = abm_test_config()
        path = tmp_path / "abm.json"
        cfg.save(path)
        loaded = ABMConfig.load(path)
        assert np.array_equal(loaded.excitation, cfg.excitation)
        assert np.array_equal(loaded.baseline, cfg.baseline)
        assert loaded.decay == cfg.decay
        assert loaded.spawn_law == cfg.spawn_law

    def test_retired_event_prob_form_key(self):
        saved = abm_test_config().to_json()
        assert "event_prob_form" not in saved
        loaded = ABMConfig.from_json({**saved, "event_prob_form": "rate"})
        assert loaded.to_json() == saved
        with pytest.raises(ValueError, match="event_prob_form"):
            ABMConfig.from_json({**saved, "event_prob_form": "scaled"})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            two_node_config(diffusion=1.5)
        with pytest.raises(ValueError):
            two_node_config(spawn_rate=0.0)
        with pytest.raises(ValueError):
            two_node_config(excitation=np.array([[0.0, -1.0], [0.0, 0.0]]))
