import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countnet.hawkes import (
    CountSeries,
    HawkesParams,
    advance_intensity,
    load_count_series,
    save_count_series,
    simulate,
    stationary_rate,
)


def scalar_params(mu=3.0, beta=2.0, alpha=0.0):
    return HawkesParams([mu], [beta], [[alpha]])


def one_step(lam, params, counts, dt=0.1):
    """One step of ``advance_intensity`` from the given bin's counts."""
    excite = params.excitation @ np.asarray(counts, dtype=np.float64)
    return advance_intensity(np.asarray(lam, dtype=np.float64), params.baseline, params.decay, excite, dt)


class TestStepIntensity:
    def test_fixed_point_at_baseline_without_events(self):
        assert one_step([3.0], scalar_params(mu=3.0, beta=4.0), [0])[0] == 3.0

    def test_decay_toward_baseline(self):
        # lam' = 2 + 3 * (1 - 0.5) = 3.5
        out = one_step([5.0], scalar_params(mu=2.0, beta=5.0), [0])
        assert out[0] == pytest.approx(3.5, rel=1e-15)

    def test_excitation_jump(self):
        # lam' = 3 + 0 + 1.5 * 1 = 4.5
        out = one_step([3.0], scalar_params(mu=3.0, beta=5.0, alpha=1.5), [1])
        assert out[0] == pytest.approx(4.5, rel=1e-15)

    @given(
        lam=st.floats(0.1, 50),
        mu=st.floats(0.1, 10),
        beta=st.floats(0.1, 9.0),
        alpha=st.floats(0, 5),
        a=st.integers(0, 20),
        b=st.integers(0, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_superposition_affine_in_counts(self, lam, mu, beta, alpha, a, b):
        params = scalar_params(mu=mu, beta=beta, alpha=alpha)

        def step(counts):
            return one_step([lam], params, [counts])[0]

        assert step(a + b) - step(a) == pytest.approx(step(b) - step(0), abs=1e-9)


class TestSimulate:
    def test_decoupled_poisson_rate(self):
        # alpha = 0: counts are iid Poisson(mu * dt); 3 standard errors
        params = scalar_params(mu=4.0, beta=3.0, alpha=0.0)
        n = 100_000
        series = simulate(params, 0.1, n, seed=5)
        mean_rate = 4.0 * 0.1
        se = np.sqrt(mean_rate / n)
        assert abs(series.counts.mean() - mean_rate) < 3 * se

    def test_toy_shape(self):
        from countnet.experiments import toy_truth

        series = simulate(toy_truth(1.5, 1.5), 0.1, 2000, seed=0)
        assert series.counts.shape == (2000, 6)

    def test_seed_determinism(self):
        params = scalar_params(mu=2.0, beta=4.0, alpha=1.0)
        a = simulate(params, 0.1, 500, seed=42)
        b = simulate(params, 0.1, 500, seed=42)
        assert np.array_equal(a.counts, b.counts)
        c = simulate(params, 0.1, 500, seed=43)
        assert not np.array_equal(a.counts, c.counts)

    def test_unstable_decay_rejected(self):
        with pytest.raises(ValueError, match="decay"):
            simulate(scalar_params(beta=10.0), 0.1, 10, seed=0)

    def test_intensity_lower_bound(self):
        # replay the recursion from the emitted counts: lam stays >= baseline
        from countnet.experiments import toy_truth

        params = toy_truth(1.0, 1.0)
        series = simulate(params, 0.1, 2000, seed=3)
        lam = params.baseline.copy()
        for row in series.counts:
            assert (lam >= params.baseline - 1e-12).all()
            excite = params.excitation @ row.astype(float)
            lam = advance_intensity(lam, params.baseline, params.decay, excite, 0.1)

    def test_burn_in_changes_start_only(self):
        params = scalar_params(mu=2.0, beta=4.0, alpha=1.0)
        plain = simulate(params, 0.1, 200, seed=9)
        burned = simulate(params, 0.1, 150, seed=9, burn_in=50)
        # same stream: burned run reproduces the tail of the plain run
        assert np.array_equal(plain.counts[50:], burned.counts)


class TestStationaryRate:
    def test_zero_excitation_returns_baseline(self):
        params = HawkesParams([2.0, 5.0], [3.0, 4.0], np.zeros((2, 2)))
        assert np.allclose(stationary_rate(params), [2.0, 5.0], rtol=1e-14)

    def test_scalar_fixed_point(self):
        # lam = 2 / (1 - 1/5) = 2.5
        assert stationary_rate(scalar_params(mu=2.0, beta=5.0, alpha=1.0))[0] == pytest.approx(2.5)

    def test_supercritical_rejected(self):
        with pytest.raises(ValueError, match="supercritical"):
            stationary_rate(scalar_params(mu=1.0, beta=2.0, alpha=3.0))

    def test_monte_carlo_agreement(self):
        # long-run empirical rates vs the fixed point, batch-means tolerance
        from countnet.experiments import toy_truth

        params = toy_truth(1.5, 1.5)
        target = stationary_rate(params)
        series = simulate(params, 0.1, 1_000_000, seed=17)
        rates = series.counts.mean(axis=0) / 0.1
        batches = series.counts.reshape(100, 10_000, 6).mean(axis=1) / 0.1
        se = batches.std(axis=0, ddof=1) / np.sqrt(100)
        assert (np.abs(rates - target) < 4 * se + 1e-9).all()


class TestContainers:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            HawkesParams([1.0], [1.0], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            HawkesParams([-1.0], [1.0], [[0.0]])
        with pytest.raises(ValueError):
            HawkesParams([1.0], [0.0], [[0.0]])
        with pytest.raises(ValueError):
            HawkesParams([1.0], [1.0], [[-0.5]])

    def test_params_json_round_trip(self, tmp_path):
        params = HawkesParams([1.0, 2.0], [3.0, 4.0], [[0.1, 0.2], [0.3, 0.4]])
        path = tmp_path / "params.json"
        params.save(path)
        loaded = HawkesParams.load(path)
        assert np.array_equal(loaded.baseline, params.baseline)
        assert np.array_equal(loaded.decay, params.decay)
        assert np.array_equal(loaded.excitation, params.excitation)
        keys = set(json.loads(path.read_text()))
        assert keys == {"mu", "beta", "alpha"}

    def test_count_series_validation(self):
        with pytest.raises(ValueError):
            CountSeries(np.array([[0, 1], [2, -1]]), 0.1)
        with pytest.raises(ValueError):
            CountSeries(np.zeros((3, 2), dtype=np.uint64), 0.0)
        with pytest.raises(ValueError):
            CountSeries(np.zeros((3, 2), dtype=np.uint64), 0.1, node_labels=["a"])

    @pytest.mark.parametrize("bad", [2.5, np.nan, np.inf, -1.0])
    def test_count_series_rejects_non_counts(self, bad):
        # inf used to pass and be cast to an arbitrary uint64
        with pytest.raises(ValueError, match="finite, non-negative integers"):
            CountSeries(np.array([[0.0, 1.0], [2.0, bad]]), 0.1)

    def test_count_series_csv_round_trip(self, tmp_path):
        params = scalar_params(mu=2.0, beta=2.0, alpha=0.5)
        series = simulate(params, 0.25, 40, seed=1)
        path = tmp_path / "counts.csv"
        save_count_series(series, path, seed=1, params=params)
        loaded, meta = load_count_series(path)
        assert np.array_equal(loaded.counts, series.counts)
        assert loaded.dt == series.dt
        assert meta["seed"] == 1
        assert meta["m"] == 1
        assert meta["params"]["beta"] == [2.0]
        header = path.read_text().splitlines()[0]
        assert header == "t,node_1"
