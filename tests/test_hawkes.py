import json
import re
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from countnet import hawkes
from countnet.hawkes import (
    CountSeries,
    HawkesParams,
    advance_intensity,
    load_count_series,
    save_count_series,
    simulate,
    stationary_rate,
)
import oracles
from test_ingest import csv_text, read_both
from test_network import LABEL_TEXT


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

    def test_written_in_place_with_the_bits_of_the_expression(self):
        lam, base, decay, excite = np.random.default_rng(0).gamma(2.0, 1.0, (4, 3, 5))
        want = base + (lam - base) * (1.0 - decay * 0.1) + excite
        assert advance_intensity(lam, base, decay, excite, 0.1).tobytes() == want.tobytes()
        # a node's baseline and decay broadcast over its members
        row = base[0] + (lam - base[0]) * (1.0 - decay[0] * 0.1) + excite
        assert advance_intensity(lam, base[0], decay[0], excite, 0.1).tobytes() == row.tobytes()
        out, work = np.empty_like(lam), np.empty_like(lam)
        assert advance_intensity(lam, base, decay, excite, 0.1, out, work) is out
        assert out.tobytes() == want.tobytes()
        assert advance_intensity(lam, base, decay, excite, 0.1, out=lam) is lam
        assert lam.tobytes() == want.tobytes()


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

    def test_supercritical_intensity_names_its_step_and_node(self):
        # the intensity outgrows numpy's Poisson draw, which used to end the run with "lam value too large"
        params = HawkesParams([1.0, 1.0], [1.0, 1.0], [[5.0, 5.0], [5.0, 5.0]])
        with pytest.raises(ValueError, match=r"intensity of node 0 at step 79 is too large for a Poisson draw; "
                                             "the excitation is too strong"):
            simulate(params, 0.1, 2000, seed=0)


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
        with pytest.raises(ValueError, match="node label 'a' is repeated"):
            CountSeries(np.zeros((3, 3), dtype=np.uint64), 0.1, node_labels=["a", "b", "a"])

    @pytest.mark.parametrize("big", [2.0**64, 1e300])
    def test_count_series_refuses_float_counts_beyond_uint64(self, big):
        # these used to wrap in the uint64 cast, to 0
        with pytest.raises(ValueError, match=re.escape("counts must lie in 0 .. 2**64 - 1")):
            CountSeries(np.array([[big]]), 0.1)

    def test_count_series_keeps_a_uint64_array(self):
        counts = np.zeros((3, 2), dtype=np.uint64)
        assert CountSeries(counts, 0.1).counts is counts
        largest = np.nextafter(2.0**64, 0.0)  # the largest float count that fits
        assert CountSeries(np.array([[largest]]), 0.1).counts[0, 0] == int(largest)

    @pytest.mark.parametrize("dt", [np.inf, np.nan])
    def test_count_series_refuses_a_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            CountSeries(np.zeros((2, 2), dtype=int), dt)

    @pytest.mark.parametrize("bad", [2.5, np.nan, np.inf, -1.0])
    def test_count_series_rejects_non_counts(self, bad):
        # inf used to pass and be cast to an arbitrary uint64
        with pytest.raises(ValueError, match="finite, non-negative integers"):
            CountSeries(np.array([[0.0, 1.0], [2.0, bad]]), 0.1)

    # object (an int past 64 bits), string and complex arrays have no order to check
    @pytest.mark.parametrize("counts", [np.array([[2**64]]), np.array([["1"]]), np.array([[1 + 0j]])])
    def test_count_series_rejects_arrays_of_other_kinds(self, counts):
        with pytest.raises(ValueError, match="finite, non-negative integers"):
            CountSeries(counts, 0.1)

    @given(
        data=st.data(),
        n=st.integers(0, 20),
        m=st.integers(0, 8),
        dt=st.sampled_from([0.1, 0.25, 1.0, 1e-300, 3e9]) | st.floats(1e-12, 1e12),
        chunk=st.sampled_from([1, 7, hawkes.WRITE_CHUNK_CELLS]),
    )
    @settings(max_examples=100, deadline=None)
    def test_counts_csv_bytes_match_csv_writer(self, data, n, m, dt, chunk):
        counts = data.draw(arrays(np.uint64, (n, m), elements=st.integers(0, 2**64 - 1)))
        labels = data.draw(st.none() | st.lists(LABEL_TEXT, min_size=m, max_size=m, unique=True))
        series = CountSeries(counts, dt, node_labels=labels)
        params = scalar_params()
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
            with patch.object(hawkes, "WRITE_CHUNK_CELLS", chunk):  # rows split across chunks too
                save_count_series(series, new, seed=3, params=params)
            oracles.save_count_series(series, old, seed=3, params=params)
            for suffix in (".csv", ".json"):
                assert new.with_suffix(suffix).read_bytes() == old.with_suffix(suffix).read_bytes()

    def test_count_series_csv_round_trip(self, tmp_path):
        params = scalar_params(mu=2.0, beta=2.0, alpha=0.5)
        series = simulate(params, 0.25, 40, seed=1)
        path = tmp_path / "counts.csv"
        save_count_series(series, path, seed=1, params=params)
        loaded, meta = load_count_series(path)
        assert np.array_equal(loaded.counts, series.counts)
        assert loaded.dt == series.dt
        assert loaded.node_labels == ["node_1"]
        # the CSV holds the labels and the shape, the sidecar only what it cannot
        assert set(meta) == {"dt", "seed", "params"}
        assert meta["seed"] == 1
        assert meta["params"]["beta"] == [2.0]
        header = path.read_text().splitlines()[0]
        assert header == "t,node_1"

    @pytest.mark.parametrize("text, message", [
        ("", "empty file, no header row"),
        ("t,a,a\n0,1,2\n", "node label 'a' is repeated"),
        ("t,a,b\n0,1,2\n0.1,-2,0\n", r"line 3: counts must lie in 0 \.\. 2\*\*64 - 1"),
        ("t,a,b\n0,1,2\n0.1,18446744073709551616,0\n", r"line 3: counts must lie in 0 \.\. 2\*\*64 - 1"),
        ("t,a,b\n0,1\n", "line 2: need a time and 2 counts, not 2 cells"),
        ("t,a,b\n0,1,2\n\n", "line 3: need a time and 2 counts, not 0 cells"),
        ("t,a,b\n0,1,2,3\n", "line 2: need a time and 2 counts, not 4 cells"),
        ("t,a,b\n0,2.5,1\n", "line 2: invalid literal for int"),
    ])
    def test_bad_counts_csv_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "counts.csv"
        path.write_text(text)
        path.with_suffix(".json").write_text(json.dumps({"dt": 0.1}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_count_series(path)

    @pytest.mark.parametrize("sidecar", [{"dt": True}, {"dt": "0.1"}, {"seed": 1}, [0.1]])
    def test_sidecar_dt_must_be_a_number(self, tmp_path, sidecar):
        # float() read true as dt = 1.0 and the string "0.1" as 0.1; a missing dt was a bare KeyError
        path = tmp_path / "counts.csv"
        path.write_text("t,a\n0,1\n")
        path.with_suffix(".json").write_text(json.dumps(sidecar))
        message = f"{path.with_suffix('.json')}: dt must be a finite number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_count_series(path)

    def test_counts_csv_edge_values_load(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("t,a,b\n0,0,18446744073709551615\n0.1, 7,+3\n")
        path.with_suffix(".json").write_text(json.dumps({"dt": 0.1}))
        series, _ = load_count_series(path)
        assert series.counts.tolist() == [[0, 2**64 - 1], [7, 3]]
        path.write_text("t,a,b\n")
        assert load_count_series(path)[0].counts.shape == (0, 2)


# cells that int() reads, and cells that make their row bad
COUNT_CELLS = ["0", "7", "42", "007", " 7", "+3", "1_0", "\uff13", "18446744073709551615", "10000000000000000000"]
BAD_CELLS = ["-2", "18446744073709551616", "99999999999999999999", "2.5", "", "x", "1e3", "\x00", "7\x00"]
COUNT_LABELS = ["a", "b", "n3", "n4", "n5", "c,d", 'q"', "x\ny", " s ", "\u00e9"]


@st.composite
def count_tables(draw):
    """A counts CSV's rows: a header (labels may need quotes or repeat), times
    and whole counts, and at times one bad row: a bad cell, a cell too many or
    too few, or a blank line."""
    m = draw(st.integers(0, 5))
    pool = COUNT_LABELS[:5 + 5 * draw(st.booleans())]  # the last five need quotes
    labels = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m, unique=True))
    if m > 1 and draw(st.integers(0, 7)) == 0:
        labels[-1] = labels[0]
    cell = st.integers(0, 2**64 - 1).map(str) | st.integers(0, 12).map(str) | st.sampled_from(COUNT_CELLS)
    rows = [["t", *labels]]
    for k in range(draw(st.integers(0, 20))):
        rows.append([f"{0.1 * k:.10g}", *(draw(cell) for _ in range(m))])
    if draw(st.booleans()):
        row = [draw(st.sampled_from(["0", "x", ""])), *(draw(cell) for _ in range(m))]
        kind = draw(st.sampled_from(["cell", "more", "fewer", "blank"]))
        if kind == "cell" and m:
            row[draw(st.integers(1, m))] = draw(st.sampled_from(BAD_CELLS))
        row = {"more": row + ["1"], "fewer": row[:-1], "blank": []}.get(kind, row)
        rows.insert(draw(st.integers(1, len(rows))), row)
    return rows


@given(count_tables(), st.sampled_from(["\r\n", "\n", "\r"]), st.booleans(), st.sampled_from([1, 7, 64, 1 << 17]))
@settings(max_examples=300, deadline=None)
def test_load_count_series_matches_oracle(tmp_path_factory, rows, terminator, last_newline, chunk):
    path = tmp_path_factory.getbasetemp() / "oracle_counts.csv"
    with path.open("w", newline="") as fh:
        fh.write(csv_text(rows, terminator, last_newline))
    path.with_suffix(".json").write_text(json.dumps({"dt": 0.25, "seed": 3, "params": None}))
    with patch.object(hawkes, "READ_CHUNK_CHARS", chunk), patch.object(hawkes, "ROW_CHUNK_CELLS", chunk):
        got, want = read_both(load_count_series, oracles.load_count_series, path)
    if isinstance(want, str):
        assert got == want
        return
    (series, meta), (want_series, want_meta) = got, want
    assert series.counts.dtype == want_series.counts.dtype == np.uint64
    assert np.array_equal(series.counts, want_series.counts) and series.counts.shape == want_series.counts.shape
    assert (series.dt, series.node_labels, meta) == (want_series.dt, want_series.node_labels, want_meta)
