import json
import math
import multiprocessing
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from countnet import filtering, rng
from countnet.filtering import (
    Ensemble,
    Filter,
    FilterConfig,
    FilterDivergence,
    FilterResult,
    GammaSpec,
    analytic_posterior,
    enkf_regress,
    ensemble_moments,
    init_ensemble,
    load_ensemble_snapshots,
    pg_analysis,
    run_filter,
    save_filter_result,
)
from countnet.hawkes import CountSeries, HawkesParams
from countnet.network import error_metrics
import oracles
from oracles import analyze_rows


def gen(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def gamma_ensemble(mean, rel_var, M, seed=0):
    """Members drawn from a gamma with the given mean and relative variance."""
    shape = 1.0 / rel_var
    scale = mean * rel_var
    return gen(seed).gamma(shape, scale, size=M)


class TestAnalyticPosterior:
    def test_single_count(self):
        mean, rel_var = analytic_posterior(2.0, 0.5, 1, 0.1)
        assert mean == pytest.approx(2.0 + (2.0 / 2.2) * 0.8, rel=1e-15)
        assert mean == pytest.approx(2.727272727272727, rel=1e-12)
        assert rel_var == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_zero_innovation_keeps_mean(self):
        mean, rel_var = analytic_posterior(10.0, 0.5, 1, 0.1)
        assert mean == pytest.approx(10.0, rel=1e-15)
        assert rel_var == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_zero_count_shifts_mean_only(self):
        mean, rel_var = analytic_posterior(2.0, 0.5, 0, 0.1)
        assert mean == pytest.approx(2.0 - (2.0 / 2.2) * 0.2, rel=1e-15)
        assert mean == pytest.approx(1.8181818181818181, rel=1e-12)
        assert rel_var == 0.5  # bitwise: no information in a zero count

    def test_input_validation(self):
        for bad in [(-1.0, 0.5, 1, 0.1), (1.0, 0.0, 1, 0.1), (1.0, 0.5, -1, 0.1), (1.0, 0.5, 1, 0.0)]:
            with pytest.raises(ValueError):
                analytic_posterior(*bad)

    @given(
        mean=st.floats(0.05, 30),
        rel_var=st.floats(0.01, 3),
        dN=st.integers(0, 20),
        dt=st.floats(0.01, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone_information(self, mean, rel_var, dN, dt):
        post_mean, post_rv = analytic_posterior(mean, rel_var, dN, dt)
        assert post_mean > 0
        assert 1.0 / post_rv >= 1.0 / rel_var
        if dN == 0:
            assert post_rv == rel_var
        else:
            assert 1.0 / post_rv > 1.0 / rel_var


class TestPgAnalysis:
    def test_zero_count_closed_form(self):
        # members [1, 1, 3, 3]: mean 2, rel var 1/3 exactly
        lam_f = np.array([1.0, 1.0, 3.0, 3.0])
        lam_a, diag = pg_analysis(lam_f, 0, 0.1, gen(0))
        expect_mean, expect_rv = analytic_posterior(2.0, diag.prior_rel_var, 0, 0.1)
        assert diag.post_mean == expect_mean
        assert diag.post_rel_var == diag.prior_rel_var  # bitwise
        # relative deviations preserved: construction lam_a = post_mean * (1 + u)
        u = lam_f / 2.0 - 1.0
        assert np.array_equal(lam_a, diag.post_mean * (1.0 + u))
        emp_u = lam_a / lam_a.mean() - 1.0
        assert np.allclose(emp_u, u, atol=1e-13)

    def test_zero_count_posterior_mean_value(self):
        lam_f = np.array([1.0, 1.0, 3.0, 3.0])
        _, diag = pg_analysis(lam_f, 0, 0.1, gen(0))
        # prior rel var exactly 1/3: post mean = 2 - 2/(3 + 0.2) * 0.2
        assert diag.post_mean == pytest.approx(1.875, rel=1e-12)

    def test_degenerate_ensemble_is_fixed_point(self):
        # a flat row with a count draws, at weight 0
        lam_f, g = np.full(16, 2.5), gen(0)
        lam_a, diag = pg_analysis(lam_f, 3, 0.1, g)
        assert diag.degenerate
        assert stream_state(g) != stream_state(gen(0))
        assert np.array_equal(lam_a, lam_f)
        assert diag.post_mean == diag.prior_mean
        assert diag.post_rel_var == 0.0

    def test_monte_carlo_matches_analytic_oracle(self):
        # high-M run lands on the conjugate posterior of the empirical prior
        M = 50_000
        lam_f = gamma_ensemble(2.0, 0.5, M, seed=11)
        lam_a, diag = pg_analysis(lam_f, 1, 0.1, gen(12))
        expect_mean, expect_rv = analytic_posterior(
            float(lam_f.mean()), diag.prior_rel_var, 1, 0.1
        )
        emp_mean = lam_a.mean()
        emp_rv = lam_a.var(ddof=1) / emp_mean**2
        assert abs(emp_mean - expect_mean) / expect_mean < 0.01
        assert abs(emp_rv - expect_rv) / expect_rv < 0.03
        # and close to the nominal-configuration values
        assert emp_mean == pytest.approx(2.727272, rel=0.02)
        assert emp_rv == pytest.approx(1.0 / 3.0, rel=0.05)

    def test_members_respect_floor(self):
        lam_f = np.array([1e-6, 1e-6, 5.0, 5.0])
        lam_a, _ = pg_analysis(lam_f, 2, 0.5, gen(3))
        assert (lam_a >= filtering.POSITIVITY_FLOOR).all()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pg_analysis(np.array([1.0, -1.0]), 1, 0.1, gen(0))
        with pytest.raises(ValueError):
            pg_analysis(np.array([1.0]), 1, 0.1, gen(0))
        with pytest.raises(ValueError):
            pg_analysis(np.array([1.0, 2.0]), -1, 0.1, gen(0))


def stream_state(g):
    return json.dumps(g.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def kernel(lam_f, counts, floor, streams, out=None, work=None):
    """The batched analysis of one bin as ``Filter`` runs it, into new boards if None: a block of
    one bin's draws from ``streams`` into ``work[1]``, then ``_analyze_rows`` (``work[0]`` its ``ydev``)."""
    out = np.empty_like(lam_f) if out is None else out
    ydev, t = np.empty((2, *lam_f.shape)) if work is None else work
    filtering._draw_block(streams, counts[None], t[None])
    with np.errstate(divide="ignore"):
        return filtering._analyze_rows(lam_f, counts, 0.1, floor, t, out, ydev)[:2]


def kernel_against_oracle(lam_f, counts, floor=filtering.POSITIVITY_FLOOR, seed=5):
    """Run the batched analysis and the per-row oracle on fresh, equal streams; assert equal bits."""
    counts = np.asarray(counts, dtype=np.float64)
    rows = range(lam_f.shape[0])
    got_streams = rng.node_streams(seed, rng.ANALYSIS, rows)
    want_streams = rng.node_streams(seed, rng.ANALYSIS, rows)
    got, got_diag = kernel(lam_f.copy(), counts, floor, got_streams)
    want, want_diag = analyze_rows(lam_f.copy(), counts, 0.1, floor, want_streams)
    assert got.tobytes() == want.tobytes()
    for key, value in vars(got_diag).items():
        assert value.tobytes() == getattr(want_diag, key).tobytes(), key
    assert [stream_state(g) for g in got_streams] == [stream_state(g) for g in want_streams]
    # a row draws if and only if its count is at least 1, a flat row too
    fresh = rng.node_streams(seed, rng.ANALYSIS, rows)
    for i, count in enumerate(counts):
        assert (stream_state(got_streams[i]) != stream_state(fresh[i])) == (count >= 1)
    return got, got_diag


def gamma_board(n_rows, M, seed=0):
    return np.random.default_rng(seed).gamma(2.0, 1.5, size=(n_rows, M)) + 0.01


class TestAnalyzeRowsOracle:
    """The batched intensity analysis against the per-row reference, bit for bit."""

    def test_all_zero_counts(self):
        kernel_against_oracle(gamma_board(5, 40), np.zeros(5))

    def test_constant_rows(self):
        lam_a, diag = kernel_against_oracle(np.full((3, 16), 2.5), [0.0, 3.0, 10.0])
        assert diag.degenerate.all()

    def test_mixed_zero_degenerate_and_active_rows(self):
        lam_f = gamma_board(7, 30, seed=1)
        lam_f[[1, 4]] = [[0.5], [4.0]]
        lam_a, diag = kernel_against_oracle(lam_f, [0, 2, 5, 0, 1, 3, 12])
        assert list(np.flatnonzero(diag.degenerate)) == [1, 4]

    @pytest.mark.parametrize("M", [2, 500])
    def test_member_counts(self, M):
        kernel_against_oracle(gamma_board(4, M, seed=M), [1, 0, 4, 7])

    def test_counts_of_one_and_ten_thousand(self):
        kernel_against_oracle(gamma_board(4, 64, seed=2), [1, 10_000, 1, 10_000])

    def test_active_floor_clamp(self):
        lam_f = gamma_board(4, 64, seed=3)
        lam_a, _ = kernel_against_oracle(lam_f, [2, 1, 0, 5], floor=1.0)
        assert (lam_a == 1.0).any()

    def test_single_row_board(self):
        kernel_against_oracle(gamma_board(1, 50, seed=4), [3])

    def test_a_flat_row_with_a_count_draws_and_keeps_a_times_lam_f(self):
        # its weight c is 0, so b = 0 and the members are a * lam_f, whatever the draws
        lam_f = gamma_board(3, 20, seed=6)
        lam_f[1] = 2.5
        lam_a, diag = kernel_against_oracle(lam_f, [2, 4, 0])  # row 1's stream advances
        assert diag.degenerate.tolist() == [False, True, False]
        a = diag.post_mean[1] * (1.0 - 0.0) / diag.prior_mean[1]
        assert lam_a[1].tobytes() == np.maximum(lam_f[1] * a, filtering.POSITIVITY_FLOOR).tobytes()

    # one bin; a block of 12 bins of 9 members, one call per row with an array of shapes (row 2 has
    # no counted bin), also with few counted bins among zeros; of 300 members, one call per bin
    @pytest.mark.parametrize("bins, M, zeros", [(1, 9, 0.0), (12, 9, 0.0), (12, 300, 0.0), (12, 9, 0.6)])
    def test_a_block_of_bins_draws_the_bits_of_its_bins(self, bins, M, zeros):
        # each bin gets the bits of a generator call of its own; a zero count draws nothing and
        # its slots hold 1.0
        source = gen(bins)
        counts = (source.poisson(3.0, size=(bins, 4)) + 1) * (source.random((bins, 4)) >= zeros)
        counts[:, 2] = 0
        block_streams, bin_streams = (rng.node_streams(3, rng.ANALYSIS, range(4)) for _ in range(2))
        got = filtering._draw_block(block_streams, counts.astype(np.float64), np.full((bins, 4, M), np.nan))
        for k, row in enumerate(counts):
            for r, count in enumerate(row):
                want = bin_streams[r].standard_gamma(count, size=M) if count >= 1 else np.ones(M)
                assert got[k, r].tobytes() == want.tobytes()
        assert [stream_state(g) for g in block_streams] == [stream_state(g) for g in bin_streams]


@st.composite
def analysis_calls(draw):
    """A board shape, a stream seed and 1-3 kernel calls on it: forecast rows of gamma members,
    some of them flat, and counts that mix zeros, ones and values up to 1e4."""
    n_rows, M = draw(st.integers(1, 30)), draw(st.integers(2, 80))
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        shape = draw(st.sampled_from([0.2, 2.0, 50.0]))
        lam_f = np.maximum(gen.gamma(shape, 1.5, size=(n_rows, M)), filtering.POSITIVITY_FLOOR)
        flat = draw(arrays(np.bool_, n_rows))
        lam_f[flat] = gen.uniform(1e-8, 10.0, size=(flat.sum(), 1))
        count = st.sampled_from([0.0, 1.0, 1e4]) | st.integers(0, 10_000).map(float)
        calls.append((lam_f, draw(arrays(np.float64, n_rows, elements=count))))
    return draw(st.integers(0, 2**32 - 1)), calls


class TestAnalyzeRowsProperty:
    @given(analysis_calls(), st.sampled_from([filtering.POSITIVITY_FLOOR, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_reused_boards_match_both_oracles(self, case, floor):
        # as in Filter, every call writes the same out board and works in the same two boards,
        # which start out holding NaN
        seed, calls = case
        n_rows, M = calls[0][0].shape
        streams, per_row, board = (rng.node_streams(seed, rng.ANALYSIS, range(n_rows)) for _ in range(3))
        lam_f, out, work = np.empty((n_rows, M)), np.full((n_rows, M), np.nan), np.full((2, n_rows, M), np.nan)
        for values, counts in calls:
            lam_f[...] = values
            before = [stream_state(g) for g in streams]
            got, got_diag = kernel(lam_f, counts, floor, streams, out, work)
            assert got is out
            for want, want_diag in (analyze_rows(values, counts, 0.1, floor, per_row),
                                    oracles.board_analysis(values, counts, 0.1, floor, board)):
                assert got.tobytes() == want.tobytes()
                for key, value in vars(got_diag).items():
                    assert value.tobytes() == getattr(want_diag, key).tobytes(), key
            after = [stream_state(g) for g in streams]
            assert after == [stream_state(g) for g in per_row] == [stream_state(g) for g in board]
            # a row draws if and only if its count is at least 1, a flat row too
            assert [a != b for a, b in zip(before, after)] == (counts >= 1).tolist()


class TestCountValidation:
    """Counts must be finite, non-negative integers for the analysis and the step."""

    BAD = [2.5, np.nan, np.inf, -1.0]

    @pytest.mark.parametrize("bad", BAD)
    def test_pg_analysis_rejects(self, bad):
        with pytest.raises(ValueError, match="finite, non-negative integers"):
            pg_analysis(np.array([1.0, 2.0, 3.0]), bad, 0.1, gen(0))

    @pytest.mark.parametrize("bad", BAD)
    def test_assimilate_step_rejects(self, bad):
        _, _, init, cfg = toy_filter_setup()
        filt = Filter(init, DT, cfg)
        with pytest.raises(ValueError, match="finite, non-negative integers"):
            filt.assimilate_step(np.array([1.0, bad, 0.0]))
        assert filt.k == 0

    def test_whole_counts_accepted(self):
        _, _, init, cfg = toy_filter_setup()
        Filter(init, DT, cfg).assimilate_step(np.array([0.0, 3.0, 1e4]))
        pg_analysis(np.array([1.0, 2.0, 3.0]), np.float64(4.0), 0.1, gen(0))

    def test_unsigned_rows_skip_the_check_with_the_same_bits(self, monkeypatch):
        _, data, init, cfg = toy_filter_setup(n_steps=20)
        checked = Filter(init, DT, cfg)
        want = [vars(checked.assimilate_step(row.astype(float))) for row in data.counts]
        # a uint64 row meets the counts rule by its type, so the step does not check it again
        monkeypatch.setattr(filtering, "check_counts", None)
        unchecked = Filter(init, DT, cfg)
        for row, diag in zip(data.counts, want):
            assert row.dtype == np.uint64
            got = vars(unchecked.assimilate_step(row))
            assert all(np.array_equal(got[key], value) for key, value in diag.items())
        for a, b in zip(vars(unchecked.ensembles()).values(), vars(checked.ensembles()).values()):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestEnkfRegress:
    def test_hand_example(self):
        q = np.array([[1.0], [2.0], [3.0]])
        lam_f = np.array([2.0, 4.0, 6.0])
        lam_a = np.array([3.0, 4.0, 5.0])
        q_a = enkf_regress(q, lam_f, lam_a)
        # YY' = 4, YaYa' = 1, XY' = 2, gain = 0.4
        assert np.allclose(q_a[:, 0], [1.4, 2.0, 2.6], atol=1e-12)

    def test_zero_innovation_identity(self):
        q = gen(0).gamma(2.0, 1.0, size=(32, 4))
        lam = gen(1).gamma(2.0, 1.0, size=32) + 0.5
        assert np.array_equal(enkf_regress(q, lam, lam.copy()), q)

    def test_zero_parameter_spread_identity(self):
        q = np.full((32, 4), 1.7)
        lam_f = gen(2).gamma(2.0, 1.0, size=32) + 0.5
        lam_a = lam_f * 1.1
        assert np.array_equal(enkf_regress(q, lam_f, lam_a), q)

    def test_zero_signal_returns_input(self):
        q = gen(0).gamma(2.0, 1.0, size=(8, 3))
        lam = np.full(8, 2.0)
        q_a = enkf_regress(q, lam, lam.copy())
        assert np.array_equal(q_a, q)

    def test_negative_parameters_clamped(self):
        q = np.array([[0.01], [0.02], [0.03]])
        lam_f = np.array([1.0, 2.0, 3.0])
        lam_a = np.array([5.0, 2.0, -1.0 + 2.0])  # big innovations
        q_a = enkf_regress(q, lam_f, lam_a)
        assert (q_a >= 0).all()

    def test_zero_parameter_spread_drifts_by_round_off_only(self):
        # the forecast deviations sum to zero only up to round-off, so a
        # constant column moves by a few ulps of its level, scaled by
        # kappa = mean(lam_f) * max|innovation| / (forecast + analysis var)
        g = gen(11)
        moved = kept = 0
        for M in (2, 3, 5, 8, 32, 100, 500):
            for level in (1e-6, 1e-3, 0.37, 1.7, 42.0, 3e4):
                for _ in range(20):
                    lam_f = g.gamma(2.0, 1.0, size=M) + 0.5
                    for lam_a in (
                        lam_f * g.uniform(0.8, 1.2),
                        np.maximum(lam_f + g.normal(0, 0.5, size=M), 1e-8),
                    ):
                        q_a = enkf_regress(np.full((M, 3), level), lam_f, lam_a)
                        drift = np.abs(q_a - level).max() / np.spacing(level)
                        ydev, yadev = lam_f - lam_f.mean(), lam_a - lam_a.mean()
                        denom = (ydev @ ydev + yadev @ yadev) / (M - 1)
                        kappa = lam_f.mean() * np.abs(lam_a - lam_f).max() / denom
                        assert drift <= 4 * max(1.0, kappa)
                        if M >= 8:
                            assert drift <= 8
                        moved += drift > 0
                        kept += drift == 0
        # the fixed point is bitwise on some inputs only
        assert moved > 0 and kept > 0

    def test_update_confined_to_deviation_subspace(self):
        M, p = 40, 5
        q = gen(8).gamma(4.0, 1.0, size=(M, p)) + 2.0  # keep clamping inactive
        lam_f = gen(9).gamma(3.0, 0.7, size=M) + 0.5
        lam_a = lam_f + gen(10).normal(0, 0.1, size=M)
        q_a = enkf_regress(q, lam_f, lam_a)
        X = (q - q.mean(axis=0)).T / np.sqrt(M - 1)  # p x M deviation matrix
        delta = (q_a - q).T  # p x M
        # project member updates onto the orthogonal complement of span(X)
        basis, _, _ = np.linalg.svd(X, full_matrices=False)
        residual = delta - basis @ (basis.T @ delta)
        assert np.abs(residual).max() < 1e-10


class TestInitEnsemble:
    def test_prior_moments(self):
        M = 100_000
        ens = init_ensemble(2, M, GammaSpec(6.0, 8.0), GammaSpec(6.0, 8.0), GammaSpec(1.5, 0.25), seed=4).draw()
        for e in ens:
            for values, mean, var in [
                (e.baseline, 6.0, 8.0),
                (e.decay, 6.0, 8.0),
                (e.excitation.ravel(), 1.5, 0.25),
            ]:
                n = values.size
                se_mean = np.sqrt(var / n)
                assert abs(values.mean() - mean) < 3 * se_mean
                assert abs(values.var(ddof=1) - var) / var < 0.05

    def test_intensity_starts_at_member_baseline(self):
        ens = init_ensemble(3, 50, GammaSpec(2.0, 1.0), GammaSpec(5.0, 2.0), GammaSpec(1.0, 0.3), seed=1).draw()
        for e in ens:
            assert np.array_equal(e.intensity, e.baseline)

    def test_degenerate_prior(self):
        ens = init_ensemble(1, 10, GammaSpec(2.0, 0.0), GammaSpec(5.0, 0.0), GammaSpec(1.0, 0.0), seed=0).draw()
        assert np.array_equal(ens[0].params, np.tile([2.0, 5.0, 1.0], (10, 1)))

    def test_per_node_streams_are_stable(self):
        full = init_ensemble(4, 20, GammaSpec(2.0, 1.0), GammaSpec(5.0, 2.0), GammaSpec(1.0, 0.3), seed=9).draw()
        # drawing fewer nodes does not shift later nodes' draws
        small = init_ensemble(2, 20, GammaSpec(2.0, 1.0), GammaSpec(5.0, 2.0), GammaSpec(1.0, 0.3), seed=9).draw()
        assert np.array_equal(full[0].baseline, small[0].baseline)
        assert np.array_equal(full[1].decay, small[1].decay)


class TestPriorSource:
    """The stream contract of init_ensemble's source: any split of its rows fills one draw's bits."""

    PRIORS = (GammaSpec(2.0, 1.0), GammaSpec(5.0, 2.0), GammaSpec(1.0, 0.3))

    def test_draw_matches_the_whole_board_draw(self):
        for m, M in ((1, 2), (5, 9), (7, 40)):
            board = init_ensemble(m, M, *self.PRIORS, seed=m).draw()
            reference = oracles.init_board(m, M, *self.PRIORS, seed=m)
            assert board.intensity.tobytes() == reference.intensity.tobytes()
            assert board.params.tobytes() == reference.params.tobytes()

    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_contiguous_row_splits_fill_the_draw(self, parts):
        source = init_ensemble(7, 9, *self.PRIORS, seed=5)
        whole = source.draw()
        intensity, params = np.full_like(whole.intensity, np.nan), np.full_like(whole.params, np.nan)
        for part in np.array_split(range(7), parts):
            rows = slice(part[0], part[-1] + 1)
            source.fill(rows, intensity[rows], params[rows])
        assert intensity.tobytes() == whole.intensity.tobytes()
        assert params.tobytes() == whole.params.tobytes()

    def test_filter_from_either_source(self):
        _, data, _, cfg = toy_filter_setup(m=4, M=20, n_steps=6)
        source = init_ensemble(4, 20, *self.PRIORS, seed=3)
        filters = Filter(source, DT, cfg), Filter(source.draw(), DT, cfg)
        sub = Filter(source, DT, cfg, rows=slice(1, 3)), Filter(source.draw().take(slice(1, 3)), DT, cfg)
        for row in [None, *data.counts]:
            for filt in (*filters, *sub):
                if row is not None:
                    filt.assimilate_step(row)
            for a, b in (filters, sub):
                assert a.ensembles().nodes.tolist() == b.ensembles().nodes.tolist()
                assert a.ensembles().intensity.tobytes() == b.ensembles().intensity.tobytes()
                assert a.ensembles().params.tobytes() == b.ensembles().params.tobytes()

    def test_run_filter_from_either_source(self):
        truth, data, _, cfg = toy_filter_setup(m=5, M=16, n_steps=12, record_intensity_history=True)
        source = init_ensemble(5, 16, *self.PRIORS, seed=2)
        reference = run_filter(data, source.draw(), cfg, truth=truth)
        for init in (source, source.draw()):
            for workers in (1, 2, 3):
                res = run_filter(data, init, cfg, workers=workers, truth=truth)
                assert res.ensembles.intensity.tobytes() == reference.ensembles.intensity.tobytes()
                assert res.ensembles.params.tobytes() == reference.ensembles.params.tobytes()
                for key in HISTORY_KEYS:
                    assert res.history[key].tobytes() == reference.history[key].tobytes()


class TestEnsemble:
    def test_rows_are_node_views(self):
        ens = init_ensemble(3, 8, GammaSpec(2.0, 1.0), GammaSpec(5.0, 2.0), GammaSpec(1.0, 0.3), seed=1).draw()
        assert len(ens) == 3
        assert [e.node_index for e in ens] == [0, 1, 2]
        row = ens[-1]
        assert row.node_index == 2 and row.params.shape == (8, 5)
        row.params[0, 2] = 7.0  # a view: the board sees the write
        assert ens.params[2, 0, 2] == 7.0
        with pytest.raises(TypeError):
            ens[0:2]

    def test_take_picks_rows_in_any_order(self):
        ens = init_ensemble(4, 6, GammaSpec(2.0, 1.0), GammaSpec(5.0, 2.0), GammaSpec(1.0, 0.3), seed=2).draw()
        sub = ens.take([3, 1])
        assert sub.nodes.tolist() == [3, 1] and sub.m == 4
        assert np.array_equal(sub.params, ens.params[[3, 1]])
        assert np.array_equal(sub[0].intensity, ens[3].intensity)
        assert ens.take(slice(1, 3)).params.base is not None  # a slice gives views

    def test_values_are_checked_by_node(self):
        ens = init_ensemble(3, 6, GammaSpec(2.0, 1.0), GammaSpec(5.0, 2.0), GammaSpec(1.0, 0.3), seed=3).draw()
        for bad in (np.nan, np.inf, -np.inf, -0.5):
            params = ens.params.copy()
            params[1, 2, 3] = bad
            with pytest.raises(ValueError, match="node 2's parameter members must be finite and non-negative"):
                Ensemble(ens.intensity, params, nodes=[0, 2, 1])
            intensity = ens.intensity.copy()
            intensity[2, 0] = bad
            with pytest.raises(ValueError, match="node 2's intensity members"):
                Ensemble(intensity, ens.params)


DT = 0.1  # bin width of the toy runs


def toy_truth(m):
    return HawkesParams(np.full(m, 2.0), np.full(m, 5.0), 0.4 * np.eye(m) + 0.2)


def toy_filter_setup(m=3, M=60, n_steps=40, seed=2, **cfg_kw):
    from countnet.experiments import toy_priors
    from countnet.hawkes import simulate

    truth = toy_truth(m)
    data = simulate(truth, DT, n_steps, seed)
    init = init_ensemble(m, M, *toy_priors(1.0, 1.0), seed=seed).draw()
    cfg = FilterConfig(seed=seed, **cfg_kw)
    return truth, data, init, cfg


def one_step(init, counts, cfg):
    filt = Filter(init, DT, cfg)
    diag = filt.assimilate_step(counts)
    return filt.ensembles(), diag


def public_op_step(e, count, cfg):
    """One node's first step from the public single-node ops (zero previous counts)."""
    lam_0 = np.maximum(e.intensity, filtering.POSITIVITY_FLOOR)
    prev = np.zeros(e.excitation.shape[1])
    lam_f = e.baseline + (lam_0 - e.baseline) * (1.0 - e.decay * DT) + e.excitation @ prev
    lam_f = np.maximum(lam_f, filtering.POSITIVITY_FLOOR)
    stream = rng.node_stream(cfg.seed, rng.ANALYSIS, e.node_index)
    lam_a, d = pg_analysis(lam_f, count, DT, stream)
    return lam_a, enkf_regress(e.params, lam_f, lam_a), d


class TestAssimilateStep:
    def test_zero_counts_keep_relative_variances(self):
        _, _, init, cfg = toy_filter_setup()
        ens, diag = one_step(init, np.zeros(3), cfg)
        assert np.array_equal(diag.post_rel_var, diag.prior_rel_var)
        assert (diag.innovation <= 0).all()

    def test_matches_public_op_composition(self):
        # one board step equals stage-by-stage application of the public ops
        _, data, init, cfg = toy_filter_setup(m=3)
        counts = data.counts[0].astype(float)
        ens_out, diag = one_step(init, counts, cfg)
        for i, e in enumerate(init):
            lam_a, q_a, d = public_op_step(e, int(counts[i]), cfg)
            assert np.array_equal(ens_out[i].intensity, lam_a)
            assert np.array_equal(ens_out[i].params, q_a)
            assert d.post_mean == pytest.approx(float(diag.post_mean[i]), rel=1e-15)

    def test_wrapper_matches_board_row_with_raised_floor(self):
        # priors of gamma shape far below 1 draw most excitation members under the floor,
        # so the clamp is active in the step
        _, data, _, cfg = toy_filter_setup(m=3)
        init = init_ensemble(3, 60, GammaSpec(1.0, 8.0), GammaSpec(1.0, 8.0), GammaSpec(1e-3, 1.0),
                             seed=cfg.seed).draw()
        assert (init.params < filtering.POSITIVITY_FLOOR).sum() > 500
        counts = data.counts[0].astype(float)
        ens_out, _ = one_step(init, counts, cfg)
        clamped = 0
        for i, e in enumerate(init):
            lam_a, q_a, _ = public_op_step(e, int(counts[i]), cfg)
            assert np.array_equal(ens_out[i].intensity, lam_a)
            assert np.array_equal(ens_out[i].params, q_a)
            clamped += int((q_a == filtering.POSITIVITY_FLOOR).sum())
        assert clamped > 500

    def test_single_node_least_squares_oracle(self):
        # posterior parameter mean equals the augmented least-squares estimate
        M = 50_000
        init = init_ensemble(1, M, GammaSpec(2.0, 1.0), GammaSpec(5.0, 3.0), GammaSpec(1.0, 0.25), seed=21).draw()
        cfg = FilterConfig(seed=21)
        e = init[0]
        lam_f = np.maximum(
            e.baseline + (e.intensity - e.baseline) * (1.0 - e.decay * DT),
            filtering.POSITIVITY_FLOOR,
        )
        stream = rng.node_stream(cfg.seed, rng.ANALYSIS, 0)
        lam_a, _ = pg_analysis(lam_f, 2, DT, stream)
        ens_out, _ = one_step(init, np.array([2.0]), cfg)
        design = np.concatenate([lam_f - lam_f.mean(), lam_a - lam_a.mean()])[:, None]
        for j in range(3):
            target = np.concatenate([e.params[:, j] - e.params[:, j].mean(), np.zeros(M)])
            slope = np.linalg.lstsq(design, target, rcond=None)[0][0]
            expected_mean = e.params[:, j].mean() + slope * (lam_a - lam_f).mean()
            assert ens_out[0].params[:, j].mean() == pytest.approx(expected_mean, rel=1e-6)

    def test_dimension_mismatch(self):
        _, _, init, cfg = toy_filter_setup()
        with pytest.raises(ValueError):
            Filter(init, DT, cfg).assimilate_step(np.zeros(4))


class TestRunFilter:
    def test_zero_length_data(self):
        _, _, init, cfg = toy_filter_setup()
        data = CountSeries(np.zeros((0, 3), dtype=np.uint64), 0.1)
        res = run_filter(data, init, cfg)
        for before, after in zip(init, res.ensembles):
            assert np.array_equal(before.intensity, after.intensity)
            assert np.array_equal(before.params, after.params)

    def test_zero_length_data_history(self):
        truth, _, init, cfg = toy_filter_setup(record_intensity_history=True)
        data = CountSeries(np.zeros((0, 3), dtype=np.uint64), 0.1)
        mean, var = Filter(init, DT, cfg).param_moments()
        want = oracles.error_metrics(mean[None], var[None], truth)
        for workers in (1, 2, 3):
            h = run_filter(data, init, cfg, workers=workers, truth=truth).history
            got = error_metrics(h)
            for key in PER_NODE_CURVES:
                assert got[key].shape == (1, 3) and got[key].tobytes() == want[key].tobytes(), key
            assert got["frobenius"].shape == (1,) and got["final"].keys() == want["final"].keys()
            for key in ("prior_mean", "post_mean", "prior_rel_var", "post_rel_var", "innovation"):
                assert h[key].shape == (0, 3)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_steps", [45, 0])
    def test_progress_reports_the_last_step(self, workers, n_steps):
        # every second step of 45 (45 // 20 = 2), then step 45, which that rule misses
        _, data, init, cfg = toy_filter_setup(n_steps=45)
        data = CountSeries(data.counts[:n_steps], DT)
        calls = []
        run_filter(data, init, cfg, workers=workers, progress=lambda k, total: calls.append((k, total)))
        assert calls == [(k, n_steps) for k in (*range(2, n_steps, 2), n_steps) if k]

    def test_seed_determinism(self):
        _, data, init, cfg = toy_filter_setup()
        a = run_filter(data, init, cfg)
        b = run_filter(data, init, cfg)
        for x, y in zip(a.ensembles, b.ensembles):
            assert np.array_equal(x.params, y.params)
            assert np.array_equal(x.intensity, y.intensity)

    def test_worker_counts_bit_identical(self):
        _, data, init, cfg = toy_filter_setup(m=5, M=40, n_steps=25)
        serial = run_filter(data, init, cfg, workers=1)
        for workers in (2, 3):
            parallel = run_filter(data, init, cfg, workers=workers)
            for x, y in zip(serial.ensembles, parallel.ensembles):
                assert np.array_equal(x.params, y.params)
                assert np.array_equal(x.intensity, y.intensity)

    def test_history_parallel_matches_serial(self):
        truth, data, init, cfg = toy_filter_setup(m=4, M=30, n_steps=15, record_intensity_history=True)
        serial = run_filter(data, init, cfg, workers=1, truth=truth)
        parallel = run_filter(data, init, cfg, workers=2, truth=truth)
        for key in HISTORY_KEYS:
            assert serial.history[key].tobytes() == parallel.history[key].tobytes(), key

    @pytest.mark.parametrize("cpus", [1, 8])
    @pytest.mark.parametrize("intensity", [False, True])
    @pytest.mark.parametrize("scored", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_run_records_what_it_is_asked_for(self, monkeypatch, workers, scored, intensity, cpus):
        # besides the board and the history, this process maps only range 0's ring of draw blocks:
        # one block of all 7 bins, or two with a draw helper (8 CPUs)
        truth, data, init, cfg = toy_filter_setup(m=3, M=10, n_steps=7, record_intensity_history=intensity)
        monkeypatch.setattr(filtering, "_usable_cpus", lambda: cpus)
        shared, shapes = filtering._shared, []

        def recorded_shared(shape):
            shapes.append(shape)
            return shared(shape)

        def no_moments(self):
            raise AssertionError("took the parameter moments of a run without a truth")

        monkeypatch.setattr(filtering, "_shared", recorded_shared)
        if not scored:  # forked workers inherit the patch and send back its error
            monkeypatch.setattr(Filter, "param_moments", no_moments)
        history = run_filter(data, init, cfg, workers=workers, truth=truth if scored else None).history
        want = {**dict.fromkeys(filtering._CURVE_KEYS * scored, (8, 3)),
                **dict.fromkeys(filtering._INTENSITY_KEYS * intensity, (7, 3))}
        assert type(history) is dict and {key: curve.shape for key, curve in history.items()} == want
        assert shapes == [(3, 10), (3, 5, 10), *want.values(), (1 + (cpus == 8), 7, 3 - workers // 2, 10)]

    def test_a_truth_of_another_size_is_refused_before_the_run(self, monkeypatch):
        truth, data, init, cfg = toy_filter_setup(m=3, M=10, n_steps=5)

        def no_board(shape):
            raise AssertionError("allocated a board")

        monkeypatch.setattr(filtering, "_shared", no_board)
        for workers in (1, 2):
            with pytest.raises(ValueError, match="the truth is over 4 nodes, the counts over 3"):
                run_filter(data, init, cfg, workers=workers, truth=toy_truth(4))

    def test_param_moments_match_numpy(self):
        _, data, init, cfg = toy_filter_setup(m=4, M=30, n_steps=10)
        filt = Filter(init, DT, cfg)
        for row in data.counts:
            filt.assimilate_step(row.astype(float))
        mean, var = filt.param_moments()
        params = filt.ensembles().params
        assert np.allclose(mean, params.mean(axis=1), rtol=1e-13, atol=0.0)
        assert np.allclose(var, params.var(axis=1, ddof=1), rtol=1e-12, atol=0.0)

    # n=1, M=2, odd M; with BLOCK_ELEMENTS = 2**16, 31 rows of (64, 33) fill
    # exactly one block, and 31 of (65, 33) or 22 of (128, 24) are one row past it
    @pytest.mark.parametrize("m, M", [(6, 500), (26, 64), (3, 7), (2, 12), (1, 40),
                                      (1, 2), (31, 64), (31, 65), (22, 128)])
    def test_ensemble_moments_match_per_node_calls(self, m, M):
        g = gen(m * M)
        init = Ensemble(g.gamma(2.0, size=(m, M)), g.gamma(2.0, size=(m, M, m + 2)))
        mean, var, sd = oracles.param_moments(init.params)
        got_mean, got_sd = ensemble_moments(init)
        assert np.array_equal(got_mean, mean) and np.array_equal(got_sd, sd)
        # truth curves: from the moments of the board after each step, also split across workers
        data = CountSeries(g.poisson(1.0, size=(3, m)).astype(np.uint64), DT)
        cfg, truth = FilterConfig(seed=m), toy_truth(m)
        filt, means, variances = Filter(init, DT, cfg), [], []
        for row in [None, *data.counts]:
            if row is not None:
                filt.assimilate_step(row)
            got_mean, got_var = filt.param_moments()
            mean, var, _ = oracles.param_moments(filt.ensembles().params)
            assert np.array_equal(got_mean, mean) and np.array_equal(got_var, var)
            means.append(mean)
            variances.append(var)
        want = oracles.error_metrics(np.array(means), np.array(variances), truth)
        for workers in (1, 2):
            got = error_metrics(run_filter(data, init, cfg, workers=workers, truth=truth).history)
            for key in PER_NODE_CURVES:
                assert got[key].tobytes() == want[key].tobytes(), key

    # M=2; one block, or blocks of 1 and 2 rows, the last block of 2 one row short
    @pytest.mark.parametrize("block_rows", [None, 1, 2])
    @pytest.mark.parametrize("m, M", [(3, 2), (5, 20)])
    def test_moments_of_every_layout_are_the_same_bits(self, monkeypatch, tmp_path, m, M, block_rows):
        # a run's board is member-minor; its C-order copy and the archive loaded back are read
        # through a copy into the scratch, block by block, and must give the same bits
        _, data, init, cfg = toy_filter_setup(m=m, M=M, n_steps=10)
        if block_rows:
            monkeypatch.setattr(filtering, "BLOCK_ELEMENTS", block_rows * M * (m + 2))
        run = run_filter(data, init, cfg).ensembles
        save_filter_result(FilterResult(run, cfg, 10, DT), tmp_path)
        copy = Ensemble(run.intensity, np.ascontiguousarray(run.params))
        loaded = load_ensemble_snapshots(tmp_path)
        assert not run.params.flags.c_contiguous and copy.params.flags.c_contiguous and loaded.params.flags.c_contiguous
        mean, sd = ensemble_moments(run)
        want_mean, _, want_sd = oracles.param_moments(copy.params)
        assert mean.tobytes() == want_mean.tobytes() and sd.tobytes() == want_sd.tobytes()
        for board in (copy, loaded):
            got_mean, got_sd = ensemble_moments(board)
            assert got_mean.tobytes() == mean.tobytes() and got_sd.tobytes() == sd.tobytes()

    def test_the_ensembles_are_views_of_the_board(self, monkeypatch):
        # Filter's and run_filter's boards are member-minor, (n, m+2, M); their ensembles show
        # them as (n, M, m+2) views with no copy
        _, data, init, cfg = toy_filter_setup(m=3, M=12, n_steps=5)
        shared, boards = filtering._shared, []

        def recorded_shared(shape):
            boards.append(shared(shape))
            return boards[-1]

        monkeypatch.setattr(filtering, "_shared", recorded_shared)
        run = run_filter(data, init, cfg).ensembles
        filt = Filter(init, DT, cfg)
        for row in data.counts:
            filt.assimilate_step(row)
        for ens, lam, board in ((run, *boards[:2]), (filt.ensembles(), filt._lam, filt._params)):
            assert board.shape == (3, 5, 12) and board.flags.c_contiguous
            assert ens.params.shape == (3, 12, 5) and np.shares_memory(ens.params, board)
            assert np.shares_memory(ens.intensity, lam)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_regression_block_size_leaves_the_bits(self, monkeypatch, workers):
        # blocks of 1, 3 and all 5 rows, the last block of 3 one row short
        truth, data, init, cfg = toy_filter_setup(m=5, M=20, n_steps=15, record_intensity_history=True)
        regress, calls = filtering._regress_rows, []

        def counted(q, *args):
            calls.append(len(q))
            regress(q, *args)

        monkeypatch.setattr(filtering, "_regress_rows", counted)
        runs = []
        for rows in (1, 3, 5):
            monkeypatch.setattr(filtering, "BLOCK_ELEMENTS", rows * init.params[0].size)
            calls.clear()
            runs.append(run_filter(data, init, cfg, workers=workers, truth=truth))
            if workers == 1:  # forked workers count in their own processes
                assert calls == [min(rows, 5 - lo) for lo in range(0, 5, rows)] * data.n_steps
        for run in runs[1:]:
            assert np.array_equal(run.ensembles.params, runs[0].ensembles.params)
            assert np.array_equal(run.ensembles.intensity, runs[0].ensembles.intensity)
            for key in HISTORY_KEYS:
                assert np.array_equal(run.history[key], runs[0].history[key])

    @pytest.mark.parametrize("n_steps", [16, 0])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_draw_blocks_leave_the_bits(self, monkeypatch, workers, n_steps):
        # draw blocks of 1 bin, 3 bins (the last of 16 one bin long) and the whole run give the
        # board, the history and the stream states of a Filter stepped bin by bin, which draws a
        # block of one bin at each step; row DEGENERATE_ROW starts flat and draws while flat. A run
        # whose block is one bin long holds no block board: each step draws its own
        truth, data, init, cfg = toy_filter_setup(m=5, M=20, n_steps=16, record_intensity_history=True)
        data = CountSeries(data.counts[:n_steps], DT)
        make_degenerate(init.intensity, init.params)
        target = np.column_stack((truth.baseline, truth.decay, truth.excitation))
        hand = Filter(init, DT, cfg)
        curves, diags = [filtering._truth_curves(hand, target)], []
        for row in data.counts:
            diags.append(hand.assimilate_step(row))
            curves.append(filtering._truth_curves(hand, target))
        assert n_steps == 0 or any(d.degenerate[DEGENERATE_ROW] and row[DEGENERATE_ROW] >= 1
                                   for d, row in zip(diags, data.counts))
        created, node_streams, draw_block, blocks = [], rng.node_streams, filtering._draw_block, []
        assimilate_step, own_draws = Filter.assimilate_step, []

        def recorded(*args):
            created.append(node_streams(*args))
            return created[-1]

        def counted(streams, counts, out):
            blocks.append(len(out))
            return draw_block(streams, counts, out)

        def stepped(filt, counts_next, draws=None):
            own_draws.append(draws is None)
            return assimilate_step(filt, counts_next, draws)

        monkeypatch.setattr(rng, "node_streams", recorded)
        monkeypatch.setattr(filtering, "_draw_block", counted)
        monkeypatch.setattr(Filter, "assimilate_step", stepped)
        monkeypatch.setattr(filtering, "_usable_cpus", lambda: 1)  # draws here, where they are counted
        rows = -(-data.m // workers)  # range 0's, the range of this process
        for bins in (1, 3, max(n_steps, 1)):
            monkeypatch.setattr(filtering, "BLOCK_ELEMENTS", bins * rows * init.M)
            created.clear()
            blocks.clear()
            own_draws.clear()
            run = run_filter(data, init, cfg, workers=workers, truth=truth)
            assert blocks == [min(bins, n_steps - lo) for lo in range(0, n_steps, bins)]
            assert own_draws == [bins == 1] * n_steps
            assert run.ensembles.intensity.tobytes() == hand._lam.tobytes()
            assert run.ensembles.params.tobytes() == hand.ensembles().params.tobytes()
            for key in INTENSITY_KEYS:
                assert run.history[key].tobytes() == np.array([getattr(d, key) for d in diags]).tobytes(), key
            for i, key in enumerate(filtering._CURVE_KEYS):
                assert run.history[key].tobytes() == np.array([c[i] for c in curves]).tobytes(), key
            [streams] = created
            assert [stream_state(g) for g in streams] == [stream_state(g) for g in hand._streams[:rows]]

    @pytest.mark.parametrize("data_case", ["short", "cut", "empty"])
    @pytest.mark.parametrize("intensity", [False, True])
    @pytest.mark.parametrize("scored", [False, True])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_draw_helpers_leave_the_bits(self, monkeypatch, tmp_path, workers, scored, intensity, data_case):
        # a run whose ranges draw their blocks a block ahead in helpers (8 usable CPUs) writes the
        # bytes of one whose ranges draw them inline (1 CPU): 17 bins in one block ("short"), in
        # blocks of 6 inline and 3 with helpers at 5 rows (of 10 and 5 at 3 rows, 15 and 7 at 2),
        # the last cut at the run's end ("cut"), or no bins. A range draws block 0 itself and
        # forks a helper only for a second block
        truth, data, init, cfg = toy_filter_setup(m=5, M=20, n_steps=17, record_intensity_history=intensity)
        data = CountSeries(data.counts[: 0 if data_case == "empty" else 17], DT)
        if data_case == "cut":
            monkeypatch.setattr(filtering, "BLOCK_ELEMENTS", 6 * 5 * init.M)
        start, helpers = multiprocessing.context.ForkProcess.start, []

        def recorded_start(proc):
            helpers.append(proc._target is filtering._draw_helper)
            start(proc)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", recorded_start)
        written = {}
        for cpus in (1, 8):
            monkeypatch.setattr(filtering, "_usable_cpus", lambda: cpus)
            helpers.clear()
            run = run_filter(data, init, cfg, workers=workers, truth=truth if scored else None)
            # range 0's helper starts here
            bins = filtering.BLOCK_ELEMENTS // (2 * -(-5 // workers) * init.M)
            assert any(helpers) == (cpus == 8 and data.n_steps > bins)
            save_filter_result(run, tmp_path / str(cpus), error_metrics(run.history) if scored else None)
            written[cpus] = run, {path.relative_to(tmp_path / str(cpus)): path.read_bytes()
                                  for path in sorted((tmp_path / str(cpus)).rglob("*")) if path.is_file()}
        (inline, inline_files), (ahead, ahead_files) = written[1], written[8]
        assert ahead.ensembles.intensity.tobytes() == inline.ensembles.intensity.tobytes()
        assert ahead.ensembles.params.tobytes() == inline.ensembles.params.tobytes()
        assert ahead.history.keys() == inline.history.keys()
        for key in inline.history:
            assert ahead.history[key].tobytes() == inline.history[key].tobytes(), key
        assert (Path("diagnostics.csv") in inline_files) == intensity
        assert ahead_files == inline_files
        assert multiprocessing.active_children() == []

    def test_param_moments_leave_the_run_unchanged(self):
        # the moments share a scratch buffer with the update
        _, data, init, cfg = toy_filter_setup(m=3, M=30, n_steps=10)
        plain, probed = Filter(init, DT, cfg), Filter(init, DT, cfg)
        for row in data.counts:
            plain.assimilate_step(row.astype(float))
            probed.param_moments()
            probed.assimilate_step(row.astype(float))
        for x, y in zip(plain.ensembles(), probed.ensembles()):
            assert np.array_equal(x.params, y.params)

    def test_node_permutation_equivariance(self):
        # each ensemble assimilates data column node_index with the stream of
        # that index, so a Filter over the nodes in shuffled order gives every
        # node the run's bits
        m = 4
        _, data, init, cfg = toy_filter_setup(m=m, M=30, n_steps=20)
        base = run_filter(data, init, cfg)
        shuffled = Filter(init.take([2, 0, 3, 1]), data.dt, cfg)
        for row in data.counts:
            shuffled.assimilate_step(row.astype(float))
        for e in shuffled.ensembles():
            assert np.array_equal(e.intensity, base.ensembles[e.node_index].intensity)
            assert np.array_equal(e.params, base.ensembles[e.node_index].params)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_sub_boards_reproduce_the_full_run(self, workers):
        _, data, init, cfg = toy_filter_setup(m=5, M=20, n_steps=15)
        full = run_filter(data, init, cfg, workers=workers).ensembles
        for rows in ([4, 1, 3, 0, 2], [3, 1], [2]):
            sub = Filter(init.take(rows), data.dt, cfg)
            for row in data.counts:
                sub.assimilate_step(row.astype(float))
            got = sub.ensembles()
            assert got.nodes.tolist() == rows
            assert np.array_equal(got.intensity, full.intensity[rows])
            assert np.array_equal(got.params, full.params[rows])

    def test_single_node_subfilter_matches_board(self):
        m = 3
        _, data, init, cfg = toy_filter_setup(m=m, M=30, n_steps=20)
        board = run_filter(data, init, cfg)
        sub = Filter(init.take([1]), data.dt, cfg)
        for row in data.counts:
            sub.assimilate_step(row.astype(float))
        solo = sub.ensembles()[0]
        assert np.array_equal(solo.intensity, board.ensembles[1].intensity)
        assert np.array_equal(solo.params, board.ensembles[1].params)

    @pytest.mark.parametrize("m, M", [(7, 33), (6, 500)])
    def test_misaligned_sub_boards_reproduce_the_full_run(self, m, M):
        # each row contraction is a BLAS call of its own: a sub-board whose rows start at each of
        # the 8 float64 offsets in a 64-byte line, among them one float64 off the full board's
        # rows, gives every row the full board's bits, its diagnostics and moments included
        _, data, init, cfg = toy_filter_setup(m=m, M=M, n_steps=25)
        full = Filter(init, DT, cfg)
        diags = [full.assimilate_step(row) for row in data.counts]
        rows, n = slice(1, m), m - 1
        for shift in range(8):
            boards = []
            for shape in ((n, M), (n, m + 2, M)):
                buf = np.empty(math.prod(shape) + 8)
                start = (shift - buf.ctypes.data // 8) % 8
                boards.append(buf[start:start + math.prod(shape)].reshape(shape))
            sub = Filter(init, DT, cfg, tuple(boards), rows)
            assert [board.ctypes.data % 64 for board in (sub._lam, sub._params)] == [8 * shift] * 2
            for row, want in zip(data.counts, diags):
                got = sub.assimilate_step(row)
                for key, value in vars(want).items():
                    assert getattr(got, key).tobytes() == value[rows].tobytes(), (shift, key)
            assert sub._lam.tobytes() == full._lam[rows].tobytes()
            assert sub._params.tobytes() == full._params[rows].tobytes()
            for got, want in zip(sub.param_moments(), full.param_moments()):
                assert got.tobytes() == want[rows].tobytes()

    def test_nonfinite_detection(self):
        _, data, init, cfg = toy_filter_setup()
        init[1].params[:, 0] = 1e308  # baseline overflow -> non-finite forecast
        with pytest.raises(FilterDivergence) as err:
            run_filter(data, init, cfg)
        assert err.value.node == 1
        assert err.value.step == 0

    @pytest.mark.parametrize("scored", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_diverging_run_raises_without_a_warning(self, workers, scored):
        # excitation members near 1e150 square past the float range in the truth curves, and
        # the regression then leaves non-finite members that the next forecast multiplies; warnings
        # are errors here, so the run must end in the divergence error alone, and it must name
        # the first step that left a non-finite member, and that member's kind
        from countnet.experiments import TOY_DT, toy_priors
        from countnet.experiments import toy_truth as six_node_truth
        from countnet.hawkes import simulate

        truth = six_node_truth(1.5, 1.5)
        data = simulate(truth, TOY_DT, 1000, 1)
        init = init_ensemble(6, 20, *toy_priors(1.5, 1.5)[:2], GammaSpec(1e150, 1e150), seed=1)
        # the first non-finite member, from the board after each step of a filter stepped by hand
        filt, first = Filter(init, TOY_DT, FilterConfig(seed=1)), None
        for step, row in enumerate(data.counts):
            filt.assimilate_step(row)
            for what, board in (("parameter", filt._params), ("intensity", filt._lam)):
                bad = ~np.isfinite(board).reshape(len(board), -1).all(axis=1)
                if bad.any():
                    first = step, int(np.argmax(bad)), what
                    break
            if first:
                break
        assert first == (2, 1, "parameter")
        with pytest.raises(FilterDivergence) as err:
            run_filter(data, init, FilterConfig(seed=1), workers=workers, truth=truth if scored else None)
        assert (err.value.step, err.value.node, err.value.what) == first

    def test_final_step_parameter_divergence(self, monkeypatch):
        # only the last regression can leave a non-finite parameter unseen
        # by the next forecast's intensity check
        _, data, init, cfg = toy_filter_setup(n_steps=12)
        regress, calls = filtering._regress_rows, []

        def poisoned(q, *args):
            regress(q, *args)
            calls.append(1)
            if len(calls) == data.n_steps:
                q[:, 0, 2] = np.nan

        monkeypatch.setattr(filtering, "_regress_rows", poisoned)
        for workers in (1, 2):
            with pytest.raises(FilterDivergence, match="non-finite parameter") as err:
                run_filter(data, init, cfg, workers=workers)
            assert (err.value.step, err.value.node, err.value.what) == (11, 0, "parameter")
            calls.clear()

    def test_error_metrics_over_run_history(self):
        from countnet.experiments import run_perfect_model

        run = run_perfect_model(1.5, 1.5, 0, n_steps=80, ensemble_size=30)
        report = error_metrics(run.result.history, excitation_scale=1.5)
        assert np.array_equal(report["frobenius"], run.report["frobenius"])
        assert report["baseline_error"].shape == (81, 6)

    def test_diagnostics_cells_parse_to_history(self, tmp_path):
        _, data, init, cfg = toy_filter_setup(m=2, M=12, n_steps=6, record_intensity_history=True)
        res = run_filter(data, init, cfg)
        h = res.history
        h["post_mean"][1, 0], h["innovation"][2, 1], h["prior_rel_var"][3, 0] = np.nan, -0.0, np.inf
        save_filter_result(res, tmp_path)
        text = (tmp_path / "diagnostics.csv").read_bytes().decode()
        lines = text.split("\r\n")
        assert lines.pop() == ""
        keys = ["prior_mean", "post_mean", "prior_rel_var", "post_rel_var", "innovation"]
        columns = [h[key] for key in keys]
        assert lines[0] == ",".join(["step", "node"] + keys)
        assert len(lines) == 1 + 6 * 2
        for row, line in enumerate(lines[1:]):
            cells = line.split(",")
            k, i = divmod(row, 2)
            assert cells[:2] == [str(k), str(i)]
            parsed = np.array([float(c) for c in cells[2:]])
            recorded = np.array([col[k, i] for col in columns])
            assert np.array_equal(parsed, recorded, equal_nan=True)
            assert np.array_equal(np.signbit(parsed), np.signbit(recorded))

    def test_snapshot_round_trip(self, tmp_path):
        _, data, init, cfg = toy_filter_setup(m=2, M=12, n_steps=10)
        res = run_filter(data, init, cfg)
        save_filter_result(res, tmp_path)
        loaded = load_ensemble_snapshots(tmp_path)
        for x, y in zip(res.ensembles, loaded):
            assert np.array_equal(x.intensity, y.intensity)
            assert np.array_equal(x.params, y.params)
        # read-only maps of the archive
        assert not loaded.intensity.flags.writeable and not loaded.params.flags.writeable
        assert (tmp_path / "result.json").exists()
        assert (tmp_path / "alpha_mean.csv").exists()
        with np.load(tmp_path / "ensembles" / "ensembles.npz") as archive:
            assert archive.files == ["intensity", "params"]
            assert archive["intensity"].shape == (2, 12)
            assert archive["params"].shape == (2, 12, 2 + 2)
        assert np.array_equal(loaded.nodes, [0, 1])

    def test_per_node_archive_refused(self, tmp_path):
        # the archive format before the board: one (M, m+3) table per node
        (tmp_path / "ensembles").mkdir()
        path = tmp_path / "ensembles" / "ensembles.npz"
        np.savez(path, node_0000=np.ones((4, 5)), node_0001=np.ones((4, 5)))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*re-run filter"):
            load_ensemble_snapshots(tmp_path)

    def test_sub_board_not_saved(self, tmp_path):
        _, data, init, cfg = toy_filter_setup(m=3, M=12, n_steps=4)
        board = run_filter(data, init, cfg).ensembles
        for rows, message in (([0, 1], "one ensemble per node of 3, not 2"),
                              ([0, 2, 1], "row 1 holds node 2's ensemble")):
            with pytest.raises(ValueError, match=message):
                save_filter_result(FilterResult(board.take(rows), cfg, 4, data.dt), tmp_path / "res")
        assert not (tmp_path / "res").exists()

    def test_result_json_holds_baseline_and_decay_moments(self, tmp_path):
        _, data, init, cfg = toy_filter_setup(m=3, M=12, n_steps=10)
        res = run_filter(data, init, cfg)
        save_filter_result(res, tmp_path)
        nodes = json.loads((tmp_path / "result.json").read_text())["nodes"]
        mean, sd = ensemble_moments(res.ensembles)
        for i, node in enumerate(nodes):
            # the excitation moments live in alpha_mean.csv and the snapshots
            assert set(node) == {"index", "baseline_mean", "baseline_sd", "decay_mean", "decay_sd"}
            assert node["index"] == i
            assert [node["baseline_mean"], node["decay_mean"]] == mean[i, :2].tolist()
            assert [node["baseline_sd"], node["decay_sd"]] == sd[i, :2].tolist()

    def test_snapshot_entries_of_another_shape_rejected(self, tmp_path):
        (tmp_path / "ensembles").mkdir()
        path = tmp_path / "ensembles" / "ensembles.npz"
        np.savez(path, intensity=np.ones((3, 4)), params=np.ones((3, 5, 5)))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: intensity \(3, 4\) and params \(3, 5, 5\)"):
            load_ensemble_snapshots(tmp_path)

    # a one-row board, a board that fits one block and one a row past it, each as a C-order
    # board and as a view of run_filter's member-minor board, which is written a block at a time
    @pytest.mark.parametrize("run", [False, True])
    @pytest.mark.parametrize("shape", [(1, 2, 3), (6, 500, 8), (31, 65, 33)])
    def test_archive_bytes_match_savez(self, tmp_path, shape, run):
        g = gen(shape[0])
        board = Ensemble(g.gamma(2.0, size=shape[:2]), g.gamma(2.0, size=shape))
        if run:
            data = CountSeries(g.poisson(1.0, size=(3, shape[0])).astype(np.uint64), DT)
            board = run_filter(data, board, FilterConfig(seed=0)).ensembles
            assert not board.params.flags.c_contiguous
        save_filter_result(FilterResult(board, FilterConfig(seed=0), 0, DT), tmp_path / "res")
        oracles.save_snapshot_archive(tmp_path / "savez.npz", board.intensity, np.ascontiguousarray(board.params))
        archive = tmp_path / "res" / "ensembles" / "ensembles.npz"
        assert archive.read_bytes() == (tmp_path / "savez.npz").read_bytes()
        loaded = load_ensemble_snapshots(tmp_path / "res")
        assert loaded.intensity.tobytes() == board.intensity.tobytes()
        assert loaded.params.tobytes() == board.params.tobytes()

    def test_a_loaded_board_saved_over_its_own_archive(self, tmp_path):
        # the save replaces the archive with a new file, so the loaded maps keep their bytes
        _, data, init, cfg = toy_filter_setup(m=3, M=12, n_steps=10)
        save_filter_result(run_filter(data, init, cfg), tmp_path)
        archive = tmp_path / "ensembles" / "ensembles.npz"
        written, loaded = archive.read_bytes(), load_ensemble_snapshots(tmp_path)
        intensity, params = loaded.intensity.copy(), loaded.params.copy()
        save_filter_result(FilterResult(loaded, cfg, 10, data.dt), tmp_path)
        assert archive.read_bytes() == written
        assert loaded.intensity.tobytes() == intensity.tobytes()
        assert loaded.params.tobytes() == params.tobytes()
        assert sorted(path.name for path in archive.parent.iterdir()) == ["ensembles.npz"]

    def test_a_failed_save_leaves_the_old_archive(self, tmp_path, monkeypatch):
        _, data, init, cfg = toy_filter_setup(m=3, M=12, n_steps=10)
        res = run_filter(data, init, cfg)
        save_filter_result(res, tmp_path)
        archive = tmp_path / "ensembles" / "ensembles.npz"
        written, loaded = archive.read_bytes(), load_ensemble_snapshots(tmp_path)
        header, calls = np.lib.format.write_array_header_1_0, []

        def fails_on_the_second_entry(*args):
            calls.append(None)
            if len(calls) == 2:
                raise OSError("disk full")
            return header(*args)

        monkeypatch.setattr(np.lib.format, "write_array_header_1_0", fails_on_the_second_entry)
        with pytest.raises(OSError, match="disk full"):
            save_filter_result(res, tmp_path)
        assert len(calls) == 2
        assert archive.read_bytes() == written
        assert sorted(path.name for path in archive.parent.iterdir()) == ["ensembles.npz"]
        assert loaded.params.tobytes() == res.ensembles.params.tobytes()

    def test_snapshot_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        import time

        _, data, init, cfg = toy_filter_setup(m=2, M=12, n_steps=10)
        res = run_filter(data, init, cfg)
        now = time.time()
        for day, out in enumerate(("a", "b")):
            monkeypatch.setattr(time, "time", lambda t=now + 86400.0 * day: t)
            save_filter_result(res, tmp_path / out)
        archive = Path("ensembles") / "ensembles.npz"
        assert (tmp_path / "a" / archive).read_bytes() == (tmp_path / "b" / archive).read_bytes()


DEGENERATE_ROW = 2


def lean_step_setup(m=5, M=16, n_steps=12, seed=4):
    """A board and counts that take the analysis through each of its paths.

    Row DEGENERATE_ROW has identical members with lam = baseline = 2.0 and no
    excitation, so its forecast has no spread; every bin gives every row a
    count but bins 1 and 2, which give some rows a zero count.
    """
    g = gen(seed)
    lam = g.gamma(2.0, size=(m, M)) + 0.5
    params = g.gamma(2.0, 0.5, size=(m, M, m + 2))
    params[:, :, 2:] *= 0.1
    make_degenerate(lam, params)
    counts = g.poisson(2.0, size=(n_steps, m)) + 1
    counts[1, [0, 3]] = counts[2, 1] = 0
    return Ensemble(lam, params), CountSeries(counts.astype(np.uint64), DT)


def make_degenerate(lam, params):
    lam[DEGENERATE_ROW] = params[DEGENERATE_ROW, :, 0] = 2.0
    params[DEGENERATE_ROW, :, 1] = 3.0
    params[DEGENERATE_ROW, :, 2:] = 0.0


def oracle_run(init, data, cfg):
    """The per-step oracle over ``data``: the final board, its parameter moments and diagnostics."""
    lam = np.maximum(init.intensity, filtering.POSITIVITY_FLOOR)
    params, prev = init.params.copy(), np.zeros(data.m)
    streams = rng.node_streams(cfg.seed, rng.ANALYSIS, init.nodes.tolist())
    moments, diags = [oracles.param_moments(params)[:2]], []
    for row in data.counts:
        diags.append(oracles.filter_step(lam, params, prev, row, init.nodes, data.dt, filtering.POSITIVITY_FLOOR,
                                         streams))
        prev = row.astype(np.float64)
        moments.append(oracles.param_moments(params)[:2])
    return lam, params, moments, diags


class TestLeanStep:
    """Filter.assimilate_step against the per-step oracle: board, diagnostics, history and stream states."""

    @pytest.mark.parametrize("dtype", [np.float64, np.uint64])
    @pytest.mark.parametrize("rows", [1, 3, 5])
    def test_steps_match_the_oracle(self, monkeypatch, dtype, rows):
        init, data = lean_step_setup()
        cfg = FilterConfig(seed=9)
        monkeypatch.setattr(filtering, "BLOCK_ELEMENTS", rows * init.params[0].size)
        filt = Filter(init, DT, cfg)
        lam, params = np.maximum(init.intensity, filtering.POSITIVITY_FLOOR), init.params.copy()
        prev, streams = np.zeros(data.m), rng.node_streams(cfg.seed, rng.ANALYSIS, range(data.m))
        drawn = set()
        spread = gen(5).gamma(2.0, 0.5, size=(init.M, data.m + 2))
        for k, row in enumerate(data.counts):
            # writes between steps are read by the next one: row DEGENERATE_ROW gets a spread, then none
            for board in ((lam, params), (filt._lam, filt.ensembles().params)):
                if k == 3:
                    board[0][DEGENERATE_ROW], board[1][DEGENERATE_ROW] = spread[:, 0], spread
                elif k == 6:
                    make_degenerate(*board)
            want = oracles.filter_step(lam, params, prev, row, init.nodes, DT, filtering.POSITIVITY_FLOOR, streams)
            before = [stream_state(g) for g in filt._streams]
            got = filt.assimilate_step(row.astype(dtype))
            prev = row.astype(np.float64)
            assert filt._lam.tobytes() == lam.tobytes() and filt.ensembles().params.tobytes() == params.tobytes()
            for key, value in vars(want).items():
                assert getattr(got, key).tobytes() == value.tobytes(), (k, key)
            after = [stream_state(g) for g in filt._streams]
            assert after == [stream_state(g) for g in streams]
            mean, var = filt.param_moments()
            want_mean, want_var, _ = oracles.param_moments(params)
            assert mean.tobytes() == want_mean.tobytes() and var.tobytes() == want_var.tobytes()
            # a row draws if and only if its count is at least 1: the flat row at steps 0-2 and from 6 too
            assert [a != b for a, b in zip(before, after)] == (row >= 1).tolist()
            drawn.add(int((row >= 1).sum()))
            assert got.degenerate.tolist() == [r == DEGENERATE_ROW and not 3 <= k < 6 for r in range(data.m)]
        # every row drew but those with a zero count at steps 1 and 2
        assert drawn == {data.m - 2, data.m - 1, data.m}

    @pytest.mark.parametrize("history", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("rows", [1, 3, 5])
    def test_runs_match_the_oracle(self, monkeypatch, history, workers, rows):
        init, data = lean_step_setup()
        cfg = FilterConfig(seed=9, record_intensity_history=history)
        monkeypatch.setattr(filtering, "BLOCK_ELEMENTS", rows * init.params[0].size)
        lam, params, moments, diags = oracle_run(init, data, cfg)
        # the degenerate row's baseline members equal the truth's: a zero start
        truth = toy_truth(data.m) if history else None
        res = run_filter(data, init, cfg, workers=workers, truth=truth)
        assert res.ensembles.intensity.tobytes() == lam.tobytes()
        assert res.ensembles.params.tobytes() == params.tobytes()
        if history:
            h = res.history
            want = oracles.error_metrics(*map(np.array, zip(*moments)), truth)
            got = error_metrics(h)
            for key in PER_NODE_CURVES:
                assert got[key].tobytes() == want[key].tobytes(), key
            assert np.isnan(got["baseline_error"][:, DEGENERATE_ROW]).all()
            for key in INTENSITY_KEYS:
                assert h[key].tobytes() == np.array([getattr(d, key) for d in diags]).tobytes(), key

    def test_a_count_row_changed_after_its_step_leaves_the_next_step(self):
        # the filter keeps each bin's counts for the next forecast, but a float64 row, a view
        # of the caller's counts, or an array-like that hands out its own buffer stays the
        # caller's to change
        class Wrapped:
            def __init__(self, buf):
                self.buf = buf

            def __array__(self, dtype=None, copy=None):
                return self.buf.copy() if copy else self.buf

        init, data = lean_step_setup()
        plain, mutated = Filter(init, DT, FilterConfig(seed=9)), Filter(init, DT, FilterConfig(seed=9))
        rows = data.counts.astype(np.float64)
        for k, row in enumerate(data.counts):
            plain.assimilate_step(row)
            own = (rows[k].copy(), rows[k], Wrapped(rows[k].copy()))[k % 3]
            mutated.assimilate_step(own)
            np.asarray(own)[:] = 1e6
        assert plain._lam.tobytes() == mutated._lam.tobytes()
        assert plain._params.tobytes() == mutated._params.tobytes()


class TestTruthCurves:
    """run_filter's truth curves against error_metrics over a recorded moment history (the oracle)."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 3, 5])
    def test_curves_match_the_oracle(self, monkeypatch, workers, rows):
        truth, data, init, cfg = toy_filter_setup(m=5, M=20, n_steps=15)
        monkeypatch.setattr(filtering, "BLOCK_ELEMENTS", rows * init.params[0].size)
        means, variances = map(np.array, zip(*oracle_run(init, data, cfg)[2]))
        want = oracles.error_metrics(means, variances, truth, 1.5)
        got = error_metrics(run_filter(data, init, cfg, workers=workers, truth=truth).history, 1.5)
        assert got.keys() == want.keys()
        for key in PER_NODE_CURVES:
            assert got[key].tobytes() == want[key].tobytes(), key
        # the norm is the root of the sum of the nodes' row sums of squares, a few ulps from one sum
        row_ss = np.add.reduce((means[:, :, 2:] - truth.excitation) ** 2, axis=2)
        assert got["frobenius"].tobytes() == (np.sqrt(np.add.reduce(row_ss, axis=1)) / 1.5).tobytes()
        assert (np.abs(got["frobenius"] - want["frobenius"]) <= 4 * np.spacing(want["frobenius"])).all()
        assert got["final"] == {**want["final"], "frobenius": float(got["frobenius"][-1])}

    def test_a_history_without_curves_is_refused(self):
        _, data, init, cfg = toy_filter_setup(m=2, M=8, n_steps=3, record_intensity_history=True)
        for history in (None, run_filter(data, init, cfg).history):
            with pytest.raises(ValueError, match="needs the history of a run given a truth"):
                error_metrics(history)


class TestConfigValidation:
    def test_bad_configs(self):
        with pytest.raises(ValueError):
            FilterConfig(seed=-1)

    def test_gamma_spec_validation(self):
        with pytest.raises(ValueError):
            GammaSpec(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaSpec(1.0, -1.0)

    # the last four: a gamma shape mean**2 / variance or scale variance / mean past the float range,
    # which passed, and then draw raised OverflowError or drew NaN
    @pytest.mark.parametrize("mean, variance", [(math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (1e200, 1e-200),
                                                (1e-200, 1e200), (1e200, 1e250), (1e-170, 1e-170)])
    def test_gamma_spec_refuses_non_finite_numbers(self, mean, variance):
        with pytest.raises(ValueError, match="GammaSpec .* finite"):
            GammaSpec(mean, variance)

    def test_node_ensemble_validation(self):
        # a node's arrays are checked on the board that holds them
        for shape in ((1, 1, 3), (1, 4, 2), (0, 4, 3)):
            with pytest.raises(ValueError, match=rf"params \({shape[0]}, {shape[1]}, {shape[2]}\) is not"):
                Ensemble(np.ones(shape[:2]), np.ones(shape))
        for nodes in ([0], [0.0, 1.0], [[0, 1]]):
            with pytest.raises(ValueError, match="one integer node index per row"):
                Ensemble(np.ones((2, 4)), np.ones((2, 4, 4)), nodes=nodes)


INTENSITY_KEYS = ("prior_mean", "post_mean", "prior_rel_var", "post_rel_var", "innovation")
CURVE_KEYS = ("baseline_error", "decay_error", "excitation_error", "frobenius",
              "baseline_var_ratio", "decay_var_ratio", "excitation_var_ratio")
PER_NODE_CURVES = tuple(key for key in CURVE_KEYS if key != "frobenius")
HISTORY_KEYS = (*filtering._CURVE_KEYS, *INTENSITY_KEYS)
# any float64, the special values drawn often
ANY_FLOAT = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 0.1, 1e308]) | st.floats()
# an ensemble member: finite and non-negative; small enough that the moments do not overflow
MEMBER = st.sampled_from([0.0, 5e-324, 1e-300, 0.1, 1.0, 1e150]) | st.floats(0.0, 1e150)


def result_tables(save, result: FilterResult, report: dict | None) -> dict[str, bytes]:
    """The bytes of every CSV file and metrics.json that ``save`` writes for ``result``."""
    with tempfile.TemporaryDirectory() as tmp:
        save(result, Path(tmp), report)
        return {path.name: path.read_bytes() for path in Path(tmp).iterdir()
                if path.suffix == ".csv" or path.name == "metrics.json"}


def drawn_result(data, m: int, n_steps: int, history: bool) -> FilterResult:
    M = data.draw(st.integers(2, 4))
    board = Ensemble(data.draw(arrays(np.float64, (m, M), elements=MEMBER)),
                     data.draw(arrays(np.float64, (m, M, m + 2), elements=MEMBER)))
    recorded = {}
    if history:
        recorded = {key: data.draw(arrays(np.float64, (n_steps, m), elements=ANY_FLOAT)) for key in INTENSITY_KEYS}
    return FilterResult(board, FilterConfig(0), n_steps, 0.1, recorded)


class TestTableBytes:
    """save_filter_result's CSV tables and metrics.json against the np.savetxt writers they replaced, byte
    for byte."""

    @given(data=st.data(), m=st.integers(1, 5), n_steps=st.integers(0, 5), history=st.booleans(),
           truth=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_result_tables(self, data, m, n_steps, history, truth):
        result = drawn_result(data, m, n_steps, history)
        report = None
        if truth:
            report = {key: data.draw(arrays(np.float64, (n_steps + 1,) if key == "frobenius" else (n_steps + 1, m),
                                            elements=ANY_FLOAT)) for key in CURVE_KEYS}
            report["final"] = {key: data.draw(st.lists(ANY_FLOAT, min_size=m, max_size=m))
                               for key in ("baseline_error", "decay_error", "excitation_error")}
            report["final"]["frobenius"] = data.draw(ANY_FLOAT)
        tables = result_tables(save_filter_result, result, report)
        assert tables == result_tables(oracles.save_filter_tables, result, report)
        assert len(tables) == 1 + history + 8 * truth

    def test_zero_steps_give_a_header_only_diagnostics_file(self):
        board = init_ensemble(1, 3, GammaSpec(1.0, 0.5), GammaSpec(5.0, 1.0), GammaSpec(0.1, 0.01), seed=0).draw()
        history = {key: np.empty((0, 1)) for key in INTENSITY_KEYS}
        result = FilterResult(board, FilterConfig(0), 0, 0.1, history)
        tables = result_tables(save_filter_result, result, None)
        assert tables == result_tables(oracles.save_filter_tables, result, None)
        assert tables["diagnostics.csv"] == ",".join(("step", "node") + INTENSITY_KEYS).encode() + b"\r\n"
