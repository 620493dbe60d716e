"""Edge-of-contract checks across modules: odd worker counts, config
switches, partial inputs, and error surfaces."""

import json

import numpy as np
import pytest

from countnet.cli import main
from countnet.filtering import (
    Filter,
    FilterConfig,
    GammaSpec,
    init_ensemble,
    load_ensemble_snapshots,
    run_filter,
    save_filter_result,
)
from countnet.hawkes import CountSeries, load_count_series, save_count_series
from test_filtering import toy_filter_setup


class TestFilterEdges:
    def test_more_workers_than_nodes_clamped(self):
        _, data, init, cfg = toy_filter_setup(m=3, M=24, n_steps=12)
        reference = run_filter(data, init, cfg, workers=1)
        oversubscribed = run_filter(data, init, cfg, workers=16)
        for a, b in zip(reference.ensembles, oversubscribed.ensembles):
            assert np.array_equal(a.params, b.params)

    def test_observed_columns_validation(self):
        _, data, init, cfg = toy_filter_setup(m=3)
        with pytest.raises(ValueError, match="observed_columns"):
            Filter(init[:2], cfg)  # subset without column mapping
        with pytest.raises(ValueError, match="observed_columns"):
            Filter(init[:2], cfg, observed_columns=np.array([0, 5]))

    def test_non_finite_or_negative_parameters_rejected(self):
        for bad in (np.nan, np.inf, -0.5):
            _, _, init, cfg = toy_filter_setup(m=3, M=20)
            init[1].params[4, 2] = bad
            with pytest.raises(ValueError, match="parameter members"):
                Filter(init, cfg)

    def test_intensity_below_floor_is_lifted(self):
        # gamma shape < 1 priors legitimately draw near-zero baselines;
        # emulate such a draw explicitly
        init = init_ensemble(
            1, 64, GammaSpec(2.0, 8.0), GammaSpec(2.0, 8.0), GammaSpec(0.5, 0.25), seed=3
        )
        init[0].intensity[0] = 1e-12
        cfg = FilterConfig(ensemble_size=64, dt=0.1, seed=3)
        data = CountSeries(np.ones((5, 1), dtype=np.uint64), 0.1)
        result = run_filter(data, init, cfg)
        assert (result.ensembles[0].intensity >= cfg.positivity_floor).all()


class TestCliEdges:
    def test_aggregate_with_cleaning(self, tmp_path):
        events = tmp_path / "events.csv"
        lines = ["timestamp,sender"]
        # busy node all three days, quiet node once; middle day nearly empty
        for day in (0, 2):
            for k in range(6):
                lines.append(f"{day * 24 + k + 1}.0,busy")
        lines.append("25.0,quiet")
        events.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "agg.json"
        cfg.write_text(
            json.dumps(
                {
                    "events_path": str(events),
                    "dt": 1.0,
                    "clean": True,
                    "min_node_total": 3,
                    "dead_day_threshold": 1,
                    "t0": 0.0,
                    "t1": 72.0,
                }
            )
        )
        out = tmp_path / "out"
        assert main(["aggregate", "--config", str(cfg), "--seed", "0", "--out-dir", str(out)]) == 0
        report = json.loads((out / "cleaning.json").read_text())
        assert report["removed_nodes"] == ["quiet"]
        assert report["removed_days"] == [1]
        series, _ = load_count_series(out / "counts.csv")
        assert series.node_labels == ["busy"]
        assert int(series.counts.sum()) == 12
        assert series.n_steps == 48  # three days spliced to two

    def test_analyze_absolute_threshold(self, tmp_path):
        _, data, init, cfg = toy_filter_setup(m=3, M=20, n_steps=10)
        result = run_filter(data, init, cfg)
        save_filter_result(result, tmp_path / "res")
        ana = tmp_path / "ana.json"
        ana.write_text(
            json.dumps(
                {
                    "result_dir": str(tmp_path / "res"),
                    "measure": "betweenness",
                    "threshold": {"absolute": 0.01},
                }
            )
        )
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(ana), "--seed", "0", "--out-dir", str(out)]) == 0
        assert (out / "rank_betweenness.csv").exists()
        payload = json.loads((out / "subnetwork.json").read_text())
        assert all(w == 0 or w > 0.01 for row in payload["adjacency"] for w in row)

    def test_non_finite_snapshot_rejected(self, tmp_path, capsys):
        _, data, init, cfg = toy_filter_setup(m=3, M=20, n_steps=10)
        save_filter_result(run_filter(data, init, cfg), tmp_path / "res")
        snapshot = tmp_path / "res" / "ensembles" / "node_0002.csv"
        rows = snapshot.read_text().splitlines()

        def write_excitation_cell(value):
            cells = rows[5].split(",")
            cells[3] = value
            snapshot.write_text("\n".join(rows[:5] + [",".join(cells)] + rows[6:]) + "\n")

        for bad, reason in (("nan", "non-finite"), ("inf", "non-finite"), ("-0.25", "negative")):
            write_excitation_cell(bad)
            with pytest.raises(ValueError, match=f"node_0002.csv.*{reason}"):
                load_ensemble_snapshots(tmp_path / "res")
        write_excitation_cell("nan")
        ana = tmp_path / "ana.json"
        ana.write_text(json.dumps({"result_dir": str(tmp_path / "res"), "measure": "betweenness"}))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(ana), "--seed", "0", "--out-dir", str(out)]) == 2
        assert "node_0002.csv" in capsys.readouterr().err
        assert not (out / "network.json").exists()

    def test_retired_decoupled_regression_key_is_ignored(self, tmp_path):
        # the per-parameter regression equalled the joint gain and is gone;
        # configs that still carry the key run unchanged
        _, data, _, _ = toy_filter_setup(m=2, n_steps=15)
        counts = tmp_path / "counts.csv"
        save_count_series(data, counts)
        outs = []
        for extra in ({}, {"decoupled_regression": True}):
            cfg = tmp_path / f"f{len(outs)}.json"
            cfg.write_text(json.dumps({
                "counts_path": str(counts),
                "ensemble_size": 12,
                "priors": {
                    "baseline": {"mean": 2.0, "variance": 1.0},
                    "decay": {"mean": 5.0, "variance": 1.0},
                    "excitation": {"mean": 1.0, "variance": 0.2},
                },
                **extra,
            }))
            outs.append(tmp_path / f"o{len(outs)}")
            assert main(["filter", "--config", str(cfg), "--seed", "0", "--out-dir", str(outs[-1])]) == 0
        for name in ("result.json", "alpha_mean.csv", "ensembles/node_0001.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        config = json.loads((outs[0] / "result.json").read_text())["config"]
        assert "decoupled_regression" not in config

    def test_negative_seed_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"s1": 1.5, "s2": 1.5}))
        assert main(["experiment-1", "--config", str(cfg), "--seed", "-3", "--out-dir", str(tmp_path / "o")]) == 1

    def test_missing_sidecar_is_runtime_failure(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("t,node_1\n0,1\n")
        cfg = tmp_path / "f.json"
        cfg.write_text(
            json.dumps(
                {
                    "counts_path": str(counts),
                    "ensemble_size": 8,
                    "priors": {
                        "baseline": {"mean": 2.0, "variance": 1.0},
                        "decay": {"mean": 5.0, "variance": 1.0},
                        "excitation": {"mean": 1.0, "variance": 0.2},
                    },
                }
            )
        )
        assert main(["filter", "--config", str(cfg), "--seed", "0", "--out-dir", str(tmp_path / "o")]) == 2
