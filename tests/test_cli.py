import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from countnet import cli, experiments
from countnet.cli import main
from countnet.experiments import abm_test_config
from countnet.filtering import Filter, ensemble_moments, load_ensemble_snapshots, run_filter, save_filter_result
from countnet.hawkes import CountSeries, HawkesParams
from countnet.network import error_metrics
from test_filtering import ANY_FLOAT, toy_filter_setup

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def file_hashes(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def hawkes_config():
    return {
        "params": {"mu": [2.0, 1.0], "beta": [5.0, 5.0], "alpha": [[0.5, 0.2], [0.0, 1.0]]},
        "dt": 0.1,
        "n_steps": 60,
    }


PRIORS = {
    "baseline": {"mean": 2.0, "variance": 1.0},
    "decay": {"mean": 5.0, "variance": 1.0},
    "excitation": {"mean": 0.5, "variance": 0.1},
}

# a config per mode that parses with no issue; the paths need not exist
GOOD = {
    "simulate-hawkes": hawkes_config(),
    "simulate-abm": {"abm": abm_test_config().to_json(), "n_steps": 20},
    "aggregate": {"events_path": "events.csv", "dt": 0.1},
    "filter": {"counts_path": "counts.csv", "ensemble_size": 8, "priors": PRIORS},
    "experiment-1": {"s1": 1.5, "s2": 1.5},
    "experiment-2": {},
    "sweep": {"s1_values": [1.5], "s2_values": [1.5]},
}

# (mode, keys that spoil GOOD[mode], the key the issue must name)
BAD = [
    ("filter", {"ensemble_size": 8.7}, "ensemble_size"),
    ("filter", {"record_intensity_history": "no"}, "record_intensity_history"),
    ("filter", {"ensemble_size": "abc"}, "ensemble_size"),
    ("simulate-hawkes", {"n_steps": "abc"}, "n_steps"),
    ("simulate-abm", {"abm": [1, 2]}, "abm"),
    ("aggregate", {"dt": 0}, "dt"),
    ("aggregate", {"min_node_total": -1}, "min_node_total"),
    ("experiment-1", {"s1": "abc"}, "s1"),
    ("experiment-2", {"n_steps": 0}, "n_steps"),
    ("sweep", {"s1_values": 1.5}, "s1_values"),
    ("simulate-hawkes", {"seed": True}, "seed"),
    ("aggregate", {"t0": 5.0, "t1": 1.0}, "t1"),
    ("simulate-hawkes", {"params": {**hawkes_config()["params"], "mu": [math.inf, 1.0]}}, "params"),
    ("simulate-hawkes", {"params": {**hawkes_config()["params"], "mu": ["2.0", "1"]}}, "params"),
    ("simulate-abm", {"abm": {**abm_test_config().to_json(), "decay": "5"}}, "abm"),
    ("aggregate", {"dt": 10**400}, "dt"),
    ("simulate-hawkes", {"params": {k: v for k, v in hawkes_config()["params"].items() if k != "mu"}}, "params"),
    ("simulate-abm", {"abm": {k: v for k, v in abm_test_config().to_json().items() if k != "baseline"}}, "abm"),
    # a gamma shape mean**2 / variance or scale variance / mean past the float range
    ("filter", {"priors": {**PRIORS, "baseline": {"mean": 1e200, "variance": 1e-200}}}, "priors.baseline"),
    ("filter", {"priors": {**PRIORS, "baseline": {"mean": 1e-200, "variance": 1e200}}}, "priors.baseline"),
]


def value_at(obj, key):
    """The value under a dotted key such as ``priors.baseline``."""
    for part in key.split("."):
        obj = obj[part]
    return obj


@pytest.mark.parametrize("mode, bad, key", BAD, ids=[f"{m}-{k}-{str(value_at(b, k))[:24]}" for m, b, k in BAD])
def test_bad_config_exits_1_before_writing(tmp_path, capsys, mode, bad, key):
    good = write_config(tmp_path, "good.json", {**GOOD[mode], "seed": 0, "mode": mode})
    assert main(["validate", "--config", str(good)]) == 0
    cfg = write_config(tmp_path, "bad.json", {**GOOD[mode], "seed": 0, **bad, "mode": mode})
    capsys.readouterr()
    assert main(["validate", "--config", str(cfg)]) == 1
    assert f"{key}: must " in capsys.readouterr().err
    out = tmp_path / "out"
    assert main([mode, "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert f"{key}: must " in capsys.readouterr().err
    assert not out.exists()


class TestValidate:
    def test_valid_config_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {**hawkes_config(), "mode": "simulate-hawkes"})
        assert main(["validate", "--config", str(cfg), "--seed", "1"]) == 0
        assert "ok: 0 issue(s)" in capsys.readouterr().err

    def test_tiny_ensemble_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"mode": "filter", "counts_path": "x.csv", "ensemble_size": 1, "priors": {}, "seed": 0},
        )
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "at least 2 members" in capsys.readouterr().err

    def test_unstable_simulation_rejected(self, tmp_path, capsys):
        bad = {**hawkes_config(), "mode": "simulate-hawkes"}
        bad["params"]["beta"] = [20.0, 5.0]
        cfg = write_config(tmp_path, "c.json", bad)
        assert main(["validate", "--config", str(cfg), "--seed", "0"]) == 1
        assert "oscillate" in capsys.readouterr().err

    def test_unknown_key_warns(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        assert main(["simulate-hawkes", "--config", str(write_config(tmp_path, "s.json", hawkes_config())),
                     "--seed", "0", "--out-dir", str(tmp_path)]) == 0
        truth = write_config(tmp_path, "truth.json", hawkes_config()["params"])
        flt = {"counts_path": str(counts), "ensemble_size": 8, "priors": PRIORS}
        # a misspelt key, keys of older configs (a truth alone now asks for the curves, the floor is
        # fixed) and a key that the filter reads only when another key is given
        cases = (
            ({"record_intensity_hstory": True}, "unknown key 'record_intensity_hstory' for mode filter"),
            ({"record_param_history": True}, "unknown key 'record_param_history' for mode filter"),
            ({"positivity_floor": 0.5}, "unknown key 'positivity_floor' for mode filter"),
            ({"excitation_scale": 2.0}, "key 'excitation_scale' is not read unless truth_path is given"),
        )
        for k, (extra, warning) in enumerate(cases):
            cfg = write_config(tmp_path, f"f{k}.json", {**flt, **extra, "mode": "filter", "seed": 0})
            capsys.readouterr()
            assert main(["validate", "--config", str(cfg)]) == 0
            err = capsys.readouterr().err
            assert f"warning: {warning}" in err
            assert "ok: 0 issue(s), 1 warning(s)" in err
            out = tmp_path / f"flt{k}"
            assert main(["filter", "--config", str(cfg), "--out-dir", str(out)]) == 0
            assert f"warning: {warning}" in capsys.readouterr().err
            assert not (out / "diagnostics.csv").exists()
            assert not (out / "metrics.json").exists()
            config = json.loads((out / "result.json").read_text())["config"]
            assert list(config) == ["seed", "record_intensity_history"]
        # with the truth, its key of older configs is still only a warning
        cfg = write_config(tmp_path, "truth_run.json", {**flt, "record_param_history": True, "truth_path": str(truth),
                                                        "mode": "filter", "seed": 0})
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "ok: 0 issue(s), 1 warning(s)" in capsys.readouterr().err
        assert main(["filter", "--config", str(cfg), "--out-dir", str(tmp_path / "truth_run")]) == 0
        assert (tmp_path / "truth_run" / "metrics.json").exists()
        # the simulator's burn-in, a key of older configs, is a warning too; the run starts at the baseline
        cfg = write_config(tmp_path, "burn.json", {**hawkes_config(), "burn_in": 50, "mode": "simulate-hawkes"})
        capsys.readouterr()
        assert main(["validate", "--config", str(cfg), "--seed", "0"]) == 0
        err = capsys.readouterr().err
        assert "warning: unknown key 'burn_in' for mode simulate-hawkes" in err
        assert "ok: 0 issue(s), 1 warning(s)" in err
        assert main(["simulate-hawkes", "--config", str(cfg), "--seed", "0", "--out-dir", str(tmp_path / "burn")]) == 0
        assert "warning: unknown key 'burn_in' for mode simulate-hawkes" in capsys.readouterr().err
        assert (tmp_path / "burn" / "counts.csv").read_bytes() == counts.read_bytes()

    def test_bad_threshold_rules_rejected(self, tmp_path, capsys):
        sim = write_config(tmp_path, "sim.json", hawkes_config())
        assert main(["simulate-hawkes", "--config", str(sim), "--seed", "0", "--out-dir", str(tmp_path / "sim")]) == 0
        flt = write_config(tmp_path, "flt.json", {
            "counts_path": str(tmp_path / "sim" / "counts.csv"),
            "ensemble_size": 8,
            "priors": {
                "baseline": {"mean": 2.0, "variance": 1.0},
                "decay": {"mean": 5.0, "variance": 1.0},
                "excitation": {"mean": 0.5, "variance": 0.1},
            },
        })
        assert main(["filter", "--config", str(flt), "--seed", "0", "--out-dir", str(tmp_path / "flt")]) == 0
        rules = (
            ({"relative": 2.0}, "exactly one of"),
            ({"relative_factor": 2.0, "absolute": 0.1}, "exactly one of"),
            ({"absolute": "x"}, "threshold.absolute: must be a finite number"),
            ({"absolute": -1}, "threshold.absolute: must be a finite number >= 0"),
            ({"relative_factor": -1}, "threshold.relative_factor: must be a finite number >= 0"),
        )
        for k, (rule, message) in enumerate(rules):
            ana = {"result_dir": str(tmp_path / "flt"), "threshold": rule}
            cfg = write_config(tmp_path, f"ana{k}.json", {**ana, "mode": "analyze", "seed": 0})
            capsys.readouterr()
            assert main(["validate", "--config", str(cfg)]) == 1
            assert message in capsys.readouterr().err
            out = tmp_path / f"ana{k}"
            assert main(["analyze", "--config", str(cfg), "--out-dir", str(out)]) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_scaled_event_prob_form_rejected(self, tmp_path, capsys):
        # and fixed spawning: a retired key loads with the model's one value and no other
        saved = abm_test_config().to_json()
        for key, kept, other in (("event_prob_form", "rate", "scaled"), ("spawn_law", "poisson", "fixed")):
            cfg = write_config(tmp_path, "abm.json", {"abm": {**saved, key: other}, "n_steps": 20,
                                                      "mode": "simulate-abm", "seed": 0})
            capsys.readouterr()
            assert main(["validate", "--config", str(cfg)]) == 1
            assert f"abm: {key} '{other}' is not supported" in capsys.readouterr().err
            out = tmp_path / f"abm-{other}"
            assert main(["simulate-abm", "--config", str(cfg), "--out-dir", str(out)]) == 1
            assert f"abm: {key} '{other}' is not supported" in capsys.readouterr().err
            assert not out.exists()
            cfg = write_config(tmp_path, "abm.json", {"abm": {**saved, key: kept}, "n_steps": 20, "seed": 0})
            out = tmp_path / f"abm-{kept}"
            assert main(["simulate-abm", "--config", str(cfg), "--out-dir", str(out)]) == 0
            assert json.loads((out / "abm_config.json").read_text()) == saved

    def test_missing_seed_flagged(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {**hawkes_config(), "mode": "simulate-hawkes"})
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "seed" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_mode_is_validation_error(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("workers", ["-3", "0", "two"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        cfg = write_config(tmp_path, "c.json", hawkes_config())
        out = tmp_path / "out"
        argv = ["simulate-hawkes", "--config", str(cfg), "--seed", "0", "--workers", workers, "--out-dir", str(out)]
        assert main(argv) == 1
        assert "--workers: must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate-hawkes", "--config", str(tmp_path / "nope.json"), "--seed", "1"]) == 1

    def test_runtime_failure_maps_to_two(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "counts_path": str(tmp_path / "missing.csv"),
                "ensemble_size": 8,
                "priors": {
                    "baseline": {"mean": 2.0, "variance": 1.0},
                    "decay": {"mean": 5.0, "variance": 1.0},
                    "excitation": {"mean": 1.0, "variance": 0.2},
                },
            },
        )
        assert main(["filter", "--config", str(cfg), "--seed", "1", "--out-dir", str(tmp_path / "o")]) == 2

    def test_bad_counts_csv_is_runtime_failure_naming_the_line(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("t,a,b\n0,1,2\n0.1,-2,0\n")
        counts.with_suffix(".json").write_text(json.dumps({"dt": 0.1}))
        cfg = write_config(tmp_path, "c.json", {"counts_path": str(counts), "ensemble_size": 8, "priors": PRIORS})
        assert main(["filter", "--config", str(cfg), "--seed", "1", "--out-dir", str(tmp_path / "o")]) == 2
        assert f"failed: {counts}: line 3: counts must lie in 0 .. 2**64 - 1" in capsys.readouterr().err

    def test_a_sidecar_that_does_not_parse_is_named(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("t,a,b\n0,1,2\n")
        counts.with_suffix(".json").write_text("not json")
        cfg = write_config(tmp_path, "c.json", {"counts_path": str(counts), "ensemble_size": 8, "priors": PRIORS})
        assert main(["filter", "--config", str(cfg), "--seed", "1", "--out-dir", str(tmp_path / "o")]) == 2
        assert f"failed: {counts.with_suffix('.json')}: Expecting value" in capsys.readouterr().err

    def test_a_result_json_that_does_not_parse_is_named(self, tmp_path, capsys):
        _, data, init, cfg = toy_filter_setup(n_steps=5)
        save_filter_result(run_filter(data, init, cfg), tmp_path / "flt")
        (tmp_path / "flt" / "result.json").write_text("not json")
        ana = write_config(tmp_path, "ana.json", {"result_dir": str(tmp_path / "flt")})
        assert main(["analyze", "--config", str(ana), "--seed", "1", "--out-dir", str(tmp_path / "ana")]) == 2
        assert f"failed: {tmp_path / 'flt' / 'result.json'}: Expecting value" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest, message", [
        ([1, 2], "must be a JSON object"),
        ({"node_labels": 5}, "node_labels must be null or a list of strings"),
        ({"node_labels": ["a", "b", 3]}, "node_labels must be null or a list of strings"),
        ({"node_labels": ["a"]}, "node_labels length must match the node count"),
        ({"node_labels": ["a", "b", "a"]}, "node label 'a' is repeated"),
    ])
    def test_a_malformed_result_json_is_named(self, tmp_path, capsys, manifest, message):
        _, data, init, cfg = toy_filter_setup(n_steps=5)
        save_filter_result(run_filter(data, init, cfg), tmp_path / "flt")
        (tmp_path / "flt" / "result.json").write_text(json.dumps(manifest))
        ana = write_config(tmp_path, "ana.json", {"result_dir": str(tmp_path / "flt")})
        assert main(["analyze", "--config", str(ana), "--seed", "1", "--out-dir", str(tmp_path / "ana")]) == 2
        assert f"failed: {tmp_path / 'flt' / 'result.json'}: {message}" in capsys.readouterr().err

    def test_counts_without_node_columns_refused(self, tmp_path, capsys):
        # a header of "t" alone used to reach numpy's "number sections must be larger than 0."
        counts = tmp_path / "counts.csv"
        counts.write_text("t\n0\n0.1\n")
        counts.with_suffix(".json").write_text(json.dumps({"dt": 0.1}))
        cfg = write_config(tmp_path, "c.json", {"counts_path": str(counts), "ensemble_size": 8, "priors": PRIORS})
        assert main(["filter", "--config", str(cfg), "--seed", "1", "--out-dir", str(tmp_path / "o")]) == 2
        assert "failed: the counts have no node columns to filter" in capsys.readouterr().err


class TestPipelines:
    def test_simulate_hawkes_artifacts_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", hawkes_config())
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate-hawkes", "--config", str(cfg), "--seed", "9", "--out-dir", str(out1)]) == 0
        assert main(["simulate-hawkes", "--config", str(cfg), "--seed", "9", "--out-dir", str(out2)]) == 0
        assert (out1 / "counts.csv").exists()
        assert (out1 / "manifest.json").exists()
        assert file_hashes(out1) == file_hashes(out2)
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert "config_sha256" in manifest

    def test_filter_pipeline_on_simulated_counts(self, tmp_path):
        sim_cfg = write_config(tmp_path, "sim.json", hawkes_config())
        sim_out = tmp_path / "sim"
        assert main(["simulate-hawkes", "--config", str(sim_cfg), "--seed", "3", "--out-dir", str(sim_out)]) == 0
        flt_cfg = write_config(
            tmp_path,
            "flt.json",
            {
                "counts_path": str(sim_out / "counts.csv"),
                "ensemble_size": 30,
                "priors": {
                    "baseline": {"mean": 2.0, "variance": 1.0},
                    "decay": {"mean": 5.0, "variance": 2.0},
                    "excitation": {"mean": 0.5, "variance": 0.2},
                },
                "record_intensity_history": True,
            },
        )
        flt_out = tmp_path / "flt"
        assert main(["filter", "--config", str(flt_cfg), "--seed", "3", "--out-dir", str(flt_out)]) == 0
        for name in ("result.json", "alpha_mean.csv", "diagnostics.csv"):
            assert (flt_out / name).exists(), name
        assert (flt_out / "ensembles" / "ensembles.npz").exists()
        # the network is analyze's output
        assert not (flt_out / "edges.csv").exists()
        assert not (flt_out / "network.json").exists()

        ana_cfg = write_config(
            tmp_path,
            "ana.json",
            {"result_dir": str(flt_out), "measure": "out_degree", "threshold": {"relative_factor": 1.0}},
        )
        ana_out = tmp_path / "ana"
        assert main(["analyze", "--config", str(ana_cfg), "--seed", "0", "--out-dir", str(ana_out)]) == 0
        for name in ("edges.csv", "network.json", "rank_out_degree.csv", "subnetwork_edges.csv", "subnetwork.json"):
            assert (ana_out / name).exists(), name

    def test_filter_reports_progress_with_workers(self, tmp_path):
        # range 0 runs in the calling process, so a parallel run reports its steps too
        sim = write_config(tmp_path, "sim.json", hawkes_config())
        assert main(["simulate-hawkes", "--config", str(sim), "--seed", "3", "--out-dir", str(tmp_path / "sim")]) == 0
        flt = write_config(tmp_path, "flt.json", {**GOOD["filter"], "counts_path": str(tmp_path / "sim" / "counts.csv")})
        done = subprocess.run(
            [sys.executable, "-m", "countnet.cli", "filter", "--config", str(flt), "--seed", "3",
             "--workers", "2", "--out-dir", str(tmp_path / "flt")],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "filter: step 60/60" in done.stderr.splitlines()

    def test_history_ends_at_the_written_moments(self, tmp_path, monkeypatch):
        # one moments kernel reduces the truth curves and the result: same bits
        params = {"mu": [2.0, 1.0, 1.5], "beta": [5.0, 5.0, 5.0],
                  "alpha": [[0.5, 0.2, 0.0], [0.0, 1.0, 0.3], [0.2, 0.0, 0.8]]}
        truth = write_config(tmp_path, "truth.json", params)
        sim = write_config(tmp_path, "sim.json", {"params": params, "dt": 0.1, "n_steps": 40})
        assert main(["simulate-hawkes", "--config", str(sim), "--seed", "4", "--out-dir", str(tmp_path / "sim")]) == 0
        flt = write_config(tmp_path, "flt.json", {
            "counts_path": str(tmp_path / "sim" / "counts.csv"), "ensemble_size": 9, "priors": PRIORS,
            "truth_path": str(truth),
        })
        histories = []
        monkeypatch.setattr(cli, "error_metrics", lambda h, *args: histories.append(h) or error_metrics(h, *args))
        out = tmp_path / "flt"
        assert main(["filter", "--config", str(flt), "--seed", "4", "--workers", "2", "--out-dir", str(out)]) == 0
        h, truth = histories[0], HawkesParams.from_json(params)
        nodes = json.loads((out / "result.json").read_text())["nodes"]
        mean = np.array([[n["baseline_mean"], n["decay_mean"]] for n in nodes])
        assert h["baseline_abs_error"][-1].tolist() == np.abs(mean[:, 0] - truth.baseline).tolist()
        assert h["decay_abs_error"][-1].tolist() == np.abs(mean[:, 1] - truth.decay).tolist()
        assert np.sqrt(h["baseline_var"][-1]).tolist() == [n["baseline_sd"] for n in nodes]
        assert np.sqrt(h["decay_var"][-1]).tolist() == [n["decay_sd"] for n in nodes]
        dev = np.abs(np.loadtxt(out / "alpha_mean.csv", delimiter=",") - truth.excitation)
        assert h["excitation_abs_error"][-1].tobytes() == dev.mean(axis=1).tobytes()
        assert h["excitation_sq_error"][-1].tobytes() == np.add.reduce(dev * dev, axis=1).tobytes()

    def test_a_truth_that_does_not_fit_fails_before_the_first_step(self, tmp_path, capsys, monkeypatch):
        sim = write_config(tmp_path, "sim.json", hawkes_config())
        assert main(["simulate-hawkes", "--config", str(sim), "--seed", "0", "--out-dir", str(tmp_path / "sim")]) == 0
        three = write_config(tmp_path, "truth3.json", {"mu": [2.0, 1.0, 1.0], "beta": [5.0] * 3,
                                                       "alpha": [[0.1] * 3] * 3})
        steps, step = [], Filter.assimilate_step
        monkeypatch.setattr(Filter, "assimilate_step", lambda filt, row: steps.append(1) or step(filt, row))
        no_mu = write_config(tmp_path, "no_mu.json", {"beta": [5.0] * 2, "alpha": [[0.1] * 2] * 2})
        number = write_config(tmp_path, "number.json", 5)
        cases = ((three, "the truth is over 3 nodes, the counts over 2"), (tmp_path / "none.json", "none.json"),
                 (no_mu, f"failed: {no_mu}: must hold mu, beta, alpha; 'mu' is missing"),
                 (number, f"failed: {number}: must be a JSON object"))
        for k, (truth, message) in enumerate(cases):
            flt = write_config(tmp_path, f"flt{k}.json", {
                **GOOD["filter"], "counts_path": str(tmp_path / "sim" / "counts.csv"), "truth_path": str(truth)})
            out = tmp_path / f"flt{k}"
            capsys.readouterr()
            assert main(["filter", "--config", str(flt), "--seed", "0", "--out-dir", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not (out / "result.json").exists()
            assert steps == []

    def test_analyze_uses_the_counts_labels(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        rows = ["timestamp,sender"]
        for h in range(40):
            rows += [f"{h + 0.1},alice", f"{h + 0.2},bob"] * (1 + h % 2) + [f"{h + 0.3},carol"] * (h % 3 == 0)
        events.write_text("\n".join(rows) + "\n")
        agg = write_config(tmp_path, "agg.json", {"events_path": str(events), "dt": 1.0})
        assert main(["aggregate", "--config", str(agg), "--seed", "0", "--out-dir", str(tmp_path / "agg")]) == 0
        flt = write_config(tmp_path, "flt.json", {"counts_path": str(tmp_path / "agg" / "counts.csv"),
                                                  "ensemble_size": 8, "priors": PRIORS})
        result_dir = tmp_path / "flt"
        assert main(["filter", "--config", str(flt), "--seed", "0", "--out-dir", str(result_dir)]) == 0
        labels = ["alice", "bob", "carol"]
        manifest = json.loads((result_dir / "result.json").read_text())
        assert (manifest["dt"], manifest["ensemble_size"], manifest["node_labels"]) == (1.0, 8, labels)

        ana = write_config(tmp_path, "ana.json", {"result_dir": str(result_dir), "measure": "out_degree"})
        out = tmp_path / "ana"
        assert main(["analyze", "--config", str(ana), "--seed", "0", "--out-dir", str(out)]) == 0
        network = json.loads((out / "network.json").read_text())
        assert network["node_labels"] == labels
        # the network rebuilt from the snapshots holds the means the filter wrote, and their sds
        assert network["adjacency"] == np.loadtxt(result_dir / "alpha_mean.csv", delimiter=",").tolist()
        sd = ensemble_moments(load_ensemble_snapshots(result_dir))[1]
        assert network["edge_sd"] == sd[:, 2:].tolist()
        assert (out / "rank_out_degree.csv").read_text().splitlines()[0] == "rank,alice,bob,carol"

        # a result.json without node_labels fails the run, naming the file
        del manifest["node_labels"]
        (result_dir / "result.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["analyze", "--config", str(ana), "--seed", "0", "--out-dir", str(tmp_path / "old")]) == 2
        assert f"failed: {result_dir / 'result.json'}: must hold node_labels" in capsys.readouterr().err

    def test_aggregate_mode(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("timestamp,sender\n0.05,a\n0.07,a\n0.15,b\n")
        cfg = write_config(
            tmp_path, "agg.json",
            {"events_path": str(events), "dt": 0.1, "t0": 0.0, "t1": 0.2},
        )
        out = tmp_path / "agg"
        assert main(["aggregate", "--config", str(cfg), "--seed", "0", "--out-dir", str(out)]) == 0
        rows = (out / "counts.csv").read_text().splitlines()
        assert rows[0] == "t,a,b"
        assert rows[1].split(",")[1:] == ["2", "0"]
        assert rows[2].split(",")[1:] == ["0", "1"]

    def test_experiment_1_small(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "e1.json",
            {"s1": 1.5, "s2": 1.5, "n_steps": 150, "ensemble_size": 40,
             "record_intensity_history": True},
        )
        out = tmp_path / "e1"
        assert main(["experiment-1", "--config", str(cfg), "--seed", "2", "--out-dir", str(out)]) == 0
        for name in ("truth.json", "counts.csv", "alpha_mean.csv", "excitation_error.csv",
                     "frobenius.csv", "metrics.json", "diagnostics.csv"):
            assert (out / name).exists(), name
        assert not (out / "final_metrics.json").exists()
        curve = np.loadtxt(out / "excitation_error.csv", delimiter=",")
        assert curve.shape == (151, 6)
        header = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert header.endswith("innovation")

    def test_truth_run_writes_each_curve_once(self, tmp_path):
        truth, data, init, cfg = toy_filter_setup(m=3, M=20, n_steps=30)
        # a truth at node 0's initial mean baseline leaves that node's curve undefined
        baseline = truth.baseline.copy()
        baseline[0] = Filter(init, data.dt, cfg).param_moments()[0][0, 0]
        result = run_filter(data, init, cfg, truth=HawkesParams(baseline, truth.decay, truth.excitation))
        report = error_metrics(result.history)
        save_filter_result(result, tmp_path, report)
        curves = [key for key in report if key != "final"]
        assert len(curves) == 7
        for key in curves:
            parsed = np.loadtxt(tmp_path / f"{key}.csv", delimiter=",")
            assert np.array_equal(parsed, report[key], equal_nan=True), key
        assert np.isnan(report["baseline_error"][:, 0]).all()
        final = {key: [None if math.isnan(x) else x for x in value] if isinstance(value, list) else value
                 for key, value in report["final"].items()}
        assert final["baseline_error"][0] is None
        assert json.loads((tmp_path / "metrics.json").read_text()) == final
        assert not (tmp_path / "final_metrics.json").exists()

    def test_experiment_2_small(self, tmp_path):
        cfg = write_config(tmp_path, "e2.json", {"n_steps": 250, "ensemble_size": 30})
        out = tmp_path / "e2"
        assert main(["experiment-2", "--config", str(cfg), "--seed", "2", "--out-dir", str(out)]) == 0
        structure = json.loads((out / "structure.json").read_text())
        assert set(structure) == {"top_k", "overlap_with_generator"}
        assert 0 <= structure["overlap_with_generator"] <= 5

    def test_sweep_small(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sw.json",
            {"s1_values": [1.5], "s2_values": [0.5, 1.5], "seeds": [0], "n_steps": 120, "ensemble_size": 30},
        )
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--seed", "0", "--out-dir", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "s1,s2,frobenius_mean"
        assert len(rows) == 3

    def test_mode_mismatch_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**hawkes_config(), "mode": "simulate-hawkes"})
        assert main(["aggregate", "--config", str(cfg), "--seed", "0"]) == 1


class TestTableBytes:
    """agents.csv and sweep.csv against the np.savetxt and csv.writer writers they replaced, byte for byte.

    The simulation and the sweep are replaced by functions that return the drawn values."""

    @given(agents=arrays(np.int64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                         elements=st.integers(-2**63, 2**63 - 1)))
    @settings(max_examples=50, deadline=None)
    def test_agents_csv(self, agents):
        n, m = agents.shape
        abm = {"baseline": [1.0] * m, "decay": 2.0, "diffusion": 0.0, "spawn_rate": 1.0,
               "excitation": [[0.0] * m] * m, "dt": 0.1}
        series = CountSeries(np.zeros((n, m), dtype=np.uint64), 0.1)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(cli, "simulate_abm", lambda *args, **kwargs: (series, agents)):
            tmp = Path(tmp)
            cfg = write_config(tmp, "abm.json", {"abm": abm, "n_steps": n, "agent_trace": True})
            assert main(["simulate-abm", "--config", str(cfg), "--seed", "0", "--out-dir", str(tmp / "out")]) == 0
            oracles.save_agents(tmp / "agents.csv", agents)
            assert (tmp / "out" / "agents.csv").read_bytes() == (tmp / "agents.csv").read_bytes()

    @given(rows=st.lists(st.fixed_dictionaries({"s1": ANY_FLOAT, "s2": ANY_FLOAT, "frobenius_mean": ANY_FLOAT}),
                         min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_sweep_csv(self, rows):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(experiments, "run_excitation_sweep", lambda *args, **kwargs: rows):
            tmp = Path(tmp)
            cfg = write_config(tmp, "sweep.json", {"s1_values": [1.0], "s2_values": [1.0], "seeds": [0]})
            assert main(["sweep", "--config", str(cfg), "--seed", "0", "--out-dir", str(tmp / "out")]) == 0
            oracles.save_sweep(tmp / "sweep.csv", rows)
            assert (tmp / "out" / "sweep.csv").read_bytes() == (tmp / "sweep.csv").read_bytes()
