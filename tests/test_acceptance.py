"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Each test computes its measurements first, prints its verdict,
then asserts, so the line appears even when a clause fails.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from countnet.cli import main as cli_main
from countnet.experiments import (
    TOY_DT,
    TOY_ENSEMBLE,
    TOY_M,
    run_abm_experiment,
    run_excitation_sweep,
    run_large_network,
    run_perfect_model,
    toy_priors,
    toy_truth,
)
from countnet.filtering import (
    FilterConfig,
    analytic_posterior,
    init_ensemble,
    pg_analysis,
    run_filter,
)
from countnet.hawkes import simulate
from countnet.ingest import EventLog, aggregate, clean
from countnet.network import InfluenceNetwork, centrality

from oracles import brute_betweenness


def verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def philox(*key):
    return np.random.Generator(np.random.Philox(key=list(key)))


class TestAC1ConjugacyOracle:
    def test_ac1(self):
        M = 50_000
        cfg_gen = philox(2024, 1)
        start = time.perf_counter()
        worst_mean = worst_rv = 0.0
        for trial in range(1000):
            lam_bar = cfg_gen.uniform(0.1, 20.0)
            rel_var = cfg_gen.uniform(0.01, 2.0)
            dN = int(cfg_gen.integers(0, 11))
            dt = cfg_gen.uniform(0.01, 1.0)
            lam_f = philox(3000 + trial, 17).gamma(1.0 / rel_var, lam_bar * rel_var, size=M)
            lam_a, diag = pg_analysis(lam_f, dN, dt, philox(9000 + trial, 23))
            exp_mean, exp_rv = analytic_posterior(
                float(lam_f.mean()), diag.prior_rel_var, dN, dt
            )
            emp_mean = float(lam_a.mean())
            emp_rv = float(lam_a.var(ddof=1) / emp_mean**2)
            worst_mean = max(worst_mean, abs(emp_mean - exp_mean) / exp_mean)
            worst_rv = max(worst_rv, abs(emp_rv - exp_rv) / exp_rv)
        elapsed = time.perf_counter() - start
        ok = worst_mean < 0.01 and worst_rv < 0.03 and elapsed < 60.0
        assert verdict(
            "AC-1 (conjugacy oracle)",
            ok,
            f"1000 configs at M=50000: worst mean err {worst_mean:.2e} (<1%), "
            f"worst rel-var err {worst_rv:.2%} (<3%), runtime {elapsed:.1f}s (<60s)",
        )


class TestAC2RelativeVarianceIdentity:
    def test_ac2(self):
        M = 50_000
        worst = 0.0
        for lam_bar, rel_var in [(2.0, 0.5), (8.0, 1.0)]:
            for dN in range(1, 11):
                lam_f = philox(40 + dN, int(lam_bar)).gamma(
                    1.0 / rel_var, lam_bar * rel_var, size=M
                )
                lam_a, diag = pg_analysis(lam_f, dN, 0.1, philox(80 + dN, int(lam_bar)))
                prior = diag.prior_rel_var
                target = prior - prior**2 / (prior + 1.0 / dN)
                emp_mean = float(lam_a.mean())
                emp_rv = float(lam_a.var(ddof=1) / emp_mean**2)
                worst = max(worst, abs(emp_rv - target) / target)
        ok = worst < 0.05
        assert verdict(
            "AC-2 (relative-variance identity)",
            ok,
            f"dN in 1..10, two prior configs at M=50000: worst deviation {worst:.2%} (<5%)",
        )


def final_decay_error(seed: int, n_steps: int) -> np.ndarray:
    """Per-node decay error of a perfect-model run, without recorded history.

    Same truth, priors, ensemble and normalisation as ``run_perfect_model``
    and ``error_metrics``: |final mean - truth| / |initial mean - truth|.
    """
    truth = toy_truth(1.5, 1.5)
    data = simulate(truth, TOY_DT, n_steps, seed)
    init = init_ensemble(TOY_M, TOY_ENSEMBLE, *toy_priors(1.5, 1.5), seed)
    final = run_filter(data, init, FilterConfig(seed)).ensembles
    start = np.array([e.decay.mean() for e in init.draw()])
    end = np.array([e.decay.mean() for e in final])
    return np.abs(end - truth.decay) / np.abs(start - truth.decay)


@pytest.mark.slow
class TestAC3PerfectModel:
    def test_ac3(self):
        start = time.perf_counter()
        finals = []
        for seed in range(5):
            report = run_perfect_model(1.5, 1.5, seed).report
            finals.append(
                [
                    report["baseline_error"][-1],
                    report["decay_error"][-1],
                    report["excitation_error"][-1],
                ]
            )
        elapsed = time.perf_counter() - start
        avg = np.array(finals).mean(axis=0)  # (3 groups, 6 nodes)
        # The supercritical prior (branching radius 1.5, truth 0.75) makes the
        # filter raise decay first; it returns to truth only well after 2000 steps.
        decay_long = np.mean([final_decay_error(seed, 20_000) for seed in range(5)], axis=0)
        baseline_ok = bool((avg[0] < 1.0).all())
        decay_ok = bool((decay_long < 1.0).all())
        decay_falls = bool((decay_long < avg[1]).all())
        excitation_ok = bool((avg[2] < 1.0).all())
        median_ok = bool(np.median(avg[2]) < 0.7)
        runtime_ok = elapsed < 10.0
        ok = (
            baseline_ok and decay_ok and decay_falls and excitation_ok
            and median_ok and runtime_ok
        )
        verdict(
            "AC-3 (perfect model)",
            ok,
            f"5-seed avg final errors: baseline max {avg[0].max():.3f} "
            f"({'<1 ok' if baseline_ok else '>=1'}), decay max {avg[1].max():.3f} "
            f"at 2000 steps, {decay_long.max():.3f} at 20000 steps "
            f"({'<1 ok' if decay_ok else '>=1'}, "
            f"{'falls ok' if decay_falls else 'does not fall'}), excitation max "
            f"{avg[2].max():.3f} ({'<1 ok' if excitation_ok else '>=1'}), excitation "
            f"median {np.median(avg[2]):.3f} (<0.7), runtime {elapsed:.1f}s (<10s)",
        )
        assert baseline_ok, f"baseline group errors {avg[0]}"
        assert excitation_ok, f"excitation group errors {avg[2]}"
        assert median_ok, f"median excitation error {np.median(avg[2])}"
        assert runtime_ok, f"runtime {elapsed}"
        assert decay_ok, f"decay group errors at 20000 steps {decay_long}"
        assert decay_falls, f"decay errors {avg[1]} at 2000 vs {decay_long} at 20000 steps"


class TestAC4ExcitationScaleTrend:
    def test_ac4(self):
        seeds = range(5)
        s2_rows = run_excitation_sweep([1.5], [0.5, 1.0, 1.5], seeds)
        s2_curve = [row["frobenius_mean"] for row in s2_rows]
        s1_rows = run_excitation_sweep([0.5, 1.0, 1.5], [1.5], seeds)
        s1_curve = [row["frobenius_mean"] for row in s1_rows]
        s2_ok = all(a >= b for a, b in zip(s2_curve, s2_curve[1:]))
        s1_ok = all(a >= b for a, b in zip(s1_curve, s1_curve[1:]))
        ok = s2_ok and s1_ok
        assert verdict(
            "AC-4 (excitation-scale trend)",
            ok,
            f"scaled Frobenius vs s2 {np.round(s2_curve, 3).tolist()} nonincreasing={s2_ok}; "
            f"vs s1 {np.round(s1_curve, 3).tolist()} nonincreasing={s1_ok} (5 seeds)",
        )


class TestAC5ZeroCountMonotonicity:
    def test_ac5(self):
        violations = 0
        zero_steps = 0
        for s1, s2, seed in [(1.5, 1.5, 0), (0.5, 0.5, 1)]:
            run = run_perfect_model(s1, s2, seed, record_intensity=True)
            h = run.result.history
            counts = run.data.counts
            zero = counts == 0
            zero_steps += int(zero.sum())
            # zero-count bins leave the relative variance exactly unchanged
            violations += int(
                (h["post_rel_var"][zero] != h["prior_rel_var"][zero]).sum()
            )
            # any observed event strictly increases the inverse relative variance
            violations += int((h["post_rel_var"][~zero] >= h["prior_rel_var"][~zero]).sum())
        ok = violations == 0
        assert verdict(
            "AC-5 (zero-count monotonicity)",
            ok,
            f"{zero_steps} zero-count node-steps across two full runs, "
            f"{violations} violations (exact, zero tolerance)",
        )


@pytest.mark.slow
class TestAC6LargeNetwork:
    def test_ac6(self):
        run = run_large_network(m=100, n_steps=50_000, ensemble_size=128, seed=0, workers=2)
        corr_ok = run.correlation > 0.8
        time_ok = run.wall_time < 600.0
        # bit-identity of the node-parallel and serial paths on the same
        # network; full-length serial reruns are covered by the same code path
        serial = run_large_network(m=100, n_steps=5_000, ensemble_size=128, seed=0, workers=1)
        parallel = run_large_network(m=100, n_steps=5_000, ensemble_size=128, seed=0, workers=2)
        identical = all(
            np.array_equal(a.params, b.params) and np.array_equal(a.intensity, b.intensity)
            for a, b in zip(serial.result.ensembles, parallel.result.ensembles)
        )
        ok = corr_ok and time_ok and identical
        assert verdict(
            "AC-6 (large network)",
            ok,
            f"100 nodes, 50000 steps, M=128: correlation {run.correlation:.3f} (>0.8), "
            f"parallel wall {run.wall_time:.0f}s (<600s), serial/parallel bit-identical={identical}",
        )


class TestAC7ImperfectModel:
    def test_ac7(self):
        run = run_abm_experiment(seed=0)
        ok = run.structure_overlap >= 3
        assert verdict(
            "AC-7 (imperfect model)",
            ok,
            f"agent-model data, 39964 steps: {run.structure_overlap}/5 of the top-5 "
            f"estimated edges lie in the generator's top set (need >=3)",
        )


class TestAC8BetweennessOracle:
    def test_ac8(self):
        gen = philox(2025, 8)
        mismatches = 0
        for _ in range(200):
            m = int(gen.integers(2, 7))
            adj = np.where(gen.random((m, m)) < 0.5, gen.uniform(0.1, 2.0, (m, m)), 0.0)
            np.fill_diagonal(adj, 0.0)
            ours = centrality(InfluenceNetwork(adj), "betweenness")
            oracle = brute_betweenness(adj)
            if not np.array_equal(ours, oracle):
                mismatches += 1
        ok = mismatches == 0
        assert verdict(
            "AC-8 (betweenness oracle)",
            ok,
            f"200 random directed weighted graphs (<=6 nodes): {mismatches} mismatches "
            f"vs exhaustive enumeration (exact match required)",
        )


class TestAC9Ingestion:
    def test_ac9(self):
        checks = []
        # binning example
        log = EventLog(np.array([0.05, 0.07, 0.15]), [0] * 3, 0.0, 0.2, ["a"])
        checks.append(aggregate(log, 0.1).counts[:, 0].tolist() == [2, 1])
        # boundary event joins the later bin
        log = EventLog(np.array([0.1]), [0], 0.0, 0.2, ["a"])
        checks.append(aggregate(log, 0.1).counts[:, 0].tolist() == [0, 1])
        # day splicing: empty middle day removed, later times shifted a day
        log = EventLog(np.array([1.0, 5.0, 49.0, 60.0]), [0] * 4, 0.0, 72.0, ["a"])
        cleaned, report = clean(log, min_node_total=0, dead_day_threshold=0)
        checks.append(report.removed_days == [1])
        checks.append(np.allclose(cleaned.times, [1.0, 5.0, 25.0, 36.0]))
        checks.append(cleaned.t1 == 48.0)
        # node threshold: exactly the sub-threshold nodes drop
        times, codes = [], []
        t = 0.0
        for k in range(6):
            for _ in range(38 + k):
                times.append(t)
                t += 0.05
                codes.append(k)
        log = EventLog(np.array(times), codes, 0.0, 24.0, [f"n{k}" for k in range(6)])
        cleaned, report = clean(log, min_node_total=40)
        checks.append(sorted(report.removed_nodes) == ["n0", "n1"])
        # count conservation through clean + aggregate
        series = aggregate(cleaned, 0.5)
        checks.append(int(series.counts.sum()) == cleaned.n_events == report.events_after)
        ok = all(checks)
        assert verdict(
            "AC-9 (ingestion)",
            ok,
            f"binning/boundary/splicing/threshold/conservation checks: "
            f"{sum(checks)}/{len(checks)} exact",
        )


class TestAC10Determinism:
    @staticmethod
    def tree_hash(root):
        out = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                out[str(path.relative_to(root))] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
        return out

    def test_ac10(self, tmp_path):
        results = {}

        def cli(args):
            assert cli_main(args) == 0

        e1_cfg = tmp_path / "e1.json"
        e1_cfg.write_text(json.dumps({"s1": 1.5, "s2": 1.5, "n_steps": 300, "ensemble_size": 60}))
        for run_name, workers in [("a", "1"), ("b", "1"), ("c", "2")]:
            cli([
                "experiment-1", "--config", str(e1_cfg), "--seed", "7",
                "--workers", workers, "--out-dir", str(tmp_path / f"e1_{run_name}"),
            ])
        results["experiment-1 rerun"] = self.tree_hash(tmp_path / "e1_a") == self.tree_hash(tmp_path / "e1_b")
        results["experiment-1 workers"] = self.tree_hash(tmp_path / "e1_a") == self.tree_hash(tmp_path / "e1_c")

        e2_cfg = tmp_path / "e2.json"
        e2_cfg.write_text(json.dumps({"n_steps": 400, "ensemble_size": 40}))
        for run_name, workers in [("a", "1"), ("b", "2")]:
            cli([
                "experiment-2", "--config", str(e2_cfg), "--seed", "3",
                "--workers", workers, "--out-dir", str(tmp_path / f"e2_{run_name}"),
            ])
        results["experiment-2 rerun+workers"] = self.tree_hash(tmp_path / "e2_a") == self.tree_hash(tmp_path / "e2_b")

        sim_cfg = tmp_path / "sim.json"
        sim_cfg.write_text(json.dumps({
            "params": {"mu": [2.0, 1.0], "beta": [5.0, 4.0], "alpha": [[0.5, 0.2], [0.1, 1.0]]},
            "dt": 0.1, "n_steps": 400,
        }))
        cli(["simulate-hawkes", "--config", str(sim_cfg), "--seed", "5", "--out-dir", str(tmp_path / "sim_a")])
        cli(["simulate-hawkes", "--config", str(sim_cfg), "--seed", "5", "--out-dir", str(tmp_path / "sim_b")])
        results["simulate-hawkes rerun"] = self.tree_hash(tmp_path / "sim_a") == self.tree_hash(tmp_path / "sim_b")

        flt_cfg = tmp_path / "flt.json"
        flt_cfg.write_text(json.dumps({
            "counts_path": str(tmp_path / "sim_a" / "counts.csv"),
            "ensemble_size": 40,
            "priors": {
                "baseline": {"mean": 2.0, "variance": 1.0},
                "decay": {"mean": 5.0, "variance": 2.0},
                "excitation": {"mean": 0.5, "variance": 0.2},
            },
        }))
        cli(["filter", "--config", str(flt_cfg), "--seed", "5", "--workers", "1", "--out-dir", str(tmp_path / "flt_a")])
        cli(["filter", "--config", str(flt_cfg), "--seed", "5", "--workers", "2", "--out-dir", str(tmp_path / "flt_b")])
        results["filter rerun+workers"] = self.tree_hash(tmp_path / "flt_a") == self.tree_hash(tmp_path / "flt_b")

        abm_cfg = tmp_path / "abm.json"
        abm_cfg.write_text(json.dumps({
            "abm": {
                "baseline": [2.0, 2.0, 0.5], "decay": 5.0, "diffusion": 0.25,
                "spawn_rate": 3.0, "dt": 0.1,
                "excitation": [[3.0, 0.0, 0.0], [0.0, 3.0, 6.0], [0.0, 0.0, 1.5]],
            },
            "n_steps": 500,
        }))
        cli(["simulate-abm", "--config", str(abm_cfg), "--seed", "9", "--out-dir", str(tmp_path / "abm_a")])
        cli(["simulate-abm", "--config", str(abm_cfg), "--seed", "9", "--out-dir", str(tmp_path / "abm_b")])
        results["simulate-abm rerun"] = self.tree_hash(tmp_path / "abm_a") == self.tree_hash(tmp_path / "abm_b")

        events = tmp_path / "events.csv"
        events.write_text("timestamp,sender\n0.05,a\n0.07,a\n0.15,b\n")
        agg_cfg = tmp_path / "agg.json"
        agg_cfg.write_text(json.dumps({"events_path": str(events), "dt": 0.1, "t0": 0.0, "t1": 0.2}))
        cli(["aggregate", "--config", str(agg_cfg), "--seed", "0", "--out-dir", str(tmp_path / "agg_a")])
        cli(["aggregate", "--config", str(agg_cfg), "--seed", "0", "--out-dir", str(tmp_path / "agg_b")])
        results["aggregate rerun"] = self.tree_hash(tmp_path / "agg_a") == self.tree_hash(tmp_path / "agg_b")

        ana_cfg = tmp_path / "ana.json"
        ana_cfg.write_text(json.dumps({"result_dir": str(tmp_path / "flt_a"), "measure": "out_degree"}))
        cli(["analyze", "--config", str(ana_cfg), "--seed", "0", "--out-dir", str(tmp_path / "ana_a")])
        cli(["analyze", "--config", str(ana_cfg), "--seed", "0", "--out-dir", str(tmp_path / "ana_b")])
        results["analyze rerun"] = self.tree_hash(tmp_path / "ana_a") == self.tree_hash(tmp_path / "ana_b")

        ok = all(results.values())
        failed = [name for name, good in results.items() if not good]
        assert verdict(
            "AC-10 (determinism)",
            ok,
            f"{sum(results.values())}/{len(results)} pipelines byte-identical across "
            f"reruns and worker counts" + (f"; failed: {failed}" if failed else ""),
        )
