"""Command-line experiment driver.

Subcommands cover the full pipeline: data generation (simulate-hawkes,
simulate-abm), ingestion (aggregate), inference (filter), analytics
(analyze), and the bundled end-to-end experiments (experiment-1 perfect
model, experiment-2 agent-model data, sweep over excitation scales).
Machine-readable outputs go to files under --out-dir; progress goes to
stderr; stdout stays quiet for scripting. Every run writes a manifest
with the config hash, seed, and library versions needed to reproduce the
artifacts bit for bit.

Exit codes: 0 success, 1 config/validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .abm import ABMConfig, simulate_abm
from .filtering import (
    POSITIVITY_FLOOR,
    FilterConfig,
    GammaSpec,
    init_ensemble,
    load_ensemble_snapshots,
    run_filter,
    save_filter_result,
)
from .hawkes import HawkesParams, load_count_series, save_count_series, simulate
from .ingest import aggregate, clean, read_event_csv, save_cleaning_report
from .network import (
    MEASURES,
    error_metrics,
    mean_network,
    rank_distribution,
    save_metrics,
    save_network,
    save_rank_distribution,
    threshold_subnetwork,
)
from . import experiments

MODES = (
    "simulate-hawkes",
    "simulate-abm",
    "aggregate",
    "filter",
    "analyze",
    "experiment-1",
    "experiment-2",
    "sweep",
    "validate",
)


class ConfigError(ValueError):
    """Bad configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors, not crashes
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="countnet", description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--seed", type=int, help="run seed (overrides config)")
    parser.add_argument("--workers", type=int, default=1, help="parallel node workers")
    parser.add_argument("--out-dir", type=Path, default=Path("out"), help="artifact directory")
    return parser


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _gamma_spec(obj, where: str) -> GammaSpec:
    if not isinstance(obj, dict) or "mean" not in obj or "variance" not in obj:
        raise ConfigError(f"{where} must be an object with mean and variance")
    try:
        return GammaSpec(float(obj["mean"]), float(obj["variance"]))
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


# per mode: the required keys, then the optional keys its run path reads;
# "mode" and "seed" are accepted by every mode
CONFIG_KEYS = {
    "simulate-hawkes": (("params", "dt", "n_steps"), ("burn_in",)),
    "simulate-abm": (("abm", "n_steps"), ("agent_trace",)),
    "aggregate": (("events_path", "dt"), ("t0", "t1", "clean", "min_node_total", "dead_day_threshold")),
    "filter": (
        ("counts_path", "ensemble_size", "priors"),
        ("positivity_floor", "record_param_history", "record_intensity_history",
         "truth_path", "excitation_scale"),
    ),
    "analyze": (("result_dir",), ("measure", "threshold")),
    "experiment-1": (("s1", "s2"), ("n_steps", "ensemble_size", "record_intensity_history")),
    "experiment-2": ((), ("n_steps", "ensemble_size", "top_k")),
    "sweep": (("s1_values", "s2_values"), ("seeds", "n_steps", "ensemble_size")),
}


def unknown_keys(mode: str, cfg: dict) -> list[str]:
    """Warnings for config keys that ``mode`` does not read."""
    required, optional = CONFIG_KEYS[mode]
    known = {"mode", "seed", *required, *optional}
    return [f"unknown key '{key}' for mode {mode}" for key in cfg if key not in known]


def validate_config(mode: str, cfg: dict, seed: int | None) -> list[str]:
    """Schema and invariant checks without executing anything."""
    issues: list[str] = []
    if seed is None and "seed" not in cfg:
        issues.append("seed: required (config key or --seed flag)")
    effective_seed = seed if seed is not None else cfg.get("seed")
    if effective_seed is not None and int(effective_seed) < 0:
        issues.append("seed: must be non-negative")
    for key in CONFIG_KEYS[mode][0]:
        if key not in cfg:
            issues.append(f"{key}: required for mode {mode}")
    if mode == "simulate-hawkes" and not issues:
        try:
            params = HawkesParams.from_json(cfg["params"])
            dt = float(cfg["dt"])
            if (params.decay * dt >= 1.0).any():
                issues.append(
                    "params.beta: decay * dt >= 1 is rejected for simulation; "
                    "the intensity recursion could undershoot the baseline or oscillate"
                )
        except (KeyError, ValueError, TypeError) as err:
            issues.append(f"params: {err}")
        if int(cfg.get("n_steps", 1)) < 1:
            issues.append("n_steps: must be >= 1")
    if mode == "simulate-abm" and "abm" in cfg:
        try:
            ABMConfig.from_json(cfg["abm"])
        except (KeyError, ValueError, TypeError) as err:
            issues.append(f"abm: {err}")
    if mode in ("filter", "experiment-1", "experiment-2"):
        M = int(cfg.get("ensemble_size", experiments.TOY_ENSEMBLE))
        if M < 2:
            issues.append("ensemble_size: an ensemble needs at least 2 members")
    if mode == "filter" and "priors" in cfg:
        for group in ("baseline", "decay", "excitation"):
            if group not in cfg["priors"]:
                issues.append(f"priors.{group}: required")
            else:
                try:
                    _gamma_spec(cfg["priors"][group], f"priors.{group}")
                except ConfigError as err:
                    issues.append(str(err))
    if mode == "analyze" and cfg.get("measure") not in (None, *MEASURES):
        issues.append(f"measure: must be one of {MEASURES}")
    if mode == "analyze" and cfg.get("threshold"):
        rule = cfg["threshold"]
        if not isinstance(rule, dict) or len(rule) != 1 or not rule.keys() <= {"relative_factor", "absolute"}:
            issues.append("threshold: must be an object with exactly one of relative_factor or absolute")
        else:
            (key, value), = rule.items()
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
                issues.append(f"threshold.{key}: must be a finite number")
    return issues


def _write_manifest(out_dir: Path, mode: str, cfg: dict, seed: int) -> None:
    # worker count is deliberately absent: outputs are independent of it
    text = json.dumps(cfg, sort_keys=True)
    manifest = {
        "mode": mode,
        "seed": seed,
        "config": cfg,
        "config_sha256": _sha256(text),
        "versions": {
            "countnet": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _progress(prefix: str):
    def report(step: int, total: int) -> None:
        print(f"{prefix}: step {step}/{total}", file=sys.stderr)

    return report


def _save_filter_outputs(result, out_dir: Path, report: dict | None = None, node_labels=None) -> None:
    """Write a filter run's result and mean network, plus its error curves given a truth report."""
    # the excitation group's normalized error is the network-recovery track
    rmse_norm = report["excitation_error"][1:] if report is not None else None
    save_filter_result(result, out_dir, rmse_norm=rmse_norm)
    net = mean_network(result.ensembles, node_labels=node_labels)
    save_network(net, out_dir / "edges.csv", out_dir / "network.json")
    if report is None:
        return
    for key in ("baseline_error", "decay_error", "excitation_error",
                "baseline_var_ratio", "decay_var_ratio", "excitation_var_ratio"):
        np.savetxt(out_dir / f"{key}.csv", report[key], delimiter=",", fmt="%.10g")
    np.savetxt(out_dir / "frobenius.csv", report["frobenius"], delimiter=",", fmt="%.10g")
    save_metrics(report, out_dir / "metrics.json")
    save_metrics(report["final"], out_dir / "final_metrics.json")


def _run_filter_mode(cfg: dict, seed: int, workers: int, out_dir: Path) -> None:
    data, _meta = load_count_series(Path(cfg["counts_path"]))
    priors = cfg["priors"]
    init = init_ensemble(
        data.m,
        int(cfg["ensemble_size"]),
        _gamma_spec(priors["baseline"], "priors.baseline"),
        _gamma_spec(priors["decay"], "priors.decay"),
        _gamma_spec(priors["excitation"], "priors.excitation"),
        seed,
    )
    fcfg = FilterConfig(
        ensemble_size=int(cfg["ensemble_size"]),
        dt=data.dt,
        seed=seed,
        positivity_floor=float(cfg.get("positivity_floor", POSITIVITY_FLOOR)),
        record_param_history=bool(cfg.get("record_param_history", False)),
        record_intensity_history=bool(cfg.get("record_intensity_history", False)),
    )
    result = run_filter(data, init, fcfg, workers=workers, progress=_progress("filter"))
    report = None
    truth_path = cfg.get("truth_path")
    if truth_path and fcfg.record_param_history:
        truth = HawkesParams.load(Path(truth_path))
        report = error_metrics(result.history, truth, float(cfg.get("excitation_scale", 1.0)))
    _save_filter_outputs(result, out_dir, report, node_labels=data.node_labels)


def _run_analyze_mode(cfg: dict, out_dir: Path) -> None:
    ensembles = load_ensemble_snapshots(Path(cfg["result_dir"]))
    net = mean_network(ensembles)
    save_network(net, out_dir / "edges.csv", out_dir / "network.json")
    rule = cfg.get("threshold", {})
    if rule:
        sub = threshold_subnetwork(
            net,
            relative_factor=rule.get("relative_factor"),
            absolute=rule.get("absolute"),
        )
        save_network(sub, out_dir / "subnetwork_edges.csv", out_dir / "subnetwork.json")
    measure = cfg.get("measure", "out_degree")
    dist = rank_distribution(ensembles, measure)
    save_rank_distribution(dist, out_dir / f"rank_{measure}.csv")


def _run_experiment_1(cfg: dict, seed: int, workers: int, out_dir: Path) -> None:
    run = experiments.run_perfect_model(
        float(cfg["s1"]),
        float(cfg["s2"]),
        seed,
        n_steps=int(cfg.get("n_steps", experiments.TOY_STEPS)),
        ensemble_size=int(cfg.get("ensemble_size", experiments.TOY_ENSEMBLE)),
        workers=workers,
        record_intensity=bool(cfg.get("record_intensity_history", False)),
    )
    run.truth.save(out_dir / "truth.json")
    save_count_series(run.data, out_dir / "counts.csv", seed=seed, params=run.truth)
    _save_filter_outputs(run.result, out_dir, run.report)


def _run_experiment_2(cfg: dict, seed: int, workers: int, out_dir: Path) -> None:
    run = experiments.run_abm_experiment(
        seed,
        n_steps=int(cfg.get("n_steps", experiments.ABM_STEPS)),
        ensemble_size=int(cfg.get("ensemble_size", experiments.TOY_ENSEMBLE)),
        workers=workers,
        top_k=int(cfg.get("top_k", 5)),
    )
    run.config.save(out_dir / "abm_config.json")
    save_count_series(run.data, out_dir / "counts.csv", seed=seed)
    _save_filter_outputs(run.result, out_dir)
    (out_dir / "structure.json").write_text(
        json.dumps(
            {
                "top_k": int(cfg.get("top_k", 5)),
                "overlap_with_generator": run.structure_overlap,
                "generator_excitation": run.config.excitation.tolist(),
                "estimated_excitation": run.result.mean_excitation().tolist(),
            },
            indent=2,
        )
        + "\n"
    )


def _run_sweep(cfg: dict, seed: int, out_dir: Path) -> None:
    seeds = cfg.get("seeds", [seed + k for k in range(5)])
    rows = experiments.run_excitation_sweep(
        [float(v) for v in cfg["s1_values"]],
        [float(v) for v in cfg["s2_values"]],
        [int(s) for s in seeds],
        n_steps=int(cfg.get("n_steps", experiments.TOY_STEPS)),
        ensemble_size=int(cfg.get("ensemble_size", experiments.TOY_ENSEMBLE)),
    )
    with (out_dir / "sweep.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s1", "s2", "frobenius_mean"])
        for row in rows:
            writer.writerow([row["s1"], row["s2"], f"{row['frobenius_mean']:.10g}"])
    (out_dir / "sweep.json").write_text(json.dumps(rows, indent=2) + "\n")


def run(mode: str, cfg: dict, seed: int | None, workers: int, out_dir: Path) -> int:
    if mode == "validate":
        declared = cfg.get("mode")
        if declared not in MODES or declared == "validate":
            issues, warnings = [f"mode: config must declare one of {MODES[:-1]}"], []
        else:
            issues, warnings = validate_config(declared, cfg, seed), unknown_keys(declared, cfg)
        for line in [f"warning: {w}" for w in warnings] + issues:
            print(line, file=sys.stderr)
        verdict = "invalid" if issues else "ok"
        print(f"{verdict}: {len(issues)} issue(s), {len(warnings)} warning(s)", file=sys.stderr)
        return 1 if issues else 0
    for warning in unknown_keys(mode, cfg):
        print(f"warning: {warning}", file=sys.stderr)
    issues = validate_config(mode, cfg, seed)
    if issues:
        raise ConfigError("; ".join(issues))
    seed = int(cfg["seed"]) if seed is None else seed
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, mode, cfg, seed)

    if mode == "simulate-hawkes":
        params = HawkesParams.from_json(cfg["params"])
        series = simulate(
            params, float(cfg["dt"]), int(cfg["n_steps"]), seed,
            burn_in=int(cfg.get("burn_in", 0)),
        )
        save_count_series(series, out_dir / "counts.csv", seed=seed, params=params)
    elif mode == "simulate-abm":
        abm_cfg = ABMConfig.from_json(cfg["abm"])
        trace = bool(cfg.get("agent_trace", False))
        if trace:
            series, agents = simulate_abm(abm_cfg, int(cfg["n_steps"]), seed, return_agent_trace=True)
            np.savetxt(out_dir / "agents.csv", agents, delimiter=",", fmt="%d")
        else:
            series = simulate_abm(abm_cfg, int(cfg["n_steps"]), seed)
        abm_cfg.save(out_dir / "abm_config.json")
        save_count_series(series, out_dir / "counts.csv", seed=seed)
    elif mode == "aggregate":
        log = read_event_csv(
            Path(cfg["events_path"]),
            t0=cfg.get("t0"),
            t1=cfg.get("t1"),
        )
        if cfg.get("clean", False):
            log, report = clean(
                log,
                int(cfg.get("min_node_total", 0)),
                int(cfg.get("dead_day_threshold", 0)),
            )
            save_cleaning_report(report, out_dir / "cleaning.json")
        series = aggregate(log, float(cfg["dt"]))
        save_count_series(series, out_dir / "counts.csv", seed=seed)
    elif mode == "filter":
        _run_filter_mode(cfg, seed, workers, out_dir)
    elif mode == "analyze":
        _run_analyze_mode(cfg, out_dir)
    elif mode == "experiment-1":
        _run_experiment_1(cfg, seed, workers, out_dir)
    elif mode == "experiment-2":
        _run_experiment_2(cfg, seed, workers, out_dir)
    elif mode == "sweep":
        _run_sweep(cfg, seed, out_dir)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args.config)
        if args.mode != "validate" and cfg.get("mode") not in (None, args.mode):
            raise ConfigError(f"config is for mode {cfg['mode']!r}, not {args.mode!r}")
        return run(args.mode, cfg, args.seed, args.workers, args.out_dir)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"failed: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
