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
import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import __version__
from .abm import ABMConfig, simulate_abm
from .filtering import FilterConfig, GammaSpec, init_ensemble, load_ensemble_snapshots, run_filter, save_filter_result
from .hawkes import (HawkesParams, check_labels, json_floats, load_count_series, read_json, require_keys,
                     save_count_series, simulate, write_table)
from .ingest import aggregate, clean, read_event_csv, save_cleaning_report
from .network import (MEASURES, OUT_DEGREE, error_metrics, mean_network, rank_distribution, save_network,
                      save_rank_distribution, threshold_subnetwork)
from . import experiments


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
    parser.add_argument("--workers", type=_worker_count, default=1, help="parallel node workers (>= 1)")
    parser.add_argument("--out-dir", type=Path, default=Path("out"), help="artifact directory")
    return parser


def _worker_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text!r}")
    return int(text)


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


# Readers turn one JSON value into a typed run argument or raise. A ConfigError
# names the nested key it is about; any other error is reported under the key.

def _reader(ok: Callable, why: str, convert: Callable = lambda value: value):
    """Reader of the JSON values ``ok`` accepts, converted by ``convert``."""
    def read(value):
        if not ok(value):
            raise ValueError(why)
        return convert(value)

    return read


def _integer(low: int, why: str = ""):
    return _reader(lambda v: type(v) is int and v >= low, why or f"must be an integer >= {low}")


def _object(build: Callable):
    return _reader(lambda v: type(v) is dict, "must be a JSON object", build)


def _list(item: Callable):
    return _reader(lambda v: type(v) is list and len(v) > 0, "must be a non-empty JSON array",
                   lambda v: [item(x) for x in v])


_positive = _reader(lambda v: json_floats(v) > 0, "must be positive", float)
_non_negative = _reader(lambda v: json_floats(v) >= 0, "must be a finite number >= 0", float)
_flag = _reader(lambda v: type(v) is bool, "must be true or false")
_path = _reader(lambda v: type(v) is str and v != "", "must be a non-empty path string", Path)
_measure = _reader(lambda v: v in MEASURES, f"must be one of {MEASURES}")


def _priors(obj: dict) -> list[GammaSpec]:
    specs = []
    for group in ("baseline", "decay", "excitation"):
        try:
            mean, variance = json_floats(obj[group]["mean"]), json_floats(obj[group]["variance"])
        except (LookupError, TypeError, ValueError) as err:
            raise ConfigError(f"priors.{group}: must hold a finite mean and variance") from err
        try:
            specs.append(GammaSpec(mean, variance))
        except ValueError as err:
            raise ConfigError(f"priors.{group}: must be a valid gamma prior: {err}") from err
    return specs


def _threshold(rule: dict) -> dict:
    if len(rule) != 1 or not rule.keys() <= {"relative_factor", "absolute"}:
        raise ValueError("must be an object with exactly one of relative_factor or absolute")
    (key, value), = rule.items()
    try:
        return {key: _non_negative(value)}
    except ValueError as err:
        raise ConfigError(f"threshold.{key}: {err}") from err


def _write_manifest(out_dir: Path, mode: str, cfg: dict, seed: int) -> None:
    # worker count is deliberately absent: outputs are independent of it
    manifest = {
        "mode": mode,
        "seed": seed,
        "config": cfg,
        "config_sha256": hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "versions": {
            "countnet": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


# Each run function receives the typed arguments of parse_config and looks
# the library functions up on this module when it runs, so a tracer can swap them.

def _run_simulate_hawkes(a: SimpleNamespace, workers: int, out_dir: Path) -> None:
    series = simulate(a.params, a.dt, a.n_steps, a.seed)
    save_count_series(series, out_dir / "counts.csv", seed=a.seed, params=a.params)


def _run_simulate_abm(a: SimpleNamespace, workers: int, out_dir: Path) -> None:
    if a.agent_trace:
        series, agents = simulate_abm(a.abm, a.n_steps, a.seed, return_agent_trace=True)
        write_table(out_dir / "agents.csv", None, ",".join(["%d"] * agents.shape[1]) + "\n", agents)
    else:
        series = simulate_abm(a.abm, a.n_steps, a.seed)
    a.abm.save(out_dir / "abm_config.json")
    save_count_series(series, out_dir / "counts.csv", seed=a.seed)


def _run_aggregate(a: SimpleNamespace, workers: int, out_dir: Path) -> None:
    log = read_event_csv(a.events_path, t0=a.t0, t1=a.t1)
    if a.clean:
        log, report = clean(log, a.min_node_total, a.dead_day_threshold)
        save_cleaning_report(report, out_dir / "cleaning.json")
    series = aggregate(log, a.dt)
    save_count_series(series, out_dir / "counts.csv", seed=a.seed)


def _run_filter_mode(a: SimpleNamespace, workers: int, out_dir: Path) -> None:
    data, _meta = load_count_series(a.counts_path)
    # read before the first step, so that a truth that does not fit fails the run at once
    truth = None if a.truth_path is None else HawkesParams.load(a.truth_path)
    fcfg = FilterConfig(a.seed, a.record_intensity_history)
    result = run_filter(data, init_ensemble(data.m, a.ensemble_size, *a.priors, a.seed), fcfg, workers,
                        progress=lambda step, total: print(f"filter: step {step}/{total}", file=sys.stderr),
                        truth=truth)
    report = None if truth is None else error_metrics(result.history, a.excitation_scale)
    save_filter_result(result, out_dir, report)


def _node_labels(obj, m: int) -> list[str] | None:
    """A ``result.json``'s node labels: null, or m distinct strings."""
    require_keys(obj, ("node_labels",))
    labels = obj["node_labels"]
    if labels is not None and (type(labels) is not list or not all(type(x) is str for x in labels)):
        raise ValueError("node_labels must be null or a list of strings")
    check_labels(labels, m)
    return labels


def _run_analyze_mode(a: SimpleNamespace, workers: int, out_dir: Path) -> None:
    ensembles = load_ensemble_snapshots(a.result_dir)
    ensembles.check_complete()  # an archive that misses a node fails before its result.json is read
    labels = read_json(a.result_dir / "result.json", lambda obj: _node_labels(obj, ensembles.m))
    net = mean_network(ensembles, labels)
    save_network(net, out_dir / "edges.csv", out_dir / "network.json")
    if a.threshold is not None:
        sub = threshold_subnetwork(net, **a.threshold)
        save_network(sub, out_dir / "subnetwork_edges.csv", out_dir / "subnetwork.json")
    dist = rank_distribution(ensembles, a.measure, labels)
    save_rank_distribution(dist, out_dir / f"rank_{a.measure}.csv")


def _run_experiment_1(a: SimpleNamespace, workers: int, out_dir: Path) -> None:
    run = experiments.run_perfect_model(
        a.s1, a.s2, a.seed, n_steps=a.n_steps, ensemble_size=a.ensemble_size,
        workers=workers, record_intensity=a.record_intensity_history,
    )
    run.truth.save(out_dir / "truth.json")
    save_count_series(run.data, out_dir / "counts.csv", seed=a.seed, params=run.truth)
    save_filter_result(run.result, out_dir, run.report)


def _run_experiment_2(a: SimpleNamespace, workers: int, out_dir: Path) -> None:
    run = experiments.run_abm_experiment(
        a.seed, n_steps=a.n_steps, ensemble_size=a.ensemble_size, workers=workers, top_k=a.top_k,
    )
    run.config.save(out_dir / "abm_config.json")
    save_count_series(run.data, out_dir / "counts.csv", seed=a.seed)
    save_filter_result(run.result, out_dir)
    structure = {"top_k": a.top_k, "overlap_with_generator": run.structure_overlap}
    (out_dir / "structure.json").write_text(json.dumps(structure, indent=2) + "\n")


def _run_sweep(a: SimpleNamespace, workers: int, out_dir: Path) -> None:
    seeds = a.seeds if a.seeds is not None else [a.seed + k for k in range(5)]
    rows = experiments.run_excitation_sweep(
        a.s1_values, a.s2_values, seeds, n_steps=a.n_steps, ensemble_size=a.ensemble_size,
    )
    # each scale as its repr, the shortest text that reads back to it
    write_table(out_dir / "sweep.csv", ["s1", "s2", "frobenius_mean"], "%r,%r,%.10g\r\n",
                *(np.array([row[key] for row in rows]) for key in ("s1", "s2", "frobenius_mean")))
    (out_dir / "sweep.json").write_text(json.dumps(rows, indent=2) + "\n")


_REQUIRED = object()  # the default of a key that a mode cannot run without
_ENSEMBLE = _integer(2, "must be an integer: an ensemble needs at least 2 members")
_TOY_ENSEMBLE = (_ENSEMBLE, experiments.TOY_ENSEMBLE)

# per mode: its run function and, per key it reads, (reader, default);
# "mode" and "seed" are accepted by every mode
SCHEMA = {
    "simulate-hawkes": (_run_simulate_hawkes, {
        "params": (_object(HawkesParams.from_json), _REQUIRED),
        "dt": (_positive, _REQUIRED),
        "n_steps": (_integer(1), _REQUIRED),
    }),
    "simulate-abm": (_run_simulate_abm, {
        "abm": (_object(ABMConfig.from_json), _REQUIRED),
        "n_steps": (_integer(1), _REQUIRED),
        "agent_trace": (_flag, False),
    }),
    "aggregate": (_run_aggregate, {
        "events_path": (_path, _REQUIRED),
        "dt": (_positive, _REQUIRED),
        "t0": (json_floats, None),
        "t1": (json_floats, None),
        "clean": (_flag, False),
        "min_node_total": (_integer(0), 0),
        "dead_day_threshold": (_integer(0), 0),
    }),
    "filter": (_run_filter_mode, {
        "counts_path": (_path, _REQUIRED),
        "ensemble_size": (_ENSEMBLE, _REQUIRED),
        "priors": (_object(_priors), _REQUIRED),
        "record_intensity_history": (_flag, False),
        "truth_path": (_path, None),
        "excitation_scale": (_positive, 1.0),
    }),
    "analyze": (_run_analyze_mode, {
        "result_dir": (_path, _REQUIRED),
        "measure": (_measure, OUT_DEGREE),
        "threshold": (_object(_threshold), None),
    }),
    "experiment-1": (_run_experiment_1, {
        "s1": (_positive, _REQUIRED),
        "s2": (_positive, _REQUIRED),
        "n_steps": (_integer(1), experiments.TOY_STEPS),
        "ensemble_size": _TOY_ENSEMBLE,
        "record_intensity_history": (_flag, False),
    }),
    "experiment-2": (_run_experiment_2, {
        "n_steps": (_integer(1), experiments.ABM_STEPS),
        "ensemble_size": _TOY_ENSEMBLE,
        "top_k": (_integer(1), 5),
    }),
    "sweep": (_run_sweep, {
        "s1_values": (_list(_positive), _REQUIRED),
        "s2_values": (_list(_positive), _REQUIRED),
        "seeds": (_list(_integer(0)), None),  # None: the run seed and the four after it
        "n_steps": (_integer(1), experiments.TOY_STEPS),
        "ensemble_size": _TOY_ENSEMBLE,
    }),
}
MODES = (*SCHEMA, "validate")
# filter keys that are only read when another key is given
_READ_ONLY_WITH = {"excitation_scale": "truth_path"}


def parse_config(mode: str, cfg: dict, seed: int | None) -> tuple[SimpleNamespace, list[str]]:
    """The typed arguments of ``mode``'s run and every issue in ``cfg``; ``seed`` (--seed) wins."""
    values = cfg if seed is None else {**cfg, "seed": seed}
    args: dict = {}
    issues: list[str] = []
    seed_key = (_integer(0, "must be a non-negative integer"), _REQUIRED)
    for key, (read, default) in {"seed": seed_key, **SCHEMA[mode][1]}.items():
        if key not in values:
            if default is _REQUIRED:
                issues.append(f"{key}: required for mode {mode}")
            args[key] = default
            continue
        try:
            args[key] = read(values[key])
        except (LookupError, TypeError, ValueError) as err:
            issues.append(str(err) if isinstance(err, ConfigError) else f"{key}: {err}")
    a = SimpleNamespace(**args)
    if not issues and mode == "simulate-hawkes" and (a.params.decay * a.dt >= 1.0).any():
        issues.append("params.beta: decay * dt >= 1 is rejected for simulation; "
                      "the intensity recursion could undershoot the baseline or oscillate")
    if not issues and mode == "aggregate" and None not in (a.t0, a.t1) and a.t1 < a.t0:
        issues.append("t1: must not be before t0")
    return a, issues


def unknown_keys(mode: str, cfg: dict) -> list[str]:
    """Warnings for config keys that ``mode`` does not read."""
    keys = SCHEMA[mode][1]
    warnings = []
    for key in cfg:
        needs = _READ_ONLY_WITH.get(key)
        if key not in keys and key not in ("mode", "seed"):
            warnings.append(f"unknown key '{key}' for mode {mode}")
        elif needs is not None and needs not in cfg:
            warnings.append(f"key '{key}' is not read unless {needs} is given")
    return warnings


def run(mode: str, cfg: dict, seed: int | None, workers: int, out_dir: Path) -> int:
    if mode == "validate":
        declared = cfg.get("mode")
        if declared not in MODES[:-1]:
            issues, warnings = [f"mode: config must declare one of {MODES[:-1]}"], []
        else:
            issues, warnings = parse_config(declared, cfg, seed)[1], unknown_keys(declared, cfg)
        for line in [f"warning: {w}" for w in warnings] + issues:
            print(line, file=sys.stderr)
        verdict = "invalid" if issues else "ok"
        print(f"{verdict}: {len(issues)} issue(s), {len(warnings)} warning(s)", file=sys.stderr)
        return 1 if issues else 0
    for warning in unknown_keys(mode, cfg):
        print(f"warning: {warning}", file=sys.stderr)
    args, issues = parse_config(mode, cfg, seed)
    if issues:
        raise ConfigError("; ".join(issues))
    _write_manifest(out_dir, mode, cfg, args.seed)
    SCHEMA[mode][0](args, workers, out_dir)
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
