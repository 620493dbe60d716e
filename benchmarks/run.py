"""countnet pipeline benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) through ``countnet.cli.main`` in
this process, as a closed loop: one client issues the subcommands of a pass
back to back, and passes repeat for ``--seconds``. The first pass is a
discarded warm-up. With ``--trace 0`` the last stdout line carries the
end-to-end metrics, medians over passes; with ``--trace 1`` it carries the
per-layer metrics of ``tracing.py`` spans, from traced passes alternated with
untraced ones. A full record (environment, per-pass figures, spans) goes to
``.bench_out/`` in the repository root.

End-to-end times are calibrated. The sizing host is a shared 2-vCPU guest
whose speed drifts by up to a factor of 1.7 within minutes, so raw medians of
25 s runs spread by up to two fifths across runs. A fixed job (``calibrate``)
runs before and after every subcommand of a pass and every set-up sample;
the pass's raw times are scaled by the reference time of that job over its
median measured time, which gives seconds at the reference speed. Raw
times and calibrations stay in the record.

BLAS is pinned to one thread: the parallel workload runs two worker
processes, and workers times BLAS threads must not exceed the two cores the
benchmark was sized on.
"""

from __future__ import annotations

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # must precede the first numpy import

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import heapq  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
MIN_PLAIN_PASSES = 3
# The sizing host (2-vCPU KVM guest, Intel Xeon, 4 MiB L2 per core) runs
# CALIBRATION_STEPS of ``calibrate`` in CALIBRATION_REFERENCE_S when idle.
CALIBRATION_STEPS = 1000
CALIBRATION_REFERENCE_S = 0.010

END_TO_END_UNITS = {
    "wall_s": "s",
    "prepare_s": "s",
    "filter_s": "s",
    "analyze_s": "s",
    "node_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "edge_corr": "r",
}
PER_LAYER_UNITS = {
    "hawkes.simulate_s": "s",
    "hawkes.save_counts_s": "s",
    "hawkes.load_counts_s": "s",
    "hawkes.counts_cells": "count",
    "abm.simulate_abm_s": "s",
    "abm.us_per_location_step": "us",
    "ingest.read_event_csv_s": "s",
    "ingest.clean_s": "s",
    "ingest.aggregate_s": "s",
    "ingest.events": "count",
    "ingest.events_removed": "count",
    "filtering.step_ms_p50": "ms",
    "filtering.step_ms_p99": "ms",
    "filtering.step_samples": "count",
    "filtering.param_moments_s": "s",
    "filtering.history_share": "ratio",
    "filtering.run_filter_s": "s",
    "filtering.init_ensemble_s": "s",
    "filtering.save_result_s": "s",
    "filtering.result_bytes": "bytes",
    "filtering.load_snapshots_s": "s",
    "filtering.node_steps": "count",
    "filtering.tensor_bytes": "bytes",
    "filtering.parallel_speedup": "ratio",
    "network.rank_distribution_s": "s",
    "network.ms_per_member": "ms",
    "network.mean_network_s": "s",
    "network.threshold_s": "s",
    "network.save_s": "s",
    "network.error_metrics_s": "s",
    "cli.self_s": "s",
    "hawkes.self_s": "s",
    "abm.self_s": "s",
    "ingest.self_s": "s",
    "filtering.self_s": "s",
    "network.self_s": "s",
    "trace_overhead_pct": "%",
}
SUMMED_FACTS = ("node_steps", "result_bytes", "counts_cells", "events", "events_removed",
                "members_ranked", "abm_location_steps")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def calibrate(repeats: int = 2) -> float:
    """Seconds per run of a fixed job, averaged over ``repeats`` runs.

    The job mixes what the workloads spend their time on: interpreter
    overhead, heap operations and small numpy calls. It never touches
    countnet, so a change to the program cannot move it.
    """
    gen = np.random.Generator(np.random.Philox(0))
    a = gen.random((6, 64))
    t0 = time.perf_counter()
    for _ in range(repeats):
        heap: list[tuple[float, int]] = []
        for k in range(CALIBRATION_STEPS):
            total = float(np.einsum("im,m->i", a, gen.gamma(2.0, 1.0, size=64)).sum())
            heapq.heappush(heap, (total, k))
            if len(heap) > 32:
                heapq.heappop(heap)
    return (time.perf_counter() - t0) / repeats


def calibrated(raw: list[float], cal: list[float]) -> list[float]:
    """Scale ``raw`` times to the reference speed by the median of the
    calibrations ``cal`` taken around them."""
    scale = CALIBRATION_REFERENCE_S / statistics.median(cal)
    return [t * scale for t in raw]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Runner:
    """Runs passes of one workload and counts attempted and failed ops."""

    def __init__(self, work: Path, seed: int):
        from countnet import cli
        from tracing import Tracer, instrument

        self.cli, self.Tracer, self.instrument = cli, Tracer, instrument
        self.work, self.seed = work, seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._count = 0

    def run_ops(self, ops, pass_dir: Path, trace_calls=None, trace_methods=()) -> dict:
        """Run ``ops`` as one timed pass, then check the artifacts untimed.

        ``trace_calls`` (None: untraced) selects the cli names to trace.
        """
        pass_dir.mkdir(parents=True)
        argvs = []
        for i, op in enumerate(ops):
            cfg = pass_dir / f"config_{i}_{op.out}.json"
            cfg.write_text(json.dumps(op.config) + "\n")
            argvs.append([op.mode, "--config", str(cfg), "--seed", str(self.seed),
                          "--workers", str(op.workers), "--out-dir", str(pass_dir / op.out)])
        codes, logs, raw = [], [], []
        tracer = self.Tracer() if trace_calls is not None else None
        cal = [calibrate()]
        for op, argv in zip(ops, argvs):
            log = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stderr(log):
                if tracer is None:
                    codes.append(self.cli.main(argv))
                else:
                    with self.instrument(tracer, trace_calls, trace_methods):
                        codes.append(tracer.wrap(f"cli.{op.mode}", self.cli.main)(argv))
            raw.append(time.perf_counter() - t0)
            logs.append(log.getvalue())
            cal.append(calibrate())
        times = {"raw": raw, "calibrated": calibrated(raw, cal), "calibration": cal}
        phase = {"prepare": 0.0, "filter": 0.0, "analyze": 0.0}
        for op, t in zip(ops, times["calibrated"]):
            phase[op.phase] += t

        facts = dict.fromkeys(SUMMED_FACTS, 0)
        facts["tensor_bytes"] = 0
        corr = []
        failed = 0
        for op, code, log in zip(ops, codes, logs):
            error = f"exit {code}: {log.strip().splitlines()[-1:]}" if code != 0 else None
            if error is None:
                try:
                    got = op.check(pass_dir / op.out)
                except Exception as err:  # noqa: BLE001 - a failed check fails the op, not the run
                    error = f"{type(err).__name__}: {err}"
            if error is not None:
                failed += 1
                self.errors.append(f"{pass_dir.name}/{op.out} ({op.mode}): {error}")
                continue
            for key in SUMMED_FACTS:
                facts[key] += got.get(key, 0)
            facts["tensor_bytes"] = max(facts["tensor_bytes"], got.get("tensor_bytes", 0))
            if "edge_corr" in got:
                corr.append(got["edge_corr"])
        self.attempted += len(ops)
        self.failed += failed
        shutil.rmtree(pass_dir)
        return {"wall_s": sum(phase.values()), **{f"{k}_s": v for k, v in phase.items()},
                "op_times": times, "facts": facts, "edge_corr": _median(corr), "failed": failed,
                "tracer": tracer}

    def next_dir(self, tag: str) -> Path:
        self._count += 1
        return self.work / f"pass{self._count:03d}_{tag}"

    def reproducibility(self, size: dict) -> None:
        """net100 on a short prefix: workers=1 and workers=2 must write the same bytes."""
        import workloads

        inputs_dir = self.work / "repro_inputs"
        inputs_dir.mkdir()
        inp = workloads.net100_inputs(inputs_dir, self.seed, size)
        d = self.next_dir("repro")
        sim, serial = workloads.net100_ops(inp, d, workers=1, steps=size["prefix_steps"])[:2]
        parallel = dataclasses.replace(
            serial, out="flt_w2", workers=2,
            check=lambda o: {**serial.check(o), **_same_bytes(d / serial.out, o)})
        self.run_ops([sim, serial, parallel], d)


def _same_bytes(a: Path, b: Path) -> dict:
    from workloads import CheckFailed

    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        raise CheckFailed("workers=1 and workers=2 wrote different file sets")
    for rel in files_a:
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            raise CheckFailed(f"{rel} differs between workers=1 and workers=2")
    return {}


def measure_setup(samples: int = SETUP_SAMPLES) -> dict:
    """Interpreter start plus ``import countnet.cli``: what every CLI call pays."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    raw, cal = [], [calibrate()]
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import countnet.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        cal.append(calibrate())
    return {"raw": raw, "calibrated": calibrated(raw, cal), "calibration": cal}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_rounds(kinds, run_kind, seconds: float, min_rounds: int) -> list[tuple[str, dict]]:
    """Repeat rounds of ``kinds`` until another round would overrun ``seconds``."""
    passes, round_s = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for kind in kinds:
            passes.append((kind, run_kind(kind)))
            print(f"pass {len(passes)} {kind}: {passes[-1][1]['wall_s']:.3f} s", file=sys.stderr)
        round_s.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(round_s) >= min_rounds and elapsed + _median(round_s) > seconds:
            return passes


def end_to_end(passes: list[dict], setup: dict) -> dict:
    return {
        "wall_s": _median(p["wall_s"] for p in passes),
        "prepare_s": _median(p["prepare_s"] for p in passes),
        "filter_s": _median(p["filter_s"] for p in passes),
        "analyze_s": _median(p["analyze_s"] for p in passes),
        "node_steps_per_s": _median(_ratio(p["facts"]["node_steps"], p["filter_s"]) for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": _median(setup["calibrated"]),
        "edge_corr": _median(p["edge_corr"] for p in passes),
    }


def layer_metrics(p: dict) -> dict:
    """Per-layer figures of one traced pass."""
    tr, facts = p["tracer"], p["facts"]
    t = tr.total
    run_filter = t("filtering.run_filter")
    moments = t("filtering.param_moments")
    rank = t("network.rank_distribution")
    out = {
        "hawkes.simulate_s": t("hawkes.simulate"),
        "hawkes.save_counts_s": t("hawkes.save_count_series"),
        "hawkes.load_counts_s": t("hawkes.load_count_series"),
        "hawkes.counts_cells": facts["counts_cells"],
        "abm.simulate_abm_s": t("abm.simulate_abm"),
        "abm.us_per_location_step": 1e6 * _ratio(t("abm.simulate_abm"), facts["abm_location_steps"]),
        "ingest.read_event_csv_s": t("ingest.read_event_csv"),
        "ingest.clean_s": t("ingest.clean"),
        "ingest.aggregate_s": t("ingest.aggregate"),
        "ingest.events": facts["events"],
        "ingest.events_removed": facts["events_removed"],
        "filtering.param_moments_s": moments,
        "filtering.history_share": _ratio(moments, run_filter),
        "filtering.run_filter_s": run_filter,
        "filtering.init_ensemble_s": t("filtering.init_ensemble"),
        "filtering.save_result_s": t("filtering.save_filter_result"),
        "filtering.result_bytes": facts["result_bytes"],
        "filtering.load_snapshots_s": t("filtering.load_ensemble_snapshots"),
        "filtering.node_steps": facts["node_steps"],
        "filtering.tensor_bytes": facts["tensor_bytes"],
        "network.rank_distribution_s": rank,
        "network.ms_per_member": 1e3 * _ratio(rank, facts["members_ranked"]),
        "network.mean_network_s": t("network.mean_network"),
        "network.threshold_s": t("network.threshold_subnetwork"),
        "network.save_s": t("network.save_network") + t("network.save_rank_distribution"),
        "network.error_metrics_s": t("network.error_metrics"),
    }
    out.update({f"{layer}.self_s": v for layer, v in tr.self_times().items()})
    return out


def per_layer(passes: list[tuple[str, dict]]) -> dict:
    traced = [p for kind, p in passes if kind == "traced"]
    plain = [p for kind, p in passes if kind == "plain"]
    light = [p for kind, p in passes if kind == "parallel"]
    per_pass = [layer_metrics(p) for p in traced]
    out = {key: _median(m[key] for m in per_pass) for key in per_pass[0]}
    steps_ms = sorted(1e3 * d for p in traced for d in p["tracer"].durations("filtering.assimilate_step"))
    if len(steps_ms) >= 2:
        cuts = statistics.quantiles(steps_ms, n=100, method="inclusive")
        out["filtering.step_ms_p50"], out["filtering.step_ms_p99"] = cuts[49], cuts[98]
    else:
        out["filtering.step_ms_p50"] = out["filtering.step_ms_p99"] = _median(steps_ms)
    out["filtering.step_samples"] = len(steps_ms)
    parallel_run_filter = _median(p["tracer"].total("filtering.run_filter") for p in light)
    out["filtering.parallel_speedup"] = _ratio(out["filtering.run_filter_s"], parallel_run_filter)
    plain_wall = _median(p["wall_s"] for p in plain)
    out["trace_overhead_pct"] = 100.0 * _ratio(_median(p["wall_s"] for p in traced) - plain_wall, plain_wall)
    return out


def environment(workload: str, seed: int, size: dict) -> dict:
    def read(path: Path) -> str:
        try:
            return path.read_text().strip()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(index / "size")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": BLAS_ENV,
        "git_commit": commit,
        "workload": workload,
        "seed": seed,
        "shape": size,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, sizes: dict) -> tuple[dict, dict]:
    """Returns (the result line, the full record)."""
    import workloads

    size = sizes[workload]
    wl = workloads.WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        setup = measure_setup()
        inputs = wl.make_inputs(work, seed, size)
        runner = Runner(work, seed)
        # per-step spans need one process, so a traced parallel workload runs
        # serially and times its parallel filter in passes of their own
        serial = trace and size.get("workers", 1) > 1
        from tracing import CLI_CALLS, FILTER_METHODS

        def run_kind(kind: str) -> dict:
            d = runner.next_dir(kind)
            if kind == "parallel":
                return runner.run_ops(wl.make_ops(inputs, d), d,
                                      trace_calls=(("run_filter", "filtering.run_filter"),))
            ops = wl.make_ops(inputs, d, workers=1) if serial else wl.make_ops(inputs, d)
            if kind == "traced":
                return runner.run_ops(ops, d, CLI_CALLS, FILTER_METHODS)
            return runner.run_ops(ops, d)

        run_kind("plain")  # warm-up: lazy imports, allocator and page cache
        if trace:
            kinds = ["plain", "traced"] + (["parallel"] if serial else [])
            passes = timed_rounds(kinds, run_kind, seconds, min_rounds=2)
            metrics, units = per_layer(passes), PER_LAYER_UNITS
        else:
            passes = timed_rounds(["plain"], run_kind, seconds, MIN_PLAIN_PASSES)
            metrics, units = end_to_end([p for _, p in passes], setup), END_TO_END_UNITS
        # after the metrics, so its net100 run and worker processes stay out of
        # peak_rss_mb; its failures still count, the result line is built below
        runner.reproducibility(sizes["net100"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    line = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "environment": environment(workload, seed, size),
        "trace": trace,
        "result": line,
        "setup_s": setup,
        "errors": runner.errors,
        "passes": [
            {"kind": kind, **{k: v for k, v in p.items() if k != "tracer"},
             "spans": p["tracer"].spans if p["tracer"] is not None else None}
            for kind, p in passes
        ],
    }
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "countnet" / "__init__.py").is_file():
        print(f"error: no countnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    line, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    for err in record["errors"]:
        print(f"failed op: {err}", file=sys.stderr)
    print(f"record: {path}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
