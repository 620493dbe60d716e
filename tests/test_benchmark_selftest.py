"""The benchmark's own self-test, and its configs against the CLI's config schema.

The benchmark checks the artifacts of every workload (snapshot archive
included), so a format break fails here rather than as failed benchmark ops.
"""

import subprocess
import sys
from pathlib import Path

from countnet.cli import parse_config, unknown_keys

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def test_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]


# a key the filter no longer reads (a truth_path alone gives the error curves) that the six-node
# filter config still names: the benchmark's files change only with the benchmark itself
RETIRED_KEY = "record_param_history"


def test_benchmark_configs_use_known_keys(tmp_path, monkeypatch):
    # every op config, at both sizes, names only keys its mode reads, but for the retired key,
    # which gives the unknown-key warning and nothing else, and parses with no issue
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    for size, sizes in (("full", workloads.FULL), ("tiny", workloads.TINY)):
        for name, workload in workloads.WORKLOADS.items():
            work = tmp_path / size / name
            work.mkdir(parents=True)
            inputs = workload.make_inputs(work, 0, sizes[name])
            for op in workload.make_ops(inputs, work):
                expected = [f"unknown key '{RETIRED_KEY}' for mode {op.mode}"] if RETIRED_KEY in op.config else []
                assert unknown_keys(op.mode, op.config) == expected, (size, name, op.mode)
                assert parse_config(op.mode, op.config, 0)[1] == [], (size, name, op.mode)
