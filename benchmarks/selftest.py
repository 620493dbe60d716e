"""Fast self-test of the benchmark: every workload at a tiny size, both modes.

    python3 benchmarks/selftest.py

Asserts that every output check passes and that every metric named in
BENCHMARK.json is emitted as a finite number with its declared unit.
"""

from __future__ import annotations

import json
import math
import sys

import run


def main() -> int:
    if not (run.SRC / "countnet" / "__init__.py").is_file():
        print(f"error: no countnet sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert declared[False] == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end disagrees with run.py"
    assert declared[True] == run.PER_LAYER_UNITS, "BENCHMARK.json per_layer disagrees with run.py"
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            line, record = run.run_benchmark(name, 3, 0.1, trace, workloads.TINY)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] and line["failed"] == 0, record["errors"]
            assert line["attempted"] >= 1
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            assert got == declared[trace], (name, trace, got)
            for key, metric in line["metrics"].items():
                assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), key
            json.dumps(record)
            print(f"ok: {name} trace={int(trace)} ops={line['attempted']}", file=sys.stderr)
    print("selftest passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
