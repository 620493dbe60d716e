"""The README's code runs as written, its data formats name every output, its config key tables
name each mode's keys, and its minimal configs validate."""

import json
import re
from pathlib import Path

from countnet import cli
from countnet.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md (Library quick start)", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out
    assert printed.count("[[") == 2  # the adjacency and the edge sds


def readme_section(start: str, end: str) -> str:
    text = README.read_text()
    section = text[text.index(start):]
    return section[:section.index(end, len(start))]


def data_formats() -> str:
    return readme_section("## Data formats", "\n## ")


def written_files(out: Path) -> list[str]:
    return sorted(path.relative_to(out).as_posix() for path in out.rglob("*") if path.is_file())


def run_filter_with_truth(tmp_path: Path) -> Path:
    params = {"mu": [2.0, 1.0], "beta": [5.0, 5.0], "alpha": [[0.5, 0.2], [0.0, 1.0]]}
    (tmp_path / "truth.json").write_text(json.dumps(params))
    (tmp_path / "sim.json").write_text(json.dumps({"params": params, "dt": 0.1, "n_steps": 20}))
    assert main(["simulate-hawkes", "--config", str(tmp_path / "sim.json"), "--seed", "0",
                 "--out-dir", str(tmp_path / "sim")]) == 0
    priors = {group: {"mean": 1.0, "variance": 0.5} for group in ("baseline", "decay", "excitation")}
    (tmp_path / "flt.json").write_text(json.dumps({
        "counts_path": str(tmp_path / "sim" / "counts.csv"), "ensemble_size": 8, "priors": priors,
        "record_intensity_history": True,
        "truth_path": str(tmp_path / "truth.json"),
    }))
    out = tmp_path / "flt"
    assert main(["filter", "--config", str(tmp_path / "flt.json"), "--seed", "0", "--out-dir", str(out)]) == 0
    return out


def test_data_formats_name_every_filter_output(tmp_path):
    written = written_files(run_filter_with_truth(tmp_path))
    assert len(written) == 13
    assert [name for name in written if f"`{name}`" not in data_formats()] == []


def test_data_formats_name_every_analyze_output(tmp_path):
    (tmp_path / "ana.json").write_text(json.dumps({
        "result_dir": str(run_filter_with_truth(tmp_path)), "threshold": {"absolute": 0.0},
    }))
    out = tmp_path / "ana"
    assert main(["analyze", "--config", str(tmp_path / "ana.json"), "--seed", "0", "--out-dir", str(out)]) == 0
    written = written_files(out)
    assert len(written) == 6
    assert [name for name in written if f"`{name}`" not in data_formats()] == []


def test_config_key_tables_name_each_mode_s_keys():
    section = readme_section("### Config keys", "\n## ")
    tables = re.findall(r"^`([a-z0-9-]+)`\n\n\| key \|.*\n\|[-|]+\|\n((?:\|.*\n)+)", section, re.MULTILINE)
    named = {mode: sorted(key for row in rows.splitlines() for key in re.findall(r"`([^`]+)`", row.split("|")[1]))
             for mode, rows in tables}
    assert named == {mode: sorted(keys) for mode, (_, keys) in cli.SCHEMA.items()}


def test_minimal_configs_validate(tmp_path, capsys):
    section = readme_section("## CLI", "### Config keys")
    # the usage lines give each config file's mode
    modes = {name: mode for mode, name in re.findall(r"^countnet (\S+) +--config (\S+)", section, re.MULTILINE)
             if mode != "validate"}
    block = re.search(r"Minimal configs:\n\n```jsonc\n(.*?)```", section, re.DOTALL).group(1)
    parts = re.split(r"^// (\S+) - .*\n", block, flags=re.MULTILINE)[1:]
    assert len(parts) == 10
    for name, body in zip(parts[::2], parts[1::2]):
        path = tmp_path / name
        path.write_text(json.dumps({**json.loads(body), "mode": modes[name]}))
        capsys.readouterr()
        assert main(["validate", "--config", str(path), "--seed", "0"]) == 0, name
        assert "ok: 0 issue(s), 0 warning(s)" in capsys.readouterr().err, name
