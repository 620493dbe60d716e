"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md (Library quick start)", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out
    assert printed.count("[[") == 2  # the adjacency and the edge sds
