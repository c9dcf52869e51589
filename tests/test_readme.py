"""The README's quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_blocks() -> list:
    """The ```python blocks of the README's "Quick start" section, in order."""
    section = README.read_text().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_quick_start_runs_in_one_namespace(capsys):
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    gap, verdict = capsys.readouterr().out.splitlines()
    assert float(gap) < 1e-14
    assert verdict == namespace["report"].verdict == "chaotic"
