"""The README's Python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)


def test_readme_python_blocks_run(monkeypatch):
    assert len(BLOCKS) >= 3
    monkeypatch.chdir(ROOT)  # the examples load the bundled file by a relative path
    namespace: dict = {}
    for block in BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)
