"""The README's Python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    """Every ```python block runs, in order and in one namespace, as a reader
    working through the README would run them."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) >= 3
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for k, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {k + 1}", "exec"), namespace)
    assert (tmp_path / "net25.json").is_file()
    assert (tmp_path / "net25.svg").is_file()
    assert namespace["outcome"].status == "converged"
    capsys.readouterr()
