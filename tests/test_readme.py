"""The README's Python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

from geonets.io import _build_parser

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


def test_readme_command_line_block_names_every_subcommand_and_option():
    """Each subcommand of the parser has an entry in the README's
    command-line block that names every one of its option strings; only the
    help flags, which every subcommand has, go unlisted."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, flags=re.M | re.S).group(1)
    entries = {m.group(1): m.group(0)
               for m in re.finditer(r"^geonets (\S+).*?(?=^geonets |\Z)", block, flags=re.M | re.S)}
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    assert sorted(entries) == sorted(subparsers.choices)
    missing = [(name, option) for name, sub in subparsers.choices.items()
               for action in sub._actions for option in action.option_strings
               if option not in ("-h", "--help")
               and not re.search(rf"{re.escape(option)}(?![\w-])", entries[name])]
    assert missing == []
