"""The README's library example runs as written, and its command lines parse."""

import re
import shlex
from pathlib import Path

import pytest

from cyclosense import harness
from cyclosense.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out == "True\n"
    lines = (tmp_path / "roc.csv").read_text().splitlines()
    assert lines[0] == harness.ROC_CSV_HEADER
    assert len(lines) == 3   # both detectors at one SNR and one target Pf


def test_command_lines_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("cyclosense ")]
    assert len(lines) == 5
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
