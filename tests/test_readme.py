"""The README's library example runs as written."""

import re
from pathlib import Path

from cyclosense import harness

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out == "Decision.H1_ACTIVE\n"
    lines = (tmp_path / "roc.csv").read_text().splitlines()
    assert lines[0] == harness.ROC_CSV_HEADER
    assert len(lines) == 3   # both detectors at one SNR and one target Pf
