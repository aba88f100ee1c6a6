"""tools/bench_pairs.py records where each side ran, runs each side without writing
bytecode, and refuses pairs of checkouts whose path lengths or bytecode would bias the
comparison."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    runs, envs = [], []

    def perfbench(argv, cwd, env, **kwargs):
        runs.append(cwd)
        envs.append(env)
        line = json.dumps({"metrics": {"op_ms_p50": {"value": float(len(runs))}},
                           "correct": True, "failed": 0})
        return subprocess.CompletedProcess(argv, 0, stdout=line + "\n")

    monkeypatch.setattr(module.subprocess, "run", perfbench)
    module.runs, module.envs = runs, envs
    return module


def test_roots_of_unequal_length_refused_before_a_run(bench_pairs, tmp_path):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit, match="differ in path length"):
        bench_pairs.main(str(out), "pair", "roc_reference", "1-2",
                         f"A={tmp_path / 'aa'}@1", f"B={tmp_path / 'abc'}@2")
    assert bench_pairs.runs == [] and not out.exists()


def test_root_with_bytecode_refused_before_a_run(bench_pairs, tmp_path):
    out = tmp_path / "bench.json"
    (tmp_path / "ab" / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    with pytest.raises(SystemExit, match="holds a __pycache__ directory"):
        bench_pairs.main(str(out), "pair", "roc_reference", "1-2",
                         f"A={tmp_path / 'aa'}@1", f"B={tmp_path / 'ab'}@2")
    assert bench_pairs.runs == [] and not out.exists()


def test_each_run_writes_no_bytecode(bench_pairs, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CALLER_SETTING", "kept")
    bench_pairs.main("bench.json", "pair", "roc_reference", "1-2", "A=aa@1", "B=ab@2", "5")
    assert len(bench_pairs.envs) == 4
    for env in bench_pairs.envs:
        assert env["PYTHONDONTWRITEBYTECODE"] == "1" and env["CALLER_SETTING"] == "kept"


def test_each_record_names_its_absolute_root(bench_pairs, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bench_pairs.main("bench.json", "pair", "roc_reference", "1-2", "A=aa@1", "B=ab@2", "5")
    records = json.loads((tmp_path / "bench.json").read_text())["records"]
    roots = [str(tmp_path / "aa"), str(tmp_path / "ab")]
    assert bench_pairs.runs == [*roots, *roots[::-1]]
    assert [(r["side"], r["rev"], r["root"]) for r in records] == [
        ("A", "1", roots[0]), ("B", "2", roots[1]), ("B", "2", roots[1]), ("A", "1", roots[0])]


@pytest.mark.parametrize("seeds", ["1-1", "2-1"])
def test_range_of_fewer_than_two_seeds_refused_before_a_run(bench_pairs, tmp_path, seeds):
    # one run a side has no quartiles: statistics.quantiles needs two
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit, match=f"seed range {seeds} holds fewer than 2 seeds"):
        bench_pairs.main(str(out), "pair", "roc_reference", seeds,
                         f"A={tmp_path / 'aa'}@1", f"B={tmp_path / 'ab'}@2")
    assert bench_pairs.runs == [] and not out.exists()


def test_added_pairs_continue_their_comparisons_numbering(bench_pairs, tmp_path, monkeypatch):
    # a second call on the same comparison goes on from pair 2 with A first, B first
    # after it; another comparison in the same file starts from its own pair 0
    monkeypatch.chdir(tmp_path)
    for name, seeds in [("pair", "1-2"), ("pair", "3-5"), ("control", "1-2")]:
        bench_pairs.main("bench.json", name, "roc_reference", seeds, "A=aa@1", "B=ab@2", "5")
    records = json.loads((tmp_path / "bench.json").read_text())["records"]
    assert [(r["comparison"], r["pair"], r["seed"], r["side"]) for r in records] == [
        ("pair", 0, 1, "A"), ("pair", 0, 1, "B"), ("pair", 1, 2, "B"), ("pair", 1, 2, "A"),
        ("pair", 2, 3, "A"), ("pair", 2, 3, "B"), ("pair", 3, 4, "B"), ("pair", 3, 4, "A"),
        ("pair", 4, 5, "A"), ("pair", 4, 5, "B"),
        ("control", 0, 1, "A"), ("control", 0, 1, "B"), ("control", 1, 2, "B"),
        ("control", 1, 2, "A")]
