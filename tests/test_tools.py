"""tools/identity_gate.py covers the inputs its docstring and ROADMAP.md quote,
and its --compare finds nothing moved between a tree and itself; tools/ab_time.py
runs."""

import importlib.util
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GATE = ROOT / "tools" / "identity_gate.py"
AB_TIME = ROOT / "tools" / "ab_time.py"


def _load(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tools put bench/ on it
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_gate_generates_819_argv_and_57_pipeline_operations(monkeypatch):
    gate = _load(GATE, monkeypatch)
    assert sum(1 for _ in gate.gate_argv()) == 819
    assert sum(1 for _ in gate.pipeline_ops()) == 57


def test_identity_gate_compare_of_a_tree_with_itself_moves_nothing(monkeypatch):
    gate = _load(GATE, monkeypatch)
    argvs = list(itertools.islice(gate.gate_argv(), 0, None, 20))
    try:
        report = gate.compare(ROOT, argvs).splitlines()
    finally:  # the two imported copies of the package
        for name in [name for name in sys.modules if name.startswith(("entrate_a", "entrate_b"))]:
            del sys.modules[name]
    rows = [line.split() for line in report[1:-1]]
    assert {row[0] for row in rows} == {argv[0] for argv in argvs}
    assert sum(int(row[1]) for row in rows) == len(argvs)
    assert all(row[2:] == ["0", "0", "0"] for row in rows)
    assert report[-1] == "exit code or text outside the numbers changed: 0"


def test_ab_time_runs_one_round_of_the_current_tree_on_both_sides(monkeypatch, capsys):
    ab_time = _load(AB_TIME, monkeypatch)
    try:
        assert ab_time.main([str(ROOT), str(ROOT), "--rounds", "1", "--calls", "1"]) == 0
    finally:  # the two imported copies of the package
        for name in [name for name in sys.modules if name.startswith(("entrate_a", "entrate_b"))]:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    stages = [line.split()[0] for line in lines[1:]]
    assert stages == ["new_density", "decompose", "recompose", "LindbladModel", "rhs_generic",
                      "coefficient_rates", "kraus", "bipartite", "main", "main", "main", "main",
                      "main", "main"]
    assert all(int(a) + int(b) <= 1 for *_, a, b in map(str.split, lines[1:]))
