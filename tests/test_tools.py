"""tools/identity_gate.py covers the inputs its docstring and ROADMAP.md quote."""

import importlib.util
import sys
from pathlib import Path

GATE = Path(__file__).resolve().parents[1] / "tools" / "identity_gate.py"


def test_identity_gate_generates_819_argv_and_57_pipeline_operations(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the gate puts bench/ on it
    spec = importlib.util.spec_from_file_location("identity_gate", GATE)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    assert sum(1 for _ in gate.gate_argv()) == 819
    assert sum(1 for _ in gate.pipeline_ops()) == 57
