"""bench/tracing.py rebinds module-level names of entrate to trace the
benchmark; a refactor that unbinds one of them breaks the traced run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from entrate import unchecked_density
from entrate.cli import main

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves_to_a_callable():
    for module_name, names in _load_tracing().PATCHES.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_hooks_read_trajectory_length_and_decompose_sizes(capsys):
    tracer = _load_tracing().Tracer()
    blochsun = importlib.import_module("entrate.blochsun")
    tracer.install()
    try:
        tracer.enabled = True
        assert main(["evolve", "--t-end=0.05", "--dt=0.01", "--", "xy", "0.6", "0", "0.3"]) == 0
        blochsun.decompose(unchecked_density(np.eye(6) / 6), 2, 3)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.counters["lindblad.steps"] == 5
    assert tracer.counters["blochsun.generator_products"] == 3 * 8 + 3 + 8
    assert not tracer.table()["error"].any()
