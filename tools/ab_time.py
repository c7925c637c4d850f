"""Alternating in-process timings of two source trees, stage by stage.

Copies each tree's `src/entrate` into one temporary directory under the
package names `entrate_a` and `entrate_b`, imports both into this process
and times, in rounds that alternate which side runs first:

  * the stages of the benchmark's bipartite pipeline (`_pipeline` of
    bench/worker.py): new_density, decompose, recompose, LindbladModel,
    rhs_generic, coefficient_rates and the Kraus channel, on the first
    bipartite cycle of seed 1 (bench/workloads.py, imported read-only);
  * `cli.main(argv)` for one `rate`, one `criterion` and one short `evolve`
    argv, for the benchmark's long `evolve` (t_end 10, about 1000 rows)
    as CSV and as JSON, and for one `fig3` sweep at grid 101 as CSV.

For each stage it prints each side's median and quartiles over the rounds,
in microseconds per round, and how many rounds each side was faster:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
        python tools/ab_time.py /path/to/parent /path/to/change --rounds 21

Nothing is written under either tree.
"""

import argparse
import contextlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

sys.dont_write_bytecode = True  # import bench/workloads.py without writing next to it
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

SIDES = ("a", "b")
ARGV = {
    "main rate": ("rate", "--p", "0.6", "--qi", "0.3"),
    "main criterion": ("criterion", "--p", "0.6", "--qi", "0.3"),
    "main evolve": ("evolve", "--t-end", "1", "--", "xy", "0.6", "0", "0.3"),
    "main evolve 10 csv": ("evolve", "--t-end", "10", "--", "xy", "0.6", "0", "0.3"),
    "main evolve 10 json": ("evolve", "--t-end", "10", "--format", "json", "--",
                            "werner", "0.7", "0.1", "0.15", "0.05"),
    "main fig3 101 csv": ("fig3", "--grid", "101", "--p", "0.6"),
}


def load(trees) -> dict:
    """Each tree's package, imported under its side's name from a temporary copy."""
    packages = {}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            for side, tree in zip(SIDES, trees):
                shutil.copytree(Path(tree) / "src" / "entrate", Path(tmp) / f"entrate_{side}")
                packages[side] = importlib.import_module(f"entrate_{side}")
                importlib.import_module(f"entrate_{side}.cli")
        finally:
            sys.path.remove(tmp)
    return packages


def pipeline(pkg, spec: dict, times: dict) -> None:
    """bench/worker.py's `_pipeline`, adding each stage's time to `times`."""
    t0 = perf_counter()
    rho = pkg.new_density(spec["rho"])
    t1 = perf_counter()
    d = pkg.decompose(rho, spec["n"], spec["m"])
    t2 = perf_counter()
    pkg.recompose(d)
    t3 = perf_counter()
    model = pkg.LindbladModel(h0=spec["h0"], channels=spec["channels"])
    t4 = perf_counter()
    rho_dot = pkg.rhs_generic(model, rho)
    t5 = perf_counter()
    pkg.coefficient_rates(rho_dot, spec["n"], spec["m"])
    t6 = perf_counter()
    if "eta" in spec:
        ops_a, ops_b = (pkg.amplitude_damping(eta).operators for eta in spec["eta"])
        channel = pkg.KrausChannel(tuple(np.kron(a, b) for a in ops_a for b in ops_b))
        pkg.apply_channel(channel, rho)
    t7 = perf_counter()
    for name, start, end in (("new_density", t0, t1), ("decompose", t1, t2),
                             ("recompose", t2, t3), ("LindbladModel", t3, t4),
                             ("rhs_generic", t4, t5), ("coefficient_rates", t5, t6),
                             ("kraus", t6, t7), ("bipartite op", t0, t7)):
        times[name] = times.get(name, 0.0) + (end - start)


def one_round(pkg, specs, calls: int) -> dict:
    """Seconds per stage: the bipartite specs once, each argv `calls` times."""
    times = {}
    for spec in specs:
        pipeline(pkg, spec, times)
    sink = io.StringIO()
    for name, argv in ARGV.items():
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = perf_counter()
            for _ in range(calls):
                pkg.cli.main(list(argv))
            times[name] = perf_counter() - t0
        sink.seek(0)
        sink.truncate()
    return times


def run(trees, rounds: int, calls: int) -> dict:
    """Per side, the list of per-round times of each stage; one warm-up round
    per side is not recorded."""
    packages = load(trees)
    specs = [op.spec for op in next(workloads.cycles("bipartite", 1))]
    for side in SIDES:
        one_round(packages[side], specs, 1)
    samples = {side: {} for side in SIDES}
    for k in range(rounds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            for name, value in one_round(packages[side], specs, calls).items():
                samples[side].setdefault(name, []).append(value)
    return samples


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile (one value gives it thrice)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(samples) -> str:
    a, b = samples["a"], samples["b"]
    lines = [f"{'stage (us per round)':<22}{'a median [q1, q3]':>32}{'b median [q1, q3]':>32}"
             f"{'a wins':>8}{'b wins':>8}"]
    for name in a:
        cells = []
        for side in (a, b):
            q1, q2, q3 = (1e6 * v for v in quartiles(side[name]))
            cells.append(f"{q2:.1f} [{q1:.1f}, {q3:.1f}]")
        a_wins = sum(x < y for x, y in zip(a[name], b[name]))
        b_wins = sum(y < x for x, y in zip(a[name], b[name]))
        lines.append(f"{name:<22}{cells[0]:>32}{cells[1]:>32}{a_wins:>8}{b_wins:>8}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", help="root of side a, holding src/entrate")
    ap.add_argument("tree_b", help="root of side b, holding src/entrate")
    ap.add_argument("--rounds", type=int, default=21)
    ap.add_argument("--calls", type=int, default=50, help="main(argv) calls per round")
    args = ap.parse_args(argv)
    sys.stdout.write(report(run((args.tree_a, args.tree_b), args.rounds, args.calls)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
