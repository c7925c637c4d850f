"""Output identity gate: fingerprint the CLI's output on the benchmark's argv,
and the library pipeline's results on the benchmark's bipartite states.

Runs, in one process, every argv the benchmark generates for seeds 1-3: the
sweep and dynamics warm-ups, the first two cycles of each, and the dynamics
input probe (819 argv).  For each it prints one line:

    <exit code> <sha256 of stdout> <sha256 of stderr> <argv as JSON>

Then it runs the bipartite pipeline (`_pipeline` of bench/worker.py) on the
bipartite warm-up and first two cycles of seeds 1-3 (57 operations), and
prints for each one line:

    <sha256 of the result arrays, or the exception class> <operation label as JSON>

The argv and states come from bench/workloads.py, and the pipeline from
bench/worker.py, which are only imported.  entrate is imported from
PYTHONPATH, so running the gate under two source trees and diffing the
outputs shows every operation whose result changed:

    PYTHONPATH=src python tools/identity_gate.py > new.txt
    PYTHONPATH=/path/to/other/src python tools/identity_gate.py > old.txt
    diff old.txt new.txt
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import numpy as np  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from entrate import cli  # noqa: E402

SEEDS = (1, 2, 3)
CYCLES = 2


def gate_argv():
    """The argv in gate order: per seed, each CLI workload's warm-up and
    first cycles, then the input probe."""
    for seed in SEEDS:
        for workload in ("sweep", "dynamics"):
            yield workloads.warmup_op(workload, seed).argv
            for cycle in itertools.islice(workloads.cycles(workload, seed), CYCLES):
                yield from (op.argv for op in cycle)
        yield from (op.argv for op in workloads.probe_ops("dynamics", seed))


def pipeline_ops():
    """The bipartite operations in gate order: per seed, the warm-up and
    first cycles."""
    for seed in SEEDS:
        yield workloads.warmup_op("bipartite", seed)
        for cycle in itertools.islice(workloads.cycles("bipartite", seed), CYCLES):
            yield from cycle


def result_digest(result: dict) -> str:
    """sha256 over the pipeline's result arrays, keys in sorted order."""
    digest = hashlib.sha256()
    for key in sorted(result):
        value = result[key]
        for arr in value if isinstance(value, tuple) else (value,):
            arr = np.asarray(getattr(arr, "elements", arr))
            digest.update(f"{key} {arr.dtype} {arr.shape}".encode() + arr.tobytes())
    return digest.hexdigest()


def run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's exits
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    for argv in gate_argv():
        code, out, err = run(argv)
        digests = (hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
        print(code, *digests, json.dumps(list(argv)))
    for op in pipeline_ops():
        try:
            fingerprint = result_digest(worker._pipeline(op.spec))
        except Exception as exc:
            fingerprint = type(exc).__name__
        print(fingerprint, json.dumps(op.label()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
