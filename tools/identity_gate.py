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

With --compare OTHER_SRC, the root of another source tree (holding
src/entrate), it runs the 819 argv under this tree and that one in one
process, each package imported under its own name as tools/ab_time.py
does, and prints per command how many argv changed their output and the
worst absolute and relative gap between the numbers in it, then every argv
whose exit code, or whose text outside the numbers, changed:

    PYTHONPATH=src python tools/identity_gate.py --compare /path/to/other
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "bench"))
sys.path.insert(0, str(HERE))

import ab_time  # noqa: E402
import numpy as np  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from entrate import cli  # noqa: E402

# A number as the CLI writes one: `%.17g`, a float's repr or an integer.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

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


def run(argv, main=cli.main) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's exits
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def compare(other, argvs) -> str:
    """The --compare report of `argvs`, run under this tree (side a) and the
    tree rooted at `other` (side b)."""
    packages = ab_time.load((HERE.parent, other))
    stats, changed = {}, []
    for argv in argvs:
        (code_a, *texts_a), (code_b, *texts_b) = (run(argv, packages[side].cli.main)
                                                  for side in ab_time.SIDES)
        row = stats.setdefault(argv[0], [0, 0, 0.0, 0.0])
        row[0] += 1
        if (code_a, texts_a) == (code_b, texts_b):
            continue
        row[1] += 1
        if code_a != code_b or any(NUMBER.sub("#", a) != NUMBER.sub("#", b)
                                   for a, b in zip(texts_a, texts_b)):
            changed.append(f"exit {code_a} -> {code_b} {json.dumps(list(argv))}")
            continue
        for a, b in zip(texts_a, texts_b):
            x, y = (np.array(NUMBER.findall(text), dtype=float) for text in (a, b))
            gap = np.abs(x - y)
            scale = np.maximum(np.abs(x), np.abs(y))
            rel = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0)
            row[2] = max(row[2], gap.max(initial=0.0))
            row[3] = max(row[3], rel.max(initial=0.0))
    lines = [f"{'command':<10}{'argv':>6}{'moved':>7}{'worst abs':>12}{'worst rel':>12}"]
    lines += [f"{name:<10}{n:>6}{moved:>7}{gap:>12.2g}{rel:>12.2g}"
              for name, (n, moved, gap, rel) in stats.items()]
    lines.append(f"exit code or text outside the numbers changed: {len(changed)}")
    return "\n".join(lines + changed) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", metavar="OTHER_SRC",
                    help="root of another source tree, holding src/entrate")
    args = ap.parse_args(argv)
    if args.compare:
        sys.stdout.write(compare(args.compare, gate_argv()))
        return 0
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
