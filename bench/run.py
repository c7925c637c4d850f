"""Benchmark of entrate: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload sweep --seed 1 --seconds 36 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced pass and prints the per-layer metrics.  Each run happens in a
fresh worker process with BLAS pinned to one thread.  setup_s is the median
over SETUP_SAMPLES processes of the time from spawning the process until
entrate is imported, the inputs are generated and one warm-up operation is
done.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits nonzero without that line when the package sources are missing or a
worker fails.  See README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def spawn(mode: str, args, deadline: float) -> dict:
    env = os.environ | PINNED_ENV
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker did not finish within the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_mark"] - t0
    return result


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("sweep", "dynamics", "bipartite"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (ROOT / "src" / "entrate" / "__init__.py").is_file():
        print(f"error: no entrate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    deadline = start + DEADLINE_S
    try:
        if args.trace:
            result = spawn("trace", args, deadline)
        else:
            setups = [spawn("setup", args, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            result = spawn("measure", args, deadline)
            setups.append(result["setup_s"])
            result["metrics"]["setup_s"] = statistics.median(setups)
            result["setup_samples_s"] = setups
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(metrics)} differ from BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 1

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(result["provenance"]))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"op_p50_ms = {result['op_p50_ms']:.6g} ms, items per second of timed "
              f"operation time = {result['wall_items_per_s']:.6g} (not bound metrics)")
        print(f"op_tail_ms is p{result['tail_percentile']:.2f} of {result['attempted']} "
              f"operations ({result['cycles']} cycles in {result['elapsed_s']:.1f} s)")
        print(f"error_rate = {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']} of {result['attempted']} operations failed)")
        print(f"oracle max gap = {result['oracle_max_err']:.3g}")
    for failure in result["failures"]:
        kind = "valid input" if failure["valid"] else "malformed input"
        print(f"failed ({kind}): {failure['argv']} -> {failure['reason']}")
    probe = result.get("probe")
    if probe and probe["attempted"]:
        print(f"input probe: {probe['failed']} of {probe['attempted']} malformed forms "
              "mishandled (untimed, not in attempted/failed)")
        for failure in probe["failures"]:
            print(f"probe failed: {failure['argv']} -> {failure['reason']}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {k: v for k, v in result.items() if k != "setup_mark"}
    record |= {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "units": units}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
