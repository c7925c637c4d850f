"""One workload run in a fresh interpreter; started by run.py.

Modes:
  setup    import entrate, generate the inputs, run one warm-up operation,
           report the moment set-up ended (CLOCK_MONOTONIC) and exit.
  measure  set up, then run whole cycles of the workload as a closed loop
           (one caller, each operation starts after the previous returns)
           for at least --seconds; check every output; report end-to-end
           metrics.
  trace    set up, run the first TRACE_CYCLES cycles untraced and then
           traced; report per-layer metrics and write the spans.

The last line of stdout is one JSON object for run.py.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import entrate
import numpy as np
from entrate import blochsun, cli, kraus, lindblad, qstate

import oracles
import workloads
from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
MAX_LISTED_FAILURES = 200


def _exit_code(code) -> int:
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


def _pipeline(spec: dict) -> dict:
    """The bipartite library pipeline on one generated state."""
    n, m = spec["n"], spec["m"]
    rho = qstate.new_density(spec["rho"])
    recomposed = blochsun.recompose(blochsun.decompose(rho, n, m))
    model = lindblad.LindbladModel(h0=spec["h0"], channels=spec["channels"])
    rho_dot = lindblad.rhs_generic(model, rho)
    result = {"recomposed": recomposed, "rho_dot": rho_dot,
              "rates": blochsun.coefficient_rates(rho_dot, n, m)}
    if "eta" in spec:
        ops_a, ops_b = (kraus.amplitude_damping(eta).operators for eta in spec["eta"])
        channel = kraus.KrausChannel(tuple(np.kron(a, b) for a in ops_a for b in ops_b))
        result["channel_out"] = kraus.apply_channel(channel, rho)
    return result


def execute(op) -> tuple[float, oracles.Outcome]:
    """Run one operation; return its latency and outcome.

    Exceptions are caught here because an escaping exception is a counted
    failure of the operation, not of the benchmark.
    """
    outcome = oracles.Outcome()
    if op.argv:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                outcome.rc = cli.main(list(op.argv))
            except SystemExit as exc:
                outcome.rc = _exit_code(exc.code)
            except Exception as exc:
                outcome.exc = exc
            latency = perf_counter() - t0
        outcome.out, outcome.err = out.getvalue(), err.getvalue()
        return latency, outcome
    t0 = perf_counter()
    try:
        outcome.result = _pipeline(op.spec)
    except Exception as exc:
        outcome.exc = exc
    return perf_counter() - t0, outcome


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "entrate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload: str, seed: int):
    """Generate the inputs and run one warm-up operation; return the op stream."""
    stream = workloads.cycles(workload, seed)
    first = next(stream)
    warm = workloads.warmup_op(workload, seed)
    _, outcome = execute(warm)
    mark = time.monotonic()
    verdict = oracles.check(warm, outcome)
    if not verdict.ok:
        raise SystemExit(f"warm-up operation failed: {warm.label()}: {verdict.reason}")
    return mark, itertools.chain([first], stream)


class Tally:
    """Attempts, failures and the worst oracle gap over one run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.worst_gap = 0.0
        self.failures: list[dict] = []

    def add(self, op, verdict) -> None:
        self.attempted += 1
        self.worst_gap = max(self.worst_gap, verdict.gap)
        if verdict.ok:
            return
        self.failed += 1
        self.correct = False
        if len(self.failures) < MAX_LISTED_FAILURES:
            self.failures.append({"argv": op.label(), "valid": op.valid, "reason": verdict.reason})

    def summary(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "failures": self.failures}


def run_probe(ops: list) -> dict:
    """Run the input probe once, untimed; list every form the CLI mishandles."""
    tally = Tally()
    for op in ops:
        tally.add(op, oracles.check(op, execute(op)[1]))
    return {"attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures}


def measure(seconds: float, stream, probe: list) -> dict:
    tally, latencies, items, cycles_run = Tally(), [], 0, 0
    t0 = perf_counter()
    while cycles_run == 0 or perf_counter() - t0 < seconds:
        for op in next(stream):
            latency, outcome = execute(op)
            verdict = oracles.check(op, outcome)
            latencies.append(latency)
            tally.add(op, verdict)
            if verdict.ok:
                items += verdict.stats["items"]
        cycles_run += 1
    elapsed = perf_counter() - t0
    lat = np.array(latencies)
    # Row: one cycle; column: one operation class.  A shared 2-vCPU VM runs
    # at a normal speed with bursts about 1.6x faster, lasting seconds to
    # minutes.  The 90th percentile of each class is the normal speed
    # whenever the run spent a tenth of its time there, however long the
    # bursts were; medians and means move with the share of burst time.
    class_p90 = np.percentile(lat.reshape(cycles_run, -1), 90, axis=0)
    ordered = np.sort(lat)
    tail_index = max(len(ordered) - 11, 0)
    return tally.summary() | {
        "op_p50_ms": float(np.median(lat)) * 1e3,
        "wall_items_per_s": items / float(lat.sum()),
        "probe": run_probe(probe),
        "latencies_ms": [round(x * 1e3, 4) for x in latencies],
        "cycles": cycles_run,
        "elapsed_s": elapsed,
        "tail_percentile": 100.0 * (tail_index + 1) / len(ordered),
        "oracle_max_err": tally.worst_gap,
        "metrics": {
            "op_class_p90_ms": float(np.median(class_p90)) * 1e3,
            "op_tail_ms": float(ordered[tail_index]) * 1e3,
            "items_per_s": items / cycles_run / float(class_p90.sum()),
            "peak_rss_mb": _peak_rss_mb(),
        },
    }


def trace(workload: str, seed: int, stream) -> dict:
    ops = list(itertools.chain.from_iterable(
        itertools.islice(stream, workloads.TRACE_CYCLES[workload])))
    untraced = sum(execute(op)[0] for op in ops)

    tracer, tally = Tracer(), Tally()
    stats, traced, bytes_out = [], 0.0, 0
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            tracer.enabled = True
            latency, outcome = execute(op)
            tracer.enabled = False
            traced += latency
            bytes_out += len(outcome.out.encode())
            verdict = oracles.check(op, outcome)
            tally.add(op, verdict)
            stats.append(verdict.stats)
    finally:
        tracer.uninstall()

    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.npz"
    tracer.save(spans_path, [op.label() for op in ops])
    metrics = layer_metrics(tracer, ops, stats, bytes_out)
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    metrics["oracle.max_err"] = tally.worst_gap
    return tally.summary() | {"metrics": metrics,
                              "spans_file": str(spans_path.relative_to(ROOT))}


def layer_metrics(tracer: Tracer, ops: list, stats: list[dict], bytes_out: int) -> dict:
    tab = tracer.table()
    name, layer, parent = tab["name"], tab["layer"], tab["parent"]
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], "")
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], "")

    def select(names, kinds=None):
        sel = np.isin(name, names)
        if kinds is not None:
            sel &= np.isin(tab["op"], [i for i, op in enumerate(ops) if op.kind in kinds])
        return sel

    def total(names, kinds=None, column="dur"):
        return float(tab[column][select(names, kinds)].sum())

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for lay in LAYERS:
        sel = layer == lay
        out[f"{lay}.calls"] = int(sel.sum())
        out[f"{lay}.self_s"] = float(tab["self"][sel].sum())
        out[f"{lay}.errors"] = int((sel & tab["error"] & (parent_layer != lay)).sum())

    emit = ["cli._csv", "cli._json_doc", "cli._emit"]
    out["cli.parse_ms"] = ratio(total(["cli.build_parser", "cli.parse_args"]) * 1e3,
                                int(select(["cli.main"]).sum()))
    out["cli.emit_self_s"] = total(emit, column="self")
    out["cli.bytes_out"] = bytes_out
    out["cli.emit_mb_per_s"] = ratio(bytes_out / 1e6, total(emit))

    closed = ["rate.rate_xy_value", "rate.rate_xy", "rate.rate_werner"]
    sweep_cells = sum(s.get("items", 0) for s, op in zip(stats, ops) if op.kind in ("fig1", "fig3"))
    out["rate.closed_form_calls"] = int(select(closed).sum())
    out["rate.us_per_cell"] = ratio(total(closed, kinds=("fig1", "fig3")) * 1e6, sweep_cells)
    out["rate.masked_cells"] = sum(s.get("masked_cells", 0) for s in stats)

    out["qstate.validations"] = int(select(["qstate.new_density"]).sum())

    steps = tracer.counters["lindblad.steps"]
    rhs = ["lindblad.rhs_damped_xy", "lindblad.rhs_generic"]
    out["lindblad.steps"] = steps
    out["lindblad.rhs_calls"] = int(select(rhs).sum())
    out["lindblad.rhs_per_step"] = ratio(
        int((select(rhs) & (parent_name == "lindblad.integrate")).sum()), steps)
    out["lindblad.us_per_step"] = ratio(total(["lindblad.integrate"]) * 1e6, steps)

    eof = ["entanglement.eof"]
    eof_calls = int(select(eof).sum())
    rows = sum(s.get("rows", 0) for s in stats)
    out["entanglement.eof_calls"] = eof_calls
    out["entanglement.eof_per_row"] = ratio(int(select(eof, kinds=("evolve",)).sum()), rows)
    out["entanglement.us_per_eof"] = ratio(total(eof) * 1e6, eof_calls)
    out["entanglement.gradient_calls"] = int(select(["entanglement.eof_gradient"]).sum())

    decompose = ["blochsun.decompose"]
    decompose_calls = int(select(decompose).sum())
    out["blochsun.decompose_calls"] = decompose_calls
    out["blochsun.us_per_decompose"] = ratio(total(decompose) * 1e6, decompose_calls)
    out["blochsun.generator_products"] = tracer.counters["blochsun.generator_products"]

    out["trace.spans"] = len(tracer)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()

    if Path(entrate.__file__).resolve().parent != ROOT / "src" / "entrate":
        print(f"error: imported entrate from {entrate.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    mark, stream = setup(args.workload, args.seed)
    result = {"setup_mark": mark}
    if args.mode == "measure":
        result |= measure(args.seconds, stream,
                          workloads.probe_ops(args.workload, args.seed))
    elif args.mode == "trace":
        result |= trace(args.workload, args.seed, stream)
    if args.mode != "setup":
        result["provenance"] = provenance()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
