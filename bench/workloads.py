"""Seeded operation mixes for the three benchmark workloads.

An operation is either one ``entrate.cli.main(argv)`` call (``argv`` set) or
one library pipeline on a generated bipartite state (arrays in ``spec``).  Each
workload yields *cycles*: a fixed list of size classes whose parameters are
drawn from the seed.  The benchmark runs whole cycles, so every run has the
same mix of classes.  The mixes are laid out so that the tail (the
eleventh-slowest operation) sits inside the slowest block, never on a jump
between classes.

Why each workload exists and which layers it exercises is in README.md.
"""

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sweep", "dynamics", "bipartite")


@dataclass(frozen=True)
class Op:
    """One operation: generated CLI argv or generated arrays, plus what the oracle needs."""

    kind: str
    argv: tuple[str, ...] = ()
    spec: dict = field(default_factory=dict)
    valid: bool = True

    def label(self) -> str:
        if self.argv:
            return " ".join(self.argv)
        return f"{self.kind} n={self.spec['n']} m={self.spec['m']}"


def _f(x: float) -> str:
    return repr(float(x))


def _opt(name: str, value) -> str:
    """``--name=value``: the joined form, because argparse takes a separate
    token such as ``-8.7e-05`` for an option name."""
    return f"--{name}={value if isinstance(value, str) else _f(value)}"


def _model(rng) -> dict:
    return {"g": rng.uniform(0.05, 0.5), "gamma": rng.uniform(0.002, 0.05),
            "omega": rng.uniform(0.5, 1.0)}


def _model_argv(model: dict) -> tuple[str, ...]:
    return tuple(_opt(k, model[k]) for k in ("g", "gamma", "omega"))


def _xy_point(rng) -> tuple[float, float, float]:
    """Feasible XY point: |q| is a seeded fraction of the bound sqrt(p (1 - p))."""
    p = rng.uniform(0.1, 0.9)
    aq = rng.uniform(0.3, 0.95) * np.sqrt(p * (1.0 - p))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return p, float(aq * np.cos(phase)), float(aq * np.sin(phase))


# ---------------------------------------------------------------- sweep

def _fig(rng, fig: str, grid: int, fmt: str) -> Op:
    model = _model(rng)
    spec = {"grid": grid, "fmt": fmt} | model
    argv = [fig, "--grid", str(grid), "--format", fmt, *_model_argv(model)]
    if fig == "fig1":
        spec["cd"] = rng.uniform(0.02, 0.35)
        argv.append(_opt("cd", spec["cd"]))
    elif fig == "fig3":
        spec["p"] = rng.uniform(0.05, 0.95)
        argv.append(_opt("p", spec["p"]))
    return Op(fig, tuple(argv), spec)


# Fastest first: the curves and small grids.  Middle: four fig3 --grid 101
# CSV, which hold the median of the 14 classes.  Tail block: three
# fig3 --grid 301 JSON; eight or more cycles put the tail (eleventh
# slowest) inside it.
SWEEP_CYCLE = (
    ("fig1", 101, "csv"), ("fig1", 201, "json"), ("fig1", 301, "csv"),
    ("fig2", 101, "json"), ("fig2", 151, "json"),
    ("fig3", 101, "csv"), ("fig3", 101, "csv"), ("fig3", 101, "csv"), ("fig3", 101, "csv"),
    ("fig2", 151, "csv"), ("fig2", 301, "json"),
    ("fig3", 301, "json"), ("fig3", 301, "json"), ("fig3", 301, "json"),
)


def sweep_cycle(rng) -> list[Op]:
    return [_fig(rng, *cls) for cls in SWEEP_CYCLE]


def sweep_warmup(rng) -> Op:
    return _fig(rng, "fig3", 101, "csv")


# ---------------------------------------------------------------- dynamics

def _evolve(rng, family: str, t_end: float, fmt: str) -> Op:
    model = _model(rng)
    if family == "xy":
        p, qr, qi = _xy_point(rng)
        state = ("xy", _f(p), _f(qr), _f(qi))
        spec = {"family": "xy", "p": p, "qr": qr, "qi": qi}
    else:
        a = rng.uniform(0.5, 0.95)
        share = rng.dirichlet((1.0, 1.0, 1.0)) * (1.0 - a)
        b, c = float(share[0]), float(share[1])
        d = 1.0 - a - b - c
        state = ("werner", _f(a), _f(b), _f(c), _f(d))
        spec = {"family": "werner", "weights": (a, b, c, d)}
    argv = ("evolve", _opt("t-end", t_end), "--format", fmt, *_model_argv(model), "--", *state)
    return Op("evolve", argv, spec | model | {"t_end": t_end, "fmt": fmt})


def _trajectories(rng) -> list[Op]:
    """Four short, four mid and four long runs (the tail block).

    The default step is 0.01 for these parameters, so t_end sets the row
    count: about 100-250, 500 and 1000 rows.
    """
    ops = []
    for family, fmt in (("xy", "csv"), ("xy", "json"), ("werner", "csv"), ("werner", "json")):
        ops.append(_evolve(rng, family, rng.uniform(1.0, 2.5), fmt))
        ops.append(_evolve(rng, family, 5.0 * rng.uniform(0.99, 1.01), fmt))
        ops.append(_evolve(rng, family, 10.0 * rng.uniform(0.99, 1.01), fmt))
    return ops


def _rate_xy(rng, fmt: str) -> Op:
    model = _model(rng)
    p, qr, qi = _xy_point(rng)
    argv = ("rate", _opt("p", p), _opt("qr", qr), _opt("qi", qi), "--format", fmt,
            *_model_argv(model))
    return Op("rate", argv, {"family": "xy", "p": p, "qr": qr, "qi": qi, "fmt": fmt} | model)


def _rate_werner(rng, fmt: str) -> Op:
    model = _model(rng)
    a = rng.uniform(0.6, 0.95)
    cd = rng.uniform(0.02, min(0.3, 1.0 - a))
    argv = ("rate", _opt("a", a), _opt("cd", cd), "--format", fmt, *_model_argv(model))
    return Op("rate", argv, {"family": "werner", "a": a, "cd": cd, "fmt": fmt} | model)


def _criterion(rng, fmt: str) -> Op:
    """Feasible point with qI (2p - 1) != 0.

    Points whose g/gamma lies within a relative 1e-6 of the threshold are
    redrawn: there the sign of the rate is a floating-point tie.
    """
    while True:
        model = _model(rng)
        p, qr, qi = _xy_point(rng)
        threshold = (qr * qr + qi * qi) / (qi * (2.0 * p - 1.0))
        if abs(model["g"] / model["gamma"] / threshold - 1.0) > 1e-6:
            break
    argv = ("criterion", _opt("p", p), _opt("qr", qr), _opt("qi", qi), "--format", fmt,
            *_model_argv(model))
    return Op("criterion", argv, {"p": p, "qr": qr, "qi": qi, "fmt": fmt} | model)


def _rejected_forms(rng) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Malformed invocations the CLI validates: infeasible XY points, bad
    Werner weights, negative rates, infinite coupling and grids below 2, on
    tiny sizes.  Each must end in a documented nonzero exit (2, 3 or 4) with
    a message on stderr."""
    p = rng.uniform(0.8, 0.95)
    big_q = rng.uniform(0.45, 0.5)
    neg = _opt("gamma", -rng.uniform(0.01, 1.0))
    nonfinite = ("nan", "inf", "-inf")[int(rng.integers(3))]
    return (
        ("infeasible-xy", ("rate", _opt("p", p), _opt("qi", big_q))),
        ("infeasible-xy", ("evolve", "--t-end=0.05", "--", "xy", _f(p), "0", _f(big_q))),
        ("bad-werner", ("evolve", "--t-end=0.05", "--", "werner", "0.5", "0.6",
                        _f(rng.uniform(0.01, 0.2)), "0")),
        ("bad-werner", ("rate", _opt("a", rng.uniform(0.9, 1.2)), "--cd=0.2")),
        ("bad-werner", ("fig1", "--grid", "5", _opt("cd", rng.uniform(0.5, 0.9)))),
        ("negative-rate", ("fig3", "--grid", "5", neg)),
        ("negative-rate", ("rate", "--p=0.6", "--qi=0.3", neg)),
        ("negative-rate", ("criterion", "--p=0.6", "--qi=0.3", neg)),
        ("negative-rate", ("evolve", "--t-end=0.05", _opt("dt", -rng.uniform(0.001, 0.1)),
                           "--", "xy", "0.6", "0", "0.3")),
        ("non-finite", ("fig2", "--grid", "3", _opt("g", nonfinite))),
        ("non-finite", ("evolve", "--t-end=-inf", "--", "xy", "0.6", "0", "0.3")),
        ("bad-grid", ("fig2", "--grid", "1")),
        ("bad-grid", ("fig3", "--grid", "-3")),
    )


# Malformed invocations the CLI mishandled when the benchmark was written:
# a traceback (exit 1) or exit 0 instead of a documented rejection.  They
# run once per dynamics run as the input probe, outside the timed loop, so
# that every timed operation can pass; the probe lists each one that still
# fails.  Move a form into _rejected_forms once the CLI rejects it.
KNOWN_HOLES = (
    ("non-finite", ("fig3", "--grid", "5", "--p=nan", "--format", "json")),
    ("non-finite", ("fig3", "--grid", "5", "--p=nan")),
    ("non-finite", ("rate", "--p=nan", "--qi=0.3")),
    ("non-finite", ("rate", "--a=nan")),
    ("non-finite", ("evolve", "--t-end=nan", "--", "xy", "0.6", "0", "0.3")),
    ("non-finite", ("evolve", "--t-end=inf", "--", "xy", "0.6", "0", "0.3")),
    ("non-finite", ("criterion", "--p=0.6", "--qr=nan")),
    ("bad-grid", ("fig1", "--grid", "0")),
)


def _malformed_op(category: str, argv: tuple[str, ...]) -> Op:
    return Op("malformed", argv, {"category": category}, valid=False)


def _malformed(rng) -> Op:
    """One seeded malformed invocation from the forms the CLI validates."""
    forms = _rejected_forms(rng)
    return _malformed_op(*forms[int(rng.integers(len(forms)))])


def probe_ops(workload: str, seed: int) -> list[Op]:
    """The input probe: every malformed form once, the known holes included.

    Only dynamics has one."""
    if workload != "dynamics":
        return []
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), 2])
    return [_malformed_op(*form) for form in _rejected_forms(rng) + KNOWN_HOLES]


def dynamics_cycle(rng) -> list[Op]:
    """99 point calls, then 12 trajectories.

    Point calls: 4 malformed and 32 criterion (fast), 43 XY and 20 Werner
    rate reports.  They are nine in ten operations, so the median class
    (op_class_p90_ms) is a rate report, the fixed per-call cost, while the
    rows of the trajectories dominate items_per_s and their long block
    holds the tail.
    """
    ops = [_malformed(rng) for _ in range(4)]
    ops += [_criterion(rng, ("csv", "json")[i % 2]) for i in range(32)]
    ops += [_rate_xy(rng, ("csv", "json")[i % 2]) for i in range(43)]
    ops += [_rate_werner(rng, ("csv", "json")[i % 2]) for i in range(20)]
    return ops + _trajectories(rng)


def dynamics_warmup(rng) -> Op:
    return _evolve(rng, "xy", 1.0, "csv")


# ---------------------------------------------------------------- bipartite

def _ginibre(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _bipartite(rng, n: int, m: int) -> Op:
    """Full-rank n x m state, a random Lindblad model and, for two qubits,
    local amplitude-damping strengths."""
    d = n * m
    g = _ginibre(rng, d)
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    rho /= rho.trace().real
    h = _ginibre(rng, d)
    h0 = (h + h.conj().T) / 2.0
    channels = tuple(
        (_ginibre(rng, d) / d, rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.1)) for _ in range(2)
    )
    spec = {"n": n, "m": m, "rho": rho, "h0": h0, "channels": channels}
    if n == m == 2:
        spec["eta"] = (rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5))
    return Op("bipartite", spec=spec)


BIPARTITE_DIMS = tuple((n, m) for n in (2, 3, 4) for m in (2, 3, 4))


def bipartite_cycle(rng) -> list[Op]:
    """One state per (n, m) pair; the tail is the 4 x 4 block."""
    return [_bipartite(rng, n, m) for n, m in BIPARTITE_DIMS]


def bipartite_warmup(rng) -> Op:
    return _bipartite(rng, 4, 4)


# ---------------------------------------------------------------- streams

_CYCLES = {"sweep": sweep_cycle, "dynamics": dynamics_cycle, "bipartite": bipartite_cycle}
_WARMUPS = {"sweep": sweep_warmup, "dynamics": dynamics_warmup, "bipartite": bipartite_warmup}

# Cycles in the traced run: a fixed prefix of the measured stream, so counts
# repeat exactly for a seed.
TRACE_CYCLES = {"sweep": 1, "dynamics": 1, "bipartite": 10}


def warmup_op(workload: str, seed: int) -> Op:
    return _WARMUPS[workload](np.random.default_rng([seed, WORKLOADS.index(workload), 1]))


def cycles(workload: str, seed: int):
    """Endless stream of cycles; the same seed gives the same stream.

    The order of classes within a cycle is fixed, so the heap a given
    operation starts from does not depend on the seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), 0])
    build = _CYCLES[workload]
    while True:
        yield build(rng)
