"""Command-line front end: figure sweeps, trajectory dumps, point reports.

Subcommands
    fig1       rate of Bell-diagonal states versus weight a      (curve)
    fig2       positivity indicator R over (p, |q|)              (grid)
    fig3       XY-family rate over (qR, qI), infeasible masked   (grid)
    evolve     integrate a state and dump the trajectory         (table)
    rate       one-point rate by all applicable routes           (report)
    criterion  entangling-vs-decohering threshold report         (report)

All output is CSV or JSON data (plots are left to downstream tools).
Exit codes: 0 ok, 2 bad arguments (negative rates or steps, non-finite numbers
and a state file of the wrong size included), 3 infeasible parameters (a run
over MAX_VALUES = 10**7 reported numbers included), 4 numerical failure; each is
the exit_code of an entrate.errors base: InvalidArgument, Infeasible,
NumericalFailure.
"""

import argparse
import json
import math
import sys
from typing import Iterable, Sequence

import numpy as np

from .entanglement import eof, eof_many  # noqa: F401  eof is patched by bench/tracing.py
from .errors import (
    DegenerateDirectionError,
    EntrateError,
    InfeasibleRangeError,
    KinkRegionError,
    NonFiniteError,
    ParseError,
)
from .lindblad import (
    ModelParams,
    Trajectory,
    damped_xy_model,
    default_step,
    integrate,
    rhs_damped_xy,
)
from .qstate import (
    FEASIBILITY_TOL,
    DensityMatrix,
    WernerParams,
    XYFamilyParams,
    new_density,
    werner_state,
    xy_positivity,
    xy_state,
)
from .rate import (
    criterion_threshold_value,
    rate_chain,
    rate_numeric,
    rate_werner,
    _rate_werner_many,
    _rate_xy_many,
    rate_xy,
    rate_xy_value,
)

CURVE_POINTS = 201
GRID_POINTS = 101
MAX_VALUES = 10**7  # reported numbers (rows x columns) a run may emit
EVOLVE_HEADER = ("t", *(f"rho{i}{j}_{part}" for i in range(1, 5) for j in range(1, 5)
                        for part in ("re", "im")), "trace", "min_eig", "E", "rate_numeric")


def _check_size(command: str, rows: float, columns: int) -> None:
    """Refuse a run over MAX_VALUES reported numbers before it allocates them."""
    if rows * columns > MAX_VALUES:
        raise InfeasibleRangeError(
            f"{command} would report {rows * columns:.4g} numbers ({columns} per row), "
            f"more than the bound of {MAX_VALUES}"
        )


def _sweep(command: str, ranges: dict, params: ModelParams,
           header: Sequence[str]) -> tuple[dict, list[np.ndarray]]:
    """Check each (start, stop, count) axis and the run's size; return the JSON
    config and the axes, both built from the same tuples."""
    for name, (start, stop, count) in ranges.items():
        if count < 2:
            raise InfeasibleRangeError(f"axis {name} needs at least 2 points")
        if not (np.isfinite(start) and np.isfinite(stop)):
            raise InfeasibleRangeError(f"axis {name} range is not finite")
    _check_size(command, math.prod(count for _, _, count in ranges.values()), len(header))
    config = {"command": command, "ranges": {k: list(v) for k, v in ranges.items()},
              "omega": params.omega, "g": params.g, "gamma": params.gamma}
    return config, [np.linspace(*r) for r in ranges.values()]


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _emit(args, text: str) -> None:
    """Write a command's document to --out, or to stdout without one."""
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write output file: {exc}") from exc


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) if not isinstance(cell, str) else cell for cell in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def _grid_csv(header: Sequence[str], x: np.ndarray, y: np.ndarray, *values) -> str:
    """Long-format CSV of a 2-D grid: one row per (x, y) cell, x varying slowest."""
    cols = (np.repeat(x, len(y)), np.tile(y, len(x)), *(np.ravel(v) for v in values))
    return _csv(header, zip(*(c.tolist() for c in cols)))


def _report(pairs: Iterable[tuple[str, object]]) -> str:
    """`name = value` lines: None reads `undefined`, a string is printed as it is."""
    def text(value):
        if value is None:
            return "undefined"
        return value if isinstance(value, str) else _fmt(value)
    return "".join(f"{name} = {text(value)}\n" for name, value in pairs)


def _check_finite(name: str, values) -> None:
    """Reported numbers must be finite: overflow is a numerical failure.

    None stands for a value reported as undefined and passes.
    """
    if values is None:
        return
    arr = np.asarray(values, dtype=float)
    bad = np.count_nonzero(~np.isfinite(arr))
    if bad:
        raise NonFiniteError(f"{name} is not finite in {bad} of {arr.size} values")


def _json_doc(obj: dict) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------- fig1

def cmd_fig1(args) -> str:
    cd = args.cd
    a_min, a_max = 0.55, 1.0 - cd
    if cd < 0 or a_max <= a_min:
        raise InfeasibleRangeError(
            f"no valid sweep range for c+d = {cd!r}: needs a in ({a_min}, {a_max})"
        )
    params = ModelParams(args.omega, args.g, args.gamma)
    header = ("a", "rate")
    config, (a_grid,) = _sweep("fig1", {"a": (a_min, min(a_max, 0.9), args.grid)}, params,
                               header)
    values = _rate_werner_many(a_grid, 1.0 - a_grid - cd, cd / 2.0, cd / 2.0, params.gamma)
    _check_finite("rate", values)
    if args.format == "json":
        return _json_doc({
            "config": config | {"cd": cd},
            "axes": {"a": a_grid.tolist()},
            "values": values.tolist(),
        })
    return _csv(header, zip(a_grid.tolist(), values.tolist()))


# ---------------------------------------------------------------- fig2

def cmd_fig2(args) -> str:
    count = args.grid
    header = ("p", "qabs", "R")
    config, (p_grid, q_grid) = _sweep(
        "fig2", {"p": (0.0, 1.0, count), "qabs": (0.0, 0.5, count)},
        ModelParams(args.omega, args.g, args.gamma), header,
    )
    values = xy_positivity(p_grid[:, None], q_grid[None, :])
    if args.format == "json":
        return _json_doc({
            "config": config,
            "axes": {"p": p_grid.tolist(), "qabs": q_grid.tolist()},
            "values": values.tolist(),
        })
    return _grid_csv(header, p_grid, q_grid, values)


# ---------------------------------------------------------------- fig3

def cmd_fig3(args) -> str:
    """XY-family rate over the (qR, qI) grid.

    The closed form is evaluated on its whole domain 0 < |q| <= 1/2; the
    feasible flag records joint state positivity (R <= 1e-12) separately,
    so infeasible cells are flagged yet still carry the formula value.
    """
    count = args.grid
    params = ModelParams(args.omega, args.g, args.gamma)
    header = ("qr", "qi", "R", "feasible", "rate")
    config, (qr_grid, qi_grid) = _sweep(
        "fig3", {"qr": (0.0, 0.5, count), "qi": (0.0, 0.5, count)}, params, header,
    )
    q = qr_grid[:, None] + 1j * qi_grid[None, :]
    r = xy_positivity(args.p, q)
    vals = _rate_xy_many(args.p, q, params.g, params.gamma)
    _check_finite("R", r)
    _check_finite("rate", vals[~np.isnan(vals)])  # NaN marks masked cells

    extremes = {}  # argmax/argmin -> its cell, absent when every cell is masked
    if not np.isnan(vals).all():
        for key, pick in (("argmax", np.nanargmax), ("argmin", np.nanargmin)):
            i, j = np.unravel_index(pick(vals), vals.shape)
            extremes[key] = {"qr": qr_grid[i], "qi": qi_grid[j], "rate": vals[i, j]}
    summary = "".join(f"{key} " + " ".join(f"{k}={_fmt(v)}" for k, v in cell.items()) + "\n"
                      for key, cell in extremes.items())
    print(summary or "all cells masked\n", end="", file=sys.stderr)

    rates = np.where(np.isnan(vals), None, vals)
    if args.format == "json":
        return _json_doc({
            "config": config | {"p": args.p},
            "axes": {"qr": qr_grid.tolist(), "qi": qi_grid.tolist()},
            "values": rates.tolist(),
            "R": r.tolist(),
            "argmax": extremes.get("argmax"),
            "argmin": extremes.get("argmin"),
        })
    return _grid_csv(header, qr_grid, qi_grid, r, np.where(r <= FEASIBILITY_TOL, "1", "0"), rates)


# ---------------------------------------------------------------- evolve

def _parse_state(tokens: list[str]) -> DensityMatrix:
    if not tokens:
        raise ParseError("missing initial state spec")
    kind, rest = tokens[0], tokens[1:]
    try:
        if kind == "werner":
            if len(rest) != 4:
                raise ParseError("werner spec needs: werner A B C D")
            return werner_state(WernerParams(*map(float, rest)))
        if kind == "xy":
            if len(rest) != 3:
                raise ParseError("xy spec needs: xy P QR QI")
            p, qr, qi = map(float, rest)
            return xy_state(XYFamilyParams(p, complex(qr, qi)))
        if kind == "matrix":
            if len(rest) != 1:
                raise ParseError("matrix spec needs: matrix PATH")
            try:
                mat = np.loadtxt(rest[0], dtype=complex)
            except OSError as exc:
                raise ParseError(f"cannot read matrix file: {exc}") from exc
            return new_density(mat)
    except ValueError as exc:
        raise ParseError(f"bad state spec {tokens}: {exc}") from exc
    raise ParseError(f"unknown state kind {kind!r} (expected werner | xy | matrix)")


def _evolve_rows(traj: Trajectory) -> list[list]:
    mats = traj.elements
    t = traj.times
    e = eof_many(mats)
    rate = np.full(len(t), np.nan)
    rate[1:-1] = (e[2:] - e[:-2]) / (t[2:] - t[:-2])
    table = np.column_stack([
        t, mats.reshape(len(t), 16).view(float), np.trace(mats, axis1=1, axis2=2).real,
        np.linalg.eigvalsh(mats).min(axis=1), e, rate,
    ])
    rows = table.tolist()
    rows[0][-1] = rows[-1][-1] = None  # the central difference needs two neighbours
    return rows


def cmd_evolve(args) -> str:
    rho0 = _parse_state(args.state)
    params = ModelParams(args.omega, args.g, args.gamma)
    dt = args.dt if args.dt is not None else default_step(params)
    # A negative t_end, or a step that is not positive, is left to integrate's DomainError.
    if dt > 0:
        _check_size("evolve", max(args.t_end, 0.0) / dt + 1, len(EVOLVE_HEADER))
    traj = integrate(damped_xy_model(params), rho0, args.t_end, dt)
    rows = _evolve_rows(traj)
    if args.format == "json":
        return _json_doc({
            "config": {"command": "evolve", "state": args.state, "omega": params.omega,
                       "g": params.g, "gamma": params.gamma, "t_end": args.t_end, "dt": dt},
            "axes": {"t": [float(t) for t in traj.times]},
            "values": {"columns": list(EVOLVE_HEADER[1:]), "rows": [row[1:] for row in rows]},
        })
    return _csv(EVOLVE_HEADER, rows)


# ---------------------------------------------------------------- rate

def _three_route_report(rho0, closed, params, dt) -> list[tuple[str, float]]:
    traj = integrate(damped_xy_model(params), rho0, 2 * dt, dt)
    lines = [("rate_closed_form", closed)]
    try:
        chain = rate_chain(rho0, rhs_damped_xy(params, rho0)).gamma_total
        lines.append(("rate_chain", chain))
    except KinkRegionError:
        lines.append(("rate_chain", None))
    lines.append(("rate_numeric_at_dt", rate_numeric(traj, 1)))
    return lines


def cmd_rate(args) -> str:
    params = ModelParams(args.omega, args.g, args.gamma)
    dt = args.dt if args.dt is not None else 1e-3 / max(args.g, args.gamma, 1.0)
    if args.p is not None and args.a is not None:
        raise ParseError("rate takes either --p/--qr/--qi or --a/--cd, not both")
    if args.p is not None:
        x = XYFamilyParams(args.p, complex(args.qr, args.qi))
        rho0 = xy_state(x)
        lines = _three_route_report(rho0, rate_xy(x, params), params, dt)
        point = {"family": "xy", "p": args.p, "qr": args.qr, "qi": args.qi}
    elif args.a is not None:
        w = WernerParams(args.a, 1.0 - args.a - args.cd, args.cd / 2.0, args.cd / 2.0)
        rho0 = werner_state(w)
        lines = _three_route_report(rho0, rate_werner(w, params), params, dt)
        point = {"family": "werner", "a": args.a, "cd": args.cd}
    else:
        raise ParseError("rate needs either --p/--qr/--qi or --a/--cd")
    for name, value in lines:
        _check_finite(name, value)

    if args.format == "json":
        return _json_doc({"config": point | {"g": params.g, "gamma": params.gamma,
                                              "omega": params.omega, "dt": dt},
                          "values": dict(lines)})
    return _report(lines)


# ---------------------------------------------------------------- criterion

def cmd_criterion(args) -> str:
    params = ModelParams(args.omega, args.g, args.gamma)
    q = complex(args.qr, args.qi)
    rate = rate_xy_value(args.p, q, params.g, params.gamma)
    r = xy_positivity(args.p, q)
    ratio = params.g / params.gamma if params.gamma > 0 else float("inf")
    reported_ratio = ratio if params.gamma > 0 else None  # undefined without damping
    note = None if r <= FEASIBILITY_TOL else f"point infeasible as a state: R = {_fmt(r)}"
    try:
        threshold = criterion_threshold_value(args.p, q)
        if threshold > 0:
            predicted = "+" if ratio > threshold else ("0" if ratio == threshold else "-")
        else:
            predicted = "-"
    except DegenerateDirectionError as exc:
        threshold = None
        predicted = "-"
        note = str(exc) if note is None else f"{note}; {exc}"

    computed = "+" if rate > 0 else ("0" if rate == 0 else "-")
    for name, value in (("threshold", threshold), ("g/gamma", reported_ratio),
                        ("rate", rate), ("R", r)):
        _check_finite(name, value)
    if args.format == "json":
        return _json_doc({
            "config": {"p": args.p, "qr": args.qr, "qi": args.qi,
                       "g": params.g, "gamma": params.gamma},
            "values": {"threshold": threshold, "g_over_gamma": reported_ratio,
                       "predicted_sign": predicted, "rate": rate,
                       "computed_sign": computed, "R": r, "note": note},
        })
    lines = [("threshold", threshold), ("g/gamma", reported_ratio),
             ("predicted_sign", predicted), ("rate", rate), ("computed_sign", computed)]
    if note:
        lines.append(("note", note))
    return _report(lines)


# ---------------------------------------------------------------- parser

def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=_finite_float, default=0.01, help="damping rate")
    p.add_argument("--g", type=_finite_float, default=0.2, help="qubit-qubit coupling")
    p.add_argument("--omega", type=_finite_float, default=1.0, help="qubit frequency")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="entrate", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="Bell-diagonal rate versus weight a")
    p.add_argument("--cd", type=_finite_float, default=0.1, help="c + d, split evenly")
    p.add_argument("--grid", type=int, default=CURVE_POINTS, help="number of points")
    _add_common(p)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig2", help="positivity indicator R over (p, |q|)")
    p.add_argument("--grid", type=int, default=GRID_POINTS, help="points per axis")
    _add_common(p)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("fig3", help="XY-family rate over (qR, qI)")
    p.add_argument("--p", type=_finite_float, default=0.6)
    p.add_argument("--grid", type=int, default=GRID_POINTS, help="points per axis")
    _add_common(p)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("evolve", help="integrate and dump a trajectory")
    p.add_argument("state", nargs="+",
                   help="initial state: werner A B C D | xy P QR QI | matrix PATH")
    p.add_argument("--t-end", type=_finite_float, default=10.0)
    p.add_argument("--dt", type=_finite_float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("rate", help="one-point rate by all applicable routes")
    p.add_argument("--p", type=_finite_float, default=None)
    p.add_argument("--qr", type=_finite_float, default=0.0)
    p.add_argument("--qi", type=_finite_float, default=0.0)
    p.add_argument("--a", type=_finite_float, default=None)
    p.add_argument("--cd", type=_finite_float, default=0.1)
    p.add_argument("--dt", type=_finite_float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("criterion", help="entangling-vs-decohering report")
    p.add_argument("--p", type=_finite_float, required=True)
    p.add_argument("--qr", type=_finite_float, default=0.0)
    p.add_argument("--qi", type=_finite_float, default=0.0)
    _add_common(p)
    p.set_defaults(func=cmd_criterion)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Overflow leaves a non-finite value that the commands report as an
        # EntrateError; numpy's warnings would print ahead of that message.
        with np.errstate(all="ignore"):
            _emit(args, args.func(args))
    except EntrateError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
