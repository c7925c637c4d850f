"""Independent output oracles.

Each check recomputes what an operation should have produced with the
benchmark's own numpy formulas (and, for trajectories, scipy's matrix
exponential of a Liouvillian built here), then compares.  The worst gap of
a check is ``|got - want| / max(|want|, scale)``: relative for values above
``scale`` and absolute below it.
"""

import json
from dataclasses import dataclass, field

import numpy as np

LN2 = float(np.log(2.0))
FEASIBILITY_TOL = 1e-12  # the sweep mask threshold documented in the README
DOCUMENTED_FAILURE_EXITS = (2, 3, 4)


@dataclass
class Outcome:
    """What one operation returned: exit code and captured streams, or the
    exception that escaped, or (for library pipelines) the results."""

    rc: int | None = None
    out: str = ""
    err: str = ""
    exc: BaseException | None = None
    result: dict | None = None


@dataclass
class Verdict:
    ok: bool
    gap: float = 0.0
    reason: str = ""
    stats: dict = field(default_factory=dict)


class _Checks:
    def __init__(self):
        self.gap = 0.0
        self.problems: list[str] = []
        self.stats: dict = {}

    def close(self, name: str, got, want, tol: float, scale: float = 1.0) -> None:
        got = np.asarray(got, dtype=complex)
        want = np.asarray(want, dtype=complex)
        if got.shape != want.shape:
            self.problems.append(f"{name}: shape {got.shape} != {want.shape}")
            return
        got_nan, want_nan = np.isnan(got), np.isnan(want)
        mismatched = int((got_nan != want_nan).sum())
        if mismatched:
            self.problems.append(f"{name}: {mismatched} defined/undefined mismatches")
            return
        keep = ~want_nan
        if not keep.any():
            return
        err = float((np.abs(got[keep] - want[keep]) / np.maximum(np.abs(want[keep]), scale)).max())
        self.gap = max(self.gap, err)
        if not err <= tol:
            self.problems.append(f"{name}: gap {err:.3g} > {tol:g}")

    def require(self, cond: bool, message: str) -> None:
        if not cond:
            self.problems.append(message)

    def verdict(self) -> Verdict:
        return Verdict(not self.problems, self.gap, "; ".join(self.problems), self.stats)


# ---------------------------------------------------------------- formulas

def _measure_slope(c):
    """dE/dc = c atanh(u) / (u ln 2), u = sqrt(1 - c^2); 1/ln 2 at c = 1."""
    c = np.asarray(c, dtype=float)
    u = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = c * np.arctanh(u) / (u * LN2)
    return np.where(u == 0.0, c / LN2, slope)


def xy_rate(p, qr, qi, g, gamma):
    """Closed-form XY rate; NaN where |q| <= 1e-8 or 2|q| > 1 (undefined)."""
    aq = np.hypot(qr, qi)
    bracket = g * np.asarray(qi) * (2.0 * p - 1.0) - gamma * aq * aq
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = 2.0 * _measure_slope(np.minimum(2.0 * aq, 1.0)) * bracket / aq
    return np.where((aq > 1e-8) & (2.0 * aq <= 1.0 + 1e-12), rate, np.nan)


def werner_rate(a, cd, gamma):
    """Closed-form rate of the Werner point (a, 1 - a - cd, cd/2, cd/2)."""
    f = 2.0 * a - 1.0
    f_dot = np.where(cd > 0.0, gamma * cd - 2.0 * gamma * a, -gamma * f)
    return _measure_slope(f) * f_dot


def _binary_entropy(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x <= 0.0) | (x >= 1.0), 0.0, h)


def x_state_eof(rho):
    """EoF of a stack of X states from the closed-form concurrence
    C = 2 max(0, |rho23| - sqrt(rho11 rho44), |rho14| - sqrt(rho22 rho33))."""
    d = np.clip(np.einsum("kii->ki", rho).real, 0.0, None)
    c = 2.0 * np.maximum.reduce([
        np.zeros(len(rho)),
        np.abs(rho[:, 1, 2]) - np.sqrt(d[:, 0] * d[:, 3]),
        np.abs(rho[:, 0, 3]) - np.sqrt(d[:, 1] * d[:, 2]),
    ])
    c = np.minimum(c, 1.0)
    return _binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


def xy_density(p, qr, qi):
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1], rho[2, 2] = p, 1.0 - p
    rho[1, 2] = complex(qr, qi)
    rho[2, 1] = complex(qr, -qi)
    return rho


def bell_diagonal_density(a, b, c, d):
    """a |Psi-><Psi-| + b |Psi+><Psi+| + c |Phi-><Phi-| + d |Phi+><Phi+|."""
    s = 1.0 / np.sqrt(2.0)
    psi_m, psi_p = np.array([0, s, -s, 0]), np.array([0, s, s, 0])
    phi_m, phi_p = np.array([s, 0, 0, -s]), np.array([s, 0, 0, s])
    return sum(w * np.outer(v, v) for w, v in ((a, psi_m), (b, psi_p), (c, phi_m), (d, phi_p)))


def damped_xy_liouvillian(omega, g, gamma):
    """16 x 16 generator of vec(rho) (row-major) for
    H = diag(-omega, 0, 0, omega) + g (|01><10| + |10><01|) and a lowering
    channel of rate gamma on each qubit; vec(A X B) = (A kron B^T) vec(X)."""
    h = np.diag([-omega, 0.0, 0.0, omega]).astype(complex)
    h[1, 2] = h[2, 1] = g
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    i2, i4 = np.eye(2), np.eye(4)
    gen = -1j * (np.kron(h, i4) - np.kron(i4, h.T))
    for c in (np.kron(lower, i2), np.kron(i2, lower)):
        cdc = c.conj().T @ c
        gen += gamma * (np.kron(c, c.conj()) - 0.5 * np.kron(cdc, i4) - 0.5 * np.kron(i4, cdc.T))
    return gen


def lindblad_rhs(h0, channels, rho):
    out = -1j * (h0 @ rho - rho @ h0)
    for xm, k_rate, g_rate in channels:
        xp = xm.conj().T
        out += k_rate * (xm @ rho @ xp - 0.5 * (xp @ xm @ rho + rho @ xp @ xm))
        out += g_rate * (xp @ rho @ xm - 0.5 * (xm @ xp @ rho + rho @ xm @ xp))
    return out


def amplitude_damping_ops(eta):
    return (np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - eta)]]),
            np.array([[0.0, np.sqrt(eta)], [0.0, 0.0]]))


# ---------------------------------------------------------------- parsing

def _csv(text: str) -> tuple[list[str], np.ndarray]:
    """Header and a float table; an empty trailing field reads as NaN.

    Parses straight into one float array so that checking a large output
    does not raise the process's peak memory above the program's own."""
    header, _, body = text.partition("\n")
    columns = header.split(",")
    flat = np.array(body.replace(",\n", ",nan\n").replace("\n", ",").split(",")[:-1], dtype=float)
    return columns, flat.reshape(-1, len(columns))


def _key_values(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _num(value) -> float:
    """A reported number: JSON null or the text 'undefined' read as NaN."""
    if value is None or value == "undefined":
        return float("nan")
    return float(value)


# ---------------------------------------------------------------- sweeps

def _fig1(spec: dict, o: Outcome, ck: _Checks) -> None:
    grid, cd = spec["grid"], spec["cd"]
    a = np.linspace(0.55, min(1.0 - cd, 0.9), grid)
    if spec["fmt"] == "json":
        doc = json.loads(o.out)
        got_a, got = np.array(doc["axes"]["a"]), np.array(doc["values"], dtype=float)
    else:
        _, table = _csv(o.out)
        got_a, got = table[:, 0], table[:, 1]
    ck.close("fig1 a axis", got_a, a, 1e-15)
    ck.close("fig1 rate", got, werner_rate(a, cd, spec["gamma"]), 1e-9, scale=1e-12)
    ck.stats["items"] = grid


def _fig2(spec: dict, o: Outcome, ck: _Checks) -> None:
    grid = spec["grid"]
    p, q = np.meshgrid(np.linspace(0.0, 1.0, grid), np.linspace(0.0, 0.5, grid), indexing="ij")
    want = p * p - p + q * q
    if spec["fmt"] == "json":
        got = np.array(json.loads(o.out)["values"], dtype=float)
    else:
        _, table = _csv(o.out)
        ck.close("fig2 axes", table[:, :2], np.stack([p.ravel(), q.ravel()], axis=1), 1e-15)
        got = table[:, 2].reshape(grid, grid)
    ck.close("fig2 R", got, want, 1e-14)
    ck.stats["items"] = grid * grid


def _fig3(spec: dict, o: Outcome, ck: _Checks) -> None:
    grid, p = spec["grid"], spec["p"]
    qr, qi = np.meshgrid(np.linspace(0.0, 0.5, grid), np.linspace(0.0, 0.5, grid), indexing="ij")
    r_want = p * p - p + np.hypot(qr, qi) ** 2
    rate_want = xy_rate(p, qr, qi, spec["g"], spec["gamma"])
    if spec["fmt"] == "json":
        doc = json.loads(o.out)
        r_got = np.array(doc["R"], dtype=float)
        rate_got = np.array(doc["values"], dtype=float)
        mask_got = r_got <= FEASIBILITY_TOL
        defined = ~np.isnan(rate_got)
        if defined.any():
            ck.close("fig3 argmax rate", doc["argmax"]["rate"], np.nanmax(rate_got), 0.0)
            ck.close("fig3 argmin rate", doc["argmin"]["rate"], np.nanmin(rate_got), 0.0)
    else:
        _, table = _csv(o.out)
        ck.close("fig3 axes", table[:, :2], np.stack([qr.ravel(), qi.ravel()], axis=1), 1e-15)
        r_got = table[:, 2].reshape(grid, grid)
        mask_got = table[:, 3].reshape(grid, grid) == 1.0
        rate_got = table[:, 4].reshape(grid, grid)
    ck.close("fig3 R", r_got, r_want, 1e-14)
    mismatched = int((mask_got != (r_want <= FEASIBILITY_TOL)).sum())
    ck.require(mismatched == 0, f"fig3 mask: {mismatched} cells disagree")
    ck.close("fig3 rate", rate_got, rate_want, 1e-9, scale=1e-12)
    ck.stats["items"] = grid * grid
    ck.stats["masked_cells"] = int((~mask_got).sum())


# ---------------------------------------------------------------- evolve

def _evolve(spec: dict, o: Outcome, ck: _Checks) -> None:
    if spec["fmt"] == "json":
        doc = json.loads(o.out)
        t = np.array(doc["axes"]["t"], dtype=float)
        rows = np.array(doc["values"]["rows"], dtype=float)
    else:
        header, table = _csv(o.out)
        ck.require(header[0] == "t" and len(header) == 37, "evolve: unexpected header")
        t, rows = table[:, 0], table[:, 1:]
    n = len(t)
    ck.require(n >= 3, f"evolve: only {n} rows")
    if n < 3:
        return
    rho = (rows[:, 0:32:2] + 1j * rows[:, 1:32:2]).reshape(n, 4, 4)
    trace, min_eig, e_col, rate_col = rows[:, 32], rows[:, 33], rows[:, 34], rows[:, 35]

    ck.close("evolve final time", t[-1], spec["t_end"], 1e-12)
    ck.require(bool((np.diff(t) > 0).all()), "evolve: times not increasing")
    ck.close("evolve trace column", trace, np.ones(n), 1e-12)
    ck.close("evolve trace of elements", np.einsum("kii->k", rho), np.ones(n), 1e-12)
    worst_eig = float(min_eig.min())
    ck.require(worst_eig >= -1e-9, f"evolve: min_eig {worst_eig:.3g} below -1e-9")
    off_x = np.abs(rho[:, [0, 0, 1, 2], [1, 2, 3, 3]]).max()
    ck.require(off_x <= 1e-12, f"evolve: state left the X subspace ({off_x:.3g})")
    ck.close("evolve E vs X-state concurrence", e_col, x_state_eof(rho), 1e-9)
    central = (e_col[2:] - e_col[:-2]) / (t[2:] - t[:-2])
    ck.close("evolve rate_numeric", rate_col[1:-1], central, 1e-12)
    ck.require(np.isnan(rate_col[[0, -1]]).all(), "evolve: end rows carry a rate")

    if spec["family"] == "xy":
        rho0 = xy_density(spec["p"], spec["qr"], spec["qi"])
    else:
        rho0 = bell_diagonal_density(*spec["weights"])
    ck.close("evolve initial state", rho[0], rho0, 1e-15)
    from scipy.linalg import expm  # test-only oracle dependency

    gen = damped_xy_liouvillian(spec["omega"], spec["g"], spec["gamma"])
    for k in (n // 2, n - 1):
        exact = (expm(gen * t[k]) @ rho0.ravel()).reshape(4, 4)
        ck.close(f"evolve row {k} vs exp(L t)", rho[k], exact, 1e-8)
    ck.stats["items"] = n
    ck.stats["rows"] = n


# ---------------------------------------------------------------- points

def _rate(spec: dict, o: Outcome, ck: _Checks) -> None:
    if spec["fmt"] == "json":
        values = json.loads(o.out)["values"]
    else:
        values = _key_values(o.out)
    closed, chain, numeric = (_num(values[k]) for k in
                              ("rate_closed_form", "rate_chain", "rate_numeric_at_dt"))
    if spec["family"] == "xy":
        want = float(xy_rate(spec["p"], spec["qr"], spec["qi"], spec["g"], spec["gamma"]))
        rho0 = xy_density(spec["p"], spec["qr"], spec["qi"])
    else:
        a, cd = spec["a"], spec["cd"]
        want = float(werner_rate(a, cd, spec["gamma"]))
        rho0 = bell_diagonal_density(a, 1.0 - a - cd, cd / 2.0, cd / 2.0)
    ck.close("rate closed form", closed, want, 1e-9, scale=1e-12)
    # The chain route is the rate at t = 0 from a finite-difference
    # gradient: it agrees with the closed form to 1e-3 relative (the
    # acceptance bar), absolute below 1e-4 where the rate crosses zero.
    ck.close("rate chain route", chain, want, 1e-3, scale=1e-4)
    # The numeric route is a central difference at t = dt of a trajectory
    # started at t = 0, with the CLI's default dt; compare it with the same
    # difference of the exact propagator.
    from scipy.linalg import expm  # test-only oracle dependency

    dt = 1e-3 / max(spec["g"], spec["gamma"], 1.0)
    gen = damped_xy_liouvillian(spec["omega"], spec["g"], spec["gamma"])
    rho2 = (expm(gen * 2.0 * dt) @ rho0.ravel()).reshape(1, 4, 4)
    e0, e2 = x_state_eof(rho0[None])[0], x_state_eof(rho2)[0]
    ck.close("rate numeric route", numeric, (e2 - e0) / (2.0 * dt), 1e-6, scale=1e-4)
    ck.stats["items"] = 1


def _criterion(spec: dict, o: Outcome, ck: _Checks) -> None:
    if spec["fmt"] == "json":
        values = json.loads(o.out)["values"]
    else:
        values = _key_values(o.out)
    p, qr, qi = spec["p"], spec["qr"], spec["qi"]
    rate = float(xy_rate(p, qr, qi, spec["g"], spec["gamma"]))
    ck.close("criterion rate", _num(values["rate"]), rate, 1e-9, scale=1e-12)
    ck.close("criterion threshold", _num(values["threshold"]),
             (qr * qr + qi * qi) / (qi * (2.0 * p - 1.0)), 1e-12)
    own_sign = "+" if rate > 0 else ("0" if rate == 0 else "-")
    ck.require(values["computed_sign"] == own_sign,
               f"criterion: computed sign {values['computed_sign']} != {own_sign}")
    ck.require(values["predicted_sign"] == values["computed_sign"],
               f"criterion: predicted {values['predicted_sign']} != computed "
               f"{values['computed_sign']} at a feasible point")
    ck.stats["items"] = 1


# ---------------------------------------------------------------- bipartite

def _bipartite(spec: dict, o: Outcome, ck: _Checks) -> None:
    from entrate import blochsun, qstate

    n, m = spec["n"], spec["m"]
    res = o.result
    rho = spec["rho"]
    ck.close("bipartite round trip", res["recomposed"].elements, rho, 1e-12)
    ck.close("bipartite rhs_generic", res["rho_dot"],
             lindblad_rhs(spec["h0"], spec["channels"], rho), 1e-12)
    ck.close("bipartite trace of rho_dot", np.trace(res["rho_dot"]), 0.0, 1e-12)
    h = 1e-3
    plus = blochsun.decompose(qstate.unchecked_density(rho + h * res["rho_dot"]), n, m)
    minus = blochsun.decompose(qstate.unchecked_density(rho - h * res["rho_dot"]), n, m)
    for name, block, got in zip(("alpha", "beta", "gamma"), ("alpha", "beta", "gamma_ij"),
                                res["rates"]):
        fd = (getattr(plus, block) - getattr(minus, block)) / (2.0 * h)
        ck.close(f"bipartite {name} rate vs finite difference", got, fd, 1e-9)
    if "eta" in spec:
        a_ops, b_ops = (amplitude_damping_ops(eta) for eta in spec["eta"])
        want = sum(np.kron(ka, kb) @ rho @ np.kron(ka, kb).conj().T
                   for ka in a_ops for kb in b_ops)
        ck.close("bipartite Kraus channel", res["channel_out"].elements, want, 1e-13)
    ck.stats["items"] = 1


_CHECKS = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "evolve": _evolve,
           "rate": _rate, "criterion": _criterion, "bipartite": _bipartite}


def _malformed(o: Outcome) -> Verdict:
    """A malformed input passes only with a documented nonzero exit and a message."""
    if o.exc is not None:
        return Verdict(False, reason=f"traceback: {type(o.exc).__name__}: {o.exc}")
    if o.rc == 0:
        return Verdict(False, reason="exit 0 on malformed input")
    if o.rc not in DOCUMENTED_FAILURE_EXITS:
        return Verdict(False, reason=f"undocumented exit {o.rc}")
    if not o.err.strip():
        return Verdict(False, reason=f"exit {o.rc} without a message")
    return Verdict(True, stats={"items": 0})


def check(op, o: Outcome) -> Verdict:
    """Judge one operation's outcome."""
    if not op.valid:
        return _malformed(o)
    if o.exc is not None:
        return Verdict(False, reason=f"traceback: {type(o.exc).__name__}: {o.exc}")
    if op.argv and o.rc != 0:
        last = o.err.strip().splitlines()[-1:] or [""]
        return Verdict(False, reason=f"exit {o.rc} on valid input: {last[0]}")
    ck = _Checks()
    try:
        _CHECKS[op.kind](op.spec, o, ck)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Verdict(False, ck.gap, f"output unreadable: {type(exc).__name__}: {exc}")
    return ck.verdict()
