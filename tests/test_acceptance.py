"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  A09's a -> 1 endpoint assertion is expected to fail: the
measured limit of the oracle-validated closed form is twice the asserted
constant (see the assertion message and the decisions ledger).
"""

import json
import time

import numpy as np

from conftest import (
    centered_trajectory,
    concurrence_bruteforce,
    random_density_matrix,
    random_entangled_mixed,
    random_xy_interior,
)
from entrate import (
    BlochDecomposition,
    EffectiveHamiltonian,
    ModelParams,
    WernerParams,
    XYFamilyParams,
    coefficient_rates,
    completeness_defect,
    concurrence,
    concurrence_werner,
    decompose,
    eof,
    evolve_effective,
    integrate,
    new_density,
    amplitude_damping,
    rate_bloch,
    rate_chain,
    rate_numeric,
    rate_werner,
    rate_xy,
    recompose,
    rhs_consistency_check,
    rhs_damped_xy,
    unchecked_density,
    werner_state,
    xy_hamiltonian,
    xy_positivity,
    xy_state,
)
from entrate.blochsun import recompose_matrix
from entrate.cli import main as cli_main
from entrate.rate import _measure_slope

LN2 = np.log(2.0)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def test_a01_concurrence_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        mat = random_density_matrix(rng)
        gap = abs(concurrence(unchecked_density(mat)).c - concurrence_bruteforce(mat))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    report(
        "A01 concurrence production vs brute force (10k states)",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst gap {worst:.3e}, {elapsed:.2f}s",
    )


def test_a02_closed_form_shortcuts():
    worst_w = 0.0
    for a in np.linspace(0.0, 1.0, 201):
        rest = 1.0 - a
        w = WernerParams(a, rest * 0.5, rest * 0.3, rest * 0.2)
        worst_w = max(worst_w, abs(concurrence_werner(w) - concurrence(werner_state(w)).c))

    worst_q = 0.0
    for k, qabs in enumerate(np.linspace(0.0, 0.5, 201)):
        q = qabs * np.exp(2j * np.pi * k / 201)
        got = concurrence(xy_state(XYFamilyParams(0.5, q))).c
        worst_q = max(worst_q, abs(got - 2 * qabs))

    report(
        "A02 closed-form concurrences on 201-point grids",
        worst_w <= 1e-10 and worst_q <= 1e-10,
        f"werner gap {worst_w:.2e}, xy gap {worst_q:.2e}",
    )


def test_a03_element_equations_match_generic_backend():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        params = ModelParams(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0, 2))
        rho = unchecked_density(random_density_matrix(rng))
        worst = max(worst, rhs_consistency_check(params, rho))
    report(
        "A03 specialized vs generic backend on 1000 random draws",
        worst <= 1e-12,
        f"worst gap {worst:.3e}",
    )


def test_a04_integrator_exactness_and_order():
    gam = 0.25
    params = ModelParams(0.0, 0.0, gam)
    rho = new_density(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))

    def endpoint_error(dt):
        traj = integrate(lambda r: rhs_damped_xy(params, r), rho, 1 / gam, dt)
        return abs(traj.elements[-1][3, 3].real - np.exp(-2.0))

    err = endpoint_error(1e-2 / gam)
    ratio = err / endpoint_error(5e-3 / gam)
    report(
        "A04 population decay exact to 1e-8 and fourth-order step scaling",
        err <= 1e-8 and 12.0 < ratio < 20.0,
        f"error {err:.2e}, halving ratio {ratio:.1f}",
    )


def test_a05_three_route_agreement():
    rng = np.random.default_rng(105)
    worst_xy = 0.0
    checked = 0
    while checked < 500:
        x = random_xy_interior(rng)
        g, gam = rng.uniform(0.05, 0.5), rng.uniform(0.001, 0.05)
        params = ModelParams(rng.uniform(0.0, 2.0), g, gam)
        closed = rate_xy(x, params)
        if abs(closed) < 1e-4:
            continue  # sign boundary: relative comparison is ill-posed
        rho = xy_state(x)
        chain = rate_chain(rho, rhs_damped_xy(params, rho)).gamma_total
        dt = 1e-3 / max(g, gam, 1.0)
        numeric = rate_numeric(centered_trajectory(rho, params, dt), 1)
        worst_xy = max(worst_xy, rel_gap(closed, chain), rel_gap(closed, numeric))
        checked += 1

    worst_w = 0.0
    for f in np.linspace(0.1, 0.999, 40):
        a = (1 + f) / 2
        w = WernerParams(a, (1 - f) / 4, (1 - f) / 8, (1 - f) / 8)
        s = w.c + w.d
        for gam in (0.01, 0.1):
            params = ModelParams(1.0, 0.2, gam)
            # sqrt(rho11 rho44) has curvature scale s/gamma; the central
            # difference must resolve it near the pure corner
            dt = min(1e-3 / max(params.g, gam, 1.0), 0.05 * s / gam)
            numeric = rate_numeric(centered_trajectory(werner_state(w), params, dt), 1)
            worst_w = max(worst_w, rel_gap(rate_werner(w, params), numeric))

    report(
        "A05 three-route rate agreement (500 xy points; werner grid)",
        worst_xy <= 1e-3 and worst_w <= 1e-3,
        f"worst xy rel gap {worst_xy:.2e}, worst werner rel gap {worst_w:.2e}",
    )


def test_a06_bell_diagonal_states_never_gain_entanglement():
    rng = np.random.default_rng(106)
    checked = 0
    exceptions = 0
    while checked < 10_000:
        raw = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        w = WernerParams(*raw)
        if w.a - w.b - w.c - w.d <= 1e-6:
            continue
        gam = rng.uniform(1e-4, 1.0)
        if rate_werner(w, ModelParams(1.0, 0.2, gam)) >= 0:
            exceptions += 1
        checked += 1
    report(
        "A06 damped Bell-diagonal rate negative on 10k samples",
        exceptions == 0,
        f"{exceptions} exceptions",
    )


def test_a07_sign_law_and_threshold_equivalence():
    rng = np.random.default_rng(107)
    sign_ok = True
    equiv_ok = True
    for _ in range(2000):
        x = random_xy_interior(rng)
        g, gam = rng.uniform(0.0, 0.5), rng.uniform(0.001, 0.1)
        rate = rate_xy(x, ModelParams(1.0, g, gam))
        bracket = g * x.q.imag * (2 * x.p - 1) - gam * abs(x.q) ** 2
        sign_ok = sign_ok and np.sign(rate) == np.sign(bracket)
        denom = x.q.imag * (2 * x.p - 1)
        if denom != 0.0:
            tau = abs(x.q) ** 2 / denom
            if tau > 0 and abs(g / gam - tau) > 1e-9:
                equiv_ok = equiv_ok and ((g / gam > tau) == (rate > 0))
    report(
        "A07 sign law and threshold equivalence across the feasible region",
        sign_ok and equiv_ok,
        f"sign law {'ok' if sign_ok else 'violated'}, equivalence {'ok' if equiv_ok else 'violated'}",
    )


def _fig3_json(g, gam):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli_main(["fig3", "--format", "json", "--grid", "101",
                         "--g", str(g), "--gamma", str(gam)])
    assert code == 0
    return json.loads(out.getvalue())


def test_a08_fig3_reproduction():
    start = time.perf_counter()
    doc = _fig3_json(0.2, 0.01)
    elapsed = time.perf_counter() - start

    argmax, argmin = doc["argmax"], doc["argmin"]
    loc_ok = (argmax["qr"], argmax["qi"]) == (0.0, 0.5) and (
        argmin["qr"], argmin["qi"]) == (0.5, 0.0)
    val_ok = abs(argmax["rate"] - 2 / LN2 * 0.035) <= 1e-12 and abs(
        argmin["rate"] - (-2 / LN2 * 0.005)) <= 1e-12

    doc2 = _fig3_json(0.4, 0.02)
    invariant_ok = (doc2["argmax"]["qr"], doc2["argmax"]["qi"]) == (0.0, 0.5) and (
        doc2["argmin"]["qr"], doc2["argmin"]["qi"]) == (0.5, 0.0)

    mask_ok = True
    for i, qr in enumerate(doc["axes"]["qr"]):
        for j, qi in enumerate(doc["axes"]["qi"]):
            r = doc["R"][i][j]
            infeasible = r > 1e-12
            assert abs(r - xy_positivity(0.6, complex(qr, qi))) <= 1e-15
            if infeasible != (xy_positivity(0.6, complex(qr, qi)) > 1e-12):
                mask_ok = False

    magnitudes_differ = abs(argmax["rate"] - 0.4) > 0.1 and abs(argmin["rate"] + 0.1) > 0.05
    report(
        "A08 fig3 sweep: extrema, rescaling invariance, masking, runtime",
        loc_ok and val_ok and invariant_ok and mask_ok and magnitudes_differ
        and elapsed < 5.0,
        f"argmax ({argmax['qr']}, {argmax['qi']}) = {argmax['rate']:.6f}, "
        f"argmin ({argmin['qr']}, {argmin['qi']}) = {argmin['rate']:.6f}, {elapsed:.2f}s",
    )


def test_a09_fig1_shape():
    gam, cd = 0.01, 0.1
    params = ModelParams(1.0, 0.2, gam)
    vals = [
        rate_werner(WernerParams(a, 1 - a - cd, cd / 2, cd / 2), params)
        for a in np.linspace(0.55, 0.9, 201)
    ]
    ok = all(v < 0 for v in vals) and all(b < a for a, b in zip(vals, vals[1:]))
    report("A09a fig1 curve strictly decreasing and negative", ok)


def test_a09_fig1_endpoint_limit():
    gam, cd = 0.01, 0.1
    # a -> 1 limit of the swept closed form: dE/dF -> 1/ln2 and
    # dF/dt -> gamma (cd - 2) (the oracle-matched coefficient motion).
    limit = _measure_slope(1.0) * gam * (cd - 2.0)
    asserted = -0.95 * gam / LN2
    ok = abs(limit - asserted) <= 1e-12
    report(
        "A09b fig1 endpoint limit at a -> 1",
        ok,
        f"measured {limit:.10f} vs asserted {asserted:.10f}; the asserted constant "
        f"treats dF/dt as gamma(cd/2 - a) although the simplex constraint doubles "
        f"it, and the trajectory oracle (criterion A05) confirms the doubled form",
    )


def test_a10_fig2_reproduction():
    contour_ok = abs(xy_positivity(0.5, 0.5)) <= 1e-15 and xy_positivity(0.0, 0.0) == 0.0
    region_ok = True
    for qabs in np.linspace(0.0, 0.7, 141):
        feasible = min(xy_positivity(p, qabs) for p in np.linspace(0.0, 1.0, 401)) <= 1e-12
        if feasible != (qabs <= 0.5 + 1e-9):
            region_ok = False
    report(
        "A10 fig2 zero contour and feasibility band",
        contour_ok and region_ok,
        f"R(1/2,1/2) = {xy_positivity(0.5, 0.5):.1e}",
    )


def _bloch_gradient(dec, h=1e-6):
    def e_of(d):
        return eof(unchecked_density(recompose_matrix(d)))

    grad_a, grad_b = np.zeros(3), np.zeros(3)
    grad_g = np.zeros((3, 3))
    for k in range(3):
        up, dn = np.array(dec.alpha), np.array(dec.alpha)
        up[k] += h
        dn[k] -= h
        grad_a[k] = (
            e_of(BlochDecomposition(2, 2, up, dec.beta, dec.gamma_ij))
            - e_of(BlochDecomposition(2, 2, dn, dec.beta, dec.gamma_ij))
        ) / (2 * h)
        up, dn = np.array(dec.beta), np.array(dec.beta)
        up[k] += h
        dn[k] -= h
        grad_b[k] = (
            e_of(BlochDecomposition(2, 2, dec.alpha, up, dec.gamma_ij))
            - e_of(BlochDecomposition(2, 2, dec.alpha, dn, dec.gamma_ij))
        ) / (2 * h)
    for i in range(3):
        for j in range(3):
            up, dn = np.array(dec.gamma_ij), np.array(dec.gamma_ij)
            up[i, j] += h
            dn[i, j] -= h
            grad_g[i, j] = (
                e_of(BlochDecomposition(2, 2, dec.alpha, dec.beta, up))
                - e_of(BlochDecomposition(2, 2, dec.alpha, dec.beta, dn))
            ) / (2 * h)
    return grad_a, grad_b, grad_g


def test_a11_bloch_rate_cross_validation():
    rng = np.random.default_rng(111)
    params = ModelParams(0.8, 0.25, 0.02)
    worst_rate = 0.0
    for _ in range(200):
        mat = random_entangled_mixed(rng)
        rho = unchecked_density(mat)
        rho_dot = rhs_damped_xy(params, rho)
        dec = decompose(rho, 2, 2)
        via_bloch = rate_bloch(_bloch_gradient(dec), coefficient_rates(rho_dot, 2, 2))
        via_elements = rate_chain(rho, rho_dot).gamma_total
        worst_rate = max(worst_rate, rel_gap(via_bloch, via_elements))

    worst_rt = 0.0
    for _ in range(1000):
        rho = new_density(random_density_matrix(rng))
        back = recompose(decompose(rho, 2, 2))
        worst_rt = max(worst_rt, np.abs(back.elements - rho.elements).max())

    report(
        "A11 coefficient-space rate equals element-space rate; round trips",
        worst_rate <= 1e-3 and worst_rt <= 1e-10,
        f"worst rate rel gap {worst_rate:.2e}, worst round trip {worst_rt:.2e}",
    )


def test_a12_kraus_contracts():
    worst_defect = max(
        completeness_defect(amplitude_damping(eta)) for eta in np.linspace(0.0, 1.0, 21)
    )

    rng = np.random.default_rng(112)
    rho = new_density(random_density_matrix(rng))
    he = EffectiveHamiltonian(xy_hamiltonian(1.0, 0.2))
    traj = evolve_effective(he, rho, 100.0, 1e-3)
    purity0 = (rho.elements @ rho.elements).trace().real
    final = traj.elements[-1]
    trace_gap = abs(final.trace().real - 1.0)
    purity_gap = abs((final @ final).trace().real - purity0)

    report(
        "A12 channel completeness and long-run unitary conservation",
        worst_defect <= 1e-15 and trace_gap <= 1e-8 and purity_gap <= 1e-8,
        f"defect {worst_defect:.1e}, trace gap {trace_gap:.1e}, purity gap {purity_gap:.1e}",
    )
