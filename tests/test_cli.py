import argparse
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import entrate.cli
from conftest import random_entangled_mixed
from entrate import (
    ModelParams,
    WernerParams,
    XYFamilyParams,
    damped_xy_model,
    integrate,
    liouvillian,
    rate_chain,
    rate_numeric,
    rate_werner,
    rate_x,
    rate_xy_value,
    rhs_damped_xy,
    werner_state,
    xy_state,
)
from entrate.cli import _finite_float, build_parser, main
from entrate.errors import DomainError, SeparableRegionError


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one main call, argparse's exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestFig1:
    def test_curve_is_negative_and_decreasing(self, capsys):
        code, out, _ = run_cli(capsys, "fig1", "--gamma", "0.01", "--cd", "0.1")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["a", "rate"]
        assert len(rows) == 201
        vals = [float(r[1]) for r in rows]
        assert all(v < 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_zero_damping_gives_zero_column(self, capsys):
        code, out, _ = run_cli(capsys, "fig1", "--gamma", "0", "--grid", "11")
        assert code == 0
        _, rows = csv_rows(out)
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_infeasible_cd_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "fig1", "--cd", "0.6")
        assert code == 3
        assert "infeasible" in err

    def test_json_and_csv_carry_identical_numbers(self, capsys, tmp_path):
        f_csv, f_json = tmp_path / "a.csv", tmp_path / "a.json"
        run_cli(capsys, "fig1", "--grid", "21", "--out", str(f_csv))
        run_cli(capsys, "fig1", "--grid", "21", "--format", "json", "--out", str(f_json))
        _, rows = csv_rows(f_csv.read_text())
        doc = json.loads(f_json.read_text())
        assert [float(r[0]) for r in rows] == doc["axes"]["a"]
        assert [float(r[1]) for r in rows] == doc["values"]

    def test_json_reruns_are_bit_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "1.json", tmp_path / "2.json"
        run_cli(capsys, "fig1", "--grid", "21", "--format", "json", "--out", str(f1))
        run_cli(capsys, "fig1", "--grid", "21", "--format", "json", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("grid", ["2", "301"])
    @pytest.mark.parametrize("cd", ["0", "0.1"])  # 0 is the c + d = 0 branch
    def test_points_match_scalar_closed_form(self, capsys, grid, cd):
        code, out, _ = run_cli(capsys, "fig1", "--grid", grid, "--cd", cd, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        cfg = doc["config"]
        params = ModelParams(cfg["omega"], cfg["g"], cfg["gamma"])
        cd = cfg["cd"]
        want = [rate_werner(WernerParams(a, 1 - a - cd, cd / 2, cd / 2), params)
                for a in doc["axes"]["a"]]
        assert doc["values"] == want
        code, out, _ = run_cli(capsys, "fig1", "--grid", grid, "--cd", str(cd))
        assert code == 0
        _, rows = csv_rows(out)
        assert [float(r[1]) for r in rows] == want


class TestFig2:
    def test_boundary_and_depth_cells(self, capsys):
        code, out, _ = run_cli(capsys, "fig2", "--grid", "11")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["p", "qabs", "R"]
        table = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        assert table[(0.5, 0.5)] == pytest.approx(0.0, abs=1e-15)
        assert table[(0.0, 0.0)] == 0.0
        assert table[(0.5, 0.0)] == pytest.approx(-0.25)
        assert min(table.values()) == pytest.approx(-0.25)

    def test_feasible_region_requires_small_coherence(self, capsys):
        code, out, _ = run_cli(capsys, "fig2", "--grid", "101")
        _, rows = csv_rows(out)
        by_q = {}
        for r in rows:
            by_q.setdefault(float(r[1]), []).append(float(r[2]))
        for qabs, vals in by_q.items():
            assert (min(vals) <= 1e-12) == (qabs <= 0.5)


class TestFig3:
    def test_extremal_cells_and_masking(self, capsys):
        code, out, err = run_cli(capsys, "fig3", "--format", "json", "--grid", "101")
        assert code == 0
        doc = json.loads(out)
        assert doc["argmax"]["qr"] == 0.0
        assert doc["argmax"]["qi"] == 0.5
        assert doc["argmax"]["rate"] == pytest.approx(0.10098865286222743)
        assert doc["argmin"]["qr"] == 0.5
        assert doc["argmin"]["qi"] == 0.0
        assert doc["argmin"]["rate"] == pytest.approx(-0.014426950408889635)
        assert "argmax" in err and "argmin" in err

    def test_unwritable_out_prints_no_summary(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "fig3", "--grid", "3",
                                 "--out", str(tmp_path / "missing" / "x"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write output file")
        assert "argmax" not in err and "argmin" not in err

    def test_mask_flag_exactly_matches_positivity(self, capsys):
        code, out, _ = run_cli(capsys, "fig3", "--grid", "31")
        _, rows = csv_rows(out)
        for r in rows:
            feas = r[3] == "1"
            assert feas == (float(r[2]) <= 1e-12)

    def test_extremal_locations_invariant_under_common_rescaling(self, capsys):
        _, out1, _ = run_cli(capsys, "fig3", "--format", "json", "--grid", "41")
        doc1 = json.loads(out1)
        _, out2, _ = run_cli(capsys, "fig3", "--format", "json", "--grid", "41",
                             "--g", "0.4", "--gamma", "0.02")
        doc2 = json.loads(out2)
        for key in ("argmax", "argmin"):
            assert doc1[key]["qr"] == doc2[key]["qr"]
            assert doc1[key]["qi"] == doc2[key]["qi"]
            assert doc2[key]["rate"] == pytest.approx(2 * doc1[key]["rate"])

    def test_reruns_are_bit_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        run_cli(capsys, "fig3", "--grid", "31", "--out", str(f1))
        run_cli(capsys, "fig3", "--grid", "31", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_cells_match_scalar_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "fig3", "--grid", "31", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        cfg = doc["config"]
        for i, qr in enumerate(doc["axes"]["qr"]):
            for j, qi in enumerate(doc["axes"]["qi"]):
                try:
                    want = rate_xy_value(cfg["p"], complex(qr, qi), cfg["g"], cfg["gamma"])
                except (SeparableRegionError, DomainError):
                    want = None
                assert doc["values"][i][j] == want


@pytest.mark.parametrize("command", ["fig1", "fig2", "fig3"])
def test_axes_are_the_configured_ranges(capsys, command):
    code, out, _ = run_cli(capsys, command, "--grid", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    ranges = doc["config"]["ranges"]
    assert list(ranges) == list(doc["axes"])
    for name, r in ranges.items():
        assert doc["axes"][name] == np.linspace(*r).tolist()


class TestEvolve:
    def test_stationary_bell_state_keeps_unit_entanglement(self, capsys):
        # q must be real: (|01> + |10>)/sqrt(2) is the XY-block eigenstate
        code, out, _ = run_cli(capsys, "evolve", "xy", "0.5", "0.5", "0",
                               "--gamma", "0", "--t-end", "1", "--dt", "0.05")
        assert code == 0
        header, rows = csv_rows(out)
        e_col = header.index("E")
        assert all(float(r[e_col]) == pytest.approx(1.0, abs=1e-9) for r in rows)

    def test_damped_bell_state_entanglement_decreases(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "werner", "1", "0", "0", "0",
                               "--gamma", "0.01", "--t-end", "5", "--dt", "0.05")
        assert code == 0
        header, rows = csv_rows(out)
        e_col = header.index("E")
        vals = [float(r[e_col]) for r in rows]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_trace_column_stays_unity(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "xy", "0.6", "0", "0.3",
                               "--t-end", "2", "--dt", "0.01")
        header, rows = csv_rows(out)
        tr_col = header.index("trace")
        assert all(abs(float(r[tr_col]) - 1.0) <= 1e-8 for r in rows)

    def test_rate_column_blank_at_endpoints(self, capsys):
        _, out, _ = run_cli(capsys, "evolve", "xy", "0.6", "0", "0.3",
                            "--t-end", "0.2", "--dt", "0.05")
        header, rows = csv_rows(out)
        col = header.index("rate_numeric")
        assert rows[0][col] == "" and rows[-1][col] == ""
        assert rows[1][col] != ""

    def test_matrix_file_input(self, capsys, tmp_path):
        path = tmp_path / "state.txt"
        rows_txt = []
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        for row in m:
            rows_txt.append(" ".join(format(z, "") for z in row))
        path.write_text("\n".join(rows_txt) + "\n")
        code, out, _ = run_cli(capsys, "evolve", "matrix", str(path),
                               "--t-end", "0.1", "--dt", "0.05")
        assert code == 0

    def test_wrong_sized_matrix_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "qubit.txt"
        np.savetxt(path, np.eye(2) / 2)
        code, out, err = run_cli(capsys, "evolve", "matrix", str(path),
                                 "--t-end", "0.1", "--dt", "0.05")
        assert code == 2
        assert out == ""
        assert err.startswith("error: state shape (2, 2)")

    def test_bad_state_spec_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "werner", "1", "0", "--t-end", "1")
        assert code == 2
        assert "error" in err

    def test_json_rows_match_csv(self, capsys, tmp_path):
        f_csv, f_json = tmp_path / "e.csv", tmp_path / "e.json"
        args = ["evolve", "xy", "0.6", "0", "0.3", "--t-end", "0.2", "--dt", "0.05"]
        run_cli(capsys, *args, "--out", str(f_csv))
        run_cli(capsys, *args, "--format", "json", "--out", str(f_json))
        _, rows = csv_rows(f_csv.read_text())
        doc = json.loads(f_json.read_text())
        assert doc["axes"]["t"] == [float(r[0]) for r in rows]
        for json_row, csv_row in zip(doc["values"]["rows"], rows):
            for jv, cv in zip(json_row, csv_row[1:]):
                assert (jv is None and cv == "") or jv == float(cv)

    @pytest.mark.parametrize("t_end, n_rows", [("0", 1), ("0.03", 2)])
    def test_short_run_has_no_rate(self, capsys, t_end, n_rows):
        """With one row (t_end 0) or two (t_end < dt) no row has two neighbours:
        every rate_numeric cell is empty in CSV and null in JSON, and the
        formats agree on the rest."""
        args = ["evolve", "xy", "0.6", "0", "0.3", "--t-end", t_end, "--dt", "0.05"]
        _, out, _ = run_cli(capsys, *args)
        _, text, _ = run_cli(capsys, *args, "--format", "json")
        header, rows = csv_rows(out)
        doc = json.loads(text)
        assert len(rows) == len(doc["values"]["rows"]) == n_rows
        assert [row[header.index("rate_numeric")] for row in rows] == [""] * n_rows
        assert [row[-1] for row in doc["values"]["rows"]] == [None] * n_rows
        assert doc["axes"]["t"] == [float(row[0]) for row in rows]
        for json_row, csv_row in zip(doc["values"]["rows"], rows):
            assert json_row[:-1] == [float(cell) for cell in csv_row[1:-1]]

    def test_infeasible_state_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "evolve", "xy", "0.9", "0", "0.4", "--t-end", "1")
        assert code == 3


class TestEvolveColumns:
    """The measure columns of an evolve table against the library on the same
    trajectory.  t_end is not a multiple of dt, so the last step is short."""

    PARAMS = ModelParams(0.8, 0.3, 0.05)
    T_END, DT = 0.537, 0.01

    @pytest.fixture(params=["xy", "werner", "matrix"])
    def evolved(self, request, capsys, tmp_path):
        """(columns, rows, trajectory) of one JSON evolve run."""
        if request.param == "matrix":
            # a full-rank entangled state outside the X form
            rho = random_entangled_mixed(np.random.default_rng(3))
            path = tmp_path / "state.txt"
            path.write_text("\n".join(" ".join(repr(complex(z)) for z in row) for row in rho))
            state = ["matrix", str(path)]
        else:
            state = {"xy": ["xy", "0.6", "0.1", "0.3"],
                     "werner": ["werner", "0.7", "0.1", "0.15", "0.05"]}[request.param]
        p = self.PARAMS
        code, out, _ = run_cli(capsys, "evolve", "--format", "json", "--t-end", repr(self.T_END),
                               "--dt", repr(self.DT), "--omega", repr(p.omega), "--g", repr(p.g),
                               "--gamma", repr(p.gamma), "--", *state)
        assert code == 0
        doc = json.loads(out)
        traj = integrate(p, entrate.cli._parse_state(state), self.T_END, self.DT)
        assert doc["axes"]["t"] == traj.times.tolist()
        return doc["values"]["columns"], doc["values"]["rows"], traj

    def test_rate_column_is_rate_numeric_bitwise(self, evolved):
        columns, rows, traj = evolved
        col = columns.index("rate_numeric")
        assert len(rows) == len(traj) > 50
        for i in range(1, len(traj) - 1):
            assert rows[i][col] == rate_numeric(traj, i)

    def test_min_eig_column_is_the_smallest_eigenvalue(self, evolved):
        columns, rows, traj = evolved
        got = np.array([row[columns.index("min_eig")] for row in rows])
        want = np.linalg.eigvalsh(traj.elements).min(axis=1)
        assert np.abs(got - want).max() <= 1e-15


class TestRateCommand:
    def test_xy_point_reports_three_routes(self, capsys):
        # A strong negative coupling checks that the default --dt resolves |g|.
        for g, closed in (("0.2", 0.08796541879002416), ("-300", -142.65375739615732)):
            code, out, _ = run_cli(capsys, "rate", "--p", "0.6", "--qi", "0.3",
                                   f"--g={g}", "--gamma", "0.01", "--format", "json")
            assert code == 0
            vals = json.loads(out)["values"]
            assert vals["rate_closed_form"] == pytest.approx(closed)
            assert vals["rate_chain"] == pytest.approx(vals["rate_closed_form"], rel=1e-3)
            assert vals["rate_numeric_at_dt"] == pytest.approx(vals["rate_closed_form"],
                                                               rel=1e-2)

    @pytest.mark.parametrize("point", [
        ("--p", "0.5", "--qi", "0.5"),  # pure XY state at C = 1
        ("--a", "1", "--cd", "0"),  # Bell state
        ("--p", "0.8", "--qi", "0.4"),  # pure XY state at C = 0.8
    ])
    def test_chain_route_is_exact_on_pure_states(self, capsys, point):
        code, out, _ = run_cli(capsys, "rate", *point, "--g", "0.3", "--gamma", "0.05",
                               "--format", "json")
        assert code == 0
        vals = json.loads(out)["values"]
        assert vals["rate_chain"] == pytest.approx(vals["rate_closed_form"], rel=1e-9)

    def test_werner_point(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--a", "0.7", "--cd", "0.2",
                               "--gamma", "0.01", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["values"]["rate_closed_form"] == pytest.approx(-0.011838303904435955)

    def test_separable_point_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "rate", "--a", "0.25", "--cd", "0.5")
        assert code == 3

    def test_missing_family_flags_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--g", "0.2")
        assert code == 2
        assert "error" in err

    def test_both_families_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "rate", "--p", "0.6", "--qi", "0.3", "--a", "0.7")
        assert code == 2
        assert out == ""
        assert err.startswith("error: rate takes either")


    def test_dt_that_overflows_the_end_time_names_dt(self, capsys):
        code, out, err = run_cli(capsys, "rate", "--p", "0.6", "--qi", "0.3", "--dt", "1e308")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --dt 1e+308")
        assert "t_end" not in err


class TestRateReportRoutes:
    """The report's chain and numeric lines come from one concurrence pass over
    rho0 and rho(2 dt); they are checked against the library's routes."""

    PARAMS = ModelParams(0.7, 0.3, 0.05)
    DT = 1e-3

    def report(self, capsys, *point):
        p = self.PARAMS
        code, out, _ = run_cli(capsys, "rate", *point, "--omega", repr(p.omega), "--g", repr(p.g),
                               "--gamma", repr(p.gamma), "--dt", repr(self.DT), "--format", "json")
        assert code == 0
        return json.loads(out)["values"]

    @pytest.mark.parametrize("point, rho0", [
        (("--p", "0.6", "--qi", "0.3"), xy_state(XYFamilyParams(0.6, 0.3j))),
        (("--p", "0.7", "--qr", "-0.1", "--qi", "0.2"), xy_state(XYFamilyParams(0.7, -0.1 + 0.2j))),
        (("--p", "0.5", "--qi", "0.5"), xy_state(XYFamilyParams(0.5, 0.5j))),  # C = 1
        (("--a", "0.7", "--cd", "0.2"), werner_state(WernerParams(0.7, 0.1, 0.1, 0.1))),
        (("--a", "1", "--cd", "0"), werner_state(WernerParams(1.0, 0.0, 0.0, 0.0))),  # C = 1
    ])
    def test_routes_equal_the_library_routes(self, capsys, point, rho0):
        vals = self.report(capsys, *point)
        traj = integrate(self.PARAMS, rho0, 2 * self.DT, self.DT)
        assert vals["rate_numeric_at_dt"] == rate_numeric(traj, 1)  # bitwise
        chain = rate_chain(rho0, rhs_damped_xy(self.PARAMS, rho0)).gamma_total
        assert vals["rate_chain"] == pytest.approx(chain, rel=1e-12, abs=0)

    @pytest.mark.parametrize("point, rho0", [
        (("--p", "0.6", "--qi", "0.3"), xy_state(XYFamilyParams(0.6, 0.3j))),
        (("--p", "0.5", "--qi", "0.5"), xy_state(XYFamilyParams(0.5, 0.5j))),  # C = 1
        # the weights as the command forms them: (a, 1 - a - cd, cd / 2, cd / 2)
        (("--a", "0.7", "--cd", "0.2"), werner_state(WernerParams(0.7, 1.0 - 0.7 - 0.2, 0.1, 0.1))),
        (("--a", "0.9", "--cd", "0"), werner_state(WernerParams(0.9, 1.0 - 0.9, 0.0, 0.0))),
    ])
    def test_chain_line_is_rate_x_along_the_generator_bitwise(self, capsys, point, rho0):
        vals = self.report(capsys, *point)
        gen = liouvillian(damped_xy_model(self.PARAMS))
        rho_dot = (gen @ rho0.elements.reshape(16)).reshape(4, 4)
        assert vals["rate_chain"] == rate_x(rho0, rho_dot)

    def test_kink_point_reads_undefined(self, capsys):
        # C = 2e-7 is within KINK_TOL = 1e-6 of the c = 0 kink
        vals = self.report(capsys, "--p", "0.6", "--qi", "1e-7")
        assert vals["rate_chain"] is None
        assert vals["rate_closed_form"] > 0

    def test_non_finite_rho_dot_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(entrate.cli, "_damped_xy_generator",
                            lambda params: np.full((16, 16), np.nan))
        code, out, err = run_cli(capsys, "rate", "--p", "0.6", "--qi", "0.3")
        assert code == 2
        assert out == ""
        assert "rho_dot must be finite" in err


class TestCriterionCommand:
    def test_entangling_report(self, capsys):
        code, out, _ = run_cli(capsys, "criterion", "--p", "0.6", "--qi", "0.5",
                               "--g", "0.2", "--gamma", "0.01", "--format", "json")
        assert code == 0
        vals = json.loads(out)["values"]
        assert vals["threshold"] == pytest.approx(2.5)
        assert vals["g_over_gamma"] == pytest.approx(20.0)
        assert vals["predicted_sign"] == "+"
        assert vals["computed_sign"] == "+"

    def test_boundary_rate_vanishes(self, capsys):
        code, out, _ = run_cli(capsys, "criterion", "--p", "0.6", "--qi", "0.5",
                               "--g", "0.025", "--gamma", "0.01", "--format", "json")
        assert code == 0
        vals = json.loads(out)["values"]
        assert abs(vals["rate"]) < 1e-12

    def test_degenerate_direction_note(self, capsys):
        code, out, _ = run_cli(capsys, "criterion", "--p", "0.5", "--qr", "0.3",
                               "--format", "json")
        assert code == 0
        vals = json.loads(out)["values"]
        assert vals["threshold"] is None
        assert vals["predicted_sign"] == "-"
        assert vals["computed_sign"] == "-"
        assert vals["note"]

    def test_text_report_lines(self, capsys):
        code, out, _ = run_cli(capsys, "criterion", "--p", "0.6", "--qi", "0.4",
                               "--g", "0.2", "--gamma", "0.01")
        assert code == 0
        assert "threshold = " in out
        assert "predicted_sign = +" in out

    def test_zero_damping_ratio_is_undefined(self, capsys):
        argv = ("criterion", "--p", "0.6", "--qi", "0.3", "--gamma", "0")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        vals = json.loads(out)["values"]
        assert vals["g_over_gamma"] is None
        assert vals["predicted_sign"] == vals["computed_sign"] == "+"
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "g/gamma = undefined" in out


def _zero_or(lo, hi):
    """0.0, or a float of either sign with magnitude in [lo, hi]."""
    return st.just(0.0) | st.floats(lo, hi) | st.floats(-hi, -lo)


@st.composite
def _xy_points(draw):
    """A feasible XY point (p, qr, qi) with qr, qi each 0 or at least 1e-3 in size, not both 0."""
    p = draw(st.floats(0.01, 0.99))
    bound = float(np.sqrt(p * (1.0 - p) / 2.0))
    qr, qi = draw(_zero_or(1e-3, bound)), draw(_zero_or(1e-3, bound))
    assume(qr or qi)
    return p, qr, qi


# Each nonzero term of g qI (2p-1) - gamma |q|^2 is then above 1e-22, so neither
# the margin nor the rate underflows to 0 unless the other does.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(point=_xy_points(), g=_zero_or(1e-3, 5.0), gamma=st.just(0.0) | st.floats(1e-3, 1.0),
       fmt=st.sampled_from(["csv", "json"]))
@example(point=(0.4, 0.0, 0.3), g=-0.2, gamma=0.01, fmt="csv")
@example(point=(0.5, 0.0, 0.3), g=0.2, gamma=0.0, fmt="csv")
@example(point=(0.6, 0.0, 0.3), g=0.0, gamma=0.0, fmt="json")
def test_criterion_predicts_the_computed_sign(point, g, gamma, fmt):
    argv = ["criterion", "--format", fmt, *(f"--{k}={v!r}" for k, v in
                                             zip(("p", "qr", "qi", "g", "gamma"),
                                                 (*point, g, gamma)))]
    out = StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0, argv
    if fmt == "json":
        vals = json.loads(out.getvalue())["values"]
    else:
        vals = dict(line.split(" = ", 1) for line in out.getvalue().splitlines())
    assert vals["predicted_sign"] == vals["computed_sign"], argv


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


XY_STATE = ("--", "xy", "0.6", "0", "0.3")
# A finite trajectory whose central difference overflows.
EVOLVE_OVERFLOW = ("--g", "1.2e308", "--gamma", "0", "--dt", "1e-310", "--t-end", "3e-310",
                   "--", "xy", "0.9", "0", "0.3")


@pytest.mark.parametrize("argv,want", [
    (("fig3", "--grid", "5", "--p=nan", "--format", "json"), 2),
    (("fig3", "--grid", "5", "--p=nan"), 2),
    (("rate", "--p=nan", "--qi=0.3"), 2),
    (("rate", "--a=nan"), 2),
    (("evolve", "--t-end=nan", *XY_STATE), 2),
    (("evolve", "--t-end=inf", *XY_STATE), 2),
    (("criterion", "--p=0.6", "--qr=nan"), 2),
    (("fig1", "--grid", "0"), 3),
    (("rate", "--p=0.6", "--qi=0.3", "--dt=nan"), 2),
    (("fig3", "--grid", "5", "--gamma=-0.5"), 2),
    (("evolve", "--t-end=0.05", "--dt=-0.01", *XY_STATE), 2),
    (("rate", "--p=abc"), 2),
    (("evolve", "--t-end", "20", "--dt", "10", "--g", "1e308", *XY_STATE), 4),
    (("evolve", "--t-end", "20", "--dt", "10", "--g", "1e308", "--gamma", "1e307",
      *XY_STATE), 4),
    (("rate", "--p", "0.6", "--qi", "0.3", "--g", "1e308", "--dt", "1"), 4),
    (("fig1", "--gamma", "1e308", "--format", "json"), 4),
    (("fig1", "--gamma", "1e308"), 4),
    (("fig3", "--p", "1e300", "--grid", "5", "--format", "json"), 4),
    (("fig3", "--p", "1e300", "--grid", "5"), 4),
    (("evolve", "--g", "1e5", "--t-end", "10", *XY_STATE), 3),
    (("fig2", "--grid", "100000"), 3),
    (("fig3", "--grid", "100000"), 3),
    (("fig1", "--grid", "1000000000"), 3),
    (("criterion", "--p=0", "--qr=1.2711610061536462e+308", "--qi=1.2711610061536464e+308"), 2),
    (("fig3", "--p=1.3407807929942597e+154", "--grid=2", "--g=1.3407807929942597e+154"), 4),
    (("rate", "--p=0.0", "--qr=1.3407807929942597e+154"), 3),
    (("fig1", "--out", "{tmp}"), 2),
    (("fig1", "--out", "{tmp}/missing/fig1.csv"), 2),
    (("evolve", "--t-end=0.05", "--dt=0", *XY_STATE), 2),
    (("evolve", "--t-end=0.05", "--dt=-0.0", *XY_STATE), 2),
    (("rate", "--p=0.6", "--qi=0.3", "--dt=0"), 2),
    (("rate", "--p=0.6", "--qi=0.3", "--dt=-0.0"), 2),
    (("evolve", "--t-end=0.02", "--", "matrix", "{tmp}/nan-pair.txt"), 2),
    (("evolve", *EVOLVE_OVERFLOW), 4),
    (("evolve", "--format", "json", *EVOLVE_OVERFLOW), 4),
])
def test_malformed_input_exits_with_message(capsys, tmp_path, argv, want):
    """{tmp} stands for a scratch directory holding nan-pair.txt, a 4x4
    matrix file with a symmetric pair of NaNs."""
    m = np.eye(4) / 4
    m[0, 1] = m[1, 0] = np.nan
    np.savetxt(tmp_path / "nan-pair.txt", m)
    try:
        code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == want
    assert err.strip() and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ("fig1", "--grid", "5"),
    ("fig2", "--grid", "4"),
    ("fig3", "--grid", "5"),
    ("evolve", "--t-end", "0.1", "--dt", "0.05", *XY_STATE),
    ("rate", "--p", "0.6", "--qi", "0.3"),
    ("criterion", "--p", "0.6", "--qi", "0.5"),
], ids=lambda argv: argv[0])
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv, fmt):
    command, *rest = argv  # options go ahead of evolve's "--"
    code, out, err = run_cli(capsys, command, "--format", fmt, *rest)
    assert code == 0
    path = tmp_path / "out"
    assert run_cli(capsys, command, "--format", fmt, "--out", str(path), *rest) == (0, "", err)
    assert path.read_bytes() == out.encode()


def test_main_builds_its_parser_once(capsys, monkeypatch):
    assert run_cli(capsys, "criterion", "--p=0.6", "--qi=0.3")[0] == 0

    def refuse():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(entrate.cli, "build_parser", refuse)
    assert run_cli(capsys, "criterion", "--p=0.6", "--qi=0.3")[0] == 0


def test_main_looks_the_command_up_at_call_time(capsys, monkeypatch):
    assert run_cli(capsys, "criterion", "--p=0.6", "--qi=0.3")[0] == 0  # the parser exists
    seen = []
    monkeypatch.setattr(entrate.cli, "cmd_rate", lambda args: seen.append(args.p) or "stub\n")
    assert run_cli(capsys, "rate", "--p", "0.6") == (0, "stub\n", "")
    assert seen == [0.6]


SHARED_PARSER_ARGV = [
    ("rate", "--p"),
    ("--help",),
    ("criterion", "--qi=0.3"),
    ("evolve", "--t-end", "0.02", "--dt", "0.01", "--", "xy", "0.6", "0", "0.3"),
    ("rate", "--p", "0.6", "--qi", "0.3", "--dt", "0.002", "--format", "json"),
    ("rate", "--p", "0.6", "--qi", "0.3", "--format", "json"),
    ("criterion", "--p=0.6", "--qi=0.3", "--format", "json"),
    ("fig1", "--grid", "3", "--cd", "0.2"),
    ("fig1", "--grid", "3"),
]


def test_argv_outcome_does_not_depend_on_earlier_calls(capsys):
    """Every argv gives one outcome wherever it runs in a sequence of calls."""
    forward = [run_cli(capsys, *argv) for argv in SHARED_PARSER_ARGV]
    backward = [run_cli(capsys, *argv) for argv in reversed(SHARED_PARSER_ARGV)]
    assert forward == backward[::-1]
    assert [code for code, _, _ in forward] == [2, 0, 2, 0, 0, 0, 0, 0, 0]
    assert json.loads(forward[4][1])["config"]["dt"] == 0.002
    assert json.loads(forward[5][1])["config"]["dt"] == 0.001  # the default again


def _option_types(command):
    """Option string -> argparse type, for every option of one subcommand."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[0]: a.type for a in sub.choices[command]._actions if a.option_strings}


@st.composite
def _fuzzed_argv(draw, command):
    """Any float (huge, tiny, +-0, subnormal, nan, inf) in any float option of
    command, and in the evolve state spec."""
    argv = [command, "--format=" + draw(st.sampled_from(["csv", "json"]), label="format")]
    for option, kind in _option_types(command).items():
        if kind is _finite_float:
            value = draw(st.none() | st.floats(), label=option)
            if value is not None:
                argv.append(f"{option}={value!r}")
        elif kind is int:
            argv.append(f"{option}={draw(st.integers(-1, 6), label=option)}")
    if command == "evolve":
        family, size = draw(st.sampled_from([("xy", 3), ("werner", 4)]), label="state")
        values = draw(st.lists(st.floats(), min_size=size, max_size=size), label="values")
        argv += ["--", family, *map(repr, values)]
    return argv


class _Drawn:
    """Stands in for st.data() in an @example: every draw returns `value`."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy, label=None):
        return self.value


def _parses_non_finite(cell: str) -> bool:
    try:
        return not math.isfinite(float(cell))
    except ValueError:  # text, such as an empty cell, `undefined` or `infeasible`
        return False


@pytest.mark.parametrize("command", ["fig1", "fig2", "fig3", "evolve", "rate", "criterion"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
@example(data=_Drawn(["evolve", "--format=csv", *EVOLVE_OVERFLOW]))
@example(data=_Drawn(["evolve", "--format=json", *EVOLVE_OVERFLOW]))
def test_fuzzed_floats_end_in_a_documented_exit(command, data):
    """Any float in any float option ends in exit 0/2/3/4.  On exit 0, JSON
    output parses, and no CSV cell or report value is nan or +-inf."""
    argv = data.draw(_fuzzed_argv(command), label="argv")
    assume(argv[0] == command)  # an @example's argv runs under its own command only
    out, err = StringIO(), StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        mp.setattr(entrate.cli, "MAX_VALUES", 20_000)  # keeps every example small and fast
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), argv
    if code:
        assert err.getvalue().strip() and "Traceback" not in err.getvalue(), argv
    elif "--format=json" in argv:
        json.loads(out.getvalue())
    else:
        cells = [cell for line in out.getvalue().splitlines()
                 for cell in (line.split(" = ", 1)[1:] if " = " in line else line.split(","))]
        assert not any(map(_parses_non_finite, cells)), argv
