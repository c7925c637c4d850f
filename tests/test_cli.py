import argparse
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrate.cli
from entrate import ModelParams, WernerParams, rate_werner, rate_xy_value
from entrate.cli import _finite_float, build_parser, main
from entrate.errors import DomainError, SeparableRegionError


def run_cli(capsys, *argv):
    code = main(list(argv))
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

    def test_infeasible_state_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "evolve", "xy", "0.9", "0", "0.4", "--t-end", "1")
        assert code == 3


class TestRateCommand:
    def test_xy_point_reports_three_routes(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--p", "0.6", "--qi", "0.3",
                               "--g", "0.2", "--gamma", "0.01", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        vals = doc["values"]
        assert vals["rate_closed_form"] == pytest.approx(0.08796541879002416)
        assert vals["rate_chain"] == pytest.approx(vals["rate_closed_form"], rel=1e-3)
        assert vals["rate_numeric_at_dt"] == pytest.approx(vals["rate_closed_form"], rel=1e-2)

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


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


XY_STATE = ("--", "xy", "0.6", "0", "0.3")


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


def _option_types(command):
    """Option string -> argparse type, for every option of one subcommand."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[0]: a.type for a in sub.choices[command]._actions if a.option_strings}


@pytest.mark.parametrize("command", ["fig1", "fig2", "fig3", "evolve", "rate", "criterion"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_floats_end_in_a_documented_exit(command, data):
    """Any float (huge, tiny, +-0, subnormal, nan, inf) in any float option,
    and in the evolve state spec, ends in exit 0/2/3/4; JSON output parses."""
    fmt = data.draw(st.sampled_from(["csv", "json"]), label="format")
    argv = [command, "--format", fmt]
    for option, kind in _option_types(command).items():
        if kind is _finite_float:
            value = data.draw(st.none() | st.floats(), label=option)
            if value is not None:
                argv.append(f"{option}={value!r}")
        elif kind is int:
            argv.append(f"{option}={data.draw(st.integers(-1, 6), label=option)}")
    if command == "evolve":
        family, size = data.draw(st.sampled_from([("xy", 3), ("werner", 4)]), label="state")
        values = data.draw(st.lists(st.floats(), min_size=size, max_size=size), label="values")
        argv += ["--", family, *map(repr, values)]

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
    elif fmt == "json":
        json.loads(out.getvalue())
