import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import sympb
from sympb import cli, save_matrix
from sympb.cli import build_parser, main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(tmp_path, name, m):
    path = str(tmp_path / name)
    save_matrix(np.asarray(m, dtype=float), path)
    return path


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    meta = json.loads(lines[0][2:])
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return meta, columns, rows


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def test_capacity_identity(tmp_path, capsys):
    path = write_matrix(tmp_path, "m.csv", np.eye(4))
    code, out, _ = run_cli(capsys, "capacity", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 4
    assert doc["spectrum"] == [1.0, 1.0]
    assert abs(doc["capacity"] - math.pi) <= 1e-12


def test_capacity_ball_radius_two(tmp_path, capsys):
    path = write_matrix(tmp_path, "ball.json", 0.25 * np.eye(6))
    code, out, _ = run_cli(capsys, "capacity", path)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["capacity"] - 4.0 * math.pi) <= 1e-12


def test_capacity_output_file(tmp_path, capsys):
    path = write_matrix(tmp_path, "m.csv", np.eye(2))
    out_path = tmp_path / "cap.json"
    code, out, _ = run_cli(capsys, "capacity", path, "-o", str(out_path))
    assert code == 0 and out == ""
    assert abs(json.loads(out_path.read_text())["capacity"] - math.pi) <= 1e-12


def test_capacity_domain_errors_exit_one(tmp_path, capsys):
    cases = [
        np.diag([1.0, -1.0, 1.0, 1.0]),          # not positive definite
        [[1.0, 0.5], [0.0, 1.0]],                # not symmetric
        np.eye(3),                               # odd dimension
    ]
    for i, m in enumerate(cases):
        path = write_matrix(tmp_path, f"bad{i}.csv", m)
        code, _, err = run_cli(capsys, "capacity", path)
        assert code == 1
        assert "error:" in err


def test_capacity_io_errors_exit_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "capacity", str(tmp_path / "missing.csv"))
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "capacity", str(bad))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("name,text", [
    ("nan.csv", "1,0\n0,nan\n"), ("inf.csv", "1,0\n-inf,1\n"),
    ("nan.json", "[[1, NaN], [0, 1]]"), ("inf.json", "[[1, 0], [0, Infinity]]"),
    # before: an integer beyond the float range died with a traceback, exit 1
    pytest.param("big.json", "[[1" + "0" * 400 + ", 0], [0, 1]]", id="big.json"),
])
def test_capacity_non_finite_matrix_exit_two(tmp_path, capsys, name, text):
    # before: numpy's "Array must not contain infs or NaNs", after a
    # RuntimeWarning for inf, without the file's name
    path = tmp_path / name
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "capacity", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: entry [") and err.endswith("not a finite number\n")


@pytest.mark.parametrize("text,entry", [
    ("[[true, false], [false, true]]", "[0, 0] is true"),
    ('[["2", "0"], ["0", "2"]]', '[0, 0] is "2"'),
    ("[[1, 0], [0, null]]", "[1, 1] is null"),
], ids=["bool", "string", "null"])
def test_capacity_json_entry_that_is_not_a_number_exits_two(tmp_path, capsys, text, entry):
    # before: exit 0 for the bools, read as the identity (capacity pi), and
    # for the strings, read as 2 I; a null was named as a nan entry
    path = tmp_path / "m.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "capacity", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: entry {entry}, not a JSON number\n"


def test_no_subcommand_exits_two(capsys):
    assert main([]) == 2


# ---------------------------------------------------------------------------
# widths
# ---------------------------------------------------------------------------


def test_widths_requires_energy_range(capsys):
    code, _, err = run_cli(capsys, "widths")
    assert code == 2
    assert "--e-min" in err


@pytest.mark.parametrize("argv", [(), ("--e-min", "0"), ("--e-max", "1")])
def test_widths_missing_energy_range_message(capsys, argv):
    assert run_cli(capsys, "widths", *argv) == (
        2, "", "error: --e-min and --e-max are required\n")


def test_widths_known_action_value(capsys):
    code, out, _ = run_cli(
        capsys, "widths", "--e-min", "0.8350", "--e-max", "0.8350",
        "--steps", "1", "--samples", "1000", "--seed", "3",
    )
    assert code == 0
    meta, columns, rows = parse_csv(out)
    assert meta["command"] == "widths"
    assert columns == ["E", "J_max_2", "c_cand", "limiting_mode", "V", "phi", "std_error", "seed"]
    assert len(rows) == 1
    assert abs(float(rows[0][1]) - 1.0) <= 1e-10
    assert abs(float(rows[0][2]) - 2.0 * math.pi) <= 1e-10


def test_widths_monotone_and_seeded_rows(capsys):
    code, out, _ = run_cli(
        capsys, "widths", "--builtin", "eckart-morse-morse-3dof",
        "--e-min", "0.0", "--e-max", "1.0", "--steps", "4",
        "--samples", "2000", "--seed", "9",
    )
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert columns[:3] == ["E", "J_max_2", "J_max_3"]
    c = [float(r[3]) for r in rows]
    assert c == sorted(c)
    assert [int(r[-1]) for r in rows] == [9, 10, 11, 12]


def test_main_reuses_one_parser_without_carrying_options(capsys, monkeypatch):
    # main builds the parser on its first call only; the options of one call
    # do not carry into the next, which reads as it does on a fresh parser
    real = cli.build_parser
    built = []

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    argv = ["widths", "--e-min", "0.5", "--e-max", "0.6", "--steps", "2", "--samples", "300"]
    cli._parser.cache_clear()
    try:
        first = run_cli(capsys, *argv, "--seed", "3", "--format", "json")
        second = run_cli(capsys, *argv)
        assert built == [1]
        cli._parser.cache_clear()
        fresh = run_cli(capsys, *argv)
        assert built == [1, 1]
    finally:
        cli._parser.cache_clear()
    assert first[0] == second[0] == 0
    assert json.loads(first[1])["meta"]["seed"] == 3
    assert second == fresh
    assert parse_csv(second[1])[0]["command"] == "widths"


def test_widths_below_saddle_exit_one(capsys):
    code, _, err = run_cli(
        capsys, "widths", "--e-min", "-2.0", "--e-max", "0.0",
        "--steps", "2", "--samples", "100",
    )
    assert code == 1 and "error:" in err


def test_widths_box_volume_overflow_exit_two(tmp_path):
    # before: exit 0 with numpy's overflow warning and V, phi and std_error
    # written as inf; run as a process, with warnings as errors, so that a
    # numpy warning would show on stderr
    argv = ["widths", "--builtin", "eckart-morse-morse-3dof", "--e-min", "0",
            "--e-max", "1e300", "--steps", "2", "--samples", "10"]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sympb", *argv],
        capture_output=True, text=True, env=source_env(), cwd=tmp_path, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: E = 1e+300 gives a sampling box of volume inf, not a finite number\n")


def test_widths_config_merge_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"e-min": 0.0, "e-max": 0.5, "steps": 2, "samples": 500}))
    code, out, _ = run_cli(capsys, "widths", "--config", str(cfg), "--steps", "3")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 3


def test_widths_unknown_config_key_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(capsys, "widths", "--config", str(cfg),
                           "--e-min", "0", "--e-max", "1")
    assert code == 2 and "bogus" in err


def test_widths_model_missing_e0_exit_two(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"terms": []}))
    code, _, err = run_cli(capsys, "widths", "--model", str(model),
                           "--e-min", "0", "--e-max", "1")
    assert code == 2 and "error:" in err and "'e0'" in err


def test_widths_non_monotone_model_exit_one(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"e0": 0.0, "terms": [
        {"i": 1, "j": [0, 0], "c": 1.0}, {"i": 0, "j": [1, 0], "c": 1.0},
        {"i": 0, "j": [0, 1], "c": 1.0}, {"i": 0, "j": [1, 1], "c": -0.5},
    ]}))
    code, out, err = run_cli(capsys, "widths", "--model", str(model),
                             "--e-min", "0.5", "--e-max", "1", "--steps", "2",
                             "--samples", "100")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "J_2*J_3" in err


def test_widths_input_checks_come_before_the_roots(tmp_path, capsys):
    # E = -2 is below the saddle, but the inputs are checked before any
    # root is solved: a bad sample count exits 2, a non-monotone model 1
    below = ("--e-min", "-2", "--e-max", "1", "--steps", "2")
    assert run_cli(capsys, "widths", *below, "--samples", "0") == (
        2, "", "error: samples must be >= 1, got 0\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"e0": 0.0, "terms": [
        {"i": 1, "j": [0], "c": 1.0}, {"i": 0, "j": [1], "c": 1.0},
        {"i": 0, "j": [2], "c": -0.1},
    ]}))
    assert run_cli(capsys, "widths", "--model", str(model), *below, "--samples", "100") == (
        1, "", "error: term -0.1*J_2^2 makes K(0, J) decrease in a bath action, so the "
        "admissible region can leave the axis-root sampling box\n")


@pytest.mark.parametrize("cmd", ["sample", "exp2"])
def test_sampler_non_monotone_model_exit_one(tmp_path, capsys, cmd):
    # K(0, J) = J - 0.1 J^2 turns down at J = 5, inside the axis-root box
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"e0": 0.0, "terms": [
        {"i": 1, "j": [0], "c": 1.0}, {"i": 0, "j": [1], "c": 1.0},
        {"i": 0, "j": [2], "c": -0.1},
    ]}))
    code, out, err = run_cli(capsys, cmd, "--model", str(model), "--n", "20",
                             "--e-center", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "-0.1*J_2^2" in err


# lambda = 1e-3 and a 2 J_2^3 term: at E' ~ 1e3 the J2max root's rounding,
# magnified by dK/dJ J / Lambda, pushes the computed I' at xi = 1 below zero
STIFF_MODEL = {"e0": -1, "terms": [{"i": 0, "j": [0], "c": -1}, {"i": 1, "j": [0], "c": 0.001},
                                   {"i": 0, "j": [1], "c": 1}, {"i": 0, "j": [3], "c": 2}]}


def test_stiff_model_at_xi_one_snaps_i_to_zero(tmp_path, capsys):
    # before: exit 1, "rejection rate above 99%: I' < 0 for 101 consecutive
    # bath-action draws"
    model = tmp_path / "m.json"
    model.write_text(json.dumps(STIFF_MODEL))
    code, out, err = run_cli(capsys, "exp2", "--model", str(model), "--e-center", "1000",
                             "--xis", "0.9,1", "--n", "200", "--seed", "1")
    assert (code, err) == (0, "")
    _, _, rows = parse_csv(out)
    assert [row[:2] for row in rows] == [["A", "nan"], ["B", "0.90000000000000002"], ["B", "1"]]
    assert float(rows[2][2]) == 0.0
    code, out, err = run_cli(capsys, "sample", "--model", str(model), "--e-center", "1000",
                             "--kind", "B", "--xi", "1", "--n", "50")
    assert (code, err) == (0, "")
    _, _, rows = parse_csv(out)
    assert len(rows) == 50 and all(p1 == q1[1:] for q1, p1, *_ in rows)


@pytest.mark.parametrize("cmd", ["sample", "exp2"])
def test_q1_range_not_above_q1_delta_exit_two(capsys, cmd):
    # before: --q1-range 1e-12 drew Q_1 from the inverted interval [-1e-9, -1e-12]
    code, out, err = run_cli(capsys, cmd, *BASE_ARGV[cmd], "--q1-range", "1e-12")
    assert (code, out, err) == (2, "", "error: q1_range must be > 1e-09, got 1e-12\n")


@pytest.mark.parametrize("cmd", ["sample", "exp2"])
def test_q1_range_with_overflowing_square_exit_two(capsys, cmd):
    # before: exit 0 with an overflow warning, p1 = inf and every point transmitted
    code, out, err = run_cli(capsys, cmd, *BASE_ARGV[cmd], "--q1-range", "1e300")
    assert (code, out) == (2, "")
    assert err == "error: q1_range 1e+300 gives q1_range^2 = inf, not a finite number\n"


@pytest.mark.parametrize("e_center, window", [
    ("1e308", "[0.0, inf]"), ("-1e308", "[-inf, 0.0]"),
])
def test_energy_window_that_overflows_exit_two(tmp_path, capsys, e_center, window):
    # before: the window's end overflowed to inf and the run exited 1 with
    # "error: j_max at E = inf, mode k = 2: f is NaN at x = inf"
    want = ("error: energy window [e_center - delta_e, e_center + delta_e] = "
            f"{window} is not finite\n")
    code, out, err = run_cli(capsys, "sample", f"--e-center={e_center}", "--delta-e", "1e308",
                             "--n", "3")
    assert (code, out, err) == (2, "", want)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"e_center": float(e_center), "delta_e": 1e308}))
    code, out, err = run_cli(capsys, "exp2", *BASE_ARGV["exp2"], "--config", str(cfg))
    assert (code, out, err) == (2, "", want)


def test_negative_tau_max_names_its_source(tmp_path, capsys):
    # before: "error: tau grid must be sorted ascending", naming no option
    code, out, err = run_cli(capsys, "exp1", "--radii", "0.1", "--tau-max", "-1")
    assert (code, out, err) == (2, "", "error: --tau-max must be >= 0.0, got -1.0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau_max": -0.5}))
    code, out, err = run_cli(capsys, "exp1", "--radii", "0.1", "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: config key 'tau_max' must be >= 0.0, got -0.5\n")


def test_builtin_flag_beats_config_model(tmp_path, monkeypatch, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"e0": -0.5, "terms": [
        {"i": 1, "j": [0], "c": 1.0}, {"i": 0, "j": [1], "c": 1.0},
    ]}))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": str(model)}))
    argv = ["widths", "--builtin", "eckart-morse-morse-3dof", "--e-min", "0", "--e-max", "1",
            "--steps", "2", "--samples", "200", "--seed", "3"]
    monkeypatch.delenv("SYMPB_SEED", raising=False)
    code, flag_out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 0, err
    meta, columns, _ = parse_csv(out)
    assert meta["builtin"] == "eckart-morse-morse-3dof" and meta["model"] is None
    assert columns[:3] == ["E", "J_max_2", "J_max_3"]
    assert out.splitlines()[1:] == flag_out.splitlines()[1:]


def test_config_with_builtin_and_model_exit_two(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"builtin": "eckart-morse-2dof", "model": "m.json"}))
    code, out, err = run_cli(capsys, "widths", *BASE_ARGV["widths"], "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: config keys 'builtin' and 'model' are mutually exclusive\n"



def test_widths_nan_root_exit_one(monkeypatch, capsys):
    from sympb import bottleneck, builtin_cnf

    model = builtin_cnf(2)
    hi = (0.5 - model.e0) / model.omegas[0]
    real = bottleneck.eval_k0

    def nan_inside(model, j):
        # K below E at J_2 = 0, above it at the bracket end, NaN between
        if j[0] == 0.0:
            return real(model, j)
        return math.nan if j[0] < hi else real(model, j) + 1.0

    monkeypatch.setattr(bottleneck, "eval_k0", nan_inside)
    code, out, err = run_cli(capsys, "widths", "--e-min", "0.5", "--e-max", "0.5",
                             "--steps", "1", "--samples", "100")
    assert code == 1 and out == ""
    assert err.startswith("error: j_max at E = 0.5, mode k = 2: f is NaN at x = ")

def test_widths_seed_env_default(monkeypatch, capsys):
    monkeypatch.setenv("SYMPB_SEED", "77")
    code, out, _ = run_cli(
        capsys, "widths", "--e-min", "0.0", "--e-max", "0.0",
        "--steps", "1", "--samples", "100",
    )
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["seed"] == 77
    assert int(rows[0][-1]) == 77


def test_widths_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "widths", "--e-min", "0.0", "--e-max", "0.0",
        "--steps", "1", "--samples", "100", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"][0] == "E"
    assert len(doc["rows"]) == 1


# ---------------------------------------------------------------------------
# exp1
# ---------------------------------------------------------------------------


def test_exp1_scan_row_properties(capsys):
    code, out, _ = run_cli(
        capsys, "exp1", "--radii", "0.1,0.2", "--tau-points", "60", "--seed", "5",
    )
    assert code == 0
    meta, columns, rows = parse_csv(out)
    assert meta["command"] == "exp1"
    assert columns == ["r", "min_area", "pi_r2", "c_cand_ref"]
    for row in rows:
        r, min_area, pi_r2 = float(row[0]), float(row[1]), float(row[2])
        assert abs(pi_r2 - math.pi * r * r) <= 1e-15
        assert min_area >= pi_r2 - 1e-9


def test_exp1_cosh_overflow_takes_the_exact_area(tmp_path):
    # before: exit 1 with "cosh(lambda * tau) overflows at tau = ..."; run as
    # a process, with warnings as errors, so that a numpy warning or an
    # uncaught exception would show on stderr
    argv = ["exp1", "--dof", "2", "--seed", "9", "--tau-max", "2000", "--tau-points", "70"]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sympb", *argv],
        capture_output=True, text=True, env=source_env(), cwd=tmp_path, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    prefix = str(tmp_path / "c")
    assert main([*argv, "-o", str(tmp_path / "exp1.csv"), "--curves-out", prefix]) == 0
    assert parse_csv((tmp_path / "exp1.csv").read_text())[2] == parse_csv(proc.stdout)[2]
    model = sympb.builtin_cnf(2)
    rows = sympb.random_symplectic(2, 0.5, 9)[[0, 2], :]
    with mpmath.workdps(50):
        m = mpmath.matrix(rows.tolist())
        factor = mpmath.sqrt(mpmath.det(m * m.T))
    radii = [float(r[0]) for r in parse_csv(proc.stdout)[2]]
    overflowed = 0
    for i, r in enumerate(radii):
        with mpmath.workdps(50):
            want = float(mpmath.pi * mpmath.mpf(r) ** 2 * factor)
        _, _, curve = parse_csv(Path(f"{prefix}_r{i}.csv").read_text())
        for tau, area in ((float(t), float(a)) for t, a in curve):
            try:
                math.cosh(model.lam * tau)
                continue
            except OverflowError:
                overflowed += 1
            assert abs(area - want) <= 2 * math.ulp(want)
    assert overflowed > 0


def test_exp1_empty_radii_exit_two(capsys):
    code, _, err = run_cli(capsys, "exp1", "--radii", ",")
    assert code == 2 and "error:" in err


def test_exp1_radius_with_infinite_area_exit_two(capsys):
    # before: exit 0 with min_area and pi_r2 written as inf
    code, out, err = run_cli(capsys, "exp1", "--radii", "0.1,1e200", "--tau-points", "5")
    assert (code, out) == (2, "")
    assert err == "error: radius 1e+200 gives pi r^2 = inf, not a finite number\n"


def test_exp1_radius_with_underflowing_square_exit_two(capsys):
    # before: exit 0 with min_area and pi_r2 written as 0
    code, out, err = run_cli(capsys, "exp1", "--radii", "1e-170", "--tau-points", "3")
    assert (code, out) == (2, "")
    assert err == (
        "error: radius 1e-170 gives r^2 = 0.0, below the smallest normal float "
        "2.2250738585072014e-308\n"
    )


def test_exp1_byte_deterministic(tmp_path, capsys):
    paths = [str(tmp_path / f"run{i}.csv") for i in (0, 1)]
    for p in paths:
        code, _, _ = run_cli(capsys, "exp1", "--radii", "0.1,0.3",
                             "--tau-points", "40", "--seed", "2", "-o", p)
        assert code == 0
    a, b = (open(p, "rb").read() for p in paths)
    assert a == b


def test_exp1_curves_out(tmp_path, capsys):
    prefix = str(tmp_path / "curve")
    code, _, _ = run_cli(
        capsys, "exp1", "--radii", "0.1,0.2", "--tau-points", "30",
        "--seed", "4", "-o", str(tmp_path / "scan.csv"), "--curves-out", prefix,
    )
    assert code == 0
    for i, r in enumerate((0.1, 0.2)):
        meta, columns, rows = parse_csv(open(f"{prefix}_r{i}.csv").read())
        assert columns == ["tau", "area"]
        assert len(rows) == 30
        assert meta["radius_index"] == i
        areas = [float(row[1]) for row in rows]
        assert min(areas) >= math.pi * r * r - 1e-9


# ---------------------------------------------------------------------------
# exp2 / sample
# ---------------------------------------------------------------------------


def test_exp2_baseline_then_monotone(capsys):
    code, out, _ = run_cli(
        capsys, "exp2", "--n", "300", "--xis", "0,0.5,1", "--seed", "6",
    )
    assert code == 0
    meta, columns, rows = parse_csv(out)
    assert columns == ["kind", "xi", "fraction", "n_transmitted", "n_total", "t_max", "seed"]
    assert rows[0][0] == "A" and rows[0][1] == "nan"
    fractions = [float(r[2]) for r in rows[1:]]
    assert all(r[0] == "B" for r in rows[1:])
    assert fractions[0] == float(rows[0][2])
    for a, b in zip(fractions, fractions[1:]):
        assert b <= a
    assert meta["n"] == 300


def test_exp2_degenerate_endpoint(capsys):
    code, out, _ = run_cli(
        capsys, "exp2", "--n", "100", "--xis", "1", "--delta-e", "0", "--seed", "1",
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[1][2]) == 0.0


@pytest.mark.parametrize("t_max", ["-1", "0", "-0"])
def test_exp2_horizon_not_positive_exit_two(tmp_path, capsys, t_max):
    # a backward or empty horizon once wrote a table of zero fractions
    want = (2, "", f"error: t_max must be > 0, got {float(t_max)!r}\n")
    assert run_cli(capsys, "exp2", *BASE_ARGV["exp2"], f"--t-max={t_max}") == want
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_max": float(t_max)}))
    assert run_cli(capsys, "exp2", *BASE_ARGV["exp2"], "--config", str(cfg)) == want


@pytest.mark.parametrize("t_max", [-1.0, 0.0, math.nan])
def test_exp2_refuses_a_horizon_before_sampling(tmp_path, capsys, monkeypatch, t_max):
    # a refused horizon once cost a full sampling pass: 0.36 s at --n 200000
    def no_sampling(*args):
        raise AssertionError("an ensemble was sampled for a refused horizon")

    monkeypatch.setattr(sympb.ensembles, "sample_ensemble", no_sampling)
    argv = ("exp2", "--n", "200000", "--xis", "0.5")
    refused = f"t_max must be > 0, got {t_max!r}"
    finite = "must be a finite number, got nan"
    nan = math.isnan(t_max)
    flag_err = f"error: --t-max {finite}\n" if nan else f"error: {refused}\n"
    assert run_cli(capsys, *argv, f"--t-max={t_max!r}") == (2, "", flag_err)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_max": t_max}))
    key_err = f"error: config key 't_max' {finite}\n" if nan else f"error: {refused}\n"
    assert run_cli(capsys, *argv, "--config", str(cfg)) == (2, "", key_err)
    spec = sympb.EnsembleSpec(n_traj=200000, e_center=0.0, delta_e=0.01, seed=0)
    lib_err = f"t_max {finite}" if nan else refused
    with pytest.raises(ValueError, match=f"^{re.escape(lib_err)}$"):
        sympb.transmission_scan(sympb.builtin_cnf(2), spec, [0.5], t_max)


def test_exp2_json_nan_to_null(capsys):
    code, out, _ = run_cli(
        capsys, "exp2", "--n", "50", "--xis", "0.5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0][1] is None
    assert doc["rows"][1][1] == 0.5


def test_sample_columns_2dof(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "20", "--kind", "A")
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert columns == ["q1", "p1", "j_2", "phase_2", "energy"]
    assert len(rows) == 20
    for row in rows:
        assert float(row[0]) < 0.0 < float(row[1])


def test_sample_kind_a_refuses_xi(tmp_path, capsys):
    # before: kind A drew with xi = 0 but the metadata said "xi": 0.4 (exit 0)
    msg = "error: xi = 0.4 needs kind B: kind A draws with xi = 0\n"
    assert run_cli(capsys, "sample", "--n", "5", "--kind", "A", "--xi", "0.4") == (2, "", msg)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "A", "xi": 0.4}))
    assert run_cli(capsys, "sample", "--n", "5", "--config", str(cfg)) == (2, "", msg)
    code, out, _ = run_cli(capsys, "sample", "--n", "5", "--kind", "A", "--xi", "0")
    assert code == 0 and parse_csv(out)[0]["xi"] == 0.0


def test_sample_columns_3dof(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--builtin", "eckart-morse-morse-3dof",
        "--n", "5", "--kind", "B", "--xi", "0.5",
    )
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert columns == ["q1", "p1", "j_2", "j_3", "phase_2", "phase_3", "energy"]
    assert len(rows) == 5


# sha256 of seeded `sample` output, frozen so that a refactor of the
# ensemble code cannot move a byte.
SAMPLE_DIGESTS = [
    (("--kind", "A", "--n", "200", "--seed", "4"),
     "299ebc9b60b2a7db44d7f90ab1d68fc2fd4b2476f7fb67fa78c64c9820a42f65"),
    (("--kind", "B", "--xi", "0.5", "--n", "200", "--seed", "4",
      "--builtin", "eckart-morse-morse-3dof"),
     "815548a5ab11ac3e8b4c2d64d01f0a321c1ec260d988f7475c5f3a558c8567ee"),
    (("--kind", "B", "--xi", "0.5", "--n", "200", "--seed", "17", "--format", "json"),
     "e567337dce0f182a2feb7a49cc5220efb9d82b66134212fb13ae82970f20a40e"),
    (("--kind", "A", "--n", "150", "--seed", "2", "--builtin", "eckart-morse-morse-3dof",
      "--format", "json"),
     "5d5ccf2c728421c7ce3fdf1fe02347e04af9a2ec1f5fbb5368a4d2bbba81f884"),
]


@pytest.mark.parametrize("argv,digest", SAMPLE_DIGESTS,
                         ids=["A-2dof-csv", "B-3dof-csv", "B-2dof-json", "A-3dof-json"])
def test_sample_bytes_frozen(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "sample", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_integrate_requires_state(capsys):
    code, _, err = run_cli(capsys, "integrate")
    assert code == 2 and "--state0" in err


def test_integrate_missing_state0_message(capsys):
    assert run_cli(capsys, "integrate", "--h", "0.01") == (
        2, "", "error: --state0 is required (comma-separated q..., p...)\n")


def test_integrate_stationary_summary(capsys):
    code, out, _ = run_cli(
        capsys, "integrate", "--state0=-1e6,1500,0,0",
        "--h", "0.01", "--t-final", "1", "--no-jacobian",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["drift"] == 0.0
    assert doc["symplecticity_error"] is None
    assert doc["t_final"] == 1.0
    assert doc["records"] == 11


def test_integrate_output_files(tmp_path, capsys):
    base = str(tmp_path / "traj")
    code, _, _ = run_cli(
        capsys, "integrate", "--state0=-50,0.3,0.4,-0.2",
        "--h", "0.01", "--t-final", "1", "-o", base,
    )
    assert code == 0
    meta, columns, rows = parse_csv(open(base + ".csv").read())
    assert columns == ["t", "q1", "q2", "p1", "p2", "H"]
    assert meta["command"] == "integrate"
    summary = json.loads(open(base + ".json").read())
    assert summary["records"] == len(rows)
    assert summary["symplecticity_error"] <= 1e-6
    energies = [float(r[-1]) for r in rows]
    assert max(energies) - min(energies) <= 1e-5


def test_integrate_readme_example_bytes_frozen(tmp_path, capsys):
    base = str(tmp_path / "traj")
    code, _, _ = run_cli(
        capsys, "integrate", "--state0=-2,0.3,0.9,-0.2", "--h", "1e-3", "--t-final", "10",
        "-o", base,
    )
    assert code == 0
    digest = hashlib.sha256(open(base + ".csv", "rb").read()).hexdigest()
    assert digest == "8dcf513335942cd90a1b76ca4bc8e314b506c3ca9c35d5be9862777c0f846d03"


def test_integrate_divergence_exit_one(capsys):
    code, _, err = run_cli(
        capsys, "integrate", "--state0=-50,-400,0,0",
        "--h", "0.01", "--t-final", "1", "--no-jacobian",
    )
    assert code == 1 and "error:" in err


def test_integrate_missing_params_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "integrate", "--state0", "0,0,0,0",
        "--params", str(tmp_path / "nope.json"),
    )
    assert code == 2 and "error:" in err


def test_integrate_unknown_params_key_exit_two(capsys, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(capsys, "integrate", "--state0", "0,0,0,0", "--params", str(params))
    assert code == 2 and "error:" in err and "'bogus'" in err


def test_integrate_non_finite_params_value_exit_two(capsys, tmp_path):
    # before: the run went on to "state became non-finite" and exit 1
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"m": math.nan}))
    code, out, err = run_cli(capsys, "integrate", *BASE_ARGV["integrate"],
                             "--params", str(params))
    assert (code, out) == (2, "")
    assert err == f"error: {params}: parameter 'm' must be a finite number, got nan\n"


def test_model_non_finite_e0_exit_two(capsys, tmp_path):
    # before: "constant term nan must equal e0 = nan"
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"e0": math.nan, "terms": [
        {"i": 1, "j": [0], "c": 1.0}, {"i": 0, "j": [1], "c": 1.0}]}))
    code, out, err = run_cli(capsys, "widths", "--model", str(model), *BASE_ARGV["widths"])
    assert (code, out) == (2, "")
    assert err == "error: model key 'e0' must be a finite number, got nan\n"


def test_model_non_finite_term_coefficient_exit_two(capsys, tmp_path):
    # before: exit 1 with "j_max at E = 0.0, mode k = 2: f is NaN at x = 0.0"
    model = tmp_path / "model.json"
    model.write_text(json.dumps([{"e0": 0.0}, {"i": 1, "j": [0], "c": 1.0},
                                 {"i": 0, "j": [1], "c": 1.0}, {"i": 0, "j": [2], "c": math.inf}]))
    code, out, err = run_cli(capsys, "exp2", "--model", str(model), *BASE_ARGV["exp2"])
    assert (code, out) == (2, "")
    assert err == "error: model term 2 key 'c' must be a finite number, got inf\n"


def test_model_and_params_boolean_numbers_exit_two(capsys, tmp_path):
    # before: "c": true ran widths with a rate of 1.0 and {"eps": true} integrated, both exit 0
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"e0": 0.0, "terms": [{"i": 1, "j": [0], "c": True},
                                                      {"i": 0, "j": [1], "c": 1.0}]}))
    code, out, err = run_cli(capsys, "widths", "--model", str(model), *BASE_ARGV["widths"])
    assert (code, out) == (2, "")
    assert err == "error: model term 0 key 'c' must be a finite number, got True\n"
    model.write_text(json.dumps([{"e0": False}, {"i": 1, "j": [0], "c": 1.0},
                                 {"i": 0, "j": [1], "c": 1.0}]))
    code, out, err = run_cli(capsys, "widths", "--model", str(model), *BASE_ARGV["widths"])
    assert (code, out) == (2, "")
    assert err == "error: model key 'e0' must be a finite number, got False\n"
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"eps": True}))
    code, out, err = run_cli(capsys, "integrate", *BASE_ARGV["integrate"],
                             "--params", str(params))
    assert (code, out) == (2, "")
    assert err == f"error: {params}: parameter 'eps' must be a finite number, got True\n"


def test_model_list_second_e0_entry_exit_two(capsys, tmp_path):
    # before: the second entry silently replaced the first, and the run used e0 = -1
    model = tmp_path / "model.json"
    model.write_text(json.dumps([{"e0": -2}, {"i": 1, "j": [0], "c": 0.7},
                                 {"i": 0, "j": [1], "c": 1.3}, {"e0": -1}]))
    code, out, err = run_cli(capsys, "widths", "--model", str(model), *BASE_ARGV["widths"])
    assert (code, out) == (2, "")
    assert err == "error: model list entry 3 is a second {'e0': ...} entry\n"


@pytest.mark.parametrize("terms, message", [
    ([{"i": 1.5, "j": [0], "c": 0.7}, {"i": 0, "j": [1], "c": 1.0}],
     "model term 0 key 'i' must be an integer, got 1.5"),
    ([{"i": 1, "j": [0], "c": 0.7}, {"i": 0, "j": [1.9], "c": 1.0}],
     "model term 1 key 'j' must be an integer, got 1.9"),
    ([{"i": math.inf, "j": [0], "c": 0.7}, {"i": 0, "j": [1], "c": 1.0}],
     "model term 0 key 'i' must be an integer, got inf"),
    ([{"i": 1, "j": [0], "c": 0.7}, {"i": 0, "j": [True], "c": 1.0}],
     "model term 1 key 'j' must be an integer, got True"),
    # before: passed every check, then `widths` multiplied 1e9 times per term and hung
    ([{"i": 1, "j": [0], "c": 1}, {"i": 0, "j": [1], "c": 1},
      {"i": 0, "j": [1000000000], "c": 1e-9}],
     "model term 2 key 'j' must be at most 64, got 1000000000"),
    ([{"i": 65, "j": [0], "c": 0.7}, {"i": 1, "j": [0], "c": 0.7}, {"i": 0, "j": [1], "c": 1.0}],
     "model term 0 key 'i' must be at most 64, got 65"),
    # before: exit 1 with "inconsistent bath arity: expected 1, got 2"
    ([{"i": 1, "j": [0], "c": 1.0}, {"i": 0, "j": [1, 0], "c": 1.0}],
     "model term 1 key 'j' has 2 powers, expected 1"),
])
def test_model_bad_power_exit_two(capsys, tmp_path, terms, message):
    # before: 1.5 and 1.9 were truncated to 1 (exit 0), Infinity raised OverflowError (exit 1)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"e0": 0.0, "terms": terms}))
    code, out, err = run_cli(capsys, "widths", "--model", str(model), *BASE_ARGV["widths"])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_integrate_step_count_overflow_exit_two(capsys):
    # before: OverflowError traceback from int(round(10 / 1e-320)), exit 1
    code, out, err = run_cli(capsys, "integrate", "--state0=-2,0.3,0.9,-0.2", "--h", "1e-320",
                             "--t-final", "10")
    assert (code, out) == (2, "")
    assert err == ("error: t_final / h must be a finite step count, got t_final = 10.0 "
                   "and h = 1e-320\n")


def test_integrate_huge_step_count_exit_two(capsys):
    # before: numpy could not allocate the 7.28 TiB of records, traceback and exit 1;
    # the limit is checked before anything is allocated or stepped
    code, out, err = run_cli(capsys, "integrate", "--state0=-2,0.3,0.9,-0.2", "--h", "1e-12",
                             "--t-final", "10")
    assert (code, out) == (2, "")
    assert err == ("error: t_final = 10.0 with h = 1e-12 and monitor_stride = 10 would record "
                   "1000000000001 steps of 288 bytes each, above the limit MAX_RECORD_BYTES = "
                   "1073741824 bytes; raise h or monitor_stride\n")


def test_integrate_step_count_above_limit_exit_two(capsys, monkeypatch):
    # a huge monitor stride keeps the records small, so only the step bound refuses the run
    def no_stepping(*args, **kwargs):
        raise AssertionError("verlet_run called")

    monkeypatch.setattr("sympb.kernels.verlet_run", no_stepping)
    code, out, err = run_cli(capsys, "integrate", "--state0=-2,0.3,0.9,-0.2", "--h", "1e-12",
                             "--t-final", "10", "--monitor-stride", "1000000000000",
                             "--no-jacobian")
    assert (code, out) == (2, "")
    assert err == ("error: t_final = 10.0 with h = 1e-12 would take 10000000000000 steps, "
                   "above the limit MAX_STEPS = 100000000; raise h or lower t_final\n")


@pytest.mark.parametrize("stride, want", [
    ([], "error: t_final = 1e-300 with h = 5e-324 and monitor_stride = 10 would record "
         "20240225330731062342453 steps of 624 bytes each, above the limit "
         "MAX_RECORD_BYTES = 1073741824 bytes; raise h or monitor_stride\n"),
    (["--monitor-stride", str(10**30)],
     "error: t_final = 1e-300 with h = 5e-324 would take 202402253307310623424512 steps, "
     "above the limit MAX_STEPS = 100000000; raise h or lower t_final\n"),
], ids=["record_bound", "step_bound"])
def test_integrate_step_count_beyond_ssize_t_exit_two(capsys, stride, want):
    # before: OverflowError traceback from len(range(0, nsteps, stride)), exit 1;
    # the record count is Python-int arithmetic, checked before the step bound
    code, out, err = run_cli(capsys, "integrate", "--state0=-2,0.3,0.1,0.9,-0.2,0.05",
                             "--h", "5e-324", "--t-final", "1e-300", *stride)
    assert (code, out, err) == (2, "", want)


def huge_linspace(monkeypatch, message):
    """np.linspace raises MemoryError(message) for more than a million points
    and runs as before otherwise, so no test allocates the size it asks for."""
    real = np.linspace

    def linspace(start, stop, num=50, *args, **kwargs):
        if num > 10**6:
            raise MemoryError(*message)
        return real(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", linspace)


ALLOC = "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64"


@pytest.mark.parametrize("argv", [
    ["widths", "--e-min", "0", "--e-max", "1", "--steps", "100000000000"],
    ["exp1", "--radii", "0.1", "--tau-points", "3000000000"],
], ids=["widths", "exp1"])
@pytest.mark.parametrize("message, want", [
    ((ALLOC,), f"error: {ALLOC}\n"),
    ((), "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_oversized_allocation_exit_two(capsys, monkeypatch, argv, message, want):
    # before: numpy's _ArrayMemoryError traceback, exit 1
    huge_linspace(monkeypatch, message)
    assert run_cli(capsys, *argv) == (2, "", want)


def test_integrate_bad_step_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "integrate", "--state0=-1e6,1500,0,0", "--h=-0.1",
    )
    assert code == 2 and "error:" in err


def test_integrate_config_with_dashed_keys(tmp_path, capsys):
    cfg = tmp_path / "i.json"
    cfg.write_text(json.dumps({
        "state0": "-1e6,1500,0,0", "t-final": 0.5, "h": 0.05,
        "monitor-stride": 5, "no-jacobian": True,
    }))
    code, out, _ = run_cli(capsys, "integrate", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["t_final"] == 0.5
    assert doc["records"] == 3


LARGE_STEP = ("--state0=-2,0.3,0.9,-0.2", "--h", "5", "--t-final", "1000", "--no-jacobian")


def test_integrate_max_drift_gate_exit_one(tmp_path, capsys):
    base = str(tmp_path / "traj")
    code, out, err = run_cli(capsys, "integrate", *LARGE_STEP, "--max-drift", "1e-3", "-o", base)
    assert code == 1
    drift = json.loads(open(base + ".json").read())["drift"]
    assert drift > 1e9
    assert err == f"error: energy drift {drift!r} exceeds --max-drift 0.001\n"
    assert os.path.exists(base + ".csv") and out == ""
    # without the gate the same run reports the drift and succeeds
    code, out, _ = run_cli(capsys, "integrate", *LARGE_STEP)
    assert code == 0 and json.loads(out)["drift"] == drift


def test_integrate_max_drift_config_key(tmp_path, capsys):
    cfg = tmp_path / "i.json"
    cfg.write_text(json.dumps({"max-drift": 1e-3}))
    code, out, err = run_cli(capsys, "integrate", *LARGE_STEP, "--config", str(cfg))
    assert code == 1 and "error: energy drift" in err
    assert json.loads(out)["drift"] > 1e9


def test_integrate_negative_max_drift_exit_two(capsys):
    code, _, err = run_cli(capsys, "integrate", *LARGE_STEP, "--max-drift=-1")
    assert code == 2 and "--max-drift" in err


def test_integrate_max_drift_pass_keeps_output_bytes(tmp_path, capsys):
    argv = ("integrate", "--state0=-2,0.3,0.9,-0.2", "--h", "1e-3", "--t-final", "10")
    outputs = []
    for extra in ((), ("--max-drift", "1")):
        base = str(tmp_path / f"traj{len(outputs)}")
        code, _, err = run_cli(capsys, *argv, *extra, "-o", base)
        assert code == 0 and err == ""
        outputs.append([open(base + ext, "rb").read() for ext in (".csv", ".json")])
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# options: flags, config keys and SYMPB_SEED
# ---------------------------------------------------------------------------


# Every action of every subcommand as (option strings, dest, type, choices,
# default), in parser order; a dropped, renamed or retyped flag fails here.
FLAG_INVENTORY = {
    "capacity": [
        (("-h", "--help"), "help", None, None, "==SUPPRESS=="),
        ((), "matrix_file", None, None, None),
        (("--config",), "config", None, None, None),
        (("-o", "--output"), "output", None, None, None),
    ],
    "widths": [
        (("-h", "--help"), "help", None, None, "==SUPPRESS=="),
        (("--builtin",), "builtin", None, ("eckart-morse-2dof", "eckart-morse-morse-3dof"), None),
        (("--model",), "model", None, None, None),
        (("--e-min",), "e_min", float, None, None),
        (("--e-max",), "e_max", float, None, None),
        (("--steps",), "steps", int, None, None),
        (("--samples",), "samples", int, None, None),
        (("--seed",), "seed", int, None, None),
        (("--format",), "format", None, ("csv", "json"), None),
        (("--config",), "config", None, None, None),
        (("-o", "--output"), "output", None, None, None),
    ],
    "exp1": [
        (("-h", "--help"), "help", None, None, "==SUPPRESS=="),
        (("--radii",), "radii", None, None, None),
        (("--seed",), "seed", int, None, None),
        (("--sigma",), "sigma", float, None, None),
        (("--tau-points",), "tau_points", int, None, None),
        (("--tau-max",), "tau_max", float, None, None),
        (("--e-ref",), "e_ref", float, None, None),
        (("--dof",), "dof", int, (2, 3), None),
        (("--curves-out",), "curves_out", None, None, None),
        (("--format",), "format", None, ("csv", "json"), None),
        (("--config",), "config", None, None, None),
        (("-o", "--output"), "output", None, None, None),
    ],
    "exp2": [
        (("-h", "--help"), "help", None, None, "==SUPPRESS=="),
        (("--builtin",), "builtin", None, ("eckart-morse-2dof", "eckart-morse-morse-3dof"), None),
        (("--model",), "model", None, None, None),
        (("--xis",), "xis", None, None, None),
        (("--n",), "n", int, None, None),
        (("--e-center",), "e_center", float, None, None),
        (("--delta-e",), "delta_e", float, None, None),
        (("--q1-range",), "q1_range", float, None, None),
        (("--t-max",), "t_max", float, None, None),
        (("--seed",), "seed", int, None, None),
        (("--format",), "format", None, ("csv", "json"), None),
        (("--config",), "config", None, None, None),
        (("-o", "--output"), "output", None, None, None),
    ],
    "sample": [
        (("-h", "--help"), "help", None, None, "==SUPPRESS=="),
        (("--builtin",), "builtin", None, ("eckart-morse-2dof", "eckart-morse-morse-3dof"), None),
        (("--model",), "model", None, None, None),
        (("--kind",), "kind", None, ("A", "B"), None),
        (("--xi",), "xi", float, None, None),
        (("--n",), "n", int, None, None),
        (("--e-center",), "e_center", float, None, None),
        (("--delta-e",), "delta_e", float, None, None),
        (("--q1-range",), "q1_range", float, None, None),
        (("--seed",), "seed", int, None, None),
        (("--format",), "format", None, ("csv", "json"), None),
        (("--config",), "config", None, None, None),
        (("-o", "--output"), "output", None, None, None),
    ],
    "integrate": [
        (("-h", "--help"), "help", None, None, "==SUPPRESS=="),
        (("--params",), "params", None, None, None),
        (("--state0",), "state0", None, None, None),
        (("--h",), "h", float, None, None),
        (("--t-final",), "t_final", float, None, None),
        (("--monitor-stride",), "monitor_stride", int, None, None),
        (("--fd-epsilon",), "fd_epsilon", float, None, None),
        (("--no-jacobian",), "no_jacobian", None, None, None),
        (("--max-drift",), "max_drift", float, None, None),
        (("--config",), "config", None, None, None),
        (("-o", "--output"), "output", None, None, None),
    ],
}


def test_flag_inventory():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: [
            (tuple(a.option_strings), a.dest, a.type,
             None if a.choices is None else tuple(a.choices), a.default)
            for a in p._actions
        ]
        for name, p in sub.choices.items()
    }
    assert got == FLAG_INVENTORY
    assert list(got) == list(FLAG_INVENTORY)


# One small run per subcommand, each config value in its natural JSON type.
CONFIG_RUNS = [
    ("widths", {"builtin": "eckart-morse-morse-3dof", "e_min": 0, "e_max": 1, "steps": 3,
                "samples": 400, "seed": 4, "format": "json"}),
    ("exp1", {"radii": "0.1,0.2", "seed": 2, "sigma": 1, "tau_points": 20, "tau_max": 2,
              "e_ref": 0, "dof": 3, "curves_out": "curve"}),
    ("exp2", {"builtin": "eckart-morse-2dof", "xis": "0,0.5", "n": 40, "e_center": 0,
              "delta_e": 0, "q1_range": 2, "t_max": 3, "seed": 5}),
    ("sample", {"kind": "B", "xi": 1, "n": 10, "e_center": 0, "q1_range": 2, "seed": 1}),
    ("integrate", {"state0": "-2,0.3,0.9,-0.2", "h": 0.01, "t_final": 1, "monitor_stride": 5,
                   "fd_epsilon": 1e-6, "no_jacobian": True, "max_drift": 1}),
]


@pytest.mark.parametrize("cmd,values", CONFIG_RUNS, ids=[cmd for cmd, _ in CONFIG_RUNS])
def test_config_run_writes_flag_run_bytes(tmp_path, monkeypatch, capsys, cmd, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    flags = [f"--{key.replace('_', '-')}" + ("" if value is True else f"={value}")
             for key, value in values.items()]
    runs = []
    for argv in (flags, ["--config", str(cfg)]):
        work = tmp_path / f"run{len(runs)}"
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, err = run_cli(capsys, cmd, *argv, "-o", "out")
        assert code == 0, err
        runs.append((out, {p.name: p.read_bytes() for p in work.iterdir()}))
    assert runs[0][1] and runs[0] == runs[1]


# Small valid flags per subcommand, so that only the config value is at fault.
BASE_ARGV = {
    "widths": ("--e-min", "0", "--e-max", "1", "--steps", "2", "--samples", "100"),
    "exp1": ("--radii", "0.1", "--tau-points", "5"),
    "exp2": ("--n", "20", "--xis", "0.5"),
    "sample": ("--n", "5"),
    "integrate": ("--state0=-2,0.3,0.9,-0.2", "--h", "0.01", "--t-final", "0.1"),
}

BAD_CONFIGS = [
    ("widths", "steps", 2.7),
    ("integrate", "no_jacobian", "false"),
    ("exp1", "dof", 4),
    ("widths", "seed", None),
    ("widths", "steps", [3]),
    ("exp1", "sigma", True),
    ("widths", "samples", {"n": 3}),
    ("widths", "format", "xml"),
    ("sample", "kind", "C"),
    ("widths", "builtin", "eckart-3dof"),
    ("exp2", "n", "many"),
    ("exp1", "radii", False),
    ("integrate", "max-drift", "1e-3x"),
    ("integrate", "max_drift", -1),
    ("widths", "e_max", 10**400),
]


@pytest.mark.parametrize("cmd,key,value", BAD_CONFIGS,
                         ids=[f"{cmd}-{key}-{json.dumps(v)[:12]}" for cmd, key, v in BAD_CONFIGS])
def test_malformed_config_exit_two(tmp_path, capsys, cmd, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_cli(capsys, cmd, *BASE_ARGV[cmd], "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"'{key}'" in err


def test_malformed_config_fresh_interpreter(tmp_path):
    # a null seed once escaped as a TypeError traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": None}))
    proc = subprocess.run(
        [sys.executable, "-m", "sympb", "widths", *BASE_ARGV["widths"], "--config", str(cfg)],
        capture_output=True, text=True, env=source_env(), cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: config key 'seed' must be an integer, got null\n"


def test_config_values_follow_flag_types(tmp_path, capsys):
    # integral numbers for int options and numeric text, as the flags take them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 2.0, "samples": "100", "e-min": "0", "e_max": 1}))
    code, out, _ = run_cli(capsys, "widths", "--config", str(cfg), "--seed", "1")
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert (meta["steps"], meta["samples"], meta["e_min"], meta["e_max"]) == (2, 100, 0.0, 1.0)
    assert len(rows) == 2


def test_seed_env_read_only_without_a_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYMPB_SEED", "abc")
    argv = ("widths", "--e-min", "0", "--e-max", "0", "--steps", "1", "--samples", "100")
    code, out, err = run_cli(capsys, *argv, "--seed", "3")
    assert code == 0, err
    assert parse_csv(out)[0]["seed"] == 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 4}))
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 0, err
    assert parse_csv(out)[0]["seed"] == 4
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: SYMPB_SEED must be an integer, got 'abc'\n"


# A NaN or infinite number, from a flag, a list entry or a config value (json
# reads NaN and Infinity), exits 2 with one error line naming the option:
# no traceback, no NaN table and no numpy warning.
NON_FINITE = {
    "widths": [(("--e-min", "nan"), "--e-min"), (("--e-max", "inf"), "--e-max"),
               ({"e_min": -math.inf}, "'e_min'")],
    "exp1": [(("--sigma", "nan"), "--sigma"), (("--radii", "0.1,nan"), "radii"),
             (("--tau-max", "nan"), "--tau-max"), ({"sigma": math.nan}, "'sigma'"),
             ({"e_ref": "-inf"}, "'e_ref'")],
    "exp2": [(("--t-max", "nan"), "--t-max"), (("--e-center", "nan"), "--e-center"),
             (("--q1-range", "inf"), "--q1-range"), (("--xis", "0.5,-inf"), "xis"),
             ({"t_max": math.inf}, "'t_max'")],
    "sample": [(("--xi", "nan"), "--xi"), (("--delta-e=-inf",), "--delta-e"),
               ({"q1_range": "nan"}, "'q1_range'")],
    "integrate": [(("--h", "nan"), "--h"), (("--state0=-2,0.3,nan,-0.2",), "state0"),
                  (("--max-drift", "inf"), "--max-drift"), ({"t_final": math.inf}, "'t_final'")],
}


@pytest.mark.parametrize("cmd", sorted(NON_FINITE))
def test_non_finite_numbers_exit_two(tmp_path, capsys, cmd):
    for extra, name in NON_FINITE[cmd]:
        if isinstance(extra, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(extra))
            extra = ("--config", str(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, cmd, *BASE_ARGV[cmd], *extra)
        assert (code, out) == (2, ""), (extra, err)
        assert err.startswith("error: ") and name in err and "finite" in err, err
        assert err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["widths", "exp1", "exp2", "sample"])
def test_negative_seed_names_its_source(tmp_path, monkeypatch, capsys, cmd):
    code, out, err = run_cli(capsys, cmd, *BASE_ARGV[cmd], "--seed", "-1")
    assert (code, out, err) == (2, "", "error: --seed must be >= 0, got -1\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -2}))
    code, out, err = run_cli(capsys, cmd, *BASE_ARGV[cmd], "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: config key 'seed' must be >= 0, got -2\n")
    monkeypatch.setenv("SYMPB_SEED", "-3")
    code, out, err = run_cli(capsys, cmd, *BASE_ARGV[cmd])
    assert (code, out, err) == (2, "", "error: SYMPB_SEED must be >= 0, got -3\n")
    # a valid --seed flag still wins over the environment
    code, _, err = run_cli(capsys, cmd, *BASE_ARGV[cmd], "--seed", "0")
    assert code == 0, err


# Flag-value pairs whose value starts with "-" but is not of argparse's own
# "-1" or "-1.5" forms; each once exited 2 with "expected one argument".
NEGATIVE_VALUES = [
    ("sample", ("--n", "2", "--e-center", "-1e-3")),
    ("exp1", ("--radii", "0.1", "--tau-points", "5", "--e-ref", "-1e-3")),
    ("widths", ("--e-min", "-1e-3", "--e-max", "1e-3", "--steps", "2", "--samples", "100")),
    ("integrate", ("--h", "0.01", "--t-final", "0.1", "--state0", "-.2,0.3,0.9,-0.2")),
    ("integrate", ("--h", "-1e-3", "--t-final", "0.1", "--state0", "-2,0.3,0.9,-0.2")),
]


@pytest.mark.parametrize("cmd,pairs", NEGATIVE_VALUES,
                         ids=["sample", "exp1", "widths", "integrate-state0", "integrate-h"])
def test_negative_number_value_writes_its_equals_form_bytes(tmp_path, monkeypatch, capsys,
                                                            cmd, pairs):
    joined = [f"{flag}={value}" for flag, value in zip(pairs[::2], pairs[1::2])]
    runs = []
    for argv in (pairs, joined):
        work = tmp_path / f"run{len(runs)}"
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, err = run_cli(capsys, cmd, *argv, "-o", "out")
        runs.append((code, out, err, {p.name: p.read_bytes() for p in work.iterdir()}))
    assert runs[0] == runs[1]
    if "-1e-3" in pairs and cmd == "integrate":
        assert runs[0][:3] == (2, "", "error: step h must be > 0, got -0.001\n")
    else:
        assert runs[0][0] == 0 and runs[0][3], runs[0][2]


def test_negative_non_finite_value_and_unknown_flag_exit_two(capsys):
    code, out, err = run_cli(capsys, "sample", "--n", "2", "--e-center", "-inf")
    assert (code, out, err) == (2, "", "error: --e-center must be a finite number, got -inf\n")
    # a "-" argument that is not a number is still a flag
    for argv, message in ((("-x",), "unrecognized arguments: -x"),
                          (("--e-center", "-x"), "argument --e-center: expected one argument")):
        with pytest.raises(SystemExit) as info:
            main(["sample", "--n", "2", *argv])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_tau_points_below_one_names_its_source(tmp_path, capsys):
    # before: numpy's "Number of samples, -3, must be non-negative."
    for value in ("0", "-3"):
        code, out, err = run_cli(capsys, "exp1", "--radii", "0.1", "--tau-points", value)
        assert (code, out, err) == (2, "", f"error: --tau-points must be >= 1, got {value}\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau_points": -3}))
    code, out, err = run_cli(capsys, "exp1", "--radii", "0.1", "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: config key 'tau_points' must be >= 1, got -3\n")


# ---------------------------------------------------------------------------
# console script
# ---------------------------------------------------------------------------


def declared_launcher():
    # The body of the launcher that pip writes for the [project.scripts]
    # `sympb` entry.
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["sympb"]
    module, _, attrs = (part.strip() for part in target.partition(":"))
    return (
        "import sys\n"
        f"from {module} import {attrs.split('.')[0]}\n"
        "sys.argv[0] = 'sympb'\n"
        f"sys.exit({attrs}())\n"
    )


def source_env():
    # PYTHONPATH led by the directory holding the sympb under test, so a
    # fresh interpreter imports it wherever pytest was started.
    src = str(Path(sympb.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def assert_capacity_pi(out):
    assert out.returncode == 0, out.stderr
    assert abs(json.loads(out.stdout)["capacity"] - math.pi) <= 1e-12, out.stderr



# Runs in a fresh interpreter: import sympb and its CLI, make calls, then
# print the names of all modules loaded so far.
MODULE_PROBE = """
import contextlib, io, json, sys
import sympb, sympb.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = sympb.cli.main(argv)
    assert code == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


def modules_after(tmp_path, calls):
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, json.dumps(calls)],
        capture_output=True, text=True, env=source_env(), cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def package(modules, name):
    return [m for m in modules if m == name or m.startswith(name + ".")]


def test_import_and_diagnostics_load_no_scipy(tmp_path):
    # nor concurrent.futures, which only widths' thread pool needs; exp1 is
    # left out because scipy.linalg itself imports concurrent.futures
    path = write_matrix(tmp_path, "m.csv", np.eye(4))
    widths = ["widths", "--builtin", "eckart-morse-morse-3dof", "--e-min", "0", "--e-max", "1",
              "--steps", "3", "--samples", "500"]
    calls = [
        ["capacity", path],
        ["exp2", "--n", "50", "--xis", "0,0.5"],
        ["sample", "--n", "20", "--kind", "B", "--xi", "0.5"],
        ["integrate", "--state0=-2,0.3,0.9,-0.2", "--h", "0.01", "--t-final", "0.5"],
    ]
    for modules in (modules_after(tmp_path, []), modules_after(tmp_path, calls)):
        assert package(modules, "scipy") == [] and package(modules, "concurrent") == []
    modules = modules_after(tmp_path, [widths])
    assert package(modules, "scipy") == [] and "concurrent.futures" in modules


# One call of each subcommand in a fresh interpreter, with the packages it
# must load and the packages it must not load.  Only exp1's random mixer
# needs scipy.linalg, and only widths' thread pool concurrent.futures; the
# exp2 and sample draws run on kernels.substream_uniforms, not numpy.random.
NO_EXTRAS = ("numpy.random", "scipy", "concurrent.futures")
SUBCOMMAND_MODULES = {
    "capacity": ((), NO_EXTRAS),
    "exp2": ((), NO_EXTRAS),
    "sample": ((), NO_EXTRAS),
    "integrate": ((), NO_EXTRAS),
    "widths": (("concurrent.futures",), ("scipy",)),
    "exp1": (("scipy.linalg",), ()),
}


@pytest.mark.parametrize("cmd", sorted(SUBCOMMAND_MODULES))
def test_subcommand_loads_only_the_packages_it_needs(tmp_path, cmd):
    argv = {
        "capacity": ["capacity", write_matrix(tmp_path, "m.csv", np.eye(4))],
        "exp2": ["exp2", "--n", "50", "--xis", "0,0.5"],
        "sample": ["sample", "--n", "20", "--kind", "B", "--xi", "0.5"],
        "integrate": ["integrate", "--state0=-2,0.3,0.9,-0.2", "--h", "0.01",
                      "--t-final", "0.5"],
        "widths": ["widths", "--builtin", "eckart-morse-morse-3dof", "--e-min", "0",
                   "--e-max", "1", "--steps", "3", "--samples", "500"],
        "exp1": ["exp1", "--radii", "0.1", "--tau-points", "10"],
    }[cmd]
    modules = modules_after(tmp_path, [argv])
    loads, avoids = SUBCOMMAND_MODULES[cmd]
    for name in loads:
        assert name in modules, (cmd, name)
    for name in avoids:
        assert package(modules, name) == [], (cmd, name)
    if cmd != "exp1":
        assert "scipy.linalg" not in modules, cmd


def test_exp1_loads_scipy_linalg(tmp_path):
    calls = [["exp1", "--radii", "0.1", "--tau-points", "10"]]
    assert "scipy.linalg" in modules_after(tmp_path, calls)


def test_console_script_smoke(tmp_path):
    # Runs the declared entry point the way its installed launcher does, in a
    # fresh interpreter that imports the sympb under test.
    path = write_matrix(tmp_path, "m.csv", np.eye(4))
    out = subprocess.run(
        [sys.executable, "-c", declared_launcher(), "capacity", path],
        capture_output=True, text=True, env=source_env(), cwd=tmp_path,
    )
    assert_capacity_pi(out)


def test_python_m_sympb(tmp_path):
    path = write_matrix(tmp_path, "m.csv", np.eye(4))
    out = subprocess.run(
        [sys.executable, "-m", "sympb", "capacity", path],
        capture_output=True, text=True, env=source_env(), cwd=tmp_path,
    )
    assert_capacity_pi(out)


@pytest.mark.skipif(shutil.which("sympb") is None, reason="sympb console script not installed")
def test_console_script_executable(tmp_path):
    path = write_matrix(tmp_path, "m.csv", np.eye(4))
    out = subprocess.run(["sympb", "capacity", path], capture_output=True, text=True)
    assert_capacity_pi(out)
