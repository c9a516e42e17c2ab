"""Golden bytes of CLI outputs that the benchmark's seed-0 digests do not cover.

Each case runs ``sympb.cli.main`` in an empty directory, with warnings as
errors and nothing on stderr, and hashes stdout together with every file the
command writes there (sorted by name).  The digests pin the metadata line as
well as the rows, so they catch a key that moves between the library's
report and the CLI's resolved configuration.
"""

import hashlib
import json
import warnings

import pytest

from sympb.cli import main

CASES = {
    "widths_json": (
        ["widths", "--e-min", "-0.95", "--e-max", "-0.5", "--steps", "3",
         "--samples", "2000", "--seed", "3", "--format", "json"],
        "9eb07ac14e1d379ea6eb9d6635e3e407616a00e1402a1362bd259c58f364e1c7",
    ),
    "exp2_json": (
        ["exp2", "--n", "300", "--xis", "0,0.5,1", "--seed", "2", "--format", "json"],
        "a209a7cb028d898c3b1ddb27324d107ea7dd4d58a7f281f7710c214b2ba7861d",
    ),
    "exp1_json_curves": (
        ["exp1", "--radii", "0.1,0.3", "--tau-points", "7", "--seed", "4",
         "--format", "json", "--curves-out", "curve"],
        "9c66626aed56059ddd5d065cf15a9b86d9129e2c5993f3e642113a31704d0188",
    ),
    # the library records tau_max 0.0 for a one-point grid; the CLI's 3/lambda wins
    "exp1_one_tau_point_curves": (
        ["exp1", "--radii", "0.2", "--tau-points", "1", "--curves-out", "one"],
        "3fe04128b80855cebf0cdae469960712f3297c642018cb26be387b35d7d25e1d",
    ),
    # c_cand_ref at an energy other than the default, from the 3-dof widths
    "exp1_dof3_e_ref_curves": (
        ["exp1", "--dof", "3", "--e-ref", "0.7", "--tau-max", "40", "--radii", "0.1,0.4",
         "--tau-points", "9", "--curves-out", "c"],
        "0c2922cba717be250996101ff9d8d0cd386b710c2ab99cc0ae15e824da6314be",
    ),
    # cosh^4 overflows the Gram determinant at the long taus, which take det0
    # without a numpy warning
    "exp1_dof2_tau_max_600": (
        ["exp1", "--dof", "2", "--tau-max", "600"],
        "1c258573a1583ad7d0b36e17d5bbb8d33485e81a5818c57bf10a2a15c14be451",
    ),
    "exp1_dof3_tau_max_600": (
        ["exp1", "--dof", "3", "--tau-max", "600"],
        "37dbec20223ca9e329587d243c476ee985d448792cdce1c5bba983189e07c369",
    ),
    # cosh itself overflows from tau = 968.28..., and those taus take det0 too
    "exp1_dof3_tau_max_1000": (
        ["exp1", "--dof", "3", "--tau-max", "1000"],
        "73b7d1ece5ccc53f966b5b4e17852459c3b5bcd127b93375833f7097e4491ae5",
    ),
    "capacity_stdout": (
        ["capacity", "m.csv"],
        "1589d04e922734f9e4eedc26817cd45e56934480811addfa6a464d010a1eca64",
    ),
    "capacity_output": (
        ["capacity", "m.csv", "-o", "cap.json"],
        "a077d9ddfe05607df4931e9cf8ddad56774fe085bb297879b1684461fa21a9d6",
    ),
    # without -o the JSON summary goes to stdout
    "integrate_summary": (
        ["integrate", "--state0=-2,0.3,0.9,-0.2", "--h", "0.01", "--t-final", "0.5"],
        "647c34380355538bad4d7e951a101842d6b18320d6bb30d1e06d1c78051d680b",
    ),
    # kind A is the band xi = 0 of the sampler
    "sample_a": (
        ["sample", "--kind", "A", "--n", "40", "--seed", "6"],
        "094cb1d889f07df0d2386e6a3f1ea4b140a6416cd1b7ad07f7f2b664f168bbf4",
    ),
    "sample_a_json": (
        ["sample", "--kind", "A", "--n", "40", "--seed", "6", "--format", "json"],
        "5394fc1726102ac4da43cf653cd9362ab3e14f25e855f9a0976044da32a0bcf9",
    ),
    "sample_b": (
        ["sample", "--kind", "B", "--xi", "0.4", "--n", "40", "--seed", "6"],
        "8da80715267504d0e492681f73dd7c5f1f6d53c937ed4667de44a6a40bc79e47",
    ),
}

# input files written before the command runs; they are hashed with its outputs
MATRIX = {"m.csv": "2,0.3,0,0.1\n0.3,1,0.2,0\n0,0.2,0.5,0\n0.1,0,0,4\n"}
INPUTS = {"capacity_stdout": MATRIX, "capacity_output": MATRIX}


def outputs_digest(argv, tmp_path, monkeypatch, capsys, inputs=None):
    monkeypatch.chdir(tmp_path)
    for name, text in (inputs or {}).items():
        (tmp_path / name).write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = {"stdout": captured.out}
    for path in sorted(tmp_path.iterdir()):
        doc[path.name] = path.read_text()
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes(name, tmp_path, monkeypatch, capsys):
    argv, digest = CASES[name]
    assert outputs_digest(argv, tmp_path, monkeypatch, capsys, INPUTS.get(name)) == digest


def test_exp1_one_tau_point_records_the_cli_tau_max(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["exp1", "--radii", "0.2", "--tau-points", "1", "--curves-out", "one"]) == 0
    table_meta = json.loads(capsys.readouterr().out.splitlines()[0][2:])
    curve_meta = json.loads((tmp_path / "one_r0.csv").read_text().splitlines()[0][2:])
    for meta in (table_meta, curve_meta):
        assert meta["tau_max"] == pytest.approx(3.0 / 0.735)
        assert meta["tau_points"] == 1
    assert curve_meta["radius_index"] == 0

