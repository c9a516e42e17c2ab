import io
import json
import math

import numpy as np
import pytest

from sympb import (ExperimentReport, builtin_cnf, default_tau_grid, load_matrix,
                   radius_scan_curves, save_matrix, tables)
from sympb.tables import format_column, format_value


# ---------------------------------------------------------------------------
# format_value
# ---------------------------------------------------------------------------


def test_format_value_bool_before_int():
    assert format_value(True) == "true"
    assert format_value(False) == "false"


def test_format_value_int():
    assert format_value(3) == "3"
    assert format_value(-12) == "-12"


def test_format_value_nan():
    assert format_value(float("nan")) == "nan"


def test_format_value_float_round_trips():
    for v in (0.1, 1.0 / 3.0, -2.5e-17, 1.8225, math.pi, 5e300):
        assert float(format_value(v)) == v


def test_format_value_string_passthrough():
    assert format_value("A") == "A"


# ---------------------------------------------------------------------------
# ExperimentReport
# ---------------------------------------------------------------------------


def test_report_rejects_ragged_rows():
    with pytest.raises(ValueError):
        ExperimentReport(columns=("a", "b"), rows=[(1.0, 2.0), (3.0,)])


def test_report_csv_layout():
    rep = ExperimentReport(
        columns=("x", "flag", "label"),
        rows=[(0.1, True, "A"), (float("nan"), False, "B")],
        meta={"seed": 7, "note": "demo"},
    )
    buf = io.StringIO()
    rep.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# " + json.dumps({"note": "demo", "seed": 7}, sort_keys=True)
    assert lines[1] == "x,flag,label"
    assert lines[2] == "0.10000000000000001,true,A"
    assert lines[3] == "nan,false,B"


def test_report_csv_rows_equal_format_value_per_cell():
    # the writer fills one template per tuple of value types; every cell must
    # read as format_value writes it, whatever the mix of types in a column
    class Ratio(float):
        pass

    values = [0.1, -0.0, float("inf"), float("nan"), 5e-324, Ratio(1.0 / 3.0), np.float64(2.5),
              np.float32(0.1), 7, -2**70, np.int64(-4), True, False, np.bool_(True), "A",
              "50%", "%s", None, (1, 2)]
    rng = np.random.default_rng(13)
    rows = [tuple(values[i] for i in rng.integers(0, len(values), size=3)) for _ in range(400)]
    rows += [(1.5, 2, "B"), (1.5, True, "B"), (1.5, 2, "B")]
    rep = ExperimentReport(columns=("a", "b", "c"), rows=rows, meta={"k": 1})
    buf = io.StringIO()
    rep.to_csv(buf)
    lines = buf.getvalue().split("\n")
    assert lines[2:] == [",".join(format_value(v) for v in row) for row in rows] + [""]


@pytest.mark.parametrize("rows", [[], [(0.25, "A")]])
def test_report_with_zero_or_one_row(rows):
    rep = ExperimentReport(columns=("x", "label"), rows=rows, meta={"k": 1})
    csv_buf, json_buf = io.StringIO(), io.StringIO()
    rep.to_csv(csv_buf)
    rep.to_json(json_buf)
    body = "".join(f"{format_value(x)},{label}\n" for x, label in rows)
    assert csv_buf.getvalue() == '# {"k": 1}\nx,label\n' + body
    assert json.loads(json_buf.getvalue()) == {
        "meta": {"k": 1}, "columns": ["x", "label"], "rows": [list(row) for row in rows]}


def test_report_needs_a_column():
    # with no column there is no cell to carry a row into the CSV
    with pytest.raises(ValueError, match="at least one column"):
        ExperimentReport(columns=(), rows=[(), ()])


def test_float_column_equals_format_value_per_value():
    class Ratio(float):
        pass

    column = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, Ratio(1.0 / 3.0),
              np.float64(2.5), 0.1]
    assert format_column(column) == [format_value(v) for v in column]
    assert format_column(column)[:5] == ["-0", "nan", "inf", "-inf", "4.9406564584124654e-324"]
    # one value that is not a float instance sends the column value by value
    for odd in (True, np.float32(0.1), 3, "A"):
        assert format_column(column + [odd]) == [format_value(v) for v in column + [odd]]


def nan_with_payload(payload):
    return np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(np.float64)[0]


@pytest.mark.parametrize("column", [
    np.array([-0.0, 0.0, 1.0, -0.0, 0.0]),
    np.array([nan_with_payload(1), nan_with_payload(2), nan_with_payload(1), -np.nan]),
    np.array([np.inf, -np.inf, 5e-324, -5e-324, np.inf]),
    np.array([], dtype=np.float64),
    np.arange(24.0)[::3],
    np.random.default_rng(2).choice([0.1, 1.0 / 3.0, -2.5e-17, 0.0, -0.0, 7.0], size=600),
    np.array([0.25, -0.0], dtype=np.float32),
    np.array([2, -3]),
], ids=["signed-zeros", "nan-payloads", "inf-subnormal", "empty", "strided", "600-repeats",
        "float32", "int64"])
def test_array_column_equals_format_value_of_its_list(column):
    # a float-keyed pass would merge -0.0 into 0.0 and write "0" for both
    assert format_column(column) == [format_value(v) for v in column.tolist()]


def test_exp1_area_column_formats_each_bit_pattern_once(monkeypatch):
    class CountingFormat(str):
        calls = 0

        def __mod__(self, value):
            CountingFormat.calls += 1
            return str.__mod__(self, value)

    model = builtin_cnf(3)
    curve = radius_scan_curves(model, [0.3], s_mix_seed=5, tau_grid=default_tau_grid(model))[1][0]
    want = [format_value(v) for v in curve.areas.tolist()]
    monkeypatch.setattr(tables, "FLOAT_FMT", CountingFormat(tables.FLOAT_FMT))
    assert format_column(curve.areas) == want
    distinct = np.unique(curve.areas.view(np.uint64)).size
    assert CountingFormat.calls == distinct
    assert 1 < distinct < len(curve.areas) // 4


def test_report_json_nan_becomes_null():
    rep = ExperimentReport(columns=("x",), rows=[(float("nan"),)], meta={})
    buf = io.StringIO()
    rep.to_json(buf)
    doc = json.loads(buf.getvalue())
    assert doc["rows"] == [[None]]
    assert doc["columns"] == ["x"]


def test_report_writes_to_path_and_filelike(tmp_path):
    rep = ExperimentReport(columns=("x",), rows=[(1.5,)], meta={"s": 1})
    path = tmp_path / "out.csv"
    rep.to_csv(str(path))
    buf = io.StringIO()
    rep.to_csv(buf)
    assert path.read_text() == buf.getvalue()


def test_report_byte_deterministic():
    def make():
        return ExperimentReport(
            columns=("a", "b"),
            rows=[(1.0 / 3.0, 2), (0.7350, -1)],
            meta={"z": 1, "a": 2},
        )

    bufs = []
    for rep in (make(), make()):
        b = io.StringIO()
        rep.to_csv(b)
        j = io.StringIO()
        rep.to_json(j)
        bufs.append((b.getvalue(), j.getvalue()))
    assert bufs[0] == bufs[1]
    # metadata keys are emitted sorted regardless of insertion order
    assert bufs[0][0].splitlines()[0] == '# {"a": 2, "z": 1}'


# ---------------------------------------------------------------------------
# matrix I/O
# ---------------------------------------------------------------------------


def test_matrix_csv_round_trip(tmp_path):
    m = np.array([[1.0 / 3.0, 2.0], [-5e-17, 1e300]])
    path = str(tmp_path / "m.csv")
    save_matrix(m, path)
    assert np.array_equal(load_matrix(path), m)


def test_matrix_json_round_trip(tmp_path):
    m = np.array([[0.1, 0.2, 0.3], [4.0, 5.0, 6.0]])
    path = str(tmp_path / "m.json")
    save_matrix(m, path)
    assert np.array_equal(load_matrix(path), m)


def test_matrix_csv_single_row_stays_2d(tmp_path):
    path = str(tmp_path / "row.csv")
    save_matrix(np.array([[1.0, 2.0, 3.0]]), path)
    assert load_matrix(path).shape == (1, 3)


def test_matrix_csv_skips_comment_lines(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# produced elsewhere\n1.0,2.0\n3.0,4.0\n")
    assert np.array_equal(load_matrix(str(path)), [[1.0, 2.0], [3.0, 4.0]])


def test_matrix_json_rejects_non_2d(tmp_path):
    path = tmp_path / "v.json"
    path.write_text("[1.0, 2.0, 3.0]\n")
    with pytest.raises(ValueError):
        load_matrix(str(path))


def test_matrix_json_rejects_ragged(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("[[1.0, 2.0], [3.0]]\n")
    with pytest.raises(ValueError):
        load_matrix(str(path))


@pytest.mark.parametrize("name,text,entry", [
    ("nan.csv", "1,2\n3,nan\n", "[1, 1] is nan"),
    ("inf.csv", "1,inf\n-inf,4\n", "[0, 1] is inf"),
    ("nan.json", "[[NaN, 2], [3, 4]]", "[0, 0] is nan"),
    ("inf.json", "[[1, 2], [-Infinity, 4]]", "[1, 0] is -inf"),
    # before: an uncaught OverflowError from the float conversion
    pytest.param("big.json", "[[1, 2], [3, -1" + "0" * 400 + "]]", "[1, 1] is -inf",
                 id="big.json"),
])
def test_matrix_rejects_non_finite_entries(tmp_path, name, text, entry):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_matrix(str(path))
    assert str(info.value) == f"{path}: entry {entry}, not a finite number"


@pytest.mark.parametrize("text,entry", [
    ("[[true, false], [false, true]]", "[0, 0] is true"),
    ('[[2, 0], [0, "2"]]', '[1, 1] is "2"'),
    ("[[1, 0], [null, 1]]", "[1, 0] is null"),
], ids=["bool", "string", "null"])
def test_matrix_json_rejects_entries_that_are_not_json_numbers(tmp_path, text, entry):
    # before: a bool read as 0 or 1 and a numeric string as its number; a
    # null read as NaN and was named as a nan entry
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_matrix(str(path))
    assert str(info.value) == f"{path}: entry {entry}, not a JSON number"
