"""CSV I/O: byte identity with a per-row reference writer, exact round
trips, and errors that name the file and line of a malformed row."""

import math
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cdii.calibration import PhiMap
from cdii.csvio import (
    data_line,
    read_field,
    read_metrics,
    read_trace,
    write_convergence,
    write_field,
    write_metrics,
    write_phi,
    write_trace,
)
from cdii.weighted_gradient import IterationRecord

from helpers import read_convergence


# ------------------------------------------------------- reference writers
# One line per row, each number through f"{x:.17g}": the format the field
# files have always had.

def fmt(x) -> str:
    return f"{float(x):.17g}"


def reference_field(path, quantity, unit, entity, values, ids=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if ids is None:
        ids = np.arange(values.shape[0])
    lines = [f"# {quantity},{unit},{entity}"]
    for i, row in zip(ids, values):
        lines.append(",".join([str(int(i))] + [fmt(v) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n")


def reference_table(path, header, rows):
    Path(path).write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
           2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
           1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5, 1e22, 123456789.0]


def special_values(rows: int, k: int) -> np.ndarray:
    rng = np.random.default_rng(rows * 10 + k)
    values = rng.standard_normal(rows * k) * 10.0 ** rng.integers(-20, 20, rows * k)
    m = min(len(SPECIAL), values.size)
    values[:m] = SPECIAL[:m]
    return values.reshape(rows, k) if k > 1 else values


@pytest.mark.parametrize("k", [1, 2])
def test_write_field_matches_reference_bytes(tmp_path, k):
    values = special_values(40, k)
    write_field(tmp_path / "new.csv", "J", "A/m^2", "triangle", values)
    reference_field(tmp_path / "old.csv", "J", "A/m^2", "triangle", values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("ids", [
    np.arange(100)[::7],                              # strided view
    np.arange(60, dtype=np.int32).reshape(20, 3)[:, 1],  # column of a table
    [5, 3, 99, 0, 12, 7, 8, 1, 2, 4, 6, 11, 13, 14, 15],  # plain list
], ids=["strided", "column", "list"])
def test_write_trace_matches_reference_bytes(tmp_path, ids):
    values = special_values(len(ids), 1)[::-1]  # non-contiguous values too
    write_trace(tmp_path / "new.csv", ids, values)
    reference_field(tmp_path / "old.csv", "trace", "V", "node", values, ids=ids)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_field_empty(tmp_path):
    write_field(tmp_path / "new.csv", "u", "V", "node", np.zeros(0))
    reference_field(tmp_path / "old.csv", "u", "V", "node", np.zeros(0))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    header, ids, values = read_field(tmp_path / "new.csv")
    assert header == ("u", "V", "node") and ids.shape == (0,) and values.shape == (0,)


def test_small_writers_match_reference_bytes(tmp_path):
    b = np.array([-1.0, -0.0, 1e-300, 0.5, 2.0])
    t = np.array([-3.0, 0.0, 5e-324, 1.0 / 3.0, 7.0])
    phi = PhiMap(b, t)
    write_phi(tmp_path / "phi.csv", phi)
    reference_table(tmp_path / "phi_ref.csv", "s,t", [(fmt(s), fmt(v)) for s, v in zip(b, t)])

    log = [IterationRecord(0, 1.25, math.nan, 12.5),
           IterationRecord(1, -0.0, 1e-300, 0.1),
           IterationRecord(2, 1e300, math.inf, 3.0)]
    write_convergence(tmp_path / "conv.csv", log)
    reference_table(tmp_path / "conv_ref.csv",
                    "iteration,objective,max_grad_diff,wall_time_ms",
                    [(str(r.iteration), fmt(r.objective), fmt(r.max_grad_diff),
                      fmt(r.wall_ms)) for r in log])

    # Integers, as every value, are written '%.17g': a count as its digits.
    rows = [("relative_l2", 0.1), ("iterations", 16), ("count", np.int64(3)),
            ("converged", True), ("max_error", np.float64(1e-300)), ("big", 10 ** 20)]
    write_metrics(tmp_path / "metrics.csv", rows)
    reference_table(tmp_path / "metrics_ref.csv", "metric,value",
                    [(n, fmt(v)) for n, v in rows])
    assert [line.split(",")[1] for line in
            (tmp_path / "metrics.csv").read_text().splitlines()[2:4]] == ["16", "3"]
    assert read_metrics(tmp_path / "metrics.csv") == {n: float(v) for n, v in rows}

    for name in ("phi", "conv", "metrics"):
        new = (tmp_path / f"{name}.csv").read_bytes()
        assert new == (tmp_path / f"{name}_ref.csv").read_bytes(), name

    write_metrics(tmp_path / "metrics.csv", rows[:3])
    assert read_metrics(tmp_path / "metrics.csv") == {"relative_l2": 0.1, "iterations": 16.0,
                                                      "count": 3.0}
    conv = read_convergence(tmp_path / "conv.csv")
    assert [c[0] for c in conv] == [0, 1, 2] and math.isnan(conv[0][2])


def test_write_convergence_empty_log(tmp_path):
    write_convergence(tmp_path / "conv.csv", [])
    assert (tmp_path / "conv.csv").read_text() == \
        "iteration,objective,max_grad_diff,wall_time_ms\n"


# -------------------------------------------------------------- round trip

headers = st.text(string.ascii_letters + string.digits + "/^_.-", min_size=1, max_size=8)
tables = st.integers(1, 3).flatmap(lambda k: st.integers(1, 30).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, (n, k), elements=st.floats(allow_nan=False, width=64)),
        arrays(np.int64, n, elements=st.integers(-2 ** 63, 2 ** 63 - 1)))))


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=st.tuples(headers, headers, headers), table=tables)
def test_read_field_inverts_write_field(tmp_path, header, table):
    values, ids = table
    path = tmp_path / "field.csv"
    write_field(path, *header, values, ids=ids)
    got_header, got_ids, got_values = read_field(path)
    assert got_header == header
    assert got_ids.dtype == np.int64 and np.array_equal(got_ids, ids)
    expected = values[:, 0] if values.shape[1] == 1 else values
    assert got_values.shape == expected.shape
    assert np.array_equal(got_values.view(np.uint64), expected.view(np.uint64))


def test_read_field_keeps_nonfinite_values(tmp_path):
    write_field(tmp_path / "f.csv", "a", "A/m^2", "triangle", [math.nan, math.inf, -math.inf])
    _, _, values = read_field(tmp_path / "f.csv")
    assert math.isnan(values[0]) and values[1] == math.inf and values[2] == -math.inf


# ----------------------------------------------------------- malformed rows

PREFIX = "# a,A/m^2,triangle\n0,1.5\n\n# a comment\n1,2.5\n"  # next row: line 6

# Numbers that Python's int and float read but np.loadtxt does not: every
# reader refuses them, naming file and line.
NUMBER_SYNTAX = [
    ("1_0,1.0", "cannot parse '1_0' as int64"),
    ("\u0663,1.0", "cannot parse '\u0663' as int64"),  # Arabic-Indic 3
    ("2,\u0661.\u0665", "cannot parse '\u0661.\u0665' as float"),  # Arabic-Indic 1.5
    ("2,1_0.5", "cannot parse '1_0.5' as float"),
]
NUMBER_SYNTAX_IDS = ["underscore-id", "arabic-indic-id", "arabic-indic-value",
                     "underscore-value"]


@pytest.mark.parametrize("row,reason", [
    ("2,abc", "cannot parse 'abc' as float"),
    ("2,1.0x", "cannot parse '1.0x' as float"),
    ("5.5,1.0", "cannot parse '5.5' as int64"),
    ("1e3,1.0", "cannot parse '1e3' as int64"),
    ("x,1.0", "cannot parse 'x' as int64"),
    ("2", "1 columns, expected 2"),
    ("2,1.0,3.0", "3 columns, expected 2"),
    ("99999999999999999999,1.0", "cannot parse '99999999999999999999' as int64"),
    *NUMBER_SYNTAX,
], ids=["token", "suffix", "fractional-id", "exponent-id", "word-id", "short", "long",
        "id-beyond-int64", *NUMBER_SYNTAX_IDS])
def test_malformed_row_names_file_and_line(tmp_path, row, reason):
    path = tmp_path / "a.csv"
    path.write_text(PREFIX + row + "\n3,4.5\n")
    with pytest.raises(ValueError) as err:
        read_field(path)
    assert str(err.value) == f"{path}:6: {reason}"


@pytest.mark.parametrize("row,reason", [
    ("30,abc", "cannot parse 'abc' as float"),
    ("x,0.5", "cannot parse 'x' as int64"),
    ("30", "1 columns, expected 2"),
    ("30,0.5,1", "3 columns, expected 2"),
    ("99999999999999999999,0.5", "cannot parse '99999999999999999999' as int64"),
    *NUMBER_SYNTAX,
], ids=["token", "word-key", "short", "long", "id-beyond-int64", *NUMBER_SYNTAX_IDS])
def test_malformed_trace_row_names_file_and_line(tmp_path, row, reason):
    path = tmp_path / "trace.csv"
    path.write_text(PREFIX + row + "\n3,4.5\n")
    with pytest.raises(ValueError) as err:
        read_trace(path)
    assert str(err.value) == f"{path}:6: {reason}"


def test_trace_keys_are_ids_unless_one_is_a_coordinate(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(PREFIX + "2,3.5\n")
    keys, values = read_trace(path)
    assert keys.dtype == np.int64 and keys.tolist() == [0, 1, 2]
    assert values.tolist() == [1.5, 2.5, 3.5]
    # One decimal point switches the whole file to coordinates.
    path.write_text(PREFIX + "0.5,3.5\n")
    keys, values = read_trace(path)
    assert keys.dtype == float and keys.tolist() == [0.0, 1.0, 0.5]
    assert values.tolist() == [1.5, 2.5, 3.5]


def test_trace_without_samples_names_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("# trace,V,node\n\n# a comment\n")
    with pytest.raises(ValueError) as err:
        read_trace(path)
    assert str(err.value) == f"{path}: holds no samples"


CONVERGENCE = "iteration,objective,max_grad_diff,wall_time_ms\n0,1.5,nan,2\n"
METRICS = "metric,value\nrelative_l2,0.1\n"


@pytest.mark.parametrize("read,prefix,row,reason", [
    (read_convergence, CONVERGENCE, "1,x,y,z", "cannot parse 'x' as float"),
    (read_convergence, CONVERGENCE, "1.5,1,1,1", "cannot parse '1.5' as int"),
    (read_convergence, CONVERGENCE, "1", "1 columns, expected 4"),
    (read_metrics, METRICS, "absolute_l2,abc", "cannot parse 'abc' as float"),
    (read_metrics, METRICS, "absolute_l2", "1 columns, expected 2"),
], ids=["convergence-token", "convergence-fractional", "convergence-short",
        "metrics-token", "metrics-short"])
def test_malformed_table_row_names_file_and_line(tmp_path, read, prefix, row, reason):
    path = tmp_path / "table.csv"
    path.write_text(prefix + row + "\n")
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value) == f"{path}:3: {reason}"


def test_data_line_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text(PREFIX + "2,3.5\n")
    assert [data_line(path, row) for row in range(3)] == [2, 5, 6]
