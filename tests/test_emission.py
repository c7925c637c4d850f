"""The CLI writers against reference writers: `json.dumps(indent=2)` for JSON,
and a per-cell CSV writer (`_reference_csv`, the writer the template-based
`_csv` replaced) for CSV.  Every document must come out byte for byte the same."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrate.cli import _csv, _grid_csv, _json_doc

# ---------------------------------------------------------------- reference writers


def _reference_fmt(x) -> str:
    if math.isnan(x):
        return ""
    return format(float(x), ".17g")


def _reference_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_reference_fmt(cell) if not isinstance(cell, str) else cell
                          for cell in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def _reference_grid_csv(header, x, y, *values) -> str:
    cols = (np.repeat(x, len(y)), np.tile(y, len(x)), *(np.ravel(v) for v in values))
    return _reference_csv(header, zip(*(c.tolist() for c in cols)))


def _reference_json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------- JSON

EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1e16, 1e-5, 1.0, -1.7976931348623157e308, 0.1)
finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = (st.none() | st.booleans() | st.integers() | finite | st.sampled_from(EDGE_FLOATS)
           | finite.map(np.float64) | st.text())
json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=6) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(max_size=4), children, max_size=5)),
    max_leaves=40,
)
documents = st.dictionaries(st.text(max_size=4), json_values, max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(documents)
def test_json_doc_equals_json_dumps(doc):
    assert _json_doc(doc) == _reference_json(doc)


@pytest.mark.parametrize("doc", [
    {},
    {"values": []},
    {"config": {}, "axes": {"a": []}},
    {"values": [[0.5, None], [], [1e16, -0.0]], "note": "café → γ"},
    {"argmax": {"qr": np.float64(0.0), "qi": np.float64(0.5), "rate": np.float64(0.1)}},
    {"rows": [[1.0, [2, {"x": None}]], (True, False)], "t": (5e-324,)},
], ids=range(6))
def test_json_doc_shapes_of_the_documents(doc):
    assert _json_doc(doc) == _reference_json(doc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(documents, st.sampled_from([math.nan, math.inf, -math.inf]),
       st.sampled_from(["leaf list", "leaf dict", "nested", "alone"]))
def test_non_finite_float_raises_on_both_sides(doc, bad, where):
    doc = doc | {"bad": {"leaf list": [1.0, bad], "leaf dict": {"x": bad, "y": None},
                         "nested": [[1.0], {"z": [bad]}], "alone": bad}[where]}
    with pytest.raises(ValueError):
        _reference_json(doc)
    with pytest.raises(ValueError):
        _json_doc(doc)


# ---------------------------------------------------------------- CSV

CELL_KINDS = {
    "float": st.floats(),
    "int": st.integers(-2**70, 2**70),
    "number": st.floats() | st.integers(-2**70, 2**70),
    "str": st.text(alphabet="01ab%-. ", max_size=4),
    "float or NaN": st.just(math.nan) | st.floats(),
}


@st.composite
def tables(draw):
    """(header, columns) with 1-5 columns of 0-12 cells, each column of one kind."""
    n_rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(CELL_KINDS)), min_size=1, max_size=5))
    columns = [draw(st.lists(CELL_KINDS[k], min_size=n_rows, max_size=n_rows)) for k in kinds]
    return [f"c{i}" for i in range(len(kinds))], columns


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tables())
@example((["c0", "c1"], [[0.5, math.nan, math.nan, -0.0, math.nan],
                         [1, math.nan, 2.5, math.nan, 3]]))
@example((["c0", "c1", "c2"], [[math.nan, 1.0, math.nan], ["0", "1", "0"],
                               [math.nan, 2.0, math.nan]]))  # blank first column, ends
def test_csv_equals_the_per_cell_writer(table):
    header, columns = table
    assert _csv(header, columns) == _reference_csv(header, zip(*columns))


grid_axis = st.lists(st.floats(-1e3, 1e3) | st.sampled_from(EDGE_FLOATS), min_size=1,
                     max_size=6).map(np.array)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(grid_axis, grid_axis, st.data())
def test_grid_csv_equals_the_per_cell_writer(x, y, data):
    """Value grids of floats, of "1"/"0" flags and of floats masked to NaN, as fig2
    and fig3 write them."""
    shape = (len(x), len(y))
    cells = st.lists(st.floats(), min_size=x.size * y.size, max_size=x.size * y.size)
    values = []
    for kind in data.draw(st.lists(st.sampled_from(["float", "flag", "masked"]), max_size=3)):
        grid = np.reshape(data.draw(cells), shape)
        if kind == "flag":
            grid = np.where(grid > 0, "1", "0")
        elif kind == "masked":
            grid = np.where(grid > 0, math.nan, grid)
        values.append(grid)
    header = ["x", "y", *(f"v{i}" for i in range(len(values)))]
    assert _grid_csv(header, x, y, *values) == _reference_grid_csv(header, x, y, *values)
