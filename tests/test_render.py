"""The CLI renderer, byte for byte against the renderer it replaced.

Tables used to be lists of rows, written cell by cell (csv through
``csv.writer``), and json documents held nested lists, written by the
pure-Python encoder that ``indent=2`` selects.  ``_format_cell`` and
``_render`` below are that renderer, copied verbatim as the oracle; the
program's renderer takes tables as columns and documents holding float
arrays, and must write the same bytes.
"""

import csv
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chebratu import cli

# --------------------------------------------------------------------------
# the oracle: the renderer of rows and nested lists, verbatim
# --------------------------------------------------------------------------


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".16e")


def _render(doc, table, fmt: str) -> str:
    if fmt == "json" or table is None:
        return json.dumps(doc, indent=2) + "\n"
    comments, columns, rows = table
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
        return buf.getvalue()
    lines = [f"# {c}" for c in comments]
    lines.append("# " + "  ".join(columns))
    for row in rows:
        lines.append("  ".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
         float("nan"), float("inf"), -float("inf")]
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats())
# the program's string cells and column names are identifiers (the symmetry
# names); csv.writer would quote a cell holding a comma, a quote or a newline
WORDS = st.text("abcdefghijklmnopqrstuvwxyz_0123456789.+-", max_size=8)
INTS = st.integers(-2**63, 2**63 - 1)
# a document string holds no NUL: argv entries and file paths cannot
TEXT = st.text(st.characters(blacklist_characters="\0"), max_size=6)


def _float_arrays(min_dims, max_dims, side):
    shapes = hnp.array_shapes(min_dims=min_dims, max_dims=max_dims, min_side=0, max_side=side)
    return hnp.arrays(np.float64, shapes, elements=FLOATS)


@st.composite
def _documents(draw):
    """A document as the handlers build it, holding float arrays, and the
    same document with each array as its ``tolist()``."""
    arrays = [draw(_float_arrays(1, 3, 5)) for _ in range(3)]
    params = {"lambda": draw(FLOATS), "n": draw(INTS), "guess": draw(TEXT),
              "epsilon": None, "stable": draw(st.booleans())}
    tail = draw(st.lists(FLOATS, max_size=3))

    def doc(a, b, c):
        return {"params": params, "solution": {"grid_values": a, "u_max": params["lambda"]},
                "coefficients": b, "pairs": [c, tail], "empty": []}

    return doc(*arrays), doc(*(a.tolist() for a in arrays))


@st.composite
def _tables(draw):
    """A table as columns (float, int and string), and the same table as
    rows; or None."""
    if draw(st.booleans()) and draw(st.booleans()):
        return None, None
    rows = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "int64", "str"]),
                          min_size=2, max_size=4))
    columns = []
    for kind in kinds:
        if kind == "float":
            columns.append(draw(hnp.arrays(np.float64, rows, elements=FLOATS)))
        elif kind == "int":
            columns.append(draw(st.lists(INTS, min_size=rows, max_size=rows)))
        elif kind == "int64":
            columns.append(np.array(draw(st.lists(INTS, min_size=rows, max_size=rows)),
                                    dtype=np.int64))
        else:
            columns.append(draw(st.lists(WORDS, min_size=rows, max_size=rows)))
    comments = draw(st.lists(st.text(max_size=12), max_size=2))
    names = draw(st.lists(WORDS.filter(bool), min_size=len(columns), max_size=len(columns)))
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return (comments, names, columns), (comments, names, list(zip(*cells)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(doc=_documents(), table=_tables(), fmt=st.sampled_from(["json", "csv", "dat"]))
def test_render_matches_the_row_renderer(doc, table, fmt):
    (new_doc, old_doc), (new_table, old_table) = doc, table
    assert cli._render(new_doc, new_table, fmt) == _render(old_doc, old_table, fmt)


def test_render_edge_values_in_every_format():
    values = np.array([EDGES, EDGES[::-1]])
    finite = np.array([[-0.0, 5e-324], [1.7976931348623157e308, -1.7976931348623157e308]])
    for a in (values, finite, finite[0], finite[:, :, None], np.empty((0, 3)), np.empty((3, 0))):
        doc = {"values": a, "nested": {"values": [a]}}
        old = {"values": a.tolist(), "nested": {"values": [a.tolist()]}}
        flat = a.reshape(-1)
        columns = [np.arange(flat.size), flat, ["rot90"] * flat.size]
        rows = list(zip(range(flat.size), flat.tolist(), ["rot90"] * flat.size))
        for fmt in ("json", "csv", "dat"):
            assert (cli._render(doc, (["c"], ["k", "u", "s"], columns), fmt)
                    == _render(old, (["c"], ["k", "u", "s"], rows), fmt))

