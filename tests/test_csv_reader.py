"""The CSV reader against the per-schema `csv.DictReader` loops it replaced.

`_ref_read_contingency`, `_ref_read_numeric_column` and `_ref_read_regression`
are the earlier readers, kept verbatim as the reference. On random CSV text
the new readers must give bitwise-equal, C-contiguous arrays or the same
error, except where one of the reader's declared rules applies:

- a duplicate header name is an error;
- every nonblank row must have as many fields as the header;
- a cell that is not a number is named as `could not parse 'cell' as a number`.

For those inputs the expected error is derived from the reference run on the
part of the file before the rule applies.
"""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesdesk import cli
from bayesdesk.errors import NumericalError
from bayesdesk.regression import RegressionData

# ---------------------------------------------------------------------------
# reference: the DictReader readers the single reader replaced

_CONTINGENCY_COLUMNS = ("stratum", "group", "survived", "total")


def _ref_open_reader(path):
    fh = open(path, "r", newline="")
    reader = csv.DictReader(fh)
    if reader.fieldnames is None:
        fh.close()
        raise ValueError(f"{path}: no data rows")
    return reader, fh


def _ref_read_contingency(path):
    reader, fh = _ref_open_reader(path)
    with fh:
        names = tuple(reader.fieldnames)
        if sorted(names) != sorted(_CONTINGENCY_COLUMNS):
            raise ValueError(
                f"{path}: line 1: expected columns {','.join(_CONTINGENCY_COLUMNS)}, "
                f"got {','.join(names)}")
        rows = []
        for row in reader:
            line = reader.line_num
            if any(v is None for v in row.values()) or None in row:
                raise ValueError(f"{path}: line {line}: expected {len(names)} fields")
            try:
                survived = int(row["survived"])
                total = int(row["total"])
            except ValueError:
                raise ValueError(
                    f"{path}: line {line}: survived and total must be integers, "
                    f"got {row['survived']!r}, {row['total']!r}") from None
            if survived < 0 or total <= 0:
                raise ValueError(
                    f"{path}: line {line}: need survived >= 0 and total > 0")
            rows.append({"stratum": row["stratum"], "group": row["group"],
                         "survived": survived, "total": total})
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def _ref_read_numeric_column(path, column):
    reader, fh = _ref_open_reader(path)
    with fh:
        names = list(reader.fieldnames)
        if column is None:
            if len(names) != 1:
                raise ValueError(
                    f"{path}: multiple columns ({', '.join(names)}); pick one with --column")
            column = names[0]
        if column not in names:
            raise ValueError(
                f"{path}: column {column!r} not found (have: {', '.join(names)})")
        values = []
        for row in reader:
            line = reader.line_num
            raw = row.get(column)
            if raw is None:
                raise ValueError(f"{path}: line {line}: missing value for {column!r}")
            try:
                values.append(float(raw))
            except ValueError:
                raise ValueError(
                    f"{path}: line {line}: could not parse {raw!r} as a number") from None
    if not values:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(values, dtype=float), column


def _ref_read_regression(path, response, add_intercept):
    reader, fh = _ref_open_reader(path)
    with fh:
        names = list(reader.fieldnames)
        if response not in names:
            raise ValueError(
                f"{path}: response column {response!r} not found (have: {', '.join(names)})")
        predictors = [c for c in names if c != response]
        if add_intercept and "Intercept" in predictors:
            raise ValueError(
                f"{path}: column 'Intercept' collides with the automatic intercept; "
                "rename it or pass --no-intercept")
        x_rows = []
        y_vals = []
        for row in reader:
            line = reader.line_num
            if any(row.get(c) is None for c in names):
                raise ValueError(f"{path}: line {line}: expected {len(names)} fields")
            try:
                y_vals.append(float(row[response]))
                x_rows.append([float(row[c]) for c in predictors])
            except ValueError:
                raise ValueError(
                    f"{path}: line {line}: all values must be numeric") from None
    if not y_vals:
        raise ValueError(f"{path}: no data rows")
    y = np.asarray(y_vals, dtype=float)
    if predictors:
        X = np.asarray(x_rows, dtype=float)
    else:
        X = np.empty((y.size, 0))
    columns = list(predictors)
    if add_intercept:
        X = np.column_stack([np.ones(y.size), X]) if columns else np.ones((y.size, 1))
        columns = ["Intercept"] + columns
    if not columns:
        raise ValueError(f"{path}: no predictor columns and --no-intercept given")
    return RegressionData(X=X, y=y, column_names=tuple(columns))


# ---------------------------------------------------------------------------
# random CSV text, one chunk per record so that a prefix keeps its line numbers

_NAMES = ("y", "x", "a", "Intercept", *_CONTINGENCY_COLUMNS)
_JUNK = ("oops", "", "1,5", "1.2.3", "a\nb", "--", 'say "hi"', "group")

_cells = st.one_of(
    st.floats(allow_nan=False, width=64).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(lambda v: format(v, "g")),
    st.integers(-3, 40).map(str),
    st.sampled_from(_JUNK),
    st.sampled_from(("a", "b", "s1")),
    st.floats(-1e3, 1e3).map(lambda v: f" {v!r} "),
    st.sampled_from(("1\n", "\n2.5")),
)


def _chunk(cells, quote):
    """One CSV record as text; a cell with a comma, quote or newline is quoted."""
    out = []
    for cell, q in zip(cells, quote):
        if q or any(ch in cell for ch in ',"\n'):
            cell = '"' + cell.replace('"', '""') + '"'
        out.append(cell)
    return ",".join(out) + "\n"


def _clean_row(draw, kind, header):
    if kind == "contingency":
        cells = {"stratum": draw(st.sampled_from(("s1", "s2"))),
                 "group": draw(st.sampled_from(("a", "b"))),
                 "survived": str(draw(st.integers(0, 9))), "total": str(draw(st.integers(1, 12)))}
        return [cells[name] for name in header]
    return [repr(draw(st.floats(-100, 100))) for _ in header]


@st.composite
def csv_files(draw):
    """(header chunk, record chunks) of a random CSV file: clean rows with a few defects."""
    kind = draw(st.sampled_from(("numeric", "contingency", "any")))
    if kind == "contingency":
        header = list(draw(st.permutations(_CONTINGENCY_COLUMNS)))
    elif kind == "numeric":
        header = ["y"] + [f"x{j}" for j in range(draw(st.integers(0, 3)))]
    else:
        header = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=5))
    rows = [_clean_row(draw, kind, header) for _ in range(draw(st.integers(0, 12)))]
    for _ in range(draw(st.integers(0, 3))):
        defect = draw(st.sampled_from(("blank", "short", "long", "cell", "cell")))
        at = draw(st.integers(0, len(rows)))
        if defect == "blank" or not rows:
            rows.insert(at, [])
            continue
        row = rows[min(at, len(rows) - 1)]
        if defect == "short" and row:
            row.pop(draw(st.integers(0, len(row) - 1)))
        elif defect == "long":
            row.append(draw(_cells))
        elif row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_cells)
    chunks = [_chunk(row, draw(st.lists(st.booleans(), min_size=len(row), max_size=len(row))))
              if row else "\n" for row in rows]
    return _chunk(header, [False] * len(header)), chunks


# ---------------------------------------------------------------------------
# the comparison


def _outcome(read, path, *args):
    try:
        return "ok", read(path, *args)
    except (ValueError, NumericalError) as exc:
        return type(exc).__name__, str(exc)


def _records(text):
    """(line number, fields) of each record of `text`, blank ones included."""
    reader = csv.reader(text.splitlines(keepends=True))
    return [(reader.line_num, fields) for fields in reader]


def _expected(ref, path, header, chunks, *args):
    """What the new reader must give: the reference, amended by the declared rules."""
    names = next(csv.reader([header]))
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        return "ValueError", f"{path}: line 1: duplicate column name {repeated[0]!r}"
    path.write_text(header)
    outcome = _outcome(ref, path, *args)
    if not outcome[1].endswith("no data rows"):  # a header check failed
        return outcome
    records = _records(header + "".join(chunks))[1:]
    for k, (line, fields) in enumerate(records):
        if fields and len(fields) != len(names):
            # a row before this one may fail first
            path.write_text(header + "".join(chunks[:k]))
            outcome = _amend(_outcome(ref, path, *args), path, records)
            if outcome[0] == "ValueError" and re.search(r": line \d+: ", outcome[1]):
                return outcome
            return "ValueError", f"{path}: line {line}: expected {len(names)} fields"
    path.write_text(header + "".join(chunks))
    return _amend(_outcome(ref, path, *args), path, records)


def _amend(outcome, path, records):
    """The regression reader's "all values must be numeric" names its cell now."""
    match = outcome[0] == "ValueError" and re.fullmatch(
        rf"{re.escape(str(path))}: line (\d+): all values must be numeric", outcome[1])
    if not match:
        return outcome
    bad = next(cell for cell in dict(records)[int(match.group(1))] if not _is_number(cell))
    return "ValueError", f"{path}: line {match.group(1)}: could not parse {bad!r} as a number"


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _assert_same(new, expected):
    assert new[0] == expected[0], (new, expected)
    if new[0] != "ok":
        assert new[1] == expected[1]
        return
    got, want = new[1], expected[1]
    if isinstance(got, RegressionData):
        assert got.column_names == want.column_names
        pairs = [(got.X, want.X), (got.y, want.y)]
    elif isinstance(got, tuple):
        assert got[1] == want[1]
        pairs = [(got[0], want[0])]
    else:
        assert got == want
        pairs = []
    for a, b in pairs:
        assert a.flags.c_contiguous
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "input.csv"


@settings(max_examples=300)
@given(csv_files())
def test_reader_matches_the_dictreader_loops(csv_path, text):
    header, chunks = text
    checks = [
        (cli._read_contingency, _ref_read_contingency, ()),
        (cli._read_numeric_column, _ref_read_numeric_column, (None,)),
        (cli._read_numeric_column, _ref_read_numeric_column, ("y",)),
        (cli._read_regression, _ref_read_regression, ("y", True)),
        (cli._read_regression, _ref_read_regression, ("y", False)),
    ]
    for new, ref, args in checks:
        expected = _expected(ref, csv_path, header, chunks, *args)
        csv_path.write_text(header + "".join(chunks))
        _assert_same(_outcome(new, csv_path, *args), expected)


def test_empty_file_has_no_data_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    for read, args in ((cli._read_contingency, ()), (cli._read_numeric_column, (None,)),
                       (cli._read_regression, ("y", True))):
        with pytest.raises(ValueError, match="no data rows"):
            read(str(path), *args)
