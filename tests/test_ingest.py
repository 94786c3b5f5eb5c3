"""Tests of table ingestion against a cell-by-cell reference reader."""

import csv
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opgd.cli import ingest_csv, main
from opgd.core import DataError


def _reference_ingest(path, label_column=None, group_column=None):
    """The reader ``ingest_csv`` replaced: ``csv.reader`` rows and one
    ``float()`` per cell, with the same label and group rules. Returns
    ``(X, labels, label_names, feature_names, groups)``."""
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        counts = {d: first.count(d) for d in ("\t", ",", ";")}
        delim = max(counts, key=counts.get) if max(counts.values()) else ","
        fh.seek(0)
        rows = list(csv.reader(fh, delimiter=delim))
    header = [h.strip() for h in rows[0]]
    body = [r for r in rows[1:] if any(cell.strip() for cell in r)]
    special = {role: header.index(name)
               for role, name in (("label", label_column),
                                  ("group", group_column)) if name}
    feature_idx = [j for j in range(len(header)) if j not in special.values()]
    X = np.empty((len(body), len(feature_idx)))
    for i, row in enumerate(body):
        assert len(row) == len(header)
        for jj, j in enumerate(feature_idx):
            X[i, jj] = float(row[j])
    labels, label_names = None, ()
    if "label" in special:
        raw = [row[special["label"]].strip() for row in body]
        try:
            numeric = [float(v) for v in raw]
            keys = sorted(set(numeric))
            first_name = {}
            for v, s in zip(numeric, raw):
                first_name.setdefault(v, s)
            label_names = tuple(first_name[k] for k in keys)
            ids = {k: c + 1 for c, k in enumerate(keys)}
            labels = np.array([ids[v] for v in numeric], dtype=int)
        except ValueError:
            keys = sorted(set(raw))
            label_names = tuple(keys)
            ids = {k: c + 1 for c, k in enumerate(keys)}
            labels = np.array([ids[v] for v in raw], dtype=int)
    groups = None
    if "group" in special:
        groups = np.array([row[special["group"]].strip() for row in body])
    return X, labels, label_names, [header[j] for j in feature_idx], groups


def _spellings(x):
    """Ways a table may write the float ``x``."""
    return st.sampled_from([repr(x), f" {x!r} ", f'"{x!r}"', f"{x:.6e}",
                            f"{x:g}", f"{x:+.3f}", f"{x:.3E}"])


_NUMBER = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).flatmap(_spellings),
    st.sampled_from(["0", "-0", "+3", ".5", "5.", "1e3", "-2E-2", "007"]))
# 1 spelled four ways, so one class carries several spellings
_NUMERIC_LABEL = st.sampled_from(["1", "1.0", " 1 ", "1e0", "2", "2.0",
                                  "10", "-3", '"7"'])
_WORD = st.text(st.sampled_from("ab Z_-.,;\t\"x9"), min_size=0, max_size=6)


def _quoted(word):
    return '"' + word.replace('"', '""') + '"'


@st.composite
def _tables(draw):
    delim = draw(st.sampled_from([",", "\t", ";"]))
    n_features = draw(st.integers(1, 4))
    names = [f"x{j}" for j in range(n_features)]
    label_at = draw(st.integers(0, n_features))
    names.insert(label_at, "y")
    group_at = draw(st.integers(0, n_features + 1))
    names.insert(group_at, "g")
    numeric_labels = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        cells = [draw(_NUMBER) for _ in range(n_features)]
        label = draw(_NUMERIC_LABEL) if numeric_labels \
            else _quoted(draw(_WORD))
        cells.insert(label_at, label)
        cells.insert(group_at, _quoted(draw(_WORD)))
        rows.append(delim.join(cells))
    blanks = st.sampled_from(["", "   ", delim * len(names), '""',
                              f'" "{delim}\t'])
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(blanks))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join([delim.join(names)] + rows)
    if draw(st.booleans()):
        text += eol
    return text


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_tables())
def test_matches_cell_by_cell_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        X, labels, label_names, feature_names, groups = _reference_ingest(
            path, "y", "g")
        ing = ingest_csv(path, label_column="y", group_column="g")
    np.testing.assert_array_equal(ing.dataset.X, X)
    assert ing.dataset.X.dtype == np.float64
    assert ing.dataset.X.flags.c_contiguous
    np.testing.assert_array_equal(ing.dataset.labels, labels)
    assert ing.label_names == label_names
    assert ing.feature_names == tuple(feature_names)
    np.testing.assert_array_equal(ing.groups, groups)
    assert ing.groups.dtype == groups.dtype


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestFaults:
    @pytest.mark.parametrize("row, fields", [("1,2,3", 3), ("1", 1)])
    def test_ragged_row(self, tmp_path, row, fields):
        p = _write(tmp_path / "d.csv", f"a,b\n1,2\n{row}\n5,6\n")
        with pytest.raises(DataError,
                           match=f"row 3 has {fields} fields, expected 2"):
            ingest_csv(p)

    def test_every_row_wider_than_header(self, tmp_path):
        p = _write(tmp_path / "d.csv", "a,b\n1,2,3\n4,5,6\n")
        with pytest.raises(DataError, match="row 2 has 3 fields, expected 2"):
            ingest_csv(p)

    def test_label_column_missing_from_short_rows(self, tmp_path):
        p = _write(tmp_path / "d.csv", "a,b,y\n1,2\n3,4\n")
        with pytest.raises(DataError, match="row 2 has 2 fields, expected 3"):
            ingest_csv(p, label_column="y")

    @pytest.mark.parametrize("line", [2, 5])
    def test_bad_cell_in_first_and_last_row(self, tmp_path, line):
        rows = ["1,2", "3,4", "5,6", "7,8"]
        rows[line - 2] = "1,oops"
        p = _write(tmp_path / "d.csv", "a,b\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError,
                           match=f"'oops' at row {line}, column 'b'"):
            ingest_csv(p)

    def test_row_numbers_are_file_lines(self, tmp_path):
        """Blank rows above a fault count: the row is the file's line."""
        p = _write(tmp_path / "d.csv", "a,b\n\n1,2\n , \n\n3,x\n")
        with pytest.raises(DataError, match="'x' at row 6, column 'b'"):
            ingest_csv(p)
        p = _write(tmp_path / "e.csv", "a,b\n\n1,2\n\n3\n")
        with pytest.raises(DataError, match="row 5 has 1 fields"):
            ingest_csv(p)

    @pytest.mark.parametrize("cell", ["1_000", "١", "", " ", "0x10",
                                      "1d5"])
    def test_cell_numpy_rejects_is_named(self, tmp_path, cell):
        """``1_000`` and non-ASCII digits pass ``float()`` but not the
        table reader; the fault names them like any other bad cell."""
        p = _write(tmp_path / "d.csv", f"a,b,y\n1,2,1\n3,{cell},2\n")
        with pytest.raises(DataError,
                           match=f"{cell!r} at row 3, column 'b'"):
            ingest_csv(p, label_column="y")

    def test_quoted_field_spanning_lines(self, tmp_path):
        p = _write(tmp_path / "d.csv", 'a,y\n1,"x\n2",y\n3,z\n')
        with pytest.raises(DataError, match="row 2 has a quoted field"):
            ingest_csv(p, label_column="y")

    def test_header_only(self, tmp_path):
        p = _write(tmp_path / "d.csv", "a,b\n\n  \n")
        with pytest.raises(DataError, match="no data rows"):
            ingest_csv(p)

    def test_undecodable_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"a,b\n1,\xff\xfe\n")
        with pytest.raises(DataError, match=f"cannot read {p}"):
            ingest_csv(str(p))


def test_named_feature_columns(tmp_path):
    """``feature_columns`` takes those columns by name, in that order;
    the other columns are not parsed, but rows must still be whole."""
    p = _write(tmp_path / "d.csv",
               "g,b,y,note,a\ns1,2,1,x,1\ns2,4,2,,3\ns1,1,1,y z,5\n")
    ing = ingest_csv(p, label_column="y", feature_columns=("a", "b"))
    assert ing.feature_names == ("a", "b")
    np.testing.assert_array_equal(ing.dataset.X, [[1, 2], [3, 4], [5, 1]])
    np.testing.assert_array_equal(ing.dataset.labels, [1, 2, 1])
    with pytest.raises(DataError, match="no column named 'c'"):
        ingest_csv(p, label_column="y", feature_columns=("a", "c"))
    with pytest.raises(DataError, match="'x' at row 2, column 'note'"):
        ingest_csv(p, label_column="y", feature_columns=("a", "note"))
    q = _write(tmp_path / "e.csv", "a,note\n1,x\n2\n")
    with pytest.raises(DataError, match="row 3 has 1 fields, expected 2"):
        ingest_csv(q, feature_columns=("a",))


def test_drop_constant_keeps_x_c_contiguous(tmp_path):
    p = _write(tmp_path / "d.csv",
               "a,c,y,b,d\n1,7,1,2,0\n3,7,2,4,0\n5,7,1,1,0\n")
    ing = ingest_csv(p, label_column="y", drop_constant=True)
    assert ing.dropped_columns == ("c", "d")
    np.testing.assert_array_equal(ing.dataset.X, [[1, 2], [3, 4], [5, 1]])
    assert ing.dataset.X.flags.c_contiguous


def _undecodable_at_end(path, rows=12000):
    """A table of ``rows`` rows (over 64 KB at the default) whose last
    row holds a byte that is not UTF-8, so it lies past the first chunk
    the reader decodes."""
    body = "".join(f"{i},{i % 3 + 1}\n" for i in range(rows))
    path.write_bytes(b"a,y\n" + body.encode() + b"7,\xff\n")
    assert path.stat().st_size > 64 * 1024
    return str(path)


def test_undecodable_last_row_of_a_large_table_exits_3(tmp_path, capsys):
    p = _undecodable_at_end(tmp_path / "bad.csv")
    rc = main(["fit", "--data", p, "--labels", "y",
               "--out", str(tmp_path / "m.opgd")])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"error: cannot read {p}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.opgd").exists()


def test_missing_label_column_is_named_before_rows_are_decoded(tmp_path,
                                                                capsys):
    """The header is checked before the data rows past the first
    decoded chunk are read, so a missing ``--labels`` column is a
    configuration error even when a later row cannot be decoded."""
    p = _undecodable_at_end(tmp_path / "bad.csv")
    rc = main(["fit", "--data", p, "--labels", "label",
               "--out", str(tmp_path / "m.opgd")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no column named 'label'" in err
    assert "Traceback" not in err


def test_peak_memory_is_a_small_multiple_of_the_matrix(tmp_path):
    """The rows are streamed from the file: the reader holds no copy of
    the text, only the parsed table and its feature columns."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5000, 40))
    y = rng.integers(1, 4, size=5000)
    lines = [",".join([f"x{j}" for j in range(40)] + ["y"])]
    lines += [",".join(map(repr, row)) + f",{lab}"
              for row, lab in zip(X.tolist(), y.tolist())]
    p = _write(tmp_path / "d.csv", "\n".join(lines) + "\n")
    del lines
    tracemalloc.start()
    try:
        ing = ingest_csv(p, label_column="y")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(ing.dataset.X, X)
    assert peak <= 3.5 * ing.dataset.X.nbytes


def test_undecodable_data_exits_3(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_bytes(b"a,y\n1,1\n2,\xff\xfe\n")
    rc = main(["fit", "--data", str(p), "--labels", "y",
               "--out", str(tmp_path / "m.opgd")])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"error: cannot read {p}" in err
    assert "Traceback" not in err
