"""Tests of table ingestion against a cell-by-cell reference reader."""

import csv
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opgd import cli
from opgd.cli import ingest_csv, main
from opgd.core import DataError, Dataset


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
    assert ing.dataset.label_names == label_names
    assert ing.feature_names == tuple(feature_names)
    np.testing.assert_array_equal(ing.groups, groups)
    assert ing.groups.dtype == groups.dtype


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_tables(), st.integers(1, 40))
def test_blocks_ending_anywhere_match_the_reference(text, block_chars):
    """Blocks of a few characters end at every kind of row, blank and
    quoted ones included; the table is the one the reference reads."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "_BLOCK_CHARS", block_chars):
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        X, labels, label_names, _, groups = _reference_ingest(path, "y", "g")
        ing = ingest_csv(path, label_column="y", group_column="g")
    np.testing.assert_array_equal(ing.dataset.X, X)
    np.testing.assert_array_equal(ing.dataset.labels, labels)
    assert ing.dataset.label_names == label_names
    np.testing.assert_array_equal(ing.groups, groups)


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


def _small_table(rows=40):
    """Lines of a table of ``rows`` short rows, a blank line after every
    fifth, and the file line numbers of its data rows."""
    lines, data_lines = ["a,b,y"], []
    for i in range(rows):
        lines.append(f"{i}.5,{i % 7},{i % 3 + 1}")
        data_lines.append(len(lines))
        if i % 5 == 4:
            lines.append("  " if i % 10 == 4 else "")
    return lines, data_lines


class TestBlocks:
    """Tables read in blocks of about 30 characters, a few rows each."""

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_CHARS", 30)

    def test_fault_on_the_first_row_of_a_later_block_names_its_line(
            self, tmp_path, monkeypatch):
        """A bad cell on any row, the first row of a later block
        included, is named by its file line, blank rows counted."""
        starts = []
        name_fault = cli._name_fault

        def recording(path, delim, header, feature_idx, lines, lineno):
            starts.append(lineno)
            name_fault(path, delim, header, feature_idx, lines, lineno)

        monkeypatch.setattr(cli, "_name_fault", recording)
        lines, data_lines = _small_table()
        at_block_start = 0
        for line in data_lines:
            bad = list(lines)
            bad[line - 1] = bad[line - 1].replace(",", ",x", 1)
            p = _write(tmp_path / "d.csv", "\n".join(bad) + "\n")
            with pytest.raises(DataError, match=f"at row {line}, column 'b'"):
                ingest_csv(p, label_column="y")
            at_block_start += starts[-1] == line > data_lines[0]
        assert at_block_start >= 3

    @pytest.mark.parametrize("eol", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_line_ends_across_blocks(self, tmp_path, eol):
        """``\\r`` and ``\\r\\n`` line ends read as ``\\n`` ones do, and a
        fault past the first block names the same line."""
        lines, data_lines = _small_table()
        want = ingest_csv(_write(tmp_path / "n.csv", "\n".join(lines) + "\n"),
                          label_column="y")
        p = tmp_path / "e.csv"
        p.write_bytes(eol.join(lines).encode() + eol.encode())
        got = ingest_csv(str(p), label_column="y")
        assert len(want.dataset.X) == len(data_lines)
        np.testing.assert_array_equal(got.dataset.X, want.dataset.X)
        np.testing.assert_array_equal(got.dataset.labels, want.dataset.labels)
        line = data_lines[-3]
        lines[line - 1] = lines[line - 1].replace(",", ",x", 1)
        p.write_bytes(eol.join(lines).encode())
        with pytest.raises(DataError, match=f"at row {line}, column 'b'"):
            ingest_csv(str(p), label_column="y")

    def test_more_rows_than_the_first_estimate(self, tmp_path):
        """Long rows open the table and short ones follow, so the rows
        per character of the first block undercount the table: the
        matrix grows in place to hold every row."""
        long_rows = [f"{i}.{'0' * 60},{i}" for i in range(4)]
        short_rows = [f"{i},{i}" for i in range(4, 400)]
        p = _write(tmp_path / "d.csv",
                   "\n".join(["a,b", *long_rows, *short_rows]) + "\n")
        X = ingest_csv(p).dataset.X
        np.testing.assert_array_equal(X, np.repeat(np.arange(400.0), 2)
                                      .reshape(400, 2))
        assert X.flags.c_contiguous and X.flags.owndata

    def test_quoted_field_left_open_at_the_end_of_a_block(self, tmp_path):
        """A row whose quoted field is not closed is named wherever the
        block ends, as a read of the whole table names it."""
        lines, data_lines = _small_table()
        for line in data_lines[:-1]:
            bad = list(lines)
            bad[line - 1] = bad[line - 1].rsplit(",", 1)[0] + ',"1'
            p = _write(tmp_path / "d.csv", "\n".join(bad) + "\n")
            with pytest.raises(DataError, match=f"row {line} has a quoted"):
                ingest_csv(p, label_column="y")


def test_perturbation_is_the_draw_of_the_whole_matrix(tmp_path, monkeypatch):
    """The noise, added in place a few rows at a time, is the draw of
    one matrix-sized sample, scaled by each column's sd."""
    rng = np.random.default_rng(8)
    X = rng.standard_normal((30, 3)) * [1.0, 10.0, 0.1]
    p = _write(tmp_path / "d.csv", "a,b,c\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in X.tolist()))
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    got = ingest_csv(p, perturb_sd=0.1, seed=5).dataset.X
    noise = np.random.default_rng(5).standard_normal(X.shape)
    np.testing.assert_array_equal(got, X + noise * (0.1 * X.std(axis=0)))


def test_dataset_adopts_the_ingested_matrix(tmp_path, monkeypatch):
    """The matrix ingest fills is the dataset's: no copy is made."""
    handed = []

    def recording(X, labels=None, label_names=None):
        handed.append(X)
        return Dataset(X, labels, label_names)

    monkeypatch.setattr(cli, "Dataset", recording)
    p = _write(tmp_path / "d.csv", "a,b,y\n1,2,1\n3,4,2\n5,6,1\n")
    ing = ingest_csv(p, label_column="y")
    assert np.shares_memory(ing.dataset.X, handed[0])
    assert ing.dataset.X is handed[0] and not ing.dataset.X.flags.writeable


@pytest.fixture(scope="module")
def wide_table(tmp_path_factory):
    """A 20,000 x 60 table with a label column, and its matrix."""
    rng = np.random.default_rng(4)
    X = rng.standard_normal((20000, 60))
    y = rng.integers(1, 6, size=20000)
    path = tmp_path_factory.mktemp("wide") / "d.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"x{j}" for j in range(60)] + ["y"]) + "\n")
        np.savetxt(fh, np.column_stack([X, y]), fmt="%.17g", delimiter=",")
    return str(path), X


@pytest.mark.parametrize("drop_constant", [False, True],
                         ids=["plain", "drop-constant"])
def test_peak_memory_is_the_matrix_and_one_block(wide_table, drop_constant):
    """Row blocks are parsed into the final matrix and the dataset
    adopts it, so ingest holds one copy of the table; with
    ``drop_constant`` and no constant column there is still one."""
    path, X = wide_table
    tracemalloc.start()
    try:
        ing = ingest_csv(path, label_column="y", drop_constant=drop_constant)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(ing.dataset.X, X)
    assert peak <= 1.4 * ing.dataset.X.nbytes


def test_finiteness_check_adds_no_matrix_sized_array(wide_table):
    """The dataset checks its entries a block of rows at a time, so
    ingest of the wide table peaks near its one copy of the table, not
    at that copy plus an n x p bool array. A first labelled
    ``Dataset`` runs before tracing: numpy imports modules on its first
    ``unique``, and their code is not the table's."""
    path, X = wide_table
    Dataset(np.zeros((2, 1)), [1, 1])
    tracemalloc.start()
    try:
        ing = ingest_csv(path, label_column="y")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(ing.dataset.X, X)
    assert peak <= 1.1 * ing.dataset.X.nbytes
