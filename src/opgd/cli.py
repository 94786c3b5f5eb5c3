"""Command-line front end.

Commands: ``fit``, ``predict``, ``features``, ``cluster``, ``evaluate``,
``gradcheck``. Exit codes: 0 success, 2 configuration error, 3 data
error, 4 numerical failure.

Model files are versioned UTF-8 text, one record per line, fields
separated by tabs. The first line is the format version, then
``key<TAB>value`` lines, then array blocks introduced by
``field<TAB>name<TAB>ndim<TAB>dim1..`` followed by the rows flattened
to 2-d. Floats are written with ``repr`` (shortest round-trip), so
write -> read -> write is byte-identical. All writes go through a
temporary file and an atomic rename. Every artifact carries the
16-hex-digit id of the manifest that produced it; manifests themselves
contain only fields that are functions of the inputs, never wall-clock
time, so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import os
import re
import sys
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .classifier import LdaModel, OpgdModel, RdaModel, SaveModel, fit_opgd, \
    lda_fit, lda_predict, predict as opgd_predict, rda_fit, rda_predict, \
    save_fit, save_predict
from .clustering import ClusterConfig, GmmModel, enhance_gmm, fit_gmm_em, \
    gradient_check, hard_labels, pca_prefilter
from .core import NAMED_FAILURES, ConfigError, DataError, Dataset, \
    NumericalError, estimate_class_model, exit_code
from .evaluation import adjusted_rand_index, default_grid, grid_search, \
    make_folds, make_split, misclassification_error, \
    normalized_mutual_information
from .objective import RidgeWarning
from .optimizer import OptimConfig

FORMAT_VERSION = "opgd-model-v1"
MANIFEST_VERSION = "opgd-manifest-v1"
# tables are formatted and written this many rows at a time
_BLOCK_ROWS = 4096
# ingest parses a table in blocks of about this many characters of text
_BLOCK_CHARS = 1 << 16


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_rows(A):
    """The ``repr`` of every entry of a 2-d array, row by row, formatted
    :data:`_BLOCK_ROWS` rows at a time."""
    A = np.asarray(A, dtype=float)
    for lo in range(0, len(A), _BLOCK_ROWS):
        for row in A[lo:lo + _BLOCK_ROWS].tolist():
            yield list(map(repr, row))


def _atomic_write(path: str, text):
    """Write ``text``, a string or an iterable of string chunks, to
    ``path`` through a temporary file in the same directory; an
    unwritable path is a ``ConfigError`` naming it."""
    chunks = (text,) if isinstance(text, str) else text
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".opgd-tmp-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Ingestion

@dataclass(frozen=True)
class IngestResult:
    dataset: Dataset
    feature_names: tuple[str, ...]
    dropped_columns: tuple[str, ...]
    groups: np.ndarray | None         # raw group keys, aligned with rows


_DELIMITERS = ("\t", ",", ";")
# a character that is not whitespace, a quote or the delimiter
_CONTENT = {d: re.compile(f'[^\\s"{re.escape(d)}]').search
            for d in _DELIMITERS}


def _sniff_delimiter(header_line: str) -> str:
    counts = {d: header_line.count(d) for d in _DELIMITERS}
    return max(counts, key=counts.get) if max(counts.values()) else ","


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path``, newlines translated to ``\\n``; a file
    that cannot be opened or decoded is a ``DataError`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _cells(path: str, line: str, lineno: int, delim: str) -> list[str]:
    """The cells of ``line``, line ``lineno`` of the file, as ``csv``
    splits them; a quoted field left open at the end of the line is a
    ``DataError``."""
    reader = csv.reader((line, ""), delimiter=delim)
    cells = next(reader)
    if reader.line_num > 1:
        raise DataError(f"{path}: row {lineno} has a quoted field that is "
                        "not closed on its line")
    return cells


def _is_data_row(line: str, delim: str) -> bool:
    """Whether ``line``, a line after the header with or without its
    line end, has a cell that is not whitespace. Only a line made of
    whitespace, delimiters and quotes needs ``csv`` to decide."""
    return bool(_CONTENT[delim](line)) or any(
        c.strip() for c in next(csv.reader([line], delimiter=delim), []))


def _is_number(cell: str) -> bool:
    """Whether numpy's text reader takes ``cell`` as a float: ``float``
    syntax once surrounding whitespace is stripped, in ASCII, without
    ``_`` separators."""
    s = cell.strip()
    if not s.isascii() or "_" in s:
        return False
    try:
        float(s)
    except ValueError:
        return False
    return True


def _name_fault(path: str, delim: str, header: list[str],
                feature_idx: list[int], lines: list[str], lineno: int):
    """Raise the ``DataError`` for the first faulty row of a block the
    table reader rejected: an open quoted field, a ragged row, or a cell
    that is not a number, with its file line number and column.
    ``lines`` are the block's lines, the first being line ``lineno``."""
    for i, line in enumerate(lines, lineno):
        line = line.rstrip("\n")
        if not _is_data_row(line, delim):
            continue
        row = _cells(path, line, i, delim)
        if len(row) != len(header):
            raise DataError(f"{path}: row {i} has {len(row)} fields, "
                            f"expected {len(header)}")
        for j in feature_idx:
            if not _is_number(row[j]):
                raise DataError(f"{path}: non-numeric value {row[j]!r} at "
                                f"row {i}, column {header[j]!r}")
    raise DataError(f"{path}: the table could not be parsed")


def _column(path: str, header: list[str], name: str, missing) -> int:
    """The index of the one column of ``header`` called ``name``. A name
    the header lacks is a ``missing`` error, one it holds more than once
    a ``DataError``; either names the column."""
    if name not in header:
        raise missing(f"{path}: no column named {name!r} "
                      f"(columns: {', '.join(header)})")
    if header.count(name) > 1:
        raise DataError(f"{path}: the header holds {name!r} more than once")
    return header.index(name)


def _row_blocks(fh, delim: str, lines: list[str]):
    """The data rows left in ``fh``, in blocks of about
    :data:`_BLOCK_CHARS` characters of text, as ``(rows, lines, lineno,
    chars)``: the data rows, every line of the block (blank ones too),
    the file line number of the block's first line and the characters
    read up to its end. ``lines``, the lines already read after the
    header, open the first block. A block does not end on a row with an
    odd number of quotes, as a row whose quoted field is left open has:
    that row meets the next one, as it would in one read of the whole
    table."""
    lineno, chars = 2, 0
    while True:
        lines += fh.readlines(_BLOCK_CHARS)
        rows = [ln for ln in lines if _is_data_row(ln, delim)]
        if rows and rows[-1].count('"') % 2:
            for line in iter(fh.readline, ""):
                lines.append(line)
                if _is_data_row(line, delim):
                    rows.append(line)
                    break
        if not lines:
            return
        chars += sum(map(len, lines))
        if rows:
            yield rows, lines, lineno, chars
        lineno += len(lines)
        lines = []


def ingest_csv(path: str, label_column: str | None = None,
               perturb_sd: float = 0.0, drop_constant: bool = False,
               seed: int = 0, group_column: str | None = None,
               feature_columns: tuple[str, ...] | None = None
               ) -> IngestResult:
    """Load a delimited numeric table with a header row.

    The text is UTF-8 with ``"`` quoting and no field spanning lines;
    rows whose cells are all whitespace are skipped. The header and the
    first data row are read and the columns checked first; then the
    data rows are read in blocks of about :data:`_BLOCK_CHARS`
    characters, each parsed by numpy's C reader and its feature columns
    copied into one C-contiguous matrix. The matrix is sized from the
    file's length and the rows per character read so far, grown in
    place when the estimate falls short and cut to the rows read at the
    end. The reader never holds the file's text: at its peak it holds
    the matrix and one block, and the dataset adopts the matrix without
    a copy.

    The label column (when named) is mapped to contiguous class ids
    1..K, numerically when every value parses as a number, otherwise
    lexically; the dataset keeps the original text of each as the name
    of its class. The feature columns are the others or, when
    ``feature_columns`` names them, those columns in that order, matched
    by name: a missing one is a ``DataError`` naming it, and the columns
    left over are not parsed. A column looked up by name (label, group
    or feature) must occur once in the header, and ``feature_columns``
    must name each column once; either fault is a ``DataError`` naming
    the column. Constant feature columns are dropped when requested,
    then an optional i.i.d. Gaussian perturbation with per-column sd
    ``perturb_sd * column_sd`` is added in place using ``seed``. Faults
    name the file line number: a block the reader rejects is searched
    for the row at fault.
    """
    if not (np.isfinite(perturb_sd) and perturb_sd >= 0):
        raise ConfigError("perturb sd fraction must be a finite non-negative "
                          f"number, got {perturb_sd!r}")
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n")
            if not first.strip():
                raise DataError(f"{path}: empty file")
            delim = _sniff_delimiter(first)
            header = [h.strip() for h in _cells(path, first, 1, delim)]
            lines = []
            for line in iter(fh.readline, ""):
                lines.append(line)
                if _is_data_row(line, delim):
                    break
            else:
                raise DataError(f"{path}: no data rows")

            special = {role: _column(path, header, name, ConfigError)
                       for role, name in (("label", label_column),
                                          ("group", group_column))
                       if name is not None}
            if feature_columns is None:
                feature_idx = [j for j in range(len(header))
                               if j not in special.values()]
            else:
                feature_idx = [_column(path, header, nm, DataError)
                               for nm in feature_columns]
                ordered = sorted(feature_columns)
                twice = [a for a, b in zip(ordered, ordered[1:]) if a == b]
                if twice:
                    raise DataError(f"{path}: the feature columns name "
                                    f"{twice[0]!r} twice")

            # label and group cells become first-seen codes of their
            # stripped text; cells of unused columns are not parsed
            codes = {j: {} for j in special.values()}
            unused = set(range(len(header))) - set(feature_idx)
            converters = {j: (lambda s: 0.0) for j in unused}
            converters.update({
                j: (lambda s, seen=seen: seen.setdefault(s.strip(), len(seen)))
                for j, seen in codes.items()})
            size = os.fstat(fh.fileno()).st_size
            X = np.empty((0, len(feature_idx)))
            code_cols = {role: [] for role in special}
            n = 0
            for rows, block, lineno, chars in _row_blocks(fh, delim, lines):
                try:
                    A = np.loadtxt(rows, delimiter=delim, comments=None,
                                   quotechar='"', dtype=float, ndmin=2,
                                   converters=converters)
                except ValueError:
                    A = None
                if A is None or A.shape != (len(rows), len(header)):
                    _name_fault(path, delim, header, feature_idx, block,
                                lineno)
                end = n + len(A)
                if end > len(X):
                    # grow in place to the rows the file holds at the rate
                    # read so far; rows the estimate adds beyond the last
                    # are cut at the end. No view of X is alive here.
                    X.resize((max(end, -(-end * size // chars)), X.shape[1]),
                             refcheck=False)
                np.take(A, feature_idx, axis=1, out=X[n:end])
                for role, j in special.items():
                    code_cols[role].append(A[:, j].astype(int))
                n = end
            X.resize((n, X.shape[1]), refcheck=False)
    except UnicodeDecodeError:      # a byte anywhere in the file
        _read_text(path)            # raises the DataError naming the file
        raise
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    code_cols = {role: np.concatenate(c) for role, c in code_cols.items()}

    feature_names = [header[j] for j in feature_idx]
    dropped: tuple[str, ...] = ()
    if drop_constant:
        varies = X.max(axis=0) > X.min(axis=0)
        if not varies.all():
            dropped = tuple(nm for nm, v in zip(feature_names, varies)
                            if not v)
            X = X.compress(varies, axis=1)
            feature_names = [nm for nm, v in zip(feature_names, varies) if v]
    if X.shape[1] == 0:
        raise DataError(f"{path}: no feature columns remain")
    if perturb_sd > 0:
        rng = np.random.default_rng(seed)
        scale = perturb_sd * X.std(axis=0)
        for lo in range(0, len(X), _BLOCK_ROWS):
            noise = rng.standard_normal(X[lo:lo + _BLOCK_ROWS].shape)
            noise *= scale
            X[lo:lo + _BLOCK_ROWS] += noise
    X.setflags(write=False)

    labels = label_names = None
    if "label" in special:
        raw = list(codes[special["label"]])
        try:
            values = [float(s) for s in raw]
        except ValueError:
            values = raw
        first_name = {}
        for v, s in zip(values, raw):
            first_name.setdefault(v, s)
        keys = sorted(first_name)
        label_names = tuple(first_name[k] for k in keys)
        ids = {k: c + 1 for c, k in enumerate(keys)}
        lut = np.array([ids[v] for v in values], dtype=int)
        labels = lut[code_cols["label"]]

    groups = None
    if "group" in special:
        groups = np.array(list(codes[special["group"]]))[code_cols["group"]]

    return IngestResult(dataset=Dataset(X, labels, label_names=label_names),
                        feature_names=tuple(feature_names),
                        dropped_columns=dropped,
                        groups=groups)


# ---------------------------------------------------------------------------
# Manifests

@dataclass(frozen=True)
class RunManifest:
    command: str
    data_path: str
    params: tuple          # ((key, value-string), ...) sorted by key
    seed: int
    version: str

    def semantic_lines(self) -> list[str]:
        lines = [MANIFEST_VERSION,
                 f"version\t{self.version}",
                 f"command\t{self.command}",
                 f"data\t{self.data_path}",
                 f"seed\t{self.seed}"]
        lines += [f"param\t{k}\t{v}" for k, v in self.params]
        return lines

    @property
    def manifest_id(self) -> str:
        text = "\n".join(self.semantic_lines())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def make_manifest(command: str, data_path: str, seed: int,
                  **params) -> RunManifest:
    items = tuple(sorted((k, str(v)) for k, v in params.items()
                         if v is not None))
    return RunManifest(command=command, data_path=data_path, params=items,
                       seed=seed, version=f"opgd-{__version__}")


def write_manifest(manifest: RunManifest, path: str):
    lines = manifest.semantic_lines() + [f"id\t{manifest.manifest_id}"]
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Model serialization

# type tag -> (class, scalar fields, array fields with their axes, has
# label names). Each axis letter has one length in a file: K classes or
# components (as many as the label names), p inputs, d projected ones.
_MODEL_SPECS = {
    "opgd": (OpgdModel, (), {"projection": "pd", "projected_means": "Kd",
                             "projected_vars": "Kd", "priors": "K"}, True),
    "lda": (LdaModel, (), {"projection": "pd", "means": "Kd",
                           "covariance": "dd", "priors": "K"}, True),
    "save": (SaveModel, (), {"projection": "pd", "means": "Kd",
                             "covariances": "Kdd", "priors": "K"}, True),
    "rda": (RdaModel, ("alpha",), {"means": "Kp", "covariances": "Kpp",
                                   "priors": "K"}, True),
    "gmm": (GmmModel, (), {"weights": "K", "means": "Kp",
                           "covariances": "Kpp"}, False),
}
_TYPE_OF = {cls: tag for tag, (cls, *_rest) in _MODEL_SPECS.items()}
_AXIS_NAMES = {"K": "classes", "p": "input columns",
               "d": "projected coordinates"}


def serialize_model(model, manifest_id: str = "") -> str:
    tag = _TYPE_OF.get(type(model))
    if tag is None:
        raise ConfigError(f"cannot serialize {type(model).__name__}")
    _, scalars, arrays, has_labels = _MODEL_SPECS[tag]
    lines = [FORMAT_VERSION, f"type\t{tag}", f"manifest\t{manifest_id}"]
    if has_labels:
        bad = [nm for nm in model.label_names if set(nm) & set("\t\n\r")]
        if bad:
            raise DataError(f"label name {bad[0]!r} holds a tab or line "
                            "break, which a model file cannot store")
        lines.append("labels\t" + "\t".join(model.label_names))
    for name in scalars:
        lines.append(f"scalar\t{name}\t{_fmt(getattr(model, name))}")
    for name in arrays:
        A = np.asarray(getattr(model, name), dtype=float)
        dims = "\t".join(str(d) for d in A.shape)
        lines.append(f"field\t{name}\t{A.ndim}\t{dims}")
        flat = A.reshape(-1, A.shape[-1]) if A.ndim > 1 else A.reshape(1, -1)
        lines += ["\t".join(row) for row in _fmt_rows(flat)]
    return "\n".join(lines) + "\n"


def _finite(name: str, value):
    """``value``, unless it holds a non-finite entry: then a
    ``DataError`` naming the model field."""
    if not np.all(np.isfinite(value)):
        raise DataError(f"model field {name!r} holds non-finite values")
    return value


def _check_shapes(arrays: dict, axes: dict, label_names):
    """Raise a ``DataError`` unless every array in ``arrays`` has the
    axes ``axes`` gives its field, each axis letter one length
    throughout, ``K`` the count of ``label_names`` when given."""
    seen = {}
    if label_names is not None:
        seen["K"] = (len(label_names), "the labels line")
    for name, letters in axes.items():
        shape = arrays[name].shape
        if len(shape) != len(letters):
            raise DataError(f"model field {name!r} has {len(shape)} axes, "
                            f"expected {len(letters)}")
        for letter, size in zip(letters, shape):
            known, source = seen.setdefault(letter, (size, f"field {name!r}"))
            if size != known:
                raise DataError(
                    f"model field {name!r} has {size} "
                    f"{_AXIS_NAMES[letter]}, but {source} has {known}")


def parse_model(text: str):
    """Inverse of :func:`serialize_model`; returns (model, manifest id).
    A malformed file, or one whose fields disagree in shape with one
    another or with the labels line, is a ``DataError``."""
    lines = text.removesuffix("\n").split("\n")
    if lines[0] != FORMAT_VERSION:
        raise DataError(f"not a {FORMAT_VERSION} model file")
    kv = {}
    label_names = None
    fields = {}
    i = 1
    try:
        while i < len(lines):
            parts = lines[i].split("\t")
            key = parts[0]
            if key == "labels":
                label_names = tuple(parts[1:])
            elif key == "scalar":
                fields[parts[1]] = _finite(parts[1], float(parts[2]))
            elif key == "field":
                name, ndim = parts[1], int(parts[2])
                shape = tuple(int(d) for d in parts[3:3 + ndim])
                nrows = 1 if ndim == 1 else int(np.prod(shape[:-1]))
                block = lines[i + 1:i + 1 + nrows]
                if len(block) != nrows:
                    raise DataError(f"truncated array block for {name!r}")
                try:
                    fields[name] = _finite(name, np.array(
                        [[float(v) for v in r.split("\t")] for r in block]
                    ).reshape(shape))
                except ValueError as exc:
                    raise DataError(f"malformed array block for {name!r}: "
                                    f"{exc}") from exc
                i += nrows
            else:
                kv[key] = parts[1] if len(parts) > 1 else ""
            i += 1
    except (ValueError, IndexError) as exc:
        raise DataError(f"malformed model file at line {i + 1}: {exc}") \
            from exc
    tag = kv.pop("type", None)
    if tag not in _MODEL_SPECS:
        raise DataError(f"unknown model type {tag!r}")
    cls, scalars, axes, has_labels = _MODEL_SPECS[tag]
    missing = [f for f in (*scalars, *axes) if f not in fields]
    if missing:
        raise DataError(f"model file is missing fields: {missing}")
    if has_labels and label_names is None:
        raise DataError("model file is missing the labels line")
    _check_shapes(fields, axes, label_names if has_labels else None)
    kwargs = {name: fields[name] for name in (*scalars, *axes)}
    if has_labels:
        kwargs["label_names"] = label_names
    return cls(**kwargs), kv.get("manifest", "")


_PREDICTORS = {"opgd": opgd_predict, "lda": lda_predict,
               "rda": rda_predict, "save": save_predict}


def _read_model(path: str):
    """:func:`parse_model` on the file at ``path``; an unreadable file is
    a ``DataError`` naming it."""
    return parse_model(_read_text(path))


def _model_predict(model, X):
    return _PREDICTORS[_TYPE_OF[type(model)]](model, X)


# ---------------------------------------------------------------------------
# Tables

def _write_table(path: str, manifest_id: str, header: list[str], rows):
    """Write a tab-separated table under its manifest line. ``rows``, an
    iterable of cell lists, is joined and written :data:`_BLOCK_ROWS`
    rows at a time, each row joined as it is read, so a lazy ``rows`` is
    never held whole and a block is held only as its row strings."""
    def chunks():
        yield f"# manifest\t{manifest_id}\n" + "\t".join(header) + "\n"
        it = iter(rows)
        while block := "".join("\t".join(r) + "\n" for r in
                               itertools.islice(it, _BLOCK_ROWS)):
            yield block
    _atomic_write(path, chunks())


def _write_coordinates(path: str, manifest_id: str, Z, tag: str, tags):
    """The coordinates table: columns ``v1 .. vd`` holding each row of
    ``Z``, then the ``tag`` column holding that row's entry of the
    iterable ``tags``; its rows are formed as they are written."""
    _write_table(path, manifest_id,
                 [f"v{j + 1}" for j in range(Z.shape[1])] + [tag],
                 (zrow + [t] for zrow, t in zip(_fmt_rows(Z), tags)))


def _write_projection(path: str, manifest_id: str, feature_names, V):
    """The ``.projection`` sidecar: a ``feature`` column naming each
    input column, then that column's row of ``V``."""
    _write_table(path, manifest_id,
                 ["feature"] + [f"v{j + 1}" for j in range(V.shape[1])],
                 ([name] + vrow
                  for name, vrow in zip(feature_names, _fmt_rows(V))))


# ---------------------------------------------------------------------------
# Commands

def _ingest(args, group_column: str | None = None):
    """The ascent settings from the flags, :func:`ingest_csv` on
    ``--data`` with the ingest flags, and the ingest and ascent manifest
    params, for the commands that take those flags. The settings are
    built first, whatever the method, so a bad ``--epsilon`` is refused
    before any work and never reaches a manifest."""
    opt = OptimConfig(max_iters=args.max_iters, epsilon_init=args.epsilon)
    ing = ingest_csv(args.data, label_column=args.labels,
                     perturb_sd=args.perturb, drop_constant=args.drop_constant,
                     seed=args.seed, group_column=group_column)
    params = dict(labels=args.labels, epsilon=args.epsilon,
                  max_iters=args.max_iters, perturb=args.perturb,
                  drop_constant=args.drop_constant,
                  dropped=",".join(ing.dropped_columns) or None)
    return opt, ing, params


def _fit_model(args, ing, opt: OptimConfig):
    """The ``--method`` model fitted to the ingested table."""
    ds = ing.dataset
    if args.method == "opgd":
        return fit_opgd(ds, args.dim, opt)
    if args.method == "lda":
        return lda_fit(ds, args.dim)
    if args.method == "save":
        return save_fit(ds, args.dim)
    return rda_fit(ds, args.alpha)


def cmd_fit(args) -> int:
    opt, ing, params = _ingest(args)
    if ing.dataset.labels is None:
        raise ConfigError("fit requires --labels")
    manifest = make_manifest("fit", args.data, args.seed, method=args.method,
                             dim=args.dim, alpha=args.alpha, **params)
    model = _fit_model(args, ing, opt)
    pred, _ = _model_predict(model, ing.dataset.X)
    err = misclassification_error(pred, ing.dataset.labels)
    _atomic_write(args.out, serialize_model(model, manifest.manifest_id))
    write_manifest(manifest, args.out + ".manifest")
    print(f"manifest\t{manifest.manifest_id}")
    print(f"training_error\t{_fmt(err)}")
    return 0


def cmd_predict(args) -> int:
    model, _source_id = _read_model(args.model)
    if _TYPE_OF[type(model)] not in _PREDICTORS:
        raise ConfigError(f"{args.model} is not a classifier model file")
    ing = ingest_csv(args.data, label_column=args.labels, seed=args.seed)
    manifest = make_manifest("predict", args.data, args.seed,
                             model=args.model, labels=args.labels)
    if ing.dataset.p != model.p:
        raise DataError(f"{args.data} has {ing.dataset.p} feature columns, "
                        f"the model was fitted on {model.p}")
    pred, post = _model_predict(model, ing.dataset.X)
    names = model.label_names
    header = ["label"] + [f"p_{nm}" for nm in names]
    rows = ([names[lab - 1]] + prow
            for lab, prow in zip(pred.tolist(), _fmt_rows(post)))
    _write_table(args.out, manifest.manifest_id, header, rows)
    write_manifest(manifest, args.out + ".manifest")
    print(f"manifest\t{manifest.manifest_id}")
    if ing.dataset.labels is not None:
        truth = [ing.dataset.label_names[t - 1]
                 for t in ing.dataset.labels.tolist()]
        err = misclassification_error(
            [names[lab - 1] for lab in pred.tolist()], truth)
        print(f"test_error\t{_fmt(err)}")
    return 0


def cmd_features(args) -> int:
    opt, ing, params = _ingest(args)
    if ing.dataset.labels is None:
        raise ConfigError("features requires --labels")
    manifest = make_manifest("features", args.data, args.seed,
                             method=args.method, dim=args.dim, **params)
    V = _fit_model(args, ing, opt).projection
    _write_coordinates(args.out, manifest.manifest_id, ing.dataset.X @ V,
                       "label", (ing.dataset.label_names[t - 1]
                                 for t in ing.dataset.labels.tolist()))
    _write_projection(args.out + ".projection", manifest.manifest_id,
                      ing.feature_names, V)
    write_manifest(manifest, args.out + ".manifest")
    print(f"manifest\t{manifest.manifest_id}")
    return 0


def cmd_cluster(args) -> int:
    opt, ing, params = _ingest(args)
    X = ing.dataset.X
    if not np.any(X.max(axis=0) > X.min(axis=0)):
        raise DataError("no column varies: every row is the same point, so "
                        "there is nothing to cluster")
    gmm = None
    if args.init_gmm:
        gmm, _ = _read_model(args.init_gmm)
        if not isinstance(gmm, GmmModel):
            raise ConfigError(f"{args.init_gmm} is not a gmm model file")
        if gmm.K != args.clusters:
            raise ConfigError(f"--clusters {args.clusters} disagrees with "
                              f"{args.init_gmm}, which has {gmm.K} "
                              "components")
    manifest = make_manifest(
        "cluster", args.data, args.seed, clusters=args.clusters, dim=args.dim,
        lam=args.lam, pca_threshold=args.pca_threshold,
        init_gmm=args.init_gmm, **params)
    basis = None
    if args.pca_threshold is not None:
        X, basis = pca_prefilter(X, args.pca_threshold)
    cc = ClusterConfig(lam=args.lam, seed=args.seed)
    if gmm is None:
        gmm = fit_gmm_em(X, args.clusters, cc)
    elif gmm.p != X.shape[1]:
        raise DataError(f"initial mixture has {gmm.p} dims, data has "
                        f"{X.shape[1]} (after any pre-filter)")
    # the initial mixture's labels feed only the .metrics against --labels
    truth = ing.dataset.labels
    initial_labels = hard_labels(X, gmm) if truth is not None else None
    V, labels, _projected = enhance_gmm(X, gmm, args.dim, cc, opt)
    _write_table(args.out, manifest.manifest_id, ["cluster"],
                 [[str(c)] for c in labels])
    _write_coordinates(args.out + ".features", manifest.manifest_id, X @ V,
                       "cluster", map(str, labels.tolist()))
    _write_projection(args.out + ".projection", manifest.manifest_id,
                      ing.feature_names, V if basis is None else basis @ V)
    _atomic_write(args.out + ".gmm",
                  serialize_model(gmm, manifest.manifest_id))
    metric_rows = []
    if truth is not None:
        for tag, lab in (("initial", initial_labels), ("enhanced", labels)):
            ari = adjusted_rand_index(lab, truth)
            nmi = normalized_mutual_information(lab, truth)
            metric_rows += [[f"ari_{tag}", _fmt(ari)],
                            [f"ari_{tag}_x100", _fmt(100 * ari)],
                            [f"nmi_{tag}", _fmt(nmi)],
                            [f"nmi_{tag}_x100", _fmt(100 * nmi)]]
        _write_table(args.out + ".metrics", manifest.manifest_id,
                     ["metric", "value"], metric_rows)
    write_manifest(manifest, args.out + ".manifest")
    print(f"manifest\t{manifest.manifest_id}")
    for name, value in metric_rows:
        print(f"{name}\t{value}")
    return 0


def _parse_grid(text: str):
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--grid must be a comma list of numbers, "
                          f"got {text!r}") from None
    if not vals:
        raise ConfigError("empty --grid")
    return vals


def cmd_evaluate(args) -> int:
    for flag, value in (("--test", args.test), ("--group", args.group)):
        if value is not None and args.folds is None:
            raise ConfigError(f"{flag} needs --folds")
    opt, ing, params = _ingest(args, group_column=args.group)
    if ing.dataset.labels is None:
        raise ConfigError("evaluate requires --labels")
    train = ing.dataset
    manifest = make_manifest(
        "evaluate", args.data, args.seed, methods=args.method,
        grid=args.grid, folds=args.folds, split=args.split, test=args.test,
        group=args.group, **params)

    test_X = test_labels = None
    if args.folds is not None:
        plan = make_folds(train.n, args.folds, grouping=ing.groups,
                          seed=args.seed)
        if args.test:
            test_ing = ingest_csv(args.test, label_column=args.labels,
                                  perturb_sd=args.perturb, seed=args.seed,
                                  feature_columns=ing.feature_names)
            if test_ing.dataset.label_names != train.label_names:
                raise DataError("train and test label sets differ")
            test_X, test_labels = test_ing.dataset.X, test_ing.dataset.labels
    else:
        plan = make_split(train.n, args.split.split(","), seed=args.seed)
        test_X, test_labels = train.X[plan.test], train.labels[plan.test]

    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        raise ConfigError(f"--method names no method: {args.method!r}")
    model = estimate_class_model(train)
    rows = []
    for method in methods:
        grid = _parse_grid(args.grid) if args.grid \
            else default_grid(method, train.p, model.K)
        result = grid_search(method, grid, train, plan, opt_config=opt)
        chosen = [e for h, e in result.val_errors if h == result.best_hyper][0]
        test_err = ""
        if test_X is not None:
            pred = _model_predict(result.model, test_X)[0]
            test_err = _fmt(misclassification_error(pred, test_labels))
        rows.append([method, str(result.best_hyper), _fmt(chosen), test_err])
        for h, msg in result.failures:
            print(f"warning: {method} grid point {h} failed: {msg}",
                  file=sys.stderr)
    _write_table(args.out, manifest.manifest_id,
                 ["method", "hyper", "val_error", "test_error"], rows)
    write_manifest(manifest, args.out + ".manifest")
    print(f"manifest\t{manifest.manifest_id}")
    for row in rows:
        print("\t".join(row))
    return 0


def cmd_gradcheck(args) -> int:
    worst_sup, worst_clu = gradient_check(args.trials, args.seed)
    lines = [f"supervised_max_rel_err\t{_fmt(worst_sup)}",
             f"clustering_max_rel_err\t{_fmt(worst_clu)}",
             f"tolerance\t{_fmt(1e-5)}"]
    report = "\n".join(lines)
    print(report)
    if args.out:
        manifest = make_manifest("gradcheck", "<builtin>", args.seed,
                                 trials=args.trials)
        _write_table(args.out, manifest.manifest_id, ["check", "value"],
                     [ln.split("\t") for ln in lines])
    if worst_sup >= 1e-5 or worst_clu >= 1e-5:
        raise NumericalError("gradient check failed: max relative error "
                             f"{max(worst_sup, worst_clu):.3e} >= 1e-5")
    return 0


# ---------------------------------------------------------------------------
# Parser

def _add_common(sp, *, data=True):
    if data:
        sp.add_argument("--data", required=True, help="input data file")
    sp.add_argument("--seed", type=int, default=0)


def _add_ingest(sp):
    sp.add_argument("--labels", default=None,
                    help="name of the label column")
    sp.add_argument("--perturb", type=float, default=0.0,
                    help="Gaussian perturbation sd as a fraction of each "
                         "column sd (0 disables; 1e-6 is conventional)")
    sp.add_argument("--drop-constant", action="store_true",
                    help="drop zero-variance feature columns")


def _add_opt(sp):
    sp.add_argument("--epsilon", type=float, default=OptimConfig.epsilon_init,
                    help="weight of the SAVE matrix in the warm start")
    sp.add_argument("--max-iters", type=int, default=500)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="opgd",
        description="Discriminative linear projections for Gaussian "
                    "classification and mixture-based clustering")
    sub = ap.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a classifier and write a model file")
    _add_common(fit)
    _add_ingest(fit)
    _add_opt(fit)
    fit.add_argument("--method", choices=("opgd", "lda", "rda", "save"),
                     default="opgd")
    fit.add_argument("--dim", type=int, default=2,
                     help="projection dimension (opgd/lda/save)")
    fit.add_argument("--alpha", type=float, default=1.0,
                     help="rda covariance blend in [0, 1]")
    fit.add_argument("--out", required=True, help="model file to write")
    fit.set_defaults(func=cmd_fit)

    pred = sub.add_parser("predict", help="label new data with a model file")
    _add_common(pred)
    pred.add_argument("--model", required=True)
    pred.add_argument("--labels", default=None,
                      help="label column for reporting the error")
    pred.add_argument("--out", required=True, help="labels/posteriors file")
    pred.set_defaults(func=cmd_predict)

    feat = sub.add_parser("features",
                          help="write projected coordinates for plotting")
    _add_common(feat)
    _add_ingest(feat)
    _add_opt(feat)
    feat.add_argument("--method", choices=("opgd", "lda", "save"),
                      default="opgd")
    feat.add_argument("--dim", type=int, default=2)
    feat.add_argument("--out", required=True)
    feat.set_defaults(func=cmd_features)

    clu = sub.add_parser("cluster", help="mixture fit plus projection "
                                         "enhancement")
    _add_common(clu)
    _add_ingest(clu)
    _add_opt(clu)
    clu.add_argument("--clusters", type=int, required=True,
                     help="number of mixture components")
    clu.add_argument("--dim", type=int, default=2)
    clu.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="orthonormality penalty weight (default: n)")
    clu.add_argument("--pca-threshold", type=float, default=None,
                     help="variance ratio for the collinearity pre-filter "
                          "(e.g. 0.999)")
    clu.add_argument("--init-gmm", default=None,
                     help="gmm model file to start from instead of EM; "
                     "it must hold --clusters components")
    clu.add_argument("--out", required=True)
    clu.set_defaults(func=cmd_cluster)

    ev = sub.add_parser("evaluate", help="hyper-parameter search and test "
                                         "error for one or more methods")
    _add_common(ev)
    _add_ingest(ev)
    _add_opt(ev)
    ev.add_argument("--method", default="opgd",
                    help="comma list from opgd,lda,rda,save")
    ev.add_argument("--grid", default=None,
                    help="comma list of hyper-parameter values (integer "
                         "dimensions, or rda blends)")
    ev.add_argument("--folds", type=int, default=None,
                    help="cross-validation fold count")
    ev.add_argument("--split", default="0.5,0.25,0.25",
                    help="train,val,test ratios when not using --folds")
    ev.add_argument("--group", default=None,
                    help="column whose groups must not span folds (needs "
                         "--folds)")
    ev.add_argument("--test", default=None,
                    help="separate test data file, its columns matched by "
                         "name (needs --folds)")
    ev.add_argument("--out", required=True, help="results table")
    ev.set_defaults(func=cmd_evaluate)

    gc = sub.add_parser("gradcheck", help="finite-difference self-test")
    _add_common(gc, data=False)
    gc.add_argument("--trials", type=int, default=100)
    gc.add_argument("--out", default=None, help="optional report file")
    gc.set_defaults(func=cmd_gradcheck)
    return ap


def _format_warning(message, category, filename, lineno, line=None):
    """One ``warning: <message>`` line, without the source location."""
    return f"warning: {message}\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    default_format = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        # entering resets which warnings were shown, so each run prints
        # a ridge warning once, however often it meets a singular
        # covariance, and whatever runs came before it in the process
        with warnings.catch_warnings():
            warnings.filterwarnings("default", category=RidgeWarning)
            return args.func(args)
    except NAMED_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(exc)
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
