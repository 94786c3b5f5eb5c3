"""Correctness checks on what each CLI call wrote, and the quality
figures read from it.

Each ``check_*`` returns a list of problems; an empty list means the
call's outputs are correct. They read the files the way a user would,
through the program's own parser where there is one, and never call the
code they check to produce the expected value.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os

import numpy as np

from opgd.classifier import OpgdModel, predict
from opgd.cli import parse_model, serialize_model
from opgd.clustering import GmmModel

POSTERIOR_TOL = 1e-9


def digest(directory: str) -> tuple[str, int]:
    """sha256 over every file of ``directory`` (names and bytes), and the
    total size in bytes."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data + b"\0")
        size += len(data)
    return h.hexdigest(), size


def truth_labels(csv_path: str) -> list[str]:
    """The last column (``y``) of a generated CSV, as written."""
    with open(csv_path, encoding="utf-8") as fh:
        next(fh)
        return [line.rstrip("\n").rsplit(",", 1)[1] for line in fh]


def stdout_values(stdout: str) -> dict:
    """``key<TAB>value`` lines the CLI printed."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split("\t")
        if len(parts) == 2:
            out[parts[0]] = parts[1]
    return out


def _in_unit_interval(text) -> bool:
    try:
        v = float(text)
    except (TypeError, ValueError):
        return False
    return math.isfinite(v) and 0.0 <= v <= 1.0


def _read_table(path: str):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# manifest\t"):
        raise ValueError(f"{os.path.basename(path)}: no manifest line")
    return lines[1].split("\t"), [ln.split("\t") for ln in lines[2:]]


def _round_trip(path: str, kind):
    """Problems with a model file that does not parse, or that does not
    re-serialize to the same bytes."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        model, manifest_id = parse_model(text)
    except Exception as exc:  # any parse failure is a finding, not a crash
        return [f"{os.path.basename(path)} does not parse: {exc}"], None
    problems = []
    if not isinstance(model, kind):
        problems.append(f"{os.path.basename(path)} holds a "
                        f"{type(model).__name__}")
    elif serialize_model(model, manifest_id) != text:
        problems.append(f"{os.path.basename(path)} does not re-serialize "
                        "byte-identically")
    return problems, model


def check_fit(out_dir, stdout, p, dim):
    problems, model = _round_trip(os.path.join(out_dir, "model.opgd"),
                                  OpgdModel)
    if model is not None and not problems:
        if model.projection.shape != (p, dim):
            problems.append(f"projection shape {model.projection.shape}")
        if not np.all(np.isfinite(model.projection)):
            problems.append("projection is not finite")
    if not _in_unit_interval(stdout_values(stdout).get("training_error")):
        problems.append("no training_error in [0, 1] printed")
    return problems


def check_predict(out_dir, stdout, truth):
    header, rows = _read_table(os.path.join(out_dir, "predictions.tsv"))
    problems = []
    if len(rows) != len(truth):
        problems.append(f"{len(rows)} prediction rows for {len(truth)} "
                        "input rows")
    names = [h[2:] for h in header[1:]]
    if header[0] != "label" or not all(h.startswith("p_")
                                       for h in header[1:]):
        problems.append(f"unexpected header {header}")
    post = np.array([[float(v) for v in r[1:]] for r in rows])
    if post.shape != (len(rows), len(names)) or \
            not np.all(np.isfinite(post)) or np.any(post < 0) or \
            np.max(np.abs(post.sum(axis=1) - 1.0)) > POSTERIOR_TOL:
        problems.append("posteriors are not finite probabilities summing "
                        "to 1")
    labels = [r[0] for r in rows]
    if not set(labels) <= set(names):
        problems.append("predicted labels outside the model's classes")
    printed = stdout_values(stdout).get("test_error")
    if printed is None:
        problems.append("no test_error printed")
    elif len(rows) == len(truth):
        error = sum(a != b for a, b in zip(labels, truth)) / len(truth)
        if float(printed) != error:
            problems.append(f"printed test_error {printed} but the table "
                            f"gives {error!r}")
    return problems


_CLUSTER_METRIC_RANGES = {"ari": (-1.0, 1.0), "nmi": (0.0, 1.0)}


def cluster_metrics(out_dir) -> dict:
    _, rows = _read_table(os.path.join(out_dir, "clusters.tsv.metrics"))
    return {name: float(value) for name, value in rows}


def check_cluster(out_dir, n, k):
    problems = []
    _, rows = _read_table(os.path.join(out_dir, "clusters.tsv"))
    labels = [r[0] for r in rows]
    if len(labels) != n:
        problems.append(f"{len(labels)} cluster rows for {n} points")
    if not set(labels) <= {str(c) for c in range(1, k + 1)}:
        problems.append("cluster ids outside 1..K")
    metrics = cluster_metrics(out_dir)
    for name, value in metrics.items():
        lo, hi = _CLUSTER_METRIC_RANGES[name.split("_")[0]]
        if name.endswith("_x100"):
            lo, hi = 100 * lo, 100 * hi
        if not (math.isfinite(value) and lo <= value <= hi):
            problems.append(f"{name}={value} outside [{lo}, {hi}]")
    if len(metrics) != 8:
        problems.append(f"{len(metrics)} cluster metrics, expected 8")
    problems += _round_trip(os.path.join(out_dir, "clusters.tsv.gmm"),
                            GmmModel)[0]
    return problems


EVALUATE_METHODS = ("opgd", "lda", "rda", "save")


def check_evaluate(out_dir):
    header, rows = _read_table(os.path.join(out_dir, "results.tsv"))
    problems = []
    if header != ["method", "hyper", "val_error", "test_error"]:
        problems.append(f"unexpected header {header}")
    if tuple(r[0] for r in rows) != EVALUATE_METHODS:
        problems.append(f"methods {[r[0] for r in rows]}")
    for r in rows:
        if len(r) != 4 or not (_in_unit_interval(r[2])
                               and _in_unit_interval(r[3])):
            problems.append(f"row {r} has errors outside [0, 1]")
    return problems


def fit_loglik(model_path, train_csv) -> float:
    """Training log-likelihood of the labels under the saved model."""
    with open(model_path, encoding="utf-8") as fh:
        model, _ = parse_model(fh.read())
    data = np.loadtxt(train_csv, delimiter=",", skiprows=1)
    ids = [model.label_names.index(str(int(v))) for v in data[:, -1]]
    _, post = predict(model, data[:, :-1])
    return float(np.sum(np.log(post[np.arange(len(ids)), ids])))


def matched_error(out_dir, truth) -> float:
    """Share of points mislabelled under the best one-to-one matching of
    cluster ids to true classes."""
    _, rows = _read_table(os.path.join(out_dir, "clusters.tsv"))
    found = sorted({r[0] for r in rows})
    classes = sorted(set(truth))
    C = np.zeros((len(found), len(classes)))
    for r, t in zip(rows, truth):
        C[found.index(r[0]), classes.index(t)] += 1
    best = max(sum(C[i, j] for i, j in enumerate(perm) if j < len(classes))
               for perm in itertools.permutations(
                   range(max(len(found), len(classes))), len(found)))
    return 1.0 - best / len(truth)


def evaluate_test_error(out_dir) -> float:
    _, rows = _read_table(os.path.join(out_dir, "results.tsv"))
    return float(dict((r[0], r[3]) for r in rows)["opgd"])
