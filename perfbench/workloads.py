"""Seeded synthetic inputs for the benchmark workloads.

Each workload has one fixed shape and one fixed class or cluster
geometry; the workload seed draws the samples. Iteration counts of EM
and of the ascents swing a lot with the geometry, so a seeded geometry
would make the work of a run, not just its data, depend on the seed.
Files are written with ``repr`` floats (shortest round-trip), so the
same seed gives byte-identical CSVs on any host with IEEE doubles. The
program under test sees only these files.

- ``classify``: p=60, K=5. The classes differ in scale and rotation on
  a 6-d informative block and have small location offsets; the other 54
  columns are unit noise. The warm start follows the offsets and misses
  the scale structure, so the ascent runs to its iteration cap.
- ``cluster``: 3,000 points, K=5 on a pentagon in 2 informative
  dimensions, plus 18 noise dimensions with sd 6 that smear the
  full-space mixture. The clusters overlap, so EM runs to its cap, and
  the enhancement ascent runs to its ``--max-iters`` cap.
- ``evaluate``: n=800, p=10, K=4 with location cues on 4 columns and
  scale cues on 6, so every method's grid has something to choose.
"""

from __future__ import annotations

import os

import numpy as np

WORKLOADS = ("classify", "cluster", "evaluate")

CLASSIFY_TRAIN, CLASSIFY_TEST, CLASSIFY_P, CLASSIFY_K = 3000, 20000, 60, 5
CLASSIFY_INFORMATIVE = 6
CLUSTER_N, CLUSTER_K, CLUSTER_NOISE, CLUSTER_NOISE_SD = 3000, 5, 18, 6.0
CLUSTER_RADIUS, CLUSTER_SD = 8.0, 4.0
# The enhancement ascent stops by a stalled line search anywhere from
# about 190 to 500 steps depending on the draw; a cap below that range
# makes every seed do the same work.
CLUSTER_MAX_ITERS = 150
EVALUATE_N, EVALUATE_P, EVALUATE_K = 800, 10, 4
GEOMETRY_SEED = 0


def _rotation(rng, d):
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def _classify_classes():
    """Per-class mean offsets and block covariance factors."""
    rng = np.random.default_rng(GEOMETRY_SEED)
    d = CLASSIFY_INFORMATIVE
    means, factors = [], []
    for _ in range(CLASSIFY_K):
        scales = np.exp(rng.uniform(-2.0, 2.0, d))
        factors.append(_rotation(rng, d) * scales[None, :])
        means.append(rng.standard_normal(d))
    return np.array(means), np.array(factors)


def _classify_draw(rng, n, means, factors):
    y = rng.integers(1, CLASSIFY_K + 1, n)
    X = rng.standard_normal((n, CLASSIFY_P))
    block = X[:, :CLASSIFY_INFORMATIVE]
    for k in range(CLASSIFY_K):
        rows = y == k + 1
        block[rows] = block[rows] @ factors[k].T + means[k]
    return X, y


def _cluster_draw(rng):
    angles = 2.0 * np.pi * np.arange(CLUSTER_K) / CLUSTER_K
    centers = CLUSTER_RADIUS * np.column_stack([np.cos(angles),
                                                np.sin(angles)])
    y = rng.integers(1, CLUSTER_K + 1, CLUSTER_N)
    informative = centers[y - 1] + \
        CLUSTER_SD * rng.standard_normal((CLUSTER_N, 2))
    noise = CLUSTER_NOISE_SD * rng.standard_normal((CLUSTER_N, CLUSTER_NOISE))
    return np.hstack([informative, noise]), y


def _evaluate_draw(rng):
    geometry = np.random.default_rng(GEOMETRY_SEED)
    means = 1.2 * geometry.standard_normal((EVALUATE_K, EVALUATE_P))
    means[:, 4:] = 0.0
    scales = np.exp(geometry.uniform(-0.7, 0.7, (EVALUATE_K, EVALUATE_P)))
    scales[:, :4] = 1.0
    y = rng.integers(1, EVALUATE_K + 1, EVALUATE_N)
    X = means[y - 1] + scales[y - 1] * rng.standard_normal((EVALUATE_N,
                                                             EVALUATE_P))
    return X, y


def _write_csv(path, X, y):
    header = ",".join([f"x{j + 1}" for j in range(X.shape[1])] + ["y"])
    lines = [header]
    lines += [",".join(map(repr, row)) + f",{lab}"
              for row, lab in zip(X.tolist(), y.tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cli_calls(workload: str, files: dict, out: str) -> list:
    """The workload's CLI calls, in order: ``(command, argv, output dir)``.

    Each call writes only into its own output directory, so the bytes of
    that directory are what the call produced.
    """
    def call(command, *argv):
        directory = os.path.join(out, command)
        return command, [command, *argv], directory

    if workload == "classify":
        model = os.path.join(out, "fit", "model.opgd")
        return [
            call("fit", "--data", files["train"], "--labels", "y",
                 "--method", "opgd", "--dim", "3", "--out", model),
            call("predict", "--data", files["test"], "--model", model,
                 "--labels", "y", "--out",
                 os.path.join(out, "predict", "predictions.tsv")),
        ]
    if workload == "cluster":
        return [call("cluster", "--data", files["data"], "--labels", "y",
                     "--clusters", str(CLUSTER_K), "--dim", "2",
                     "--max-iters", str(CLUSTER_MAX_ITERS), "--out",
                     os.path.join(out, "cluster", "clusters.tsv"))]
    return [call("evaluate", "--data", files["data"], "--labels", "y",
                 "--method", "opgd,lda,rda,save", "--out",
                 os.path.join(out, "evaluate", "results.tsv"))]


def generate(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's CSV files into ``directory``.

    Returns a map from role (``train``, ``test``, ``data``) to the path
    written. The same ``(workload, seed)`` always writes the same bytes.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    files = {}
    if workload == "classify":
        means, factors = _classify_classes()
        for role, n in (("train", CLASSIFY_TRAIN), ("test", CLASSIFY_TEST)):
            files[role] = os.path.join(directory, f"{role}.csv")
            _write_csv(files[role], *_classify_draw(rng, n, means, factors))
    else:
        X, y = _cluster_draw(rng) if workload == "cluster" \
            else _evaluate_draw(rng)
        files["data"] = os.path.join(directory, "data.csv")
        _write_csv(files["data"], X, y)
    return files
