"""Metrics, data-splitting plans, and the hyper-parameter search harness.

Partition metrics return raw values in [-1, 1] / [0, 1]; any x100
scaling for tables belongs to the reporting layer. Plans are index
containers built deterministically from seeds so experiments replay
bit-exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import NAMED_FAILURES, ConfigError, DataError, Dataset, \
    NumericalError, _require_labels, exit_code, frozen
from .classifier import _two_classes, fit_opgd, lda_fit, \
    lda_predict, predict as opgd_predict, rda_fit, rda_predict, save_fit, \
    save_predict
from .optimizer import OptimConfig

METHODS = ("opgd", "lda", "rda", "save")


def _paired(a, b):
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape[0] != b.shape[0]:
        raise DataError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] == 0:
        raise DataError("empty label vectors")
    return a, b


def misclassification_error(pred, truth) -> float:
    """Fraction of positions where the labels disagree."""
    pred, truth = _paired(pred, truth)
    return float(np.mean(pred != truth))


def _contingency(a, b):
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    C = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(C, (ai, bi), 1.0)
    return C


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected pair-counting agreement between two partitions.

    1 for identical partitions up to relabeling; expectation 0 under
    independent random labelings; symmetric. Degenerate cases where the
    adjustment denominator vanishes (both partitions all-singletons or
    single-block) return 1.0.
    """
    a, b = _paired(a, b)
    C = _contingency(a, b)
    n = a.shape[0]

    def comb2(x):
        return (x * (x - 1.0) / 2.0).sum()

    sum_ij = comb2(C)
    sum_a = comb2(C.sum(axis=1))
    sum_b = comb2(C.sum(axis=0))
    total = n * (n - 1.0) / 2.0
    expected = sum_a * sum_b / total if total > 0 else 0.0
    denom = 0.5 * (sum_a + sum_b) - expected
    if denom == 0.0:
        return 1.0
    return float((sum_ij - expected) / denom)


def normalized_mutual_information(a, b) -> float:
    """Mutual information over the geometric mean of the entropies.

    1 for identical partitions; 0 in expectation for independent ones.
    A side with zero entropy (a single block) makes the ratio undefined
    and returns 0 with a warning.
    """
    a, b = _paired(a, b)
    C = _contingency(a, b)
    n = float(a.shape[0])
    pa = C.sum(axis=1) / n
    pb = C.sum(axis=0) / n
    ha = float(-(pa * np.log(pa, where=pa > 0, out=np.zeros_like(pa))).sum())
    hb = float(-(pb * np.log(pb, where=pb > 0, out=np.zeros_like(pb))).sum())
    if ha == 0.0 or hb == 0.0:
        warnings.warn("a partition with a single block has zero entropy; "
                      "returning 0")
        return 0.0
    P = C / n
    mask = P > 0
    mi = float((P[mask] * np.log(P[mask] / np.outer(pa, pb)[mask])).sum())
    return mi / np.sqrt(ha * hb)


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint covering train/validation/test row indices."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    ratios: tuple[float, float, float]
    seed: int


@dataclass(frozen=True)
class FoldPlan:
    """Per-observation fold id in 0..k-1; grouped rows share folds."""

    assignment: np.ndarray
    k: int
    seed: int

    def fold_indices(self, fold: int):
        held = np.nonzero(self.assignment == fold)[0]
        rest = np.nonzero(self.assignment != fold)[0]
        return rest, held


def make_split(n: int, ratios=(0.5, 0.25, 0.25), seed: int = 0) -> SplitPlan:
    """Shuffle 0..n-1 and cut train/val/test parts at the given ratios.

    Part sizes are within one observation of the targets (rounded train
    and validation sizes, remainder to test); every part must come out
    non-empty.
    """
    try:
        ratios = tuple(float(r) for r in ratios)
    except ValueError:
        raise ConfigError(f"ratios must be numbers, got {ratios!r}") from None
    if len(ratios) != 3 or not all(r > 0 for r in ratios) or \
            not abs(sum(ratios) - 1.0) <= 1e-9:
        raise ConfigError("ratios must be three positive numbers summing to 1")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(round(ratios[0] * n))
    n_val = int(round(ratios[1] * n))
    if n_train < 1 or n_val < 1 or n - n_train - n_val < 1:
        raise ConfigError(f"n={n} is too small for ratios {ratios}")
    return SplitPlan(train=perm[:n_train],
                     val=perm[n_train:n_train + n_val],
                     test=perm[n_train + n_val:],
                     ratios=ratios, seed=seed)


def make_folds(n: int, k: int, grouping=None, seed: int = 0) -> FoldPlan:
    """Assign rows to k folds, keeping any group entirely in one fold.

    Without grouping, a seeded permutation is dealt round-robin. With
    grouping, whole groups are dealt to folds in shuffled order, so k
    may not exceed the number of distinct groups.
    """
    if k < 2:
        raise ConfigError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    if grouping is None:
        if k > n:
            raise ConfigError(f"k={k} exceeds n={n}")
        assignment = np.empty(n, dtype=int)
        assignment[rng.permutation(n)] = np.arange(n) % k
    else:
        grouping = np.asarray(grouping)
        if grouping.shape[0] != n:
            raise DataError("grouping length must match n")
        groups, inverse = np.unique(grouping, return_inverse=True)
        G = groups.shape[0]
        if k > G:
            raise ConfigError(f"k={k} exceeds the {G} groups")
        slot = np.empty(G, dtype=int)
        slot[rng.permutation(G)] = np.arange(G) % k
        assignment = slot[inverse]
    return FoldPlan(assignment=assignment, k=k, seed=seed)


def _fit_method(method: str, train: Dataset, hyper,
                opt_config: OptimConfig | None, V0=None):
    """The ``method`` model fitted to ``train``."""
    if method == "opgd":
        return fit_opgd(train, hyper, opt_config, V0=V0)
    if method == "lda":
        config = opt_config if opt_config is not None else OptimConfig()
        return lda_fit(train, hyper, config.ridge_frac)
    if method == "rda":
        return rda_fit(train, hyper)
    if method == "save":
        return save_fit(train, hyper)
    raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")


def _predict_method(method: str, model, X):
    fn = {"opgd": opgd_predict, "lda": lda_predict,
          "rda": rda_predict, "save": save_predict}[method]
    return fn(model, X)[0]


def default_grid(method: str, p: int, K: int):
    """The conventional hyper-parameter grid for each method."""
    if method == "opgd":
        return list(range(1, p + 1))
    if method == "lda":
        return list(range(1, max(K - 1, 1) + 1))
    if method == "rda":
        return [float(a) for a in np.linspace(0.0, 1.0, max(p, 2))]
    if method == "save":
        return list(range(1, p + 1))
    raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")


@dataclass(frozen=True)
class GridSearchResult:
    method: str
    best_hyper: object
    model: object
    val_errors: tuple            # (hyper, error or None) per grid point
    failures: tuple = ()         # (hyper, message) for failed points


# an error kind by the exit code it carries
_ERROR_OF_CODE = {kind.exit_code: kind
                  for kind in (ConfigError, DataError, NumericalError)}


def _subset(dataset: Dataset, idx) -> Dataset:
    return Dataset(frozen(dataset.X[idx]), frozen(dataset.labels[idx]),
                   dataset.label_names)


def grid_search(method: str, grid, train: Dataset, plan,
                opt_config: OptimConfig | None = None) -> GridSearchResult:
    """Select a hyper-parameter by validation or cross-validation error.

    ``plan`` is a :class:`SplitPlan` (fit on its train part, score on
    its validation part, refit on both; the plan's test part is never
    touched here) or a :class:`FoldPlan` (fit without each fold, score
    on it, refit on everything). Ties go to the smallest hyper-parameter;
    dimensions are integers (``2.0`` is one), ``rda``'s blends floats,
    and a value the grid repeats is fitted once.
    Unlabeled data, data with one class, or a training part without some
    class, is a ``DataError``, raised before any fit. Grid points whose
    fit raises a named failure (see :data:`~opgd.core.NAMED_FAILURES`)
    are recorded and skipped; only a fully failed grid raises, with the
    kind of error its failures share (a ``ConfigError`` when their kinds
    differ), naming their cause once when they share one. On a split,
    the ``opgd`` refit is warm-started from the winning validation
    model's projection. Errors name a class by its label, and the models
    carry the class names of ``train``.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    grid = sorted({float(h) for h in grid})
    if method != "rda":
        for h in grid:
            if not h.is_integer():
                raise ConfigError(f"{method} takes integer dimensions, got "
                                  f"grid value {h!r}")
        grid = [int(h) for h in grid]
    if not grid:
        raise ConfigError("empty hyper-parameter grid")
    _two_classes(_require_labels(train))
    if isinstance(plan, SplitPlan):
        pairs = [(plan.train, plan.val)]
    else:
        pairs = [plan.fold_indices(fold) for fold in range(plan.k)]
    for part, (fit_rows, _) in enumerate(pairs):
        missing = np.flatnonzero(np.bincount(train.labels[fit_rows],
                                             minlength=train.K + 1)[1:] == 0)
        if missing.size:
            where = "the split's training rows" if len(pairs) == 1 \
                else f"the training rows of fold {part}"
            raise DataError(f"{where} hold no observation of class " +
                            ", ".join(train.label_names[k]
                                      for k in missing.tolist()))
    refit = _subset(train, np.concatenate([plan.train, plan.val])) \
        if isinstance(plan, SplitPlan) else train

    val_errors = []
    failures = []
    codes = set()
    projections = {}
    for h in grid:
        wrong = n_scored = 0
        try:
            for fit_rows, score_rows in pairs:
                fit = _fit_method(method, _subset(train, fit_rows), h,
                                  opt_config)
                pred = _predict_method(method, fit, train.X[score_rows])
                wrong += int(np.sum(pred != train.labels[score_rows]))
                n_scored += len(score_rows)
        except NAMED_FAILURES as exc:
            failures.append((h, str(exc)))
            codes.add(exit_code(exc))
            val_errors.append((h, None))
            continue
        if method == "opgd" and len(pairs) == 1:
            projections[h] = fit.projection
        val_errors.append((h, wrong / n_scored))

    scored = [(h, e) for h, e in val_errors if e is not None]
    if not scored:
        code = codes.pop() if len(codes) == 1 else ConfigError.exit_code
        reasons = {m for _, m in failures}
        raise _ERROR_OF_CODE[code]("every grid point failed: " + (
            reasons.pop() if len(reasons) == 1
            else "; ".join(f"{h}: {m}" for h, m in failures)))
    best_hyper = min(scored, key=lambda he: (he[1], he[0]))[0]
    model = _fit_method(method, refit, best_hyper, opt_config,
                        V0=projections.get(best_hyper))
    return GridSearchResult(method=method, best_hyper=best_hyper, model=model,
                            val_errors=tuple(val_errors),
                            failures=tuple(failures))
