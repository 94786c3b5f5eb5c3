"""End-to-end projected Gaussian classifier and the reference baselines.

``fit_opgd`` runs the full pipeline: estimate class moments, warm-start
the projection, ascend the classification log-likelihood, normalize and
greedily order the columns, then freeze the projected parameters. The
baselines are reduced-rank LDA, SAVE (sliced average variance
estimation) with a quadratic-discriminant read-out, and RDA
(regularized discriminant analysis) blending per-class and pooled
covariances.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataError, Dataset, ScatterMatrices, \
    check_projection, compute_scatter, estimate_class_model, frozen, \
    sphere, symmetrize
from .objective import ClampStats, bayes_posteriors, diag_log_densities, \
    full_gaussian_log_densities, projected_variances
from .optimizer import OptimConfig, _normalize_columns, discriminant_directions, \
    init_projection, maximize, order_columns


def _two_classes(train: Dataset) -> Dataset:
    """``train``, unless its labels name one class: a classifier has
    nothing to tell apart there, a ``DataError``."""
    if train.K == 1:
        raise DataError("a classifier needs at least two classes; the "
                        "training data has one")
    return train


def _as_matrix(X, p: int):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != p:
        raise DataError(f"expected points with {p} coordinates, got {X.shape}")
    return X


def _posterior_predict(log_dens, priors):
    """Class ids (1..K) and the ``n x K`` posteriors from ``(K, n)``
    log-densities."""
    post = bayes_posteriors(np.log(priors), log_dens)
    return np.argmax(post, axis=0) + 1, post.T


@dataclass(frozen=True)
class FitDiagnostics:
    iterations: int
    final_objective: float
    clamp_count: int
    trace: np.ndarray


@dataclass(frozen=True)
class OpgdModel:
    """Fitted projection classifier.

    ``projected_means[k] = V' mu_k`` and ``projected_vars[k, j] =
    v_j' Sigma_k v_j`` for the stored (ordered, unit-column) projection
    and the training moments, so consistency is re-checkable against a
    re-estimate of the training data.
    """

    projection: np.ndarray        # (p, p')
    projected_means: np.ndarray   # (K, p')
    projected_vars: np.ndarray    # (K, p')
    priors: np.ndarray            # (K,)
    label_names: tuple[str, ...]
    diagnostics: FitDiagnostics | None = None

    @property
    def p(self) -> int:
        return self.projection.shape[0]

    @property
    def dim(self) -> int:
        return self.projection.shape[1]

    @property
    def K(self) -> int:
        return self.priors.shape[0]


def fit_opgd(train: Dataset, dim: int, config: OptimConfig | None = None,
             V0=None) -> OpgdModel:
    """Fit the projected Gaussian classifier.

    Pipeline: class-moment estimation, warm start (skipped when ``V0``
    is supplied), monotone L-BFGS ascent, unit-norm column rescaling
    (the objective is invariant to positive column scaling), greedy
    likelihood ordering of the columns, parameter freeze. The model
    carries the class names of ``train``.
    """
    config = config if config is not None else OptimConfig()
    model = estimate_class_model(_two_classes(train))
    if not 1 <= dim <= model.p:
        raise ConfigError(f"dim must lie in [1, {model.p}], got {dim}")
    clamp = ClampStats()
    if V0 is None:
        scatter = compute_scatter(train, model)
        V0 = init_projection(scatter, dim, config)
    else:
        V0 = check_projection(V0, model.p)
        if V0.shape[1] != dim:
            raise ConfigError("V0 column count does not match dim")
    V, trace = maximize(train, model, V0, config, clamp)
    V = _normalize_columns(V)
    V = order_columns(train, V, model)
    return OpgdModel(
        projection=V,
        projected_means=model.means @ V,
        projected_vars=projected_variances(V, model.covariances, clamp),
        priors=model.priors,
        label_names=train.label_names,
        diagnostics=FitDiagnostics(iterations=len(trace) - 1,
                                   final_objective=float(trace[-1]),
                                   clamp_count=clamp.count,
                                   trace=trace),
    )


def predict(model: OpgdModel, X):
    """Class ids (1..K) and posterior matrix for new points.

    Ties in the posterior argmax go to the lowest class index.
    """
    X = _as_matrix(X, model.p)
    diffs = (model.projection.T @ X.T)[None] \
        - model.projected_means[:, :, None]
    return _posterior_predict(diag_log_densities(diffs, model.projected_vars),
                              model.priors)


# ---------------------------------------------------------------------------
# Reduced-rank LDA

def lda_features(scatter: ScatterMatrices, r: int, n_classes: int | None = None,
                 ridge_frac: float = 1e-6):
    """Leading-``r`` discriminant directions of (W^-1)B, unit columns.

    The inverse is ridge-stabilized exactly as in the warm start. When
    ``n_classes`` is given, ``r`` beyond ``n_classes - 1`` is rejected
    (the between-class scatter has at most that rank). Near-zero leading
    eigenvalue draws a non-informative warning.
    """
    if r < 1:
        raise ConfigError("r must be at least 1")
    if n_classes is not None and r > n_classes - 1:
        raise ConfigError(f"r must be at most K-1 = {n_classes - 1}, got {r}")
    V, evals = discriminant_directions(scatter, r, ridge_frac)
    if evals[0] <= 1e-12:
        warnings.warn("between-class scatter is numerically zero; "
                      "discriminant features are non-informative")
    return V


@dataclass(frozen=True)
class LdaModel:
    projection: np.ndarray       # (p, r)
    means: np.ndarray            # (K, r) projected class means
    covariance: np.ndarray       # (r, r) projected pooled covariance
    priors: np.ndarray
    label_names: tuple[str, ...]

    @property
    def p(self) -> int:
        return self.projection.shape[0]


def lda_fit(train: Dataset, r: int, ridge_frac: float = 1e-6) -> LdaModel:
    """Reduced-rank LDA: project onto ``r`` discriminant directions and
    classify with the shared pooled covariance there."""
    model = estimate_class_model(_two_classes(train))
    scatter = compute_scatter(train, model)
    V = lda_features(scatter, r, n_classes=model.K, ridge_frac=ridge_frac)
    return LdaModel(projection=V,
                    means=model.means @ V,
                    covariance=symmetrize(V.T @ scatter.within @ V),
                    priors=model.priors, label_names=train.label_names)


def lda_predict(model: LdaModel, X):
    covs = np.broadcast_to(model.covariance,
                           (model.means.shape[0],) + model.covariance.shape)
    Z = _as_matrix(X, model.p) @ model.projection
    return _posterior_predict(
        full_gaussian_log_densities(Z, model.means, covs).T, model.priors)


# ---------------------------------------------------------------------------
# SAVE

def save_features(dataset: Dataset, r: int):
    """Sliced average variance estimation directions.

    Sphere the data, form ``M = sum_k prior_k (I - Sigma_k)^2`` from the
    sphered class covariances, take the top-``r`` eigenvectors, and map
    them back through the sphering transform. Raises a collinearity
    error when the total covariance is singular, and names a class with
    too few rows by its label.
    """
    if not 1 <= r <= dataset.p:
        raise ConfigError(f"r must lie in [1, {dataset.p}], got {r}")
    sphered, T = sphere(dataset)
    model = estimate_class_model(sphered)
    eye = np.eye(dataset.p)
    M = np.zeros((dataset.p, dataset.p))
    for k in range(model.K):
        D = eye - model.covariances[k]
        M += model.priors[k] * (D @ D)
    M = symmetrize(M)
    evals, evecs = np.linalg.eigh(M)
    if evals[-1] <= 1e-12:
        warnings.warn("all sphered class covariances are the identity; "
                      "SAVE directions are non-informative")
    U = evecs[:, ::-1][:, :r]
    return _normalize_columns(T @ U)


@dataclass(frozen=True)
class SaveModel:
    projection: np.ndarray       # (p, r)
    means: np.ndarray            # (K, r)
    covariances: np.ndarray      # (K, r, r) full, in the projected space
    priors: np.ndarray
    label_names: tuple[str, ...]

    @property
    def p(self) -> int:
        return self.projection.shape[0]


def save_fit(train: Dataset, r: int) -> SaveModel:
    """SAVE features plus a quadratic Gaussian read-out in the subspace."""
    V = save_features(_two_classes(train), r)
    proj = Dataset(frozen(train.X @ V), train.labels, train.label_names)
    model = estimate_class_model(proj)
    return SaveModel(projection=V, means=model.means,
                     covariances=model.covariances, priors=model.priors,
                     label_names=train.label_names)


def save_predict(model: SaveModel, X):
    Z = _as_matrix(X, model.p) @ model.projection
    return _posterior_predict(full_gaussian_log_densities(
        Z, model.means, model.covariances).T, model.priors)


# ---------------------------------------------------------------------------
# RDA

@dataclass(frozen=True)
class RdaModel:
    alpha: float
    means: np.ndarray            # (K, p)
    covariances: np.ndarray      # (K, p, p) blended
    priors: np.ndarray
    label_names: tuple[str, ...]

    @property
    def p(self) -> int:
        return self.means.shape[1]


def rda_fit(train: Dataset, alpha: float) -> RdaModel:
    """Gaussian discriminant with covariances alpha*Sigma_k + (1-alpha)*W.

    alpha = 1 is quadratic discriminant analysis; alpha = 0 shares the
    pooled within-class covariance across classes (linear boundaries).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    model = estimate_class_model(_two_classes(train))
    scatter = compute_scatter(train, model)
    blended = alpha * model.covariances + (1.0 - alpha) * scatter.within
    return RdaModel(alpha=float(alpha), means=model.means, covariances=blended,
                    priors=model.priors, label_names=train.label_names)


def rda_predict(model: RdaModel, X):
    X = _as_matrix(X, model.p)
    return _posterior_predict(full_gaussian_log_densities(
        X, model.means, model.covariances).T, model.priors)
