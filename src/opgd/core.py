"""Data containers, per-class Gaussian estimation and scatter matrices.

Conventions used throughout the package:

* observations are stored row-wise, ``X`` is ``n x p``;
* class labels are contiguous integers ``1..K`` (ingestion remaps
  arbitrary label values and keeps the mapping);
* all covariance estimates are maximum likelihood: per-class divisor
  ``n_k``, pooled divisor ``n``, so that within + between = total holds
  exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Projected variances are clamped below at this fraction of trace/p of the
# corresponding class covariance; clamp events are counted, never raised.
VARIANCE_FLOOR_FRAC = 1e-12


class OpgdError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(OpgdError):
    """Invalid configuration or arguments."""


class DataError(OpgdError):
    """Invalid or unusable input data."""


class DegenerateClassError(DataError):
    """A class has too few observations to estimate its covariance."""


class NumericalError(OpgdError):
    """A numerical procedure failed."""


class CollinearityError(NumericalError):
    """The data covariance is (numerically) singular.

    Typically caused by collinear input columns; reducing the data with
    :func:`opgd.clustering.pca_prefilter` removes the offending
    directions.
    """


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def symmetrize(S):
    """Return ``(S + S') / 2`` for a matrix or each matrix of a stack;
    suppresses accumulation asymmetry."""
    return 0.5 * (S + np.swapaxes(S, -1, -2))


@dataclass(frozen=True)
class Dataset:
    """Row-major observation matrix with optional integer class labels.

    Parameters
    ----------
    X : ndarray, shape (n, p)
        Observations, one per row. Entries must be finite.
    labels : ndarray of int, shape (n,), optional
        Class ids in ``1..K``. Every id in that range must occur.
    """

    X: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DataError(f"need a 2-d observation matrix, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise DataError("observation matrix contains non-finite entries")
        object.__setattr__(self, "X", _readonly(X))
        if self.labels is not None:
            y = np.asarray(self.labels, dtype=int)
            if y.shape != (X.shape[0],):
                raise DataError(
                    f"labels must have shape ({X.shape[0]},), got {y.shape}"
                )
            if y.min() < 1:
                raise DataError("labels must be 1-based contiguous integers")
            K = int(y.max())
            present = np.unique(y)
            if present.size != K:
                missing = sorted(set(range(1, K + 1)) - set(present.tolist()))
                raise DataError(f"label ids {missing} never occur")
            y = y.copy()
            y.setflags(write=False)
            object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def K(self) -> int | None:
        """Number of classes, present iff labels are present."""
        return int(self.labels.max()) if self.labels is not None else None

    @cached_property
    def label_index(self):
        """``(labels - 1, arange(n))``, which picks each observation's own
        class from a ``K x n`` array; ``None`` without labels. Computed
        once."""
        if self.labels is None:
            return None
        index = (self.labels - 1, np.arange(self.n))
        for a in index:
            a.setflags(write=False)
        return index


@dataclass(frozen=True)
class GaussianClassModel:
    """Per-class priors, means and full input-space covariances.

    ``priors[k-1] = n_k / n`` exactly; ``covariances[k-1]`` is the
    maximum-likelihood estimate (divisor ``n_k``), symmetrized.
    """

    priors: np.ndarray        # (K,)
    means: np.ndarray         # (K, p)
    covariances: np.ndarray   # (K, p, p)
    counts: np.ndarray        # (K,) integer class sizes

    def __post_init__(self):
        object.__setattr__(self, "priors", _readonly(self.priors))
        object.__setattr__(self, "means", _readonly(np.atleast_2d(self.means)))
        object.__setattr__(self, "covariances", _readonly(self.covariances))
        counts = np.asarray(self.counts, dtype=int)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def K(self) -> int:
        return self.priors.shape[0]

    @property
    def p(self) -> int:
        return self.means.shape[1]

    @cached_property
    def log_weights(self):
        """``log(priors)``, the log weights of the class mixture,
        computed once."""
        return _readonly(np.log(self.priors))

    @cached_property
    def floors(self):
        """:func:`variance_floors` of the class covariances, computed
        once."""
        return _readonly(variance_floors(self.covariances))


def variance_floors(covariances):
    """Per-component floor on projected variances: ``1e-12 *
    trace(Sigma_k) / p``, with an absolute fallback of 1e-300 for
    all-zero covariances, which only occur on degenerate inputs."""
    covariances = np.asarray(covariances, dtype=float)
    floors = VARIANCE_FLOOR_FRAC * np.einsum("kii->k", covariances) \
        / covariances.shape[1]
    return np.maximum(floors, 1e-300)


@dataclass(frozen=True)
class ScatterMatrices:
    """Pooled within-class, between-class and total covariance (1/n)."""

    within: np.ndarray
    between: np.ndarray
    total: np.ndarray
    grand_mean: np.ndarray

    def __post_init__(self):
        for name in ("within", "between", "total", "grand_mean"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def p(self) -> int:
        return self.grand_mean.shape[0]


def estimate_class_model(dataset: Dataset) -> GaussianClassModel:
    """Estimate priors, class means and MLE class covariances.

    Parameters
    ----------
    dataset : Dataset
        Must be labeled, with at least two observations per class.

    Returns
    -------
    GaussianClassModel

    Raises
    ------
    DegenerateClassError
        If some class has fewer than two observations.
    """
    if dataset.labels is None:
        raise DataError("estimate_class_model requires a labeled dataset")
    X, y = dataset.X, dataset.labels
    n, p = X.shape
    K = dataset.K
    counts = np.bincount(y, minlength=K + 1)[1:]
    small = np.nonzero(counts < 2)[0]
    if small.size:
        raise DegenerateClassError(
            f"class {small[0] + 1} has {counts[small[0]]} observation(s); "
            "need at least 2 per class"
        )
    means = np.empty((K, p))
    covs = np.empty((K, p, p))
    for k in range(K):
        Xk = X[y == k + 1]
        means[k] = Xk.mean(axis=0)
        D = Xk - means[k]
        covs[k] = symmetrize(D.T @ D / counts[k])
    priors = counts / n
    return GaussianClassModel(priors=priors, means=means, covariances=covs,
                              counts=counts)


def compute_scatter(dataset: Dataset, model: GaussianClassModel) -> ScatterMatrices:
    """Pooled within/between/total scatter under the 1/n convention.

    ``within = (1/n) sum_k n_k Sigma_k``, ``between = (1/n) sum_k n_k
    (mu_k - mu)(mu_k - mu)'`` and ``total = within + between``, which
    equals the covariance matrix of all of the data.
    """
    if dataset.labels is None:
        raise DataError("compute_scatter requires a labeled dataset")
    n = dataset.n
    w = model.counts / n
    grand_mean = w @ model.means
    within = symmetrize(np.einsum("k,kij->ij", w, model.covariances))
    D = model.means - grand_mean
    between = symmetrize((D.T * w) @ D)
    return ScatterMatrices(within=within, between=between,
                           total=within + between, grand_mean=grand_mean)


def scatter_from_responsibilities(X, resp) -> ScatterMatrices:
    """Scatter matrices from soft (or one-hot) class responsibilities.

    With one-hot ``resp`` this reduces to :func:`compute_scatter` on the
    corresponding hard labels, but tolerates empty components: a column
    of zeros simply contributes nothing.
    """
    X = np.asarray(X, dtype=float)
    resp = np.asarray(resp, dtype=float)
    n = X.shape[0]
    mass = resp.sum(axis=0)                      # (K,)
    grand_mean = X.mean(axis=0)
    within = np.zeros((X.shape[1], X.shape[1]))
    between = np.zeros_like(within)
    for k in range(resp.shape[1]):
        if mass[k] <= 0.0:
            continue
        mu_k = resp[:, k] @ X / mass[k]
        D = X - mu_k
        within += D.T @ (D * resp[:, k, None])
        d = mu_k - grand_mean
        between += mass[k] * np.outer(d, d)
    within = symmetrize(within / n)
    between = symmetrize(between / n)
    return ScatterMatrices(within=within, between=between,
                           total=within + between, grand_mean=grand_mean)


def check_projection(V, p: int):
    """Validate a projection matrix against input dimension ``p``.

    Columns need not be orthonormal (the objective is invariant to
    positive column rescaling) but must have nonzero norm.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    if V.shape[0] != p or not 1 <= V.shape[1] <= p:
        raise ConfigError(
            f"projection must be {p} x p' with 1 <= p' <= {p}, got {V.shape}"
        )
    norms = np.linalg.norm(V, axis=0)
    if np.any(norms <= 1e-12):
        raise ConfigError("projection has a (near-)zero column")
    return V


# Relative eigenvalue floor below which a covariance is declared singular.
EIGEN_FLOOR_FRAC = 1e-10


def sphere(dataset: Dataset):
    """Transform the data to have identity total covariance.

    Returns
    -------
    (Dataset, ndarray)
        The sphered dataset (labels carried over) and the ``p x p``
        transform ``T`` with ``sphered = (X - mean(X)) @ T``. Feature
        directions found in the sphered space map back to input
        coordinates as ``T @ u``.

    Raises
    ------
    CollinearityError
        If the total covariance has an eigenvalue at or below
        ``1e-10 * trace/p``.
    """
    X = dataset.X
    mu = X.mean(axis=0)
    D = X - mu
    total = symmetrize(D.T @ D / X.shape[0])
    w, Q = np.linalg.eigh(total)
    floor = EIGEN_FLOOR_FRAC * np.trace(total) / X.shape[1]
    if np.any(w <= floor):
        raise CollinearityError(
            "total covariance is numerically singular "
            f"(min eigenvalue {w.min():.3e}); consider the PCA pre-filter"
        )
    T = symmetrize(Q @ ((1.0 / np.sqrt(w)) * Q).T)
    return Dataset(X=D @ T, labels=dataset.labels), T
