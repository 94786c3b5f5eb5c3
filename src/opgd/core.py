"""Data containers, per-class Gaussian estimation and scatter matrices.

Conventions used throughout the package:

* observations are stored row-wise, ``X`` is ``n x p``;
* class labels are contiguous integers ``1..K``, and the
  :class:`Dataset` that holds them keeps the name of each class
  (ingestion remaps arbitrary label values to ids and keeps their text
  as the names), so every fit, model and error reads the names there;
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

# Rows of a large array are taken in blocks of at most this many entries
# (256 KiB): the full-covariance product, so each block's ``rows x K d``
# result stays in a core's cache, the full-space EM's M-step alike, and
# the finiteness check of a :class:`Dataset`, so it never holds a bool
# array the size of the data.
_BLOCK_ENTRIES = 1 << 15


class OpgdError(Exception):
    """Base class for errors raised by this package. Each kind carries
    the code the command line exits with when it ends a run."""


class ConfigError(OpgdError):
    """Invalid configuration or arguments."""

    exit_code = 2


class DataError(OpgdError):
    """Invalid or unusable input data."""

    exit_code = 3


class DegenerateClassError(DataError):
    """A class has too few observations to estimate its covariance."""


class NumericalError(OpgdError):
    """A numerical procedure failed."""

    exit_code = 4


class CollinearityError(NumericalError):
    """The data covariance is (numerically) singular.

    Typically caused by collinear input columns; reducing the data with
    :func:`opgd.clustering.pca_prefilter` removes the offending
    directions.
    """


# The failures whose cause has a name: the package's own kinds and numpy's
# LinAlgError, a numerical failure. Anything else is a bug.
NAMED_FAILURES = (ConfigError, DataError, NumericalError,
                  np.linalg.LinAlgError)


def exit_code(exc) -> int:
    """The exit code of a failure in :data:`NAMED_FAILURES`: 2 for
    configuration, 3 for data, 4 for numerical failures."""
    if isinstance(exc, np.linalg.LinAlgError):
        return NumericalError.exit_code
    return exc.exit_code


def _readonly(a, dtype=float):
    """``a`` read-only as ``dtype``: ``a`` itself when it is a read-only
    C-contiguous ``dtype`` array that views no writable array, else a
    read-only copy."""
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None or a.dtype != dtype or not a.flags.c_contiguous:
        a = np.array(a, dtype=dtype)
        a.setflags(write=False)
    return a


def frozen(a):
    """``a``, a fresh array no one else holds, made read-only so that a
    :class:`Dataset` adopts it without a copy."""
    a.setflags(write=False)
    return a


def symmetrize(S):
    """Return ``(S + S') / 2`` for a matrix or each matrix of a stack;
    suppresses accumulation asymmetry."""
    return 0.5 * (S + np.swapaxes(S, -1, -2))


@dataclass(frozen=True)
class Dataset:
    """Row-major observation matrix with optional integer class labels
    and the names of their classes.

    Parameters
    ----------
    X : ndarray, shape (n, p)
        Observations, one per row. Entries must be finite.
    labels : ndarray of int, shape (n,), optional
        Class ids in ``1..K``. Every id in that range must occur.
    label_names : sequence of str, optional
        The name of each class, ``label_names[k - 1]`` for id ``k``; kept
        as a tuple of ``str``, ``"1".."K"`` when not given. Fitted models carry
        these names and errors name a class by them. A count other than
        ``K`` is a ``ConfigError``; names without labels are a
        ``DataError``.

    Both are kept read-only. An array that is already read-only, of the
    stored dtype and C-contiguous, and that views no writable array, is
    kept as it is, without a copy; any other array, a writable one
    included, is copied. The package hands its own fresh arrays over
    through :func:`frozen`.
    """

    X: np.ndarray
    labels: np.ndarray | None = None
    label_names: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DataError(f"need a 2-d observation matrix, got shape {X.shape}")
        rows = max(1, _BLOCK_ENTRIES // X.shape[1])
        if not all(np.isfinite(X[lo:lo + rows]).all()
                   for lo in range(0, X.shape[0], rows)):
            raise DataError("observation matrix contains non-finite entries")
        object.__setattr__(self, "X", _readonly(X))
        if self.labels is None:
            if self.label_names is not None:
                raise DataError("label names were given without labels")
            return
        y = np.asarray(self.labels, dtype=int)
        if y.shape != (X.shape[0],):
            raise DataError(
                f"labels must have shape ({X.shape[0]},), got {y.shape}"
            )
        if y.min() < 1:
            raise DataError("labels must be 1-based contiguous integers")
        missing = np.flatnonzero(np.bincount(y)[1:] == 0) + 1
        if missing.size:
            raise DataError(f"{missing.size} label id(s) never occur, "
                            f"the first being {missing[:5].tolist()}")
        object.__setattr__(self, "labels", _readonly(y, int))
        K = int(y.max())
        names = tuple(map(str, range(1, K + 1) if self.label_names is None
                          else self.label_names))
        if len(names) != K:
            raise ConfigError(f"{len(names)} label names for {K} classes")
        object.__setattr__(self, "label_names", names)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def K(self) -> int | None:
        """Number of classes, present iff labels are present."""
        return len(self.label_names) if self.labels is not None else None

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
class GmmModel:
    """Gaussian mixture parameters (weights on the simplex, full PD
    covariances after the estimation floor), held read-only.

    The one model both ascents project (see :mod:`opgd.objective`): a
    fitted mixture's components, or, as a :class:`GaussianClassModel`,
    the classes weighted by their priors.
    """

    weights: np.ndarray       # (K,)
    means: np.ndarray         # (K, p)
    covariances: np.ndarray   # (K, p, p)

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights))
        object.__setattr__(self, "means", _readonly(np.atleast_2d(self.means)))
        object.__setattr__(self, "covariances", _readonly(self.covariances))

    @property
    def K(self) -> int:
        return self.weights.shape[0]

    @property
    def p(self) -> int:
        return self.means.shape[1]

    @cached_property
    def log_weights(self):
        """``log(weights)``, computed once."""
        return _readonly(np.log(self.weights))

    @cached_property
    def floors(self):
        """:func:`variance_floors` of the covariances, computed once."""
        return _readonly(variance_floors(self.covariances))


@dataclass(frozen=True)
class GaussianClassModel(GmmModel):
    """The class mixture: per-class priors, means and full input-space
    covariances, and the integer class sizes.

    ``weights[k-1] = priors[k-1] = n_k / n`` exactly;
    ``covariances[k-1]`` is the maximum-likelihood estimate (divisor
    ``n_k``), symmetrized.
    """

    counts: np.ndarray        # (K,) integer class sizes

    def __post_init__(self):
        super().__post_init__()
        counts = np.asarray(self.counts, dtype=int)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def priors(self):
        """The class priors, which are the mixture's weights."""
        return self.weights


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


def _require_labels(dataset: Dataset) -> Dataset:
    """``dataset``, unless it is unlabeled: a ``DataError``."""
    if dataset.labels is None:
        raise DataError("a labeled dataset is required")
    return dataset


def estimate_class_model(dataset: Dataset) -> GaussianClassModel:
    """Estimate priors, class means and MLE class covariances.

    Parameters
    ----------
    dataset : Dataset
        Must be labeled, with at least two observations per class; an
        error names a class by its entry in ``dataset.label_names``.

    Returns
    -------
    GaussianClassModel

    Raises
    ------
    DegenerateClassError
        If some class has fewer than two observations.
    """
    _require_labels(dataset)
    X, y = dataset.X, dataset.labels
    n, p = X.shape
    K = dataset.K
    counts = np.bincount(y, minlength=K + 1)[1:]
    small = np.nonzero(counts < 2)[0]
    if small.size:
        k = small[0]
        raise DegenerateClassError(
            f"class {dataset.label_names[k]} has {counts[k]} observation(s); "
            "need at least 2 per class"
        )
    means = np.empty((K, p))
    covs = np.empty((K, p, p))
    for k in range(K):
        Xk = X[y == k + 1]
        means[k] = Xk.mean(axis=0)
        D = Xk - means[k]
        covs[k] = symmetrize(D.T @ D / counts[k])
    return GaussianClassModel(weights=counts / n, means=means,
                              covariances=covs, counts=counts)


def compute_scatter(dataset: Dataset, model: GaussianClassModel) -> ScatterMatrices:
    """Pooled within/between/total scatter under the 1/n convention.

    ``within = (1/n) sum_k n_k Sigma_k``, ``between = (1/n) sum_k n_k
    (mu_k - mu)(mu_k - mu)'`` and ``total = within + between``, which
    equals the covariance matrix of all of the data.
    """
    _require_labels(dataset)
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
        The sphered dataset (labels and their names carried over) and
        the ``p x p`` transform ``T`` with ``sphered = (X - mean(X)) @
        T``. Feature directions found in the sphered space map back to
        input coordinates as ``T @ u``.

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
            f"(min eigenvalue {w.min():.3e}); remove constant or collinear "
            "columns (--drop-constant removes the constant ones)"
        )
    T = symmetrize(Q @ ((1.0 / np.sqrt(w)) * Q).T)
    return Dataset(frozen(D @ T), dataset.labels, dataset.label_names), T
