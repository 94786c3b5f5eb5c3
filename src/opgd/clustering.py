"""Cluster-enhancement by projection: penalized max-component objective.

Given a fitted Gaussian mixture, the projection ``V`` is chosen to
maximize

    sum_i log( max_l w_l phi_l(V'x_i) / sum_l w_l phi_l(V'x_i) )
        - lambda * ||V'V - I||_F^2,

the sharpest-assignment analogue of the supervised likelihood, with a
Frobenius penalty keeping ``V`` near orthonormality (default weight
``lambda = n``). ``phi_l`` are the projected diagonal-covariance
component densities. After the ascent the mixture is re-estimated
inside the subspace by diagonal-covariance EM and points are labeled by
their maximum responsibility.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataError, Dataset, check_projection, \
    estimate_class_model, scatter_from_responsibilities, symmetrize
from .objective import classification_log_likelihood, \
    diag_gaussian_log_densities, diff_log_densities, \
    full_gaussian_log_densities, grad_objective, \
    grad_weighted_log_densities, log_densities, projected_variances, \
    row_logsumexp
from .optimizer import OptimConfig, ascend, init_projection


@dataclass(frozen=True)
class GmmModel:
    """Gaussian mixture parameters (weights on the simplex, full PD
    covariances after the estimation floor)."""

    weights: np.ndarray       # (K,)
    means: np.ndarray         # (K, p)
    covariances: np.ndarray   # (K, p, p)

    @property
    def K(self) -> int:
        return self.weights.shape[0]

    @property
    def p(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class ClusterConfig:
    """Settings for mixture fitting and enhancement.

    ``lam`` is the orthonormality penalty weight; ``None`` means the
    number of observations.
    """

    lam: float | None = None
    em_max_iters: int = 300
    em_tol: float = 1e-8
    cov_floor: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.lam is not None and self.lam < 0:
            raise ConfigError("lam must be non-negative")
        if self.em_max_iters < 1 or self.em_tol <= 0 or self.cov_floor <= 0:
            raise ConfigError("EM settings must be positive")


def _floor_covariance(S, floor):
    """Clamp eigenvalues from below; untouched when already above floor."""
    S = symmetrize(S)
    w, U = np.linalg.eigh(S)
    if w[0] >= floor:
        return S
    w = np.maximum(w, floor)
    return symmetrize((U * w) @ U.T)


def _kmeans(X, K, rng, iters: int = 100):
    """Plain Lloyd iterations with distance-weighted seeding."""
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    for k in range(1, K):
        d2 = np.min(((X[:, None, :] - centers[None, :k, :]) ** 2).sum(-1), axis=1)
        total = d2.sum()
        if total <= 0:
            centers[k] = X[rng.integers(n)]
        else:
            centers[k] = X[rng.choice(n, p=d2 / total)]
    assign = np.full(n, -1, dtype=int)
    for _ in range(iters):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        new = np.argmin(d2, axis=1)
        if np.array_equal(new, assign):
            break
        assign = new
        for k in range(K):
            pts = X[assign == k]
            if len(pts):
                centers[k] = pts.mean(axis=0)
    return assign


def fit_gmm_em(X, K: int, config: ClusterConfig | None = None,
               return_trace: bool = False):
    """Full-covariance Gaussian mixture by EM.

    Initialization is k-means from the config seed; each M-step clamps
    covariance eigenvalues at ``cov_floor * trace/p``; a component whose
    responsibility mass vanishes is re-seeded at the point the current
    mixture explains worst, with a warning. The log-likelihood trace is
    non-decreasing (within 1e-8) whenever no floor or re-seed fires.
    """
    config = config if config is not None else ClusterConfig()
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError("X must be a 2-d array")
    n, p = X.shape
    if n < K:
        raise DataError(f"need at least K={K} observations, got {n}")
    rng = np.random.default_rng(config.seed)
    data_cov_trace = float(np.var(X, axis=0).sum())

    assign = _kmeans(X, K, rng)
    R = np.zeros((n, K))
    R[np.arange(n), assign] = 1.0

    weights = np.empty(K)
    means = np.empty((K, p))
    covs = np.empty((K, p, p))
    trace = []
    ll_prev = -np.inf
    ll_per_point = None
    for it in range(config.em_max_iters + 1):
        # M-step
        mass = R.sum(axis=0)
        for k in range(K):
            if mass[k] < 1e-10:
                # dead component: restart at the worst-explained point
                warnings.warn(f"mixture component {k + 1} lost all "
                              "responsibility mass; re-seeding")
                worst = int(np.argmin(ll_per_point)) \
                    if ll_per_point is not None else int(rng.integers(n))
                means[k] = X[worst]
                covs[k] = _floor_covariance(
                    np.diag(np.full(p, max(data_cov_trace / p, 1e-12))),
                    config.cov_floor * max(data_cov_trace, 1e-12) / p)
                weights[k] = 1.0 / n
                continue
            means[k] = R[:, k] @ X / mass[k]
            D = X - means[k]
            S = (D * R[:, k, None]).T @ D / mass[k]
            floor = config.cov_floor * max(np.trace(S),
                                           1e-6 * data_cov_trace) / p
            covs[k] = _floor_covariance(S, floor)
            weights[k] = mass[k] / n
        weights = weights / weights.sum()
        # E-step
        ld = full_gaussian_log_densities(X, means, covs)
        joint = np.log(weights)[None, :] + ld
        ll_per_point = row_logsumexp(joint)
        ll = float(ll_per_point.sum())
        trace.append(ll)
        R = np.exp(joint - ll_per_point[:, None])
        if it > 0 and ll - ll_prev <= config.em_tol * max(1.0, abs(ll)):
            break
        ll_prev = ll
    model = GmmModel(weights=weights.copy(), means=means.copy(),
                     covariances=covs.copy())
    if return_trace:
        return model, np.asarray(trace)
    return model


def responsibilities(X, gmm: GmmModel):
    """Posterior component probabilities of each observation."""
    joint = np.log(gmm.weights)[None, :] + \
        full_gaussian_log_densities(np.asarray(X, dtype=float),
                                    gmm.means, gmm.covariances)
    return np.exp(joint - row_logsumexp(joint, keepdims=True))


def hard_labels(X, gmm: GmmModel):
    """Maximum-responsibility component ids, 1-based."""
    return np.argmax(responsibilities(X, gmm), axis=1) + 1


def _penalty(V):
    G = V.T @ V - np.eye(V.shape[1])
    return float(np.sum(G * G))


def cluster_objective(X, V, gmm: GmmModel, lam: float) -> float:
    """Max-component log-posterior sum minus the orthonormality penalty."""
    X = np.asarray(X, dtype=float)
    V = check_projection(V, gmm.p)
    joint = np.log(gmm.weights)[None, :] + \
        log_densities(X, V, gmm.means, gmm.covariances)
    term1 = float((joint.max(axis=1) - row_logsumexp(joint)).sum())
    return term1 - lam * _penalty(V)


def grad_cluster_objective(X, V, gmm: GmmModel, lam: float):
    """Gradient of :func:`cluster_objective`.

    The per-point argmax components are recomputed here (ties to the
    lowest index) and treated as locally constant, which is valid away
    from assignment boundaries. The assignment term's gradient is then
    that of ``sum_ik (hard_ik - post_ik) log phi_k(V'x_i)`` with both
    weights held fixed; the kernel is linear in the weights, so one call
    covers numerator and mixture denominator. The penalty contributes
    ``-4 lam V (V'V - I)``.
    """
    X = np.asarray(X, dtype=float)
    V = check_projection(V, gmm.p)
    pv = projected_variances(V, gmm.covariances)
    diffs = (X @ V)[:, None, :] - (gmm.means @ V)[None, :, :]
    joint = np.log(gmm.weights)[None, :] + diff_log_densities(diffs, pv)
    post = np.exp(joint - row_logsumexp(joint, keepdims=True))
    hard = np.zeros_like(post)
    hard[np.arange(X.shape[0]), np.argmax(joint, axis=1)] = 1.0
    G = grad_weighted_log_densities(X, V, gmm.means, gmm.covariances, pv,
                                    diffs, hard - post)
    return G - 4.0 * lam * V @ (V.T @ V - np.eye(V.shape[1]))


def gradient_check(trials: int, seed: int):
    """Worst relative errors ``(supervised, clustering)`` of the analytic
    gradients against central differences (step 1e-6).

    The supervised suite draws ``trials`` random labeled instances. The
    clustering suite fits mixtures to shifted blobs and keeps drawing
    until ``max(trials // 5, 10)`` instances lie clear of an assignment
    switch, where the max-component term is not differentiable. The
    error is ``||G - FD|| / max(||FD||, 1e-12)``.
    """
    def rel_err(fn, G, V, h=1e-6):
        FD = np.zeros_like(V)
        for a in range(V.shape[0]):
            for b in range(V.shape[1]):
                Vp = V.copy()
                Vp[a, b] += h
                Vm = V.copy()
                Vm[a, b] -= h
                FD[a, b] = (fn(Vp) - fn(Vm)) / (2.0 * h)
        return float(np.linalg.norm(G - FD) /
                     max(np.linalg.norm(FD), 1e-12))

    rng = np.random.default_rng(seed)
    worst_sup = 0.0
    for _ in range(trials):
        n = int(rng.integers(15, 51))
        p = int(rng.integers(2, 9))
        K = int(rng.integers(2, 5))
        dim = int(rng.integers(1, min(p, 4) + 1))
        X = rng.standard_normal((n, p))
        y = np.r_[np.tile(np.arange(1, K + 1), 2),
                  rng.integers(1, K + 1, n - 2 * K)]
        ds = Dataset(X, y)
        model = estimate_class_model(ds)
        V = rng.standard_normal((p, dim))
        worst_sup = max(worst_sup, rel_err(
            lambda M: classification_log_likelihood(ds, M, model),
            grad_objective(ds, V, model), V))

    worst_clu = 0.0
    done = 0
    while done < max(trials // 5, 10):
        n = int(rng.integers(20, 51))
        p = int(rng.integers(2, 7))
        K = int(rng.integers(1, 4))
        dim = int(rng.integers(1, min(p, 3) + 1))
        X = rng.standard_normal((n, p)) + 3.0 * rng.integers(0, K, (n, 1))
        gmm = fit_gmm_em(X, K, ClusterConfig(seed=int(rng.integers(1 << 31))))
        V = rng.standard_normal((p, dim))
        joint = np.log(gmm.weights)[None, :] + \
            log_densities(X, V, gmm.means, gmm.covariances)
        top2 = np.sort(joint, axis=1)
        if K > 1 and np.min(top2[:, -1] - top2[:, -2]) < 1e-3:
            continue
        lam = float(n)
        worst_clu = max(worst_clu, rel_err(
            lambda M: cluster_objective(X, M, gmm, lam),
            grad_cluster_objective(X, V, gmm, lam), V))
        done += 1
    return worst_sup, worst_clu


def _diag_em(Z, weights, means, variances, config: ClusterConfig):
    """Diagonal-covariance EM in the projected space, warm-started."""
    n, d = Z.shape
    K = weights.shape[0]
    floor = config.cov_floor * max(float(np.var(Z, axis=0).mean()), 1e-12)
    variances = np.maximum(variances, floor)
    ll_prev = -np.inf
    trace = []
    for it in range(config.em_max_iters + 1):
        joint = np.log(weights)[None, :] + \
            diag_gaussian_log_densities(Z, means, variances)
        ll_per_point = row_logsumexp(joint)
        ll = float(ll_per_point.sum())
        trace.append(ll)
        R = np.exp(joint - ll_per_point[:, None])
        if it > 0 and ll - ll_prev <= config.em_tol * max(1.0, abs(ll)):
            break
        ll_prev = ll
        mass = R.sum(axis=0)
        for k in range(K):
            if mass[k] < 1e-10:
                warnings.warn(f"projected component {k + 1} lost all "
                              "responsibility mass; re-seeding")
                worst = int(np.argmin(ll_per_point))
                means[k] = Z[worst]
                variances[k] = np.maximum(np.var(Z, axis=0), floor)
                weights[k] = 1.0 / n
                continue
            means[k] = R[:, k] @ Z / mass[k]
            D = Z - means[k]
            variances[k] = np.maximum((R[:, k] @ (D * D)) / mass[k], floor)
            weights[k] = mass[k] / n
        weights = weights / weights.sum()
    return weights, means, variances, R, np.asarray(trace)


def enhance_gmm(X, gmm: GmmModel, dim: int, config: ClusterConfig | None = None,
                opt: OptimConfig | None = None):
    """Sharpen a fitted mixture by projecting, then re-estimating.

    Pipeline: warm-start ``V`` from the responsibility-weighted scatter
    of the initial mixture (orthonormalized), ascend the penalized
    max-component objective, then run diagonal-covariance EM on ``X V``
    initialized from the projected mixture parameters. Returns the
    projection, the 1-based maximum-responsibility labels, and the
    re-estimated projected mixture (diagonal covariances).
    """
    config = config if config is not None else ClusterConfig()
    opt = opt if opt is not None else OptimConfig()
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not 1 <= dim <= gmm.p:
        raise ConfigError(f"dim must lie in [1, {gmm.p}], got {dim}")
    lam = float(config.lam) if config.lam is not None else float(n)

    R = responsibilities(X, gmm)
    scatter = scatter_from_responsibilities(X, R)
    V0 = init_projection(scatter, dim, opt)
    V0 = np.linalg.qr(V0)[0]

    V, _ = ascend(lambda M: cluster_objective(X, M, gmm, lam),
                  lambda M: grad_cluster_objective(X, M, gmm, lam),
                  V0, opt, scale=float(n))

    Z = X @ V
    weights, means, variances, resp, _ = _diag_em(
        Z, gmm.weights.copy(), gmm.means @ V,
        projected_variances(V, gmm.covariances), config)
    labels = np.argmax(resp, axis=1) + 1
    covs = np.stack([np.diag(v) for v in variances])
    projected = GmmModel(weights=weights, means=means, covariances=covs)
    return V, labels, projected


def pca_prefilter(X, threshold: float):
    """Drop trailing principal components beyond a variance-ratio target.

    Keeps the smallest leading set of principal components whose
    cumulative share of the total variance reaches ``threshold`` and
    returns the centered projected data together with the component
    basis (columns, for back-mapping).
    """
    if not 0 < threshold <= 1:
        raise ConfigError("threshold must lie in (0, 1]")
    X = np.asarray(X, dtype=float)
    Xc = X - X.mean(axis=0)
    w, U = np.linalg.eigh(symmetrize(Xc.T @ Xc / X.shape[0]))
    w, U = w[::-1], U[:, ::-1]
    total = w.sum()
    if total <= 0:
        return Xc[:, :0].copy(), U[:, :0]
    ratio = np.cumsum(w) / total
    ratio[-1] = 1.0
    m = int(np.searchsorted(ratio, threshold) + 1)
    basis = U[:, :m]
    return Xc @ basis, basis
