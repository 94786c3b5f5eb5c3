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

Both EMs (the full-space fit and the projected re-estimate) share one
stopping rule, :func:`_em_converged`: they stop when a step gains
nothing, or when the log-likelihood gain still to come by Aitken's
extrapolation of the last three values is at most
``em_tol * max(1, |loglik|)`` (``em_tol = 1e-5`` by default). An EM that
reaches ``em_max_iters`` first stops there with a ``UserWarning``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ConfigError, DataError, Dataset, _readonly, \
    check_projection, estimate_class_model, scatter_from_responsibilities, \
    symmetrize, variance_floors
# ``log_densities`` is imported only for perfbench's tracer, which wraps it
# here.
from .objective import build_workspace, cholesky_factors, \
    classification_log_likelihood, component_logsumexp, diag_log_densities, \
    full_gaussian_log_densities, grad_objective, \
    grad_weighted_log_densities, log_densities, \
    projected_variances  # noqa: F401
from .optimizer import OptimConfig, ascend, init_projection


@dataclass(frozen=True)
class GmmModel:
    """Gaussian mixture parameters (weights on the simplex, full PD
    covariances after the estimation floor), held read-only."""

    weights: np.ndarray       # (K,)
    means: np.ndarray         # (K, p)
    covariances: np.ndarray   # (K, p, p)

    def __post_init__(self):
        for name in ("weights", "means", "covariances"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

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
class ClusterConfig:
    """Settings for mixture fitting and enhancement.

    ``lam`` is the orthonormality penalty weight; ``None`` means the
    number of observations. ``em_tol`` bounds the log-likelihood gain
    that Aitken's extrapolation says is still to come when EM stops,
    relative to ``max(1, |loglik|)`` (see :func:`_em_converged`); the
    default ``1e-5`` is mclust's EM tolerance. An EM still short of it
    after ``em_max_iters`` iterations stops with a ``UserWarning``.
    Every float must be finite.
    """

    lam: float | None = None
    em_max_iters: int = 300
    em_tol: float = 1e-5
    cov_floor: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.lam is not None and not (np.isfinite(self.lam)
                                         and self.lam >= 0):
            raise ConfigError(f"lam must be finite and non-negative, "
                              f"got {self.lam}")
        if self.em_max_iters < 1:
            raise ConfigError("em_max_iters must be positive")
        for name in ("em_tol", "cov_floor"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, "
                                  f"got {value}")


def _em_converged(trace, tol: float) -> bool:
    """Whether an EM log-likelihood ``trace`` has converged.

    It has when either

    - the last step ``d_t = l_t - l_{t-1}`` gained nothing (``d_t <= 0``),
      as after a floor or re-seed lowered the likelihood;
    - the last three values give a rate ``a = d_t / d_{t-1}`` with
      ``d_{t-1} > 0`` and ``0 <= a < 1``, and the gain still to come by
      Aitken's extrapolation (Boehning et al. 1994),
      ``l_inf - l_t = d_t a / (1 - a)``, is at most
      ``tol * max(1, |l_t|)``.

    A sequence whose gains do not shrink (``a >= 1``) has no
    extrapolated limit and runs on.
    """
    if len(trace) < 2:
        return False
    gain = trace[-1] - trace[-2]
    if gain <= 0:
        return True
    if len(trace) < 3 or trace[-2] - trace[-3] <= 0:
        return False
    a = gain / (trace[-2] - trace[-3])
    return a < 1 and gain * a / (1 - a) <= tol * max(1.0, abs(trace[-1]))


def _floor_covariance(S, floor):
    """Clamp eigenvalues from below; untouched when already above floor."""
    S = symmetrize(S)
    w, U = np.linalg.eigh(S)
    if w[0] >= floor:
        return S
    w = np.maximum(w, floor)
    return symmetrize((U * w) @ U.T)


def _kmeans(X, K, rng, iters: int = 100):
    """Plain Lloyd iterations with distance-weighted seeding.

    Squared distances are ``||x||^2 - 2 x'c + ||c||^2``, clamped at 0,
    from one matrix product per pass; the centres are the assignment
    sums from one product with the one-hot assignment matrix.
    """
    n = X.shape[0]
    x2 = np.einsum("ij,ij->i", X, X)

    def sq_dist(C):
        d2 = x2[:, None] - 2.0 * (X @ C.T) + np.einsum("kj,kj->k", C, C)
        return np.maximum(d2, 0.0, out=d2)

    centers = np.empty((K, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = sq_dist(centers[:1])[:, 0]
    for k in range(1, K):
        total = closest.sum()
        if total <= 0:
            centers[k] = X[rng.integers(n)]
        else:
            centers[k] = X[rng.choice(n, p=closest / total)]
        np.minimum(closest, sq_dist(centers[k:k + 1])[:, 0], out=closest)
    assign = np.full(n, -1, dtype=int)
    components = np.arange(K)[:, None]
    for _ in range(iters):
        new = np.argmin(sq_dist(centers), axis=1)
        if np.array_equal(new, assign):
            break
        assign = new
        onehot = (assign[None, :] == components).astype(float)
        counts = onehot.sum(axis=1)
        filled = counts > 0
        centers[filled] = (onehot[filled] @ X) / counts[filled, None]
    return assign


def fit_gmm_em(X, K: int, config: ClusterConfig | None = None,
               return_trace: bool = False):
    """Full-covariance Gaussian mixture by EM.

    Initialization is k-means from the config seed; each M-step clamps
    covariance eigenvalues at ``cov_floor * trace/p`` (one batched
    Cholesky of ``S_k - floor_k I`` finds the components that need it,
    and only those get an eigendecomposition); a component whose
    responsibility mass vanishes is re-seeded at the point the current
    mixture explains worst, with a warning. The log-likelihood trace is
    non-decreasing (within 1e-8) whenever no floor or re-seed fires.

    EM stops by :func:`_em_converged` at ``config.em_tol``, or after
    ``config.em_max_iters`` iterations with a ``UserWarning`` naming the
    cap. ``return_trace=True`` returns ``(model, trace)``, the trace
    holding the log-likelihood after each E-step.
    """
    config = config if config is not None else ClusterConfig()
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError("X must be a 2-d array")
    n, p = X.shape
    if K < 1:
        raise ConfigError(f"need at least one component, got K={K}")
    if n < K:
        raise DataError(f"need at least K={K} observations, got {n}")
    rng = np.random.default_rng(config.seed)
    data_cov_trace = float(np.var(X, axis=0).sum())

    assign = _kmeans(X, K, rng)
    R = np.zeros((n, K))
    R[np.arange(n), assign] = 1.0

    eye = np.eye(p)
    buf = np.empty_like(X)
    means = np.empty((K, p))
    covs = np.zeros((K, p, p))
    trace = []
    ll_per_point = None
    for _ in range(config.em_max_iters + 1):
        # M-step: all means from one product, each scatter from one
        # weighted-difference buffer, one Cholesky to test the floors
        mass = R.sum(axis=0)
        dead = mass < 1e-10
        live = np.flatnonzero(~dead)
        np.divide(R.T @ X, np.where(dead, 1.0, mass)[:, None], out=means)
        root = np.sqrt(R)
        for k in live:
            np.subtract(X, means[k], out=buf)
            buf *= root[:, k, None]
            np.matmul(buf.T, buf, out=covs[k])
            covs[k] /= mass[k]
        covs = symmetrize(covs)
        floors = config.cov_floor * np.maximum(
            np.einsum("kii->k", covs), 1e-6 * data_cov_trace) / p
        _, above = cholesky_factors(covs[live]
                                    - floors[live, None, None] * eye)
        for k in live[~above]:
            covs[k] = _floor_covariance(covs[k], floors[k])
        weights = mass / n
        for k in np.flatnonzero(dead):
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
        weights = weights / weights.sum()
        # E-step
        ld = full_gaussian_log_densities(X, means, covs)
        joint = np.log(weights)[:, None] + ld.T
        ll_per_point = component_logsumexp(joint)
        ll = float(ll_per_point.sum())
        trace.append(ll)
        R = np.exp(joint - ll_per_point).T
        if _em_converged(trace, config.em_tol):
            break
    else:
        warnings.warn(f"full-space EM stopped at its cap of "
                      f"{config.em_max_iters} iterations before converging")
    model = GmmModel(weights=weights, means=means, covariances=covs)
    if return_trace:
        return model, np.asarray(trace)
    return model


def responsibilities(X, gmm: GmmModel):
    """``n x K`` posterior component probabilities of the observations."""
    joint = gmm.log_weights[:, None] + \
        full_gaussian_log_densities(np.asarray(X, dtype=float),
                                    gmm.means, gmm.covariances).T
    return np.exp(joint - component_logsumexp(joint, keepdims=True)).T


def hard_labels(X, gmm: GmmModel):
    """Maximum-responsibility component ids, 1-based."""
    return np.argmax(responsibilities(X, gmm), axis=1) + 1


def _penalty(V):
    G = V.T @ V - np.eye(V.shape[1])
    return float(np.sum(G * G))


def cluster_objective(X, V, gmm: GmmModel, lam: float) -> float:
    """Max-component log-posterior sum minus the orthonormality penalty."""
    V = check_projection(V, gmm.p)
    ws = build_workspace(np.asarray(X, dtype=float), V, gmm)
    term1 = float((ws.log_joint.max(axis=0) - ws.log_mix).sum())
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
    ws = build_workspace(X, V, gmm)
    W = -ws.posteriors
    W[np.argmax(ws.log_joint, axis=0), np.arange(X.shape[0])] += 1.0
    G = grad_weighted_log_densities(X, gmm.means, ws.cov_proj, ws.proj_vars,
                                    ws.diffs, W)
    return G - 4.0 * lam * V @ (V.T @ V - np.eye(V.shape[1]))


def gradient_check(trials: int, seed: int):
    """Worst relative errors ``(supervised, clustering)`` of the analytic
    gradients against central differences (step 1e-6).

    The supervised suite draws ``trials`` random labeled instances. The
    clustering suite fits mixtures to shifted blobs and keeps drawing
    until ``max(trials // 5, 10)`` instances lie clear of an assignment
    switch, where the max-component term is not differentiable. The
    error is ``||G - FD|| / max(||FD||, 1e-12)``. Fewer than one trial
    is a ``ConfigError``: it would check nothing and pass.
    """
    if trials < 1:
        raise ConfigError(f"need at least one gradient-check trial, "
                          f"got {trials}")
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
        top2 = np.sort(build_workspace(X, V, gmm).log_joint, axis=0)
        if K > 1 and np.min(top2[-1] - top2[-2]) < 1e-3:
            continue
        lam = float(n)
        worst_clu = max(worst_clu, rel_err(
            lambda M: cluster_objective(X, M, gmm, lam),
            grad_cluster_objective(X, V, gmm, lam), V))
        done += 1
    return worst_sup, worst_clu


def _diag_em(Z, weights, means, variances, config: ClusterConfig):
    """Diagonal-covariance EM in the projected space, warm-started.

    Stops like :func:`fit_gmm_em`: by :func:`_em_converged`, or at
    ``config.em_max_iters`` with a ``UserWarning``. Either way the last
    pass is an E-step: the returned ``n x K`` responsibilities are those
    of the returned mixture.
    """
    n = Z.shape[0]
    ZT = np.ascontiguousarray(Z.T)
    floor = config.cov_floor * max(float(np.var(Z, axis=0).mean()), 1e-12)
    variances = np.maximum(variances, floor)
    trace = []
    for it in range(config.em_max_iters + 1):
        joint = np.log(weights)[:, None] + \
            diag_log_densities(ZT[None] - means[:, :, None], variances)
        ll_per_point = component_logsumexp(joint)
        ll = float(ll_per_point.sum())
        trace.append(ll)
        R = np.exp(joint - ll_per_point)
        if _em_converged(trace, config.em_tol):
            break
        if it == config.em_max_iters:
            warnings.warn(f"projected EM stopped at its cap of "
                          f"{config.em_max_iters} iterations before converging")
            break
        # M-step on (K, d, n) differences
        mass = R.sum(axis=1)
        dead = mass < 1e-10
        divisor = np.where(dead, 1.0, mass)[:, None]
        means = R @ Z / divisor
        D = ZT[None] - means[:, :, None]
        D *= D
        variances = np.maximum((D @ R[:, :, None])[:, :, 0] / divisor, floor)
        weights = mass / n
        for k in np.flatnonzero(dead):
            warnings.warn(f"projected component {k + 1} lost all "
                          "responsibility mass; re-seeding")
            means[k] = Z[int(np.argmin(ll_per_point))]
            variances[k] = np.maximum(np.var(Z, axis=0), floor)
            weights[k] = 1.0 / n
        weights = weights / weights.sum()
    return weights, means, variances, R.T, np.asarray(trace)


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
