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

Both EMs (the full-space fit and the projected re-estimate) run in one
loop, :func:`_run_em`, which owns the stop, the cap warning,
re-seeding and the weights; each EM supplies only its E- and M-step on
its own sufficient statistics.

Both EMs work observation-last, like the projected model in
:mod:`opgd.objective`: log joints, their log-sum-exps and the
responsibilities are C-contiguous ``(K, n)`` arrays, so numpy's inner
loops run over the observations, not over the few components. Each
iteration costs a few products, and each EM takes the same steps as a
loop over the components would, to rounding:

- The full-space EM centres ``X`` at its column mean ``c`` once per fit
  and keeps ``X1 = [X - c, 1]``, its one copy of the data, and an
  anchor ``a_k`` for each component k. The M-step takes the means and
  scatters of all K components from one ``(K p, n) x (n, p + 1)``
  product of the responsibility-weighted differences ``X - a_k`` with
  ``X1``, taken in cache-sized row blocks: each block's differences are
  formed from ``X1`` as the block is reached, so no ``(K, p, n)`` array
  is held. The E-step feeds ``X1`` to the full-covariance density
  routine of :mod:`opgd.objective`, which also works in row blocks.
- The projected EM keeps, for each component k, ``F_k = [(Z - a_k)^2;
  Z - a_k; 1]`` about an anchor ``a_k``. Each E-step is one batched
  product of per-component coefficients with ``F``, and each M-step
  takes the mass and moments of every component from one batched
  product of ``F`` with the responsibilities.

In both, an anchor moves to its component's mean whenever the mean has
drifted more than one standard deviation from it, so the moments are
taken about a point near each component's mean, never about a far-off
centre, and no variance is the small difference of two large sums.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataError, Dataset, GmmModel, \
    check_projection, estimate_class_model, scatter_from_responsibilities, \
    symmetrize  # noqa: F401
# ``log_densities``, like ``scatter_from_responsibilities`` above, is
# imported only for perfbench's tracer, which wraps it here.
from .objective import _BLOCK_ENTRIES, LOG_2PI, GradientWorkspace, \
    _augment, _shifted_log_densities, bayes_posteriors, build_workspace, \
    cholesky_factors, classification_log_likelihood, component_logsumexp, \
    full_gaussian_log_densities, grad_objective, \
    grad_weighted_log_densities, log_densities, \
    projected_variances  # noqa: F401
from .optimizer import OptimConfig, ascend, init_projection, \
    reuse_workspace


@dataclass(frozen=True)
class ClusterConfig:
    """Settings for mixture fitting and enhancement.

    ``lam`` is the orthonormality penalty weight; ``None`` means the
    number of observations. ``em_tol`` bounds the log-likelihood gain
    that Aitken's extrapolation says is still to come when EM stops,
    relative to ``max(1, |loglik|)`` (see :func:`_run_em`); the
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


def _run_em(e_step, m_step, reseed, config: ClusterConfig, name: str,
            component: str, weights=None, R=None):
    """The EM loop of both mixtures.

    ``e_step(weights)`` returns the ``(K, n)`` log joints of the current
    parameters in a fresh array, which becomes the responsibilities in
    place; ``m_step(R)`` re-estimates them from the ``(K, n)``
    responsibilities and returns each component's mass; ``reseed(k,
    worst)`` restarts component ``k`` at observation ``worst``, the one
    the last E-step explained worst (``None`` before any). A fit given
    ``R`` starts with an M-step, one given ``weights`` with an E-step.

    After each M-step a component whose mass fell below 1e-10 is
    re-seeded, with a ``UserWarning``, at weight ``1/n``, and the
    weights are renormalised. EM stops by :func:`_em_converged` at
    ``config.em_tol``: when a step gains nothing, or when Aitken's
    extrapolation of the last three log-likelihoods leaves at most
    ``em_tol * max(1, |loglik|)`` to gain. One that reaches
    ``config.em_max_iters`` first stops there with a ``UserWarning``
    naming the cap. Either way the last pass is an E-step: the returned
    ``(weights, R, trace)`` hold the responsibilities of the returned
    mixture and the log-likelihood after each E-step.
    """
    trace, ll_per_point = [], None
    for _ in range(config.em_max_iters + 1):
        if R is not None:
            n = R.shape[1]
            mass = m_step(R)
            R = None    # freed before the E-step forms the next
            weights = mass / n
            for k in np.flatnonzero(mass < 1e-10):
                warnings.warn(f"{component} component {k + 1} lost all "
                              "responsibility mass; re-seeding")
                reseed(k, None if ll_per_point is None
                       else int(np.argmin(ll_per_point)))
                weights[k] = 1.0 / n
            weights = weights / weights.sum()
        R = e_step(weights)
        ll_per_point = component_logsumexp(R)
        trace.append(float(ll_per_point.sum()))
        R -= ll_per_point
        np.exp(R, out=R)
        if _em_converged(trace, config.em_tol):
            break
    else:
        warnings.warn(f"{name} stopped at its cap of "
                      f"{config.em_max_iters} iterations before converging")
    return weights, R, np.asarray(trace)


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

    EM runs in :func:`_run_em`, starting with an M-step from the k-means
    partition, and stops as it describes. ``return_trace=True`` returns
    ``(model, trace)``, the trace holding the log-likelihood after each
    E-step.
    """
    config = config if config is not None else ClusterConfig()
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError("X must be a 2-d array")
    n, p = X.shape
    if p == 0:
        raise DataError("X has no columns to fit a mixture to")
    if K < 1:
        raise ConfigError(f"need at least one component, got K={K}")
    if n < K:
        raise DataError(f"need at least K={K} observations, got {n}")
    rng = np.random.default_rng(config.seed)
    data_cov_trace = float(np.var(X, axis=0).sum())

    assign = _kmeans(X, K, rng)

    # X1 = [X - c, 1] about the data mean c, formed once, feeds every
    # E-step and M-step; the differences from the anchors a_k (see the
    # module docstring) are formed one row block at a time in ``block``
    center = X.mean(axis=0)
    X1 = _augment(X, center)
    anchors, means = np.empty((K, p)), np.empty((K, p))
    covs = np.empty((K, p, p))
    stale = np.ones(K, dtype=bool)
    rows = max(1, _BLOCK_ENTRIES // (K * p))
    block, block_t = np.empty((K, p, rows)), np.empty((p, rows))
    eye = np.eye(p)

    def m_step(R):
        # M_k = sum_i r_ki (x_i - a_k) [x_i - c, 1] for all k from one
        # (K p, n) x (n, p + 1) product, taken in cache-sized row blocks,
        # each block's differences formed afresh from X1; one Cholesky to
        # test the floors. A component without mass divides by 1 and is
        # re-seeded by _run_em.
        mass = R.sum(axis=1)
        divisor = np.where(mass > 0, mass, 1.0)[:, None]
        if stale.any():
            anchors[stale] = R[stale] @ X1[:, :p] / divisor[stale]
        moments = np.zeros((K * p, p + 1))
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            W = block[:, :, :hi - lo]
            # the block is transposed once, not once per component
            T = block_t[:, :hi - lo]
            np.copyto(T, X1[lo:hi, :p].T)
            np.subtract(T, anchors[:, :, None], out=W)
            W *= R[:, None, lo:hi]
            moments += W.reshape(K * p, -1) @ X1[lo:hi]
        moments = moments.reshape(K, p, p + 1) / divisor[:, :, None]
        # M_k / m_k = [S_k + d_k (mu_k - c)', d_k] for the shift
        # d_k = mu_k - a_k of each mean from its anchor
        shift = moments[:, :, p]
        means[:] = anchors + shift
        covs[:] = symmetrize(moments[:, :, :p]
                             - shift[:, :, None] * means[:, None, :])
        stale[:] = (shift * shift > np.einsum("kii->ki", covs)).any(axis=1)
        floors = config.cov_floor * np.maximum(
            np.einsum("kii->k", covs), 1e-6 * data_cov_trace) / p
        _, above = cholesky_factors(covs - floors[:, None, None] * eye)
        for k in np.flatnonzero(~above):
            covs[k] = _floor_covariance(covs[k], floors[k])
        return mass

    def reseed(k, worst):
        means[k] = X1[worst if worst is not None else rng.integers(n), :p]
        stale[k] = True
        covs[k] = _floor_covariance(
            np.diag(np.full(p, max(data_cov_trace / p, 1e-12))),
            config.cov_floor * max(data_cov_trace, 1e-12) / p)

    def e_step(weights):
        # (K, n) log joints, in row blocks of X1
        joint = _shifted_log_densities(X1, means, covs)
        joint += np.log(weights)[:, None]
        return joint

    # the one-hot k-means partition, held by _run_em alone so that it is
    # freed after the first M-step
    weights, _, trace = _run_em(
        e_step, m_step, reseed, config, "full-space EM", "mixture",
        R=(np.arange(K)[:, None] == assign).astype(float))
    means += center
    model = GmmModel(weights=weights, means=means, covariances=covs)
    if return_trace:
        return model, trace
    return model


def responsibilities(X, gmm: GmmModel):
    """``n x K`` posterior component probabilities of the observations."""
    return bayes_posteriors(gmm.log_weights, full_gaussian_log_densities(
        np.asarray(X, dtype=float), gmm.means, gmm.covariances).T).T


def hard_labels(X, gmm: GmmModel):
    """Maximum-responsibility component ids, 1-based."""
    return np.argmax(responsibilities(X, gmm), axis=1) + 1


def _penalty(V):
    G = V.T @ V - np.eye(V.shape[1])
    return float(np.sum(G * G))


def cluster_objective(X, V, gmm: GmmModel, lam: float,
                      workspace: GradientWorkspace | None = None) -> float:
    """Max-component log-posterior sum minus the orthonormality penalty.

    ``workspace``, when given, is ``build_workspace(X, V, gmm)`` and is
    read instead of evaluating the mixture again.
    """
    V = check_projection(V, gmm.p)
    ws = workspace if workspace is not None \
        else build_workspace(np.asarray(X, dtype=float), V, gmm)
    term1 = float((ws.log_joint.max(axis=0) - ws.log_mix).sum())
    return term1 - lam * _penalty(V)


def grad_cluster_objective(X, V, gmm: GmmModel, lam: float,
                           workspace: GradientWorkspace | None = None):
    """Gradient of :func:`cluster_objective`.

    The per-point argmax components are recomputed here (ties to the
    lowest index) and treated as locally constant, which is valid away
    from assignment boundaries. The assignment term's gradient is then
    that of ``sum_ik (hard_ik - post_ik) log phi_k(V'x_i)`` with both
    weights held fixed; the kernel is linear in the weights, so one call
    covers numerator and mixture denominator. The penalty contributes
    ``-4 lam V (V'V - I)``. ``workspace`` is as for
    :func:`cluster_objective`.
    """
    X = np.asarray(X, dtype=float)
    V = check_projection(V, gmm.p)
    ws = workspace if workspace is not None else build_workspace(X, V, gmm)
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

    EM runs in :func:`_run_em`, starting with an E-step from the given
    mixture, and stops as it describes; the returned ``n x K``
    responsibilities are those of the returned mixture. The caller's
    arrays are not written to.
    """
    K, (n, d) = len(weights), Z.shape
    ZT = np.ascontiguousarray(Z.T)
    floor = config.cov_floor * max(float(np.var(Z, axis=0).mean()), 1e-12)
    means = np.array(means, dtype=float)
    variances = np.maximum(variances, floor)
    # F[k] = [(Z - a_k)^2; Z - a_k; 1]' about the anchor a_k (see the
    # module docstring): component k's log joint is linear in its rows,
    # and R[k] F[k]' holds its mass and moments about a_k
    F = np.empty((K, 2 * d + 1, n))
    F[:, 2 * d] = 1.0
    anchors = np.full_like(means, np.inf)
    coef = np.empty((K, 1, 2 * d + 1))

    def e_step(weights):
        # re-anchor each component whose mean drifted more than one sd
        # from its anchor: all of them at first, the anchors being inf
        for k in np.flatnonzero(((means - anchors) ** 2
                                 > variances).any(axis=1)):
            anchors[k] = means[k]
            np.subtract(ZT, means[k, :, None], out=F[k, d:2 * d])
            np.multiply(F[k, d:2 * d], F[k, d:2 * d], out=F[k, :d])
        # every log joint from one batched product
        offset = means - anchors
        prec = 1.0 / variances
        coef[:, 0, :d] = -0.5 * prec
        coef[:, 0, d:2 * d] = offset * prec
        coef[:, 0, 2 * d] = np.log(weights) - 0.5 * (
            d * LOG_2PI
            + (np.log(variances) + offset * offset * prec).sum(axis=1))
        return (coef @ F)[:, 0, :]

    def m_step(R):
        # mass and moments about the anchors from one product; a
        # component without mass divides by 1 and is re-seeded by
        # _run_em
        sums = (F @ R[:, :, None])[:, :, 0]
        mass = sums[:, 2 * d]
        divisor = np.where(mass > 0, mass, 1.0)[:, None]
        shift = sums[:, d:2 * d] / divisor
        means[:] = anchors + shift
        variances[:] = np.maximum(sums[:, :d] / divisor - shift * shift,
                                  floor)
        return mass

    def reseed(k, worst):
        means[k] = Z[worst]
        variances[k] = np.maximum(np.var(Z, axis=0), floor)

    weights, R, trace = _run_em(e_step, m_step, reseed, config,
                                "projected EM", "projected", weights=weights)
    return weights, means, variances, R.T, trace


def enhance_gmm(X, gmm: GmmModel, dim: int, config: ClusterConfig | None = None,
                opt: OptimConfig | None = None):
    """Sharpen a fitted mixture by projecting, then re-estimating.

    Pipeline: warm-start ``V`` from the initial mixture's components
    (:func:`~opgd.optimizer.init_projection`, orthonormalized), ascend
    the penalized max-component objective, then run diagonal-covariance
    EM on ``X V`` initialized from the projected mixture parameters.
    Returns the projection, the 1-based maximum-responsibility labels,
    and the re-estimated projected mixture (diagonal covariances).

    The gradient reads the workspace of the value at its point (see
    :func:`~opgd.optimizer.reuse_workspace`).
    """
    config = config if config is not None else ClusterConfig()
    opt = opt if opt is not None else OptimConfig()
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not 1 <= dim <= gmm.p:
        raise ConfigError(f"dim must lie in [1, {gmm.p}], got {dim}")
    lam = float(config.lam) if config.lam is not None else float(n)

    V0 = np.linalg.qr(init_projection(gmm, dim, opt))[0]

    value, grad = reuse_workspace(
        lambda M: build_workspace(X, M, gmm),
        lambda M, ws: cluster_objective(X, M, gmm, lam, workspace=ws),
        lambda M, ws: grad_cluster_objective(X, M, gmm, lam, workspace=ws))
    V, _ = ascend(value, grad, V0, opt, scale=float(n))

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
    basis (columns, for back-mapping). Data without variance is a
    ``DataError``: no component would be kept.
    """
    if not 0 < threshold <= 1:
        raise ConfigError("threshold must lie in (0, 1]")
    X = np.asarray(X, dtype=float)
    Xc = X - X.mean(axis=0)
    w, U = np.linalg.eigh(symmetrize(Xc.T @ Xc / X.shape[0]))
    w, U = w[::-1], U[:, ::-1]
    total = w.sum()
    if not total > 0:
        raise DataError("no column varies: the PCA pre-filter would keep "
                        "no component")
    ratio = np.cumsum(w) / total
    ratio[-1] = 1.0
    m = int(np.searchsorted(ratio, threshold) + 1)
    basis = U[:, :m]
    return Xc @ basis, basis
