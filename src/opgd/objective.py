"""Classification log-likelihood over linear projections, and its gradient.

The model: each class ``k`` gets a Gaussian density on the projected data
``X V`` with mean ``V' mu_k`` and *diagonal* covariance whose entries are
the congruence diagonal ``v_j' Sigma_k v_j``. The objective is the
multinomial log-likelihood of the observed labels under the Bayes
posteriors of this projected model,

    ell(V) = sum_i log p_{i,y_i}(V),

which decomposes as ``sum_i log prior_{y_i} + ell1(V) - ell2(V)`` where
``ell1`` sums the own-class log-densities and ``ell2`` the log mixture
densities. ``ell1`` collapses to a closed form whose data-dependent part
is ``-1/2 sum_k n_k sum_j log(v_j' Sigma_k v_j)``; ``ell2`` and the
posteriors are evaluated with a per-observation log-sum-exp shift.

All gradients here are exact: the dependence of the projected means and
variances on ``V`` is differentiated through, not held fixed. The
gradient of any weighted sum ``sum_ik W_ik log phi_k(V'x_i)`` needs the
weighted scatters ``S_k = sum_i W_ik (x_i - mu_k)(x_i - mu_k)'`` only
through ``S_k V`` and ``v_j' S_k v_j``, and both come straight from the
projected differences ``D_ik = V'(x_i - mu_k)``:

    S_k V = sum_i W_ik x_i D_ik' - mu_k (sum_i W_ik D_ik)',
    v_j' S_k v_j = sum_i W_ik D_ikj^2,

so no p x p scatter is formed. That gradient is linear in ``W``: the
supervised ``ell2`` uses the posteriors, the clustering objective the
hard assignments minus the posteriors, in one call each.

The diagonal and full-covariance Gaussian log-density routines here are
the only ones in the package; the classifier and the mixture code call
them too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .core import Dataset, GaussianClassModel, check_projection, symmetrize

# Projected variances are clamped below at this fraction of trace/p of the
# corresponding class covariance; clamp events are counted, never raised.
VARIANCE_FLOOR_FRAC = 1e-12

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class ClampStats:
    """Counter for variance-floor clamp events (diagnostics only)."""

    count: int = 0

    def add(self, k: int):
        self.count += int(k)


def projected_variances(V, covariances, clamp: ClampStats | None = None):
    """``K x p'`` matrix of v_j' Sigma_k v_j, floored to stay positive.

    The floor for class k is ``1e-12 * trace(Sigma_k) / p`` (with an
    absolute fallback of 1e-300 for all-zero covariances, which only
    occur on degenerate inputs).
    """
    covariances = np.asarray(covariances, dtype=float)
    V = np.asarray(V, dtype=float)
    pv = np.einsum("ij,kil,lj->kj", V, covariances, V)
    p = covariances.shape[1]
    floors = VARIANCE_FLOOR_FRAC * np.einsum("kii->k", covariances) / p
    floors = np.maximum(floors, 1e-300)
    low = pv < floors[:, None]
    if np.any(low):
        if clamp is not None:
            clamp.add(low.sum())
        pv = np.where(low, floors[:, None], pv)
    return pv


def diag_gaussian_log_densities(Z, means, variances):
    """``n x K`` diagonal-Gaussian log-densities of the rows of ``Z``.

    Entry (i, k) is ``log N(z_i; means[k], diag(variances[k]))``.
    """
    diff = Z[:, None, :] - means[None, :, :]     # (n, K, d)
    quad = np.einsum("ikj,kj->ik", diff * diff, 1.0 / variances)
    const = -0.5 * Z.shape[1] * LOG_2PI - 0.5 * np.log(variances).sum(axis=1)
    return const[None, :] - 0.5 * quad


def full_gaussian_log_densities(Z, means, covariances):
    """``n x K`` full-covariance Gaussian log-densities via Cholesky solves.

    A covariance that fails to factor gets a ridge of
    1e-8 * trace/d on the diagonal, with a warning; one that still fails
    (indefinite) raises ``LinAlgError``.
    """
    from scipy.linalg import cho_factor, cho_solve

    n, d = Z.shape
    K = means.shape[0]
    out = np.empty((n, K))
    for k in range(K):
        S = symmetrize(covariances[k])
        try:
            chol = cho_factor(S, lower=True)
        except np.linalg.LinAlgError:
            ridge = 1e-8 * max(np.trace(S), 1.0) / d
            warnings.warn("singular covariance; adding ridge "
                          f"{ridge:.3e} to keep the discriminant defined")
            chol = cho_factor(S + ridge * np.eye(d), lower=True)
        logdet = 2.0 * np.log(np.diag(chol[0])).sum()
        D = Z - means[k]
        quad = np.einsum("ij,ji->i", D, cho_solve(chol, D.T))
        out[:, k] = -0.5 * (d * LOG_2PI + logdet + quad)
    return out


def log_densities(X, V, means, covariances, clamp: ClampStats | None = None):
    """``n x K`` matrix of projected diagonal-Gaussian log-densities.

    Entry (i, k) is ``log N(V'x_i; V'mu_k, diag(v_j' Sigma_k v_j))``.
    """
    V = np.asarray(V, dtype=float)
    pv = projected_variances(V, covariances, clamp)
    return diag_gaussian_log_densities(np.asarray(X, dtype=float) @ V,
                                       np.asarray(means, dtype=float) @ V, pv)


def log_density_projected(x, V, mean, cov, clamp: ClampStats | None = None) -> float:
    """Log-density of a single point under one projected class Gaussian."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    out = log_densities(x[None, :], V, mean[None, :],
                        np.asarray(cov, dtype=float)[None, :, :], clamp)
    return float(out[0, 0])


def grad_log_density_projected(x, V, mean, cov):
    """Gradient of :func:`log_density_projected` with respect to ``V``.

    Column j is ``(1/s_j) [ (alpha_j - 1) Sigma - dd' ] v_j`` with
    ``d = x - mean``, ``s_j = v_j' Sigma v_j`` and
    ``alpha_j = (v_j'd)^2 / s_j``; the building block of every mixture
    gradient below.
    """
    x = np.asarray(x, dtype=float)
    V = np.asarray(V, dtype=float)
    cov = np.asarray(cov, dtype=float)
    d = x - np.asarray(mean, dtype=float)
    s = projected_variances(V, cov[None, :, :])[0]        # (p',)
    proj = d @ V                                          # (p',)
    alpha = proj * proj / s
    # [(alpha_j - 1)/s_j] Sigma v_j - (d'v_j / s_j) d
    return (cov @ V) * ((alpha - 1.0) / s)[None, :] - np.outer(d, proj / s)


@dataclass
class GradientWorkspace:
    """Per-evaluation intermediates shared across gradient columns.

    ``diffs[i, k, j]`` is the projected difference ``v_j'(x_i - mu_k)``,
    formed once per evaluation; see :func:`grad_weighted_log_densities`.
    """

    log_dens: np.ndarray          # (n, K)
    proj_vars: np.ndarray         # (K, p')
    posteriors: np.ndarray        # (n, K)
    diffs: np.ndarray             # (n, K, p')
    clamp: ClampStats = field(default_factory=ClampStats)


def build_workspace(dataset: Dataset, V, model: GaussianClassModel,
                    clamp: ClampStats | None = None) -> GradientWorkspace:
    """Evaluate densities, posteriors and projected differences for one
    projection."""
    V = check_projection(V, model.p)
    clamp = clamp if clamp is not None else ClampStats()
    Z = dataset.X @ V
    M = model.means @ V
    pv = projected_variances(V, model.covariances, clamp)
    ld = diag_gaussian_log_densities(Z, M, pv)
    logpost = np.log(model.priors)[None, :] + ld
    P = np.exp(logpost - logsumexp(logpost, axis=1, keepdims=True))
    return GradientWorkspace(log_dens=ld, proj_vars=pv, posteriors=P,
                             diffs=Z[:, None, :] - M[None, :, :], clamp=clamp)


def grad_weighted_log_densities(X, V, means, covariances, proj_vars, diffs, W):
    """Gradient of ``sum_ik W_ik log phi_k(V'x_i)`` with respect to ``V``.

    ``proj_vars[k, j] = s_kj = v_j' Sigma_k v_j`` and ``diffs[i, k, j] =
    v_j'(x_i - mu_k)``; ``W`` may be negative. Column j sums, over k,
    ``(1/s_kj) [ (v_j'S_k v_j / s_kj - sum_i W_ik) Sigma_k - S_k ] v_j``
    for the ``W``-weighted scatters ``S_k``, which enter only through the
    scatter-free identities in the module docstring: O(K n p p') work
    instead of the O(K n p^2) of forming them.
    """
    G = np.zeros_like(V)
    for k in range(covariances.shape[0]):
        D = diffs[:, k, :]                                 # (n, p')
        WD = D * W[:, k, None]
        SV = X.T @ WD - np.outer(means[k], WD.sum(axis=0))  # S_k V
        s = proj_vars[k]
        coef = (np.einsum("ij,ij->j", WD, D) / s - W[:, k].sum()) / s
        G += (covariances[k] @ V) * coef[None, :] - SV / s[None, :]
    return G


def posteriors(dataset: Dataset, V, model: GaussianClassModel,
               clamp: ClampStats | None = None):
    """``n x K`` Bayes posterior probabilities in the projected space.

    Rows sum to one; computed with a log-sum-exp shift, so the result is
    invariant to positive rescaling of any column of ``V``.
    """
    V = check_projection(V, model.p)
    ld = log_densities(dataset.X, V, model.means, model.covariances, clamp)
    logpost = np.log(model.priors)[None, :] + ld
    return np.exp(logpost - logsumexp(logpost, axis=1, keepdims=True))


def _require_labels(dataset):
    if dataset.labels is None:
        raise ValueError("a labeled dataset is required")


def classification_log_likelihood(dataset: Dataset, V, model: GaussianClassModel,
                                  clamp: ClampStats | None = None) -> float:
    """Multinomial log-likelihood of the labels under projected posteriors.

    Always <= 0, with equality iff every observation puts posterior mass
    one on its own class. Equals ``sum_i log prior_{y_i} + ell1 - ell2``.
    """
    _require_labels(dataset)
    V = check_projection(V, model.p)
    ld = log_densities(dataset.X, V, model.means, model.covariances, clamp)
    logpost = np.log(model.priors)[None, :] + ld
    own = logpost[np.arange(dataset.n), dataset.labels - 1]
    return float(np.sum(own - logsumexp(logpost, axis=1)))


def ell1(dataset: Dataset, V, model: GaussianClassModel) -> float:
    """Own-class log-density sum, by its closed form.

    The quadratic terms telescope against the projected variances
    (summing to ``p' n``), leaving
    ``c - 1/2 sum_k n_k sum_j log(v_j' Sigma_k v_j)`` with
    ``c = -n p' log(2 pi) / 2 - p' n / 2``.
    """
    _require_labels(dataset)
    V = check_projection(V, model.p)
    pv = projected_variances(V, model.covariances)
    pprime = V.shape[1]
    n = dataset.n
    c = -0.5 * n * pprime * LOG_2PI - 0.5 * pprime * n
    return float(c - 0.5 * np.sum(model.counts * np.log(pv).sum(axis=1)))


def ell1_direct(dataset: Dataset, V, model: GaussianClassModel) -> float:
    """Debug variant of :func:`ell1`: direct per-observation summation."""
    _require_labels(dataset)
    V = check_projection(V, model.p)
    ld = log_densities(dataset.X, V, model.means, model.covariances)
    return float(ld[np.arange(dataset.n), dataset.labels - 1].sum())


def ell2(dataset: Dataset, V, model: GaussianClassModel) -> float:
    """Log mixture-density sum, via per-observation log-sum-exp."""
    V = check_projection(V, model.p)
    ld = log_densities(dataset.X, V, model.means, model.covariances)
    return float(logsumexp(np.log(model.priors)[None, :] + ld, axis=1).sum())


def grad_ell1(dataset: Dataset, V, model: GaussianClassModel):
    """Gradient of :func:`ell1`: column j is -(sum_k n_k/s_kj Sigma_k) v_j."""
    _require_labels(dataset)
    V = check_projection(V, model.p)
    pv = projected_variances(V, model.covariances)
    G = np.zeros_like(V)
    for k in range(model.K):
        G -= (model.covariances[k] @ V) * (model.counts[k] / pv[k])[None, :]
    return G


def grad_ell2(dataset: Dataset, V, model: GaussianClassModel,
              workspace: GradientWorkspace | None = None):
    """Gradient of :func:`ell2`.

    It equals the gradient of ``sum_ik p_ik log phi_k(V'x_i)`` with the
    posteriors ``p`` held fixed, so column j is
    ``sum_k (1/s_kj) [ (v_j'S_k v_j / s_kj - sum_i p_ik) Sigma_k -
    S_k ] v_j`` for the posterior-weighted scatters ``S_k``. Those are
    never formed: ``S_k V = sum_i p_ik (x_i - mu_k) D_ik'`` and
    ``v_j'S_k v_j = sum_i p_ik D_ikj^2`` come from the projected
    differences ``D`` in ``workspace`` (built once per evaluation when not
    supplied). The kernel is linear in the weights, which the clustering
    gradient relies on.
    """
    V = check_projection(V, model.p)
    ws = workspace if workspace is not None else build_workspace(dataset, V, model)
    return grad_weighted_log_densities(dataset.X, V, model.means,
                                       model.covariances, ws.proj_vars,
                                       ws.diffs, ws.posteriors)


def grad_objective(dataset: Dataset, V, model: GaussianClassModel,
                   workspace: GradientWorkspace | None = None):
    """Gradient of the classification log-likelihood (prior term is V-free)."""
    _require_labels(dataset)
    return grad_ell1(dataset, V, model) - grad_ell2(dataset, V, model, workspace)
