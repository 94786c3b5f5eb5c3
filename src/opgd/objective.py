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
them too. The full-covariance quadratic ``(z - mu_k)' Sigma_k^{-1}
(z - mu_k)`` is ``||(Z - mu_k) L_k^{-T}||^2`` row by row for the
Cholesky factor ``L_k``: one matrix product against the inverted factor
per component.

Every row-wise log-sum-exp in the package goes through
:func:`row_logsumexp`, which does the arithmetic of
``scipy.special.logsumexp`` (max shift, the largest term kept out of the
sum and added through ``log1p``) in plain NumPy and gives the same
results. scipy's array-API dispatch costs several times that arithmetic
at the package's shapes, and the ascents take thousands of these sums.

A :class:`GradientWorkspace` holds one evaluation of the supervised
objective: the projected differences, posteriors and log-likelihood. The
gradient at the same projection is built from it without evaluating the
densities again.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

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


def row_logsumexp(a, keepdims: bool = False):
    """``log sum_k exp(a_ik)`` for each row of a 2-d array.

    The arithmetic of ``scipy.special.logsumexp(a, axis=1)``: each row is
    shifted by its max (by 0 when the max is not finite), and the max
    term is left out of the sum and added back through ``log1p``, which
    keeps ``a_iy - lse_i`` accurate when one term dominates. An all
    ``-inf`` row gives ``-inf``, a row holding ``+inf`` gives ``inf``,
    with no warning.
    """
    rows = np.arange(a.shape[0])
    top = a.argmax(axis=1)
    amax = a[rows, top][:, None]
    with np.errstate(over="ignore"):
        terms = np.exp(a - np.where(np.isfinite(amax), amax, 0.0))
    terms[rows, top] = 0.0
    out = np.log1p(terms.sum(axis=1, keepdims=True)) + amax
    return out if keepdims else out[:, 0]


def diff_log_densities(diffs, variances):
    """``n x K`` diagonal-Gaussian log-densities from the differences
    ``diffs[i, k] = z_i - means[k]``, shape ``(n, K, d)``."""
    quad = np.einsum("ikj,kj->ik", diffs * diffs, 1.0 / variances)
    const = -0.5 * diffs.shape[2] * LOG_2PI - 0.5 * np.log(variances).sum(axis=1)
    return const[None, :] - 0.5 * quad


def diag_gaussian_log_densities(Z, means, variances):
    """``n x K`` diagonal-Gaussian log-densities of the rows of ``Z``.

    Entry (i, k) is ``log N(z_i; means[k], diag(variances[k]))``.
    """
    return diff_log_densities(Z[:, None, :] - means[None, :, :], variances)


def full_gaussian_log_densities(Z, means, covariances):
    """``n x K`` full-covariance Gaussian log-densities via Cholesky.

    The quadratic is ``||(Z - mu_k) L^{-T}||^2`` for the lower factor
    ``L`` of ``Sigma_k``, one matrix product per component. A covariance
    that fails to factor gets a ridge of 1e-8 * trace/d on the diagonal,
    with a warning; one that still fails (indefinite) raises
    ``LinAlgError``.
    """
    from scipy.linalg import cho_factor, solve_triangular

    n, d = Z.shape
    K = means.shape[0]
    eye = np.eye(d)
    out = np.empty((n, K))
    for k in range(K):
        S = symmetrize(covariances[k])
        try:
            factor, _ = cho_factor(S, lower=True)
        except np.linalg.LinAlgError:
            ridge = 1e-8 * max(np.trace(S), 1.0) / d
            warnings.warn("singular covariance; adding ridge "
                          f"{ridge:.3e} to keep the discriminant defined")
            factor, _ = cho_factor(S + ridge * eye, lower=True)
        L = np.tril(factor)     # cho_factor leaves the upper triangle unset
        Y = (Z - means[k]) @ solve_triangular(L, eye, lower=True).T
        logdet = 2.0 * np.log(np.diag(L)).sum()
        out[:, k] = -0.5 * (d * LOG_2PI + logdet + np.einsum("ij,ij->i", Y, Y))
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
    """One evaluation of the supervised objective at a projection.

    ``diffs[i, k, j]`` is the projected difference ``v_j'(x_i - mu_k)``,
    formed once per evaluation; the log-densities, the posteriors and the
    log-likelihood come from it, and so does the gradient (see
    :func:`grad_weighted_log_densities`). ``log_likelihood`` is ``None``
    for an unlabeled dataset.
    """

    proj_vars: np.ndarray         # (K, p')
    diffs: np.ndarray             # (n, K, p')
    posteriors: np.ndarray        # (n, K)
    log_likelihood: float | None


def build_workspace(dataset: Dataset, V, model: GaussianClassModel,
                    clamp: ClampStats | None = None) -> GradientWorkspace:
    """Evaluate the projected differences, posteriors and log-likelihood
    at one projection, counting variance clamps into ``clamp``."""
    V = check_projection(V, model.p)
    pv = projected_variances(V, model.covariances, clamp)
    diffs = (dataset.X @ V)[:, None, :] - (model.means @ V)[None, :, :]
    logpost = np.log(model.priors)[None, :] + diff_log_densities(diffs, pv)
    lse = row_logsumexp(logpost, keepdims=True)
    ll = None
    if dataset.labels is not None:
        own = logpost[np.arange(dataset.n), dataset.labels - 1]
        ll = float(np.sum(own - lse[:, 0]))
    return GradientWorkspace(proj_vars=pv, diffs=diffs,
                             posteriors=np.exp(logpost - lse),
                             log_likelihood=ll)


def grad_weighted_log_densities(X, V, means, covariances, proj_vars, diffs, W):
    """Gradient of ``sum_ik W_ik log phi_k(V'x_i)`` with respect to ``V``.

    ``proj_vars[k, j] = s_kj = v_j' Sigma_k v_j`` and ``diffs[i, k, j] =
    v_j'(x_i - mu_k)``; ``W`` may be negative. Column j sums, over k,
    ``(1/s_kj) [ (v_j'S_k v_j / s_kj - sum_i W_ik) Sigma_k - S_k ] v_j``
    for the ``W``-weighted scatters ``S_k``, which enter only through the
    scatter-free identities in the module docstring: O(K n p p') work
    instead of the O(K n p^2) of forming them. All K components share
    one ``p x n`` by ``n x K p'`` product.
    """
    n, K, d = diffs.shape
    WD = diffs * W[:, :, None]                                   # (n, K, p')
    XWD = (X.T @ WD.reshape(n, K * d)).reshape(-1, K, d)         # (p, K, p')
    SV = XWD.transpose(1, 0, 2) \
        - means[:, :, None] * WD.sum(axis=0)[:, None, :]        # S_k V
    coef = (np.einsum("ikj,ikj->kj", WD, diffs) / proj_vars
            - W.sum(axis=0)[:, None]) / proj_vars
    return ((covariances @ V) * coef[:, None, :]
            - SV / proj_vars[:, None, :]).sum(axis=0)


def posteriors(dataset: Dataset, V, model: GaussianClassModel,
               clamp: ClampStats | None = None):
    """``n x K`` Bayes posterior probabilities in the projected space.

    Rows sum to one; computed with a log-sum-exp shift, so the result is
    invariant to positive rescaling of any column of ``V``.
    """
    return build_workspace(dataset, V, model, clamp).posteriors


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
    return build_workspace(dataset, V, model, clamp).log_likelihood


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
    return float(row_logsumexp(np.log(model.priors)[None, :] + ld).sum())


def grad_ell1(dataset: Dataset, V, model: GaussianClassModel,
              workspace: GradientWorkspace | None = None):
    """Gradient of :func:`ell1`: column j is -(sum_k n_k/s_kj Sigma_k) v_j.

    The projected variances ``s_kj`` come from ``workspace`` when given.
    """
    _require_labels(dataset)
    V = check_projection(V, model.p)
    pv = workspace.proj_vars if workspace is not None \
        else projected_variances(V, model.covariances)
    return -((model.covariances @ V)
             * (model.counts[:, None] / pv)[:, None, :]).sum(axis=0)


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
    """Gradient of the classification log-likelihood (prior term is V-free).

    Both terms share one workspace, built here when not supplied.
    """
    _require_labels(dataset)
    ws = workspace if workspace is not None else build_workspace(dataset, V, model)
    return grad_ell1(dataset, V, model, ws) - grad_ell2(dataset, V, model, ws)
