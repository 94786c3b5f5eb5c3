"""The projected diagonal Gaussian mixture, its likelihoods and gradients.

Both objectives score one model, a Gaussian mixture on the projected
data ``X V``: component ``k`` has mean ``V' mu_k``, *diagonal* covariance
``diag(v_j' Sigma_k v_j)`` and weight ``w_k``. The supervised objective
takes the classes as components, weighted by their priors; it is the
multinomial log-likelihood of the observed labels under the Bayes
posteriors of this projected model,

    ell(V) = sum_i log p_{i,y_i}(V),

which decomposes as ``sum_i log prior_{y_i} + ell1(V) - ell2(V)`` where
``ell1`` sums the own-class log-densities and ``ell2`` the log mixture
densities. ``ell1`` collapses to a closed form whose data-dependent part
is ``-1/2 sum_k n_k sum_j log(v_j' Sigma_k v_j)``. The clustering
objective (:mod:`opgd.clustering`) takes a fitted mixture's components
and weights.

:func:`build_workspace` is the one evaluator of that mixture at a
projection, for both ascents. Its :class:`GradientWorkspace` holds
``Sigma_k V``, the projected variances and differences, the ``(K, n)``
log joint ``log w_k + log phi_k(V'x_i)`` and its log-sum-exp; from these
come the posteriors, the log-likelihood and, without evaluating the
densities again, the gradient. The log weights and variance floors do
not depend on ``V`` and are cached on the model.

The mixture is evaluated observation-last: the projected differences
``D[k, j, i] = v_j'(x_i - mu_k)`` are a C-contiguous ``(K, p', n)``
array formed from ``V' X'``, and log-densities, log-posteriors and
posteriors are ``(K, n)``. With the few coordinates of a projection and
the few components of a mixture, numpy's inner loops then run over the
n observations, not over 2 to 10 entries. The public functions that
return one row per observation (:func:`log_densities`,
:func:`full_gaussian_log_densities`, :func:`posteriors`) transpose at
the boundary.

All gradients here are exact: the dependence of the projected means and
variances on ``V`` is differentiated through, not held fixed. The
gradient of any weighted sum ``sum_ik W_ki log phi_k(V'x_i)`` needs the
weighted scatters ``S_k = sum_i W_ki (x_i - mu_k)(x_i - mu_k)'`` only
through ``S_k V`` and ``v_j' S_k v_j``, and both come straight from the
projected differences ``d_ki = V'(x_i - mu_k)``, the columns
``D[k, :, i]``:

    S_k V = sum_i W_ki x_i d_ki' - mu_k (sum_i W_ki d_ki)',
    v_j' S_k v_j = sum_i W_ki D_kji^2,

so no p x p scatter is formed. That gradient is linear in ``W``: the
supervised ``ell2`` uses the posteriors, the clustering objective the
hard assignments minus the posteriors, in one call each. It also needs
``Sigma_k V``, which the workspace keeps from the projected variances.

:func:`diag_log_densities` is the package's one diagonal Gaussian
log-density routine on differences and
:func:`full_gaussian_log_densities` its one full-covariance routine; the
classifier calls both, and the mixture code the full-covariance one
(the projected EM of :mod:`opgd.clustering` scores its diagonal
components from their sufficient statistics). The full-covariance
quadratic ``(z - mu_k)' Sigma_k^{-1} (z - mu_k)`` is
``||(Z - mu_k) L_k^{-T}||^2`` row by row for the Cholesky factor
``L_k``. All K factors come from one batched Cholesky
and one batched inverse, and all K quadratics from one matrix product
of ``[Z - c, 1]`` against the stacked ``L_k^{-T}``, with the shifted
means ``-(mu_k - c)' L_k^{-T}`` in the extra row; the shift ``c`` is the
mean of the component means, or, in the mixture EM, the data mean, for
which the EM forms ``[Z - c, 1]`` once per fit. The product is taken in
cache-sized blocks of rows, and each block's squared norms go into the
columns of a C-contiguous ``(K, n)`` array: the full-covariance
densities are observation-last too, and the mixture EM, the
responsibilities and the baseline predictors read the ``(K, n)``
transpose of the public ``n x K`` result without a copy. Only numpy's
LAPACK is used, so the package runs on one BLAS thread pool.

Every log-sum-exp in the package goes through
:func:`component_logsumexp`, which reduces a ``(K, n)`` array over its
component axis with the arithmetic of ``scipy.special.logsumexp`` (max
shift, the largest term kept out of the sum and added through
``log1p``) in plain NumPy and gives the same results. scipy's array-API
dispatch costs several times that arithmetic at the package's shapes,
and the ascents take thousands of these sums.

The module also owns the Bayes read-out both settings label points by:
:func:`bayes_posteriors` turns log weights and ``(K, n)`` log-densities
into posteriors, for the classifiers' predictions and for a mixture's
responsibilities alike.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import _BLOCK_ENTRIES, Dataset, GaussianClassModel, \
    NumericalError, _require_labels, check_projection, symmetrize, \
    variance_floors

LOG_2PI = float(np.log(2.0 * np.pi))


class RidgeWarning(UserWarning):
    """A singular covariance was given a ridge. The message is the same
    at every call, so a run that meets the cause many times can print
    it once."""


@dataclass
class ClampStats:
    """Counter for variance-floor clamp events (diagnostics only)."""

    count: int = 0

    def add(self, k: int):
        self.count += int(k)


def project_covariances(V, covariances, floors, clamp: ClampStats | None = None):
    """``Sigma_k V`` as a ``(K, p, p')`` array, and the ``K x p'``
    projected variances ``v_j' Sigma_k v_j`` taken from it, clamped
    below at ``floors[k]`` (see :func:`~opgd.core.variance_floors`);
    clamp events are counted into ``clamp``."""
    CV = covariances @ V
    pv = np.einsum("kij,ij->kj", CV, V)
    low = pv < floors[:, None]
    if np.any(low):
        if clamp is not None:
            clamp.add(low.sum())
        pv = np.where(low, floors[:, None], pv)
    return CV, pv


def projected_variances(V, covariances, clamp: ClampStats | None = None):
    """``K x p'`` matrix of v_j' Sigma_k v_j, clamped below at
    :func:`~opgd.core.variance_floors` to stay positive."""
    covariances = np.asarray(covariances, dtype=float)
    return project_covariances(np.asarray(V, dtype=float), covariances,
                               variance_floors(covariances), clamp)[1]


def component_logsumexp(a):
    """``log sum_k exp(a_ki)`` over the component axis (axis 0) of a
    ``(K, n)`` array.

    The arithmetic of ``scipy.special.logsumexp(a, axis=0)``: each
    column is shifted by its max (by 0 when the max is not finite), and
    the max term is left out of the sum and added back through
    ``log1p``, which keeps ``a_yi - lse_i`` accurate when one term
    dominates. When several terms tie at the max, all of them are left
    out and all but one are added back as a count (each is exactly 1
    after the shift), which finds the max terms without an ``argmax``
    along the short axis. An all ``-inf`` column gives ``-inf``, a
    column holding ``+inf`` gives ``inf``, with no warning.
    """
    amax = a.max(axis=0)
    with np.errstate(over="ignore"):
        terms = np.exp(a - np.where(np.isfinite(amax), amax, 0.0))
    top = a == amax
    rest = np.where(top, 0.0, terms).sum(axis=0) \
        + (np.count_nonzero(top, axis=0) - 1)
    return np.log1p(rest) + amax


def bayes_posteriors(log_weights, log_dens):
    """``(K, n)`` posteriors ``w_k phi_k(z_i) / sum_l w_l phi_l(z_i)``
    from the ``K`` log weights and the ``(K, n)`` log-densities
    ``log phi_k(z_i)``; each column sums to one."""
    joint = log_weights[:, None] + log_dens
    return np.exp(joint - component_logsumexp(joint))


def diag_log_densities(diffs, variances):
    """``(K, n)`` diagonal-Gaussian log-densities from the differences
    ``diffs[k, j, i] = z_ij - means[k, j]``, shape ``(K, d, n)``.

    Entry (k, i) is ``log N(z_i; means[k], diag(variances[k]))``; the K
    quadratics are one batched ``(1, d) x (d, n)`` product.
    """
    quad = ((1.0 / variances)[:, None, :] @ (diffs * diffs))[:, 0, :]
    norm = -0.5 * variances.shape[1] * LOG_2PI \
        - 0.5 * np.log(variances).sum(axis=1)
    return norm[:, None] - 0.5 * quad


def cholesky_factors(S):
    """Lower Cholesky factors of the ``(K, d, d)`` stack ``S``, and the
    mask of the matrices that factored.

    One LAPACK call factors the whole stack. Only when that fails is
    each matrix factored on its own; the factor of one that fails is
    left zero.
    """
    try:
        return np.linalg.cholesky(S), np.ones(S.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    L = np.zeros_like(S)
    ok = np.zeros(S.shape[0], dtype=bool)
    for k in range(S.shape[0]):
        try:
            L[k] = np.linalg.cholesky(S[k])
            ok[k] = True
        except np.linalg.LinAlgError:
            pass
    return L, ok


def full_gaussian_log_densities(Z, means, covariances):
    """``n x K`` full-covariance Gaussian log-densities via Cholesky.

    The quadratic is ``||(Z - mu_k) L^{-T}||^2`` for the lower factor
    ``L`` of ``Sigma_k``, for all components in one matrix product (see
    the module docstring); the shift ``c`` is the mean of the component
    means. Like :func:`log_densities`, the result is the transpose of a
    C-contiguous ``(K, n)`` array. A covariance that fails to factor
    gets a ridge of 1e-8 * max(trace, 1)/d on the diagonal, with a
    :class:`RidgeWarning`; one that still fails (indefinite) raises
    ``LinAlgError``. A covariance with a non-finite entry raises
    ``NumericalError``.
    """
    Z = np.asarray(Z, dtype=float)
    means = np.asarray(means, dtype=float)
    center = means.mean(axis=0)
    return _shifted_log_densities(_augment(Z, center), means - center,
                                 covariances).T


def _augment(Z, center):
    """``[Z - center, 1]``, the ``n x (d + 1)`` input of
    :func:`_shifted_log_densities`."""
    n, d = Z.shape
    Z1 = np.empty((n, d + 1))
    np.subtract(Z, center, out=Z1[:, :d])
    Z1[:, d] = 1.0
    return Z1


def _shifted_log_densities(Z1, means, covariances):
    """C-contiguous ``(K, n)`` full-covariance Gaussian log-densities of
    the rows of ``Z1 = _augment(Z, c)`` for the components with means
    ``c + means[k]`` and the given covariances.

    The computation behind :func:`full_gaussian_log_densities`, for a
    caller that keeps ``Z1`` across many evaluations (the mixture EM);
    the faults are the same.
    """
    n, d = Z1.shape[0], Z1.shape[1] - 1
    K = means.shape[0]
    S = symmetrize(np.asarray(covariances, dtype=float))
    bad = ~np.isfinite(S).all(axis=(1, 2))
    if bad.any():
        raise NumericalError("covariance of component "
                             f"{int(np.argmax(bad)) + 1} has non-finite "
                             "entries")
    L, ok = cholesky_factors(S)
    for k in np.flatnonzero(~ok):
        ridge = 1e-8 * max(np.trace(S[k]), 1.0) / d
        warnings.warn("singular covariance; adding ridge "
                      "1e-8 * max(trace, 1) / d to its diagonal to keep the "
                      "discriminant defined", RidgeWarning)
        L[k] = np.linalg.cholesky(S[k] + ridge * np.eye(d))
    inv_t = np.linalg.inv(L).transpose(0, 2, 1)            # L_k^{-T}
    W = np.empty((d + 1, K, d))
    W[:d] = inv_t.transpose(1, 0, 2)
    W[d] = -np.einsum("kj,kjl->kl", means, inv_t)
    W = W.reshape(d + 1, K * d)
    quad = np.empty((K, n))
    rows = max(1, _BLOCK_ENTRIES // (K * d))
    for lo in range(0, n, rows):
        Y = (Z1[lo:lo + rows] @ W).reshape(-1, K, d)
        quad[:, lo:lo + rows] = np.einsum("ikj,ikj->ki", Y, Y)
    logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
    quad += (d * LOG_2PI + logdet)[:, None]
    quad *= -0.5
    return quad


def log_densities(X, V, means, covariances):
    """``n x K`` matrix of projected diagonal-Gaussian log-densities.

    Entry (i, k) is ``log N(V'x_i; V'mu_k, diag(v_j' Sigma_k v_j))``. The
    result is the transpose of a C-contiguous ``(K, n)`` array, so
    ``log_densities(...).T`` is that array without a copy.
    """
    V = np.asarray(V, dtype=float)
    pv = projected_variances(V, covariances)
    diffs = (V.T @ np.asarray(X, dtype=float).T)[None] \
        - (np.asarray(means, dtype=float) @ V)[:, :, None]
    return diag_log_densities(diffs, pv).T


@dataclass
class GradientWorkspace:
    """One evaluation of a projected diagonal Gaussian mixture at ``V``.

    ``cov_proj[k] = Sigma_k V`` and ``proj_vars[k, j] = v_j' Sigma_k v_j``
    come from one product; ``diffs[k, j, i] = v_j'(x_i - mu_k)``.
    ``log_joint[k, i] = log w_k + log phi_k(V'x_i)`` and ``log_mix`` is
    its log-sum-exp over the components. The posteriors are formed on
    first use. ``diffs``, ``log_joint`` and ``posteriors`` are
    C-contiguous with the observations last. ``log_likelihood`` sums the
    own-component log-posteriors; ``None`` without a label index.
    """

    cov_proj: np.ndarray          # (K, p, p')
    proj_vars: np.ndarray         # (K, p')
    diffs: np.ndarray             # (K, p', n)
    log_joint: np.ndarray         # (K, n)
    log_mix: np.ndarray           # (n,)
    log_likelihood: float | None

    @cached_property
    def posteriors(self):
        """``(K, n)`` component posteriors; columns sum to one."""
        return np.exp(self.log_joint - self.log_mix)


def build_workspace(X, V, model, label_index=None,
                    clamp: ClampStats | None = None) -> GradientWorkspace:
    """Evaluate the projected mixture of ``model`` on the rows of ``X`` at
    one projection, counting variance clamps into ``clamp``.

    ``model`` is a :class:`~opgd.core.GmmModel`, such as the class
    mixture :class:`~opgd.core.GaussianClassModel`; its ``floors`` (see
    :func:`~opgd.core.variance_floors`) and ``log_weights`` are cached
    on it. ``label_index`` picks each observation's own component from
    a ``(K, n)`` array (see :attr:`~opgd.core.Dataset.label_index`);
    with it the workspace holds the log-likelihood. ``V`` must already be a valid ``p x p'``
    projection (see :func:`~opgd.core.check_projection`); the public
    callers check it, and an ascent checks its start once.
    """
    CV, pv = project_covariances(V, model.covariances, model.floors, clamp)
    diffs = (V.T @ X.T)[None] - (model.means @ V)[:, :, None]
    joint = model.log_weights[:, None] + diag_log_densities(diffs, pv)
    lse = component_logsumexp(joint)
    ll = None
    if label_index is not None:
        ll = float(np.sum(joint[label_index] - lse))
    return GradientWorkspace(cov_proj=CV, proj_vars=pv, diffs=diffs,
                             log_joint=joint, log_mix=lse, log_likelihood=ll)


def grad_weighted_log_densities(X, means, cov_proj, proj_vars, diffs, W):
    """Gradient of ``sum_ik W_ki log phi_k(V'x_i)`` with respect to ``V``.

    ``cov_proj[k] = Sigma_k V``, ``proj_vars[k, j] = s_kj = v_j' Sigma_k
    v_j`` and ``diffs[k, j, i] = v_j'(x_i - mu_k)``; ``W`` is ``(K, n)``
    and may be negative. Column j sums, over k,
    ``(1/s_kj) [ (v_j'S_k v_j / s_kj - sum_i W_ki) Sigma_k - S_k ] v_j``
    for the ``W``-weighted scatters ``S_k``, which enter only through the
    scatter-free identities in the module docstring: O(K n p p') work
    instead of the O(K n p^2) of forming them. All K components share
    one ``K p' x n`` by ``n x p`` product.
    """
    K, d, n = diffs.shape
    WD = diffs * W[:, None, :]                                   # (K, p', n)
    XWD = (WD.reshape(K * d, n) @ X).reshape(K, d, -1)           # (K, p', p)
    SV = XWD.transpose(0, 2, 1) \
        - means[:, :, None] * WD.sum(axis=2)[:, None, :]        # S_k V
    coef = (np.einsum("kjn,kjn->kj", WD, diffs) / proj_vars
            - W.sum(axis=1)[:, None]) / proj_vars
    return (cov_proj * coef[:, None, :]
            - SV / proj_vars[:, None, :]).sum(axis=0)


def posteriors(dataset: Dataset, V, model: GaussianClassModel):
    """``n x K`` Bayes posterior probabilities in the projected space.

    Rows sum to one; computed with a log-sum-exp shift, so the result is
    invariant to positive rescaling of any column of ``V``.
    """
    V = check_projection(V, model.p)
    return build_workspace(dataset.X, V, model).posteriors.T


def classification_log_likelihood(dataset: Dataset, V,
                                  model: GaussianClassModel) -> float:
    """Multinomial log-likelihood of the labels under projected posteriors.

    Always <= 0, with equality iff every observation puts posterior mass
    one on its own class. Equals ``sum_i log prior_{y_i} + ell1 - ell2``.
    """
    _require_labels(dataset)
    V = check_projection(V, model.p)
    return build_workspace(dataset.X, V, model,
                           dataset.label_index).log_likelihood


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
    return float(build_workspace(dataset.X, V, model).log_mix.sum())


def grad_ell1(dataset: Dataset, V, model: GaussianClassModel,
              workspace: GradientWorkspace | None = None):
    """Gradient of :func:`ell1`: column j is -(sum_k n_k/s_kj Sigma_k) v_j.

    ``Sigma_k V`` and the projected variances ``s_kj`` come from
    ``workspace`` when given; otherwise from ``V``.
    """
    _require_labels(dataset)
    if workspace is None:
        V = check_projection(V, model.p)
        CV, pv = project_covariances(V, model.covariances, model.floors)
    else:
        CV, pv = workspace.cov_proj, workspace.proj_vars
    return -(CV * (model.counts[:, None] / pv)[:, None, :]).sum(axis=0)


def grad_ell2(dataset: Dataset, V, model: GaussianClassModel,
              workspace: GradientWorkspace | None = None):
    """Gradient of :func:`ell2`.

    It equals the gradient of ``sum_ik p_ki log phi_k(V'x_i)`` with the
    posteriors ``p`` held fixed, so column j is
    ``sum_k (1/s_kj) [ (v_j'S_k v_j / s_kj - sum_i p_ki) Sigma_k -
    S_k ] v_j`` for the posterior-weighted scatters ``S_k``. Those are
    never formed: ``S_k V = sum_i p_ki (x_i - mu_k) d_ki'`` and
    ``v_j'S_k v_j = sum_i p_ki D_kji^2`` come from the projected
    differences ``D`` in ``workspace`` (built once per evaluation when not
    supplied). The kernel is linear in the weights, which the clustering
    gradient relies on.
    """
    ws = workspace if workspace is not None \
        else build_workspace(dataset.X, check_projection(V, model.p), model)
    return grad_weighted_log_densities(dataset.X, model.means, ws.cov_proj,
                                       ws.proj_vars, ws.diffs, ws.posteriors)


def grad_objective(dataset: Dataset, V, model: GaussianClassModel):
    """Gradient of the classification log-likelihood (prior term is V-free).

    Both terms share one workspace.
    """
    _require_labels(dataset)
    ws = build_workspace(dataset.X, check_projection(V, model.p), model)
    return grad_ell1(dataset, V, model, ws) - grad_ell2(dataset, V, model, ws)
