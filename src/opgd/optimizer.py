"""Warm-start initialization, monotone gradient ascent, column ordering.

The ascent routine is a plain Armijo backtracking scheme: a candidate
step ``V + t G`` is accepted when it improves the objective by at least
``armijo_c * t * ||G||_F^2``, otherwise ``t`` is shrunk. Accepted
iterates therefore form a non-decreasing objective trace. The same
routine drives both the supervised likelihood and the clustering
objective.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, Dataset, GaussianClassModel, NumericalError, \
    ScatterMatrices, check_projection, symmetrize
from .objective import ClampStats, build_workspace, classification_log_likelihood, \
    grad_ell1, grad_ell2

# Line search gives up below this step size.
MIN_STEP = 1e-14


@dataclass(frozen=True)
class OptimConfig:
    """Settings for initialization and gradient ascent.

    ``grad_tol`` applies to the max-abs gradient entry divided by the
    number of observations; ``epsilon_init`` and ``ridge_frac`` control
    the warm-start eigenproblem; ``seed`` only feeds the randomized
    last-resort initialization fallback.
    """

    max_iters: int = 500
    grad_tol: float = 1e-6
    init_step: float = 1.0
    backtrack_factor: float = 0.5
    armijo_c: float = 1e-4
    epsilon_init: float = 1e-3
    ridge_frac: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 0:
            raise ConfigError("max_iters must be non-negative")
        for name in ("grad_tol", "init_step", "armijo_c",
                     "epsilon_init", "ridge_frac"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ConfigError("backtrack_factor must lie in (0, 1)")


def _normalize_columns(V):
    norms = np.linalg.norm(V, axis=0)
    return V / np.where(norms > 0, norms, 1.0)


def _real_basis_from_eig(evals, evecs, dim):
    """Leading-`dim` real basis from a general eigen-decomposition.

    Eigenvalues are ranked by real part. A complex conjugate pair
    contributes the real and imaginary parts of one member, a real basis
    of its 2-d invariant subspace (the real Schur basis up to an
    invertible 2x2 change of coordinates).
    """
    order = np.argsort(-evals.real, kind="stable")
    used = np.zeros(evals.shape[0], dtype=bool)
    cols = []
    for idx in order:
        if used[idx] or len(cols) >= dim:
            continue
        used[idx] = True
        lam = evals[idx]
        u = evecs[:, idx]
        if lam.imag == 0.0:
            cols.append(u.real)
            continue
        # consume the conjugate partner along with this one
        partners = np.nonzero(~used & np.isclose(evals, lam.conjugate()))[0]
        if partners.size:
            used[partners[0]] = True
        cols.append(u.real)
        if len(cols) < dim:
            cols.append(u.imag)
    V = np.column_stack(cols[:dim])
    if not np.all(np.isfinite(V)):
        raise np.linalg.LinAlgError("non-finite eigenvectors")
    sv = np.linalg.svd(V, compute_uv=False)
    if sv[-1] <= 1e-10 * max(sv[0], 1.0):
        raise np.linalg.LinAlgError("selected eigenvectors nearly dependent")
    return V


def discriminant_directions(scatter: ScatterMatrices, r: int,
                            ridge_frac: float = 1e-6):
    """Leading-``r`` eigenvectors of the ridge-stabilized (W^-1)B.

    Solved as the generalized symmetric-definite problem
    ``B u = lambda (W + ridge I) u``, so eigenvalues are real and
    non-negative up to round-off. Columns have unit norm, ordered by
    decreasing eigenvalue; also returns the eigenvalues for rank
    inspection.
    """
    from scipy.linalg import eigh

    p = scatter.within.shape[0]
    ridge = ridge_frac * np.trace(scatter.within) / p
    W = symmetrize(scatter.within) + ridge * np.eye(p)
    evals, evecs = eigh(symmetrize(scatter.between), W)
    order = np.argsort(-evals, kind="stable")[:r]
    return _normalize_columns(evecs[:, order]), evals[order]


def _fallback_projection(scatter: ScatterMatrices, dim: int,
                         config: OptimConfig):
    """Discriminant directions, then null-space principal components."""
    p = scatter.within.shape[0]
    V, evals = discriminant_directions(scatter, dim, config.ridge_frac)
    informative = int(np.sum(evals > max(evals[0], 0.0) * 1e-9 + 1e-300))
    cols = [V[:, j] for j in range(min(informative, dim))]
    while len(cols) < dim:
        if cols:
            Q = np.linalg.qr(np.column_stack(cols))[0]
            P = np.eye(p) - Q @ Q.T
        else:
            P = np.eye(p)
        resid = symmetrize(P @ scatter.total @ P)
        w, U = np.linalg.eigh(resid)
        if w[-1] > 1e-12 * max(np.trace(scatter.total), 1.0):
            cols.append(U[:, -1])
        else:
            # fully degenerate scatter: seeded random direction
            rng = np.random.default_rng(config.seed)
            v = rng.standard_normal(p)
            if cols:
                v -= Q @ (Q.T @ v)
            cols.append(v / np.linalg.norm(v))
    return _normalize_columns(np.column_stack(cols))


def init_projection(scatter: ScatterMatrices, dim: int,
                    config: OptimConfig | None = None):
    """Warm-start projection: leading eigenvectors of (W^-1)B + eps Sigma.

    The matrix is the ridge-stabilized ``(W + ridge I)^{-1} B`` plus
    ``epsilon_init`` times the total covariance; for small epsilon its
    leading eigenvectors approach the discriminant features, while the
    perturbation keeps directions beyond rank(B) meaningful. Columns are
    normalized to unit norm. If the eigen-solve fails, falls back to
    discriminant directions padded with principal components of the
    total covariance restricted to their orthogonal complement, with a
    warning.
    """
    config = config if config is not None else OptimConfig()
    p = scatter.within.shape[0]
    if not 1 <= dim <= p:
        raise ConfigError(f"dim must lie in [1, {p}], got {dim}")
    ridge = config.ridge_frac * np.trace(scatter.within) / p
    try:
        A = np.linalg.solve(scatter.within + ridge * np.eye(p), scatter.between)
        A = A + config.epsilon_init * scatter.total
        evals, evecs = np.linalg.eig(A)
        V = _real_basis_from_eig(evals, evecs, dim)
    except np.linalg.LinAlgError as exc:
        warnings.warn(f"warm-start eigen-solve failed ({exc}); using "
                      "discriminant/principal-component fallback")
        V = _fallback_projection(scatter, dim, config)
    return _normalize_columns(V)


def ascend(value_fn, grad_fn, V0, config: OptimConfig, scale: float = 1.0):
    """Armijo backtracking gradient ascent from ``V0``.

    ``value_fn``/``grad_fn`` map a projection to the objective and its
    gradient. ``scale`` divides the max-abs gradient entry before the
    ``grad_tol`` comparison (callers pass n). Returns ``(V, trace)``
    where ``trace`` are the accepted objective values, non-decreasing;
    the returned ``V`` attains the highest value evaluated anywhere in
    the search, including rejected candidates.
    """
    V = np.array(V0, dtype=float)
    f = float(value_fn(V))
    if not np.isfinite(f):
        raise NumericalError("objective is not finite at the initial projection")
    trace = [f]
    best_V, best_f = V, f
    step = config.init_step
    for _ in range(config.max_iters):
        G = grad_fn(V)
        if np.abs(G).max() / scale <= config.grad_tol:
            break
        gsq = float(np.sum(G * G))
        t = step
        accepted = False
        while t >= MIN_STEP:
            cand = V + t * G
            fc = float(value_fn(cand))
            if np.isfinite(fc) and fc > best_f:
                best_V, best_f = cand, fc
            if np.isfinite(fc) and fc >= f + config.armijo_c * t * gsq:
                accepted = True
                break
            t *= config.backtrack_factor
        if not accepted:
            break
        V, f = cand, fc
        trace.append(f)
        step = 2.0 * t
    if best_f > trace[-1]:
        # a rejected candidate beat the last accepted iterate
        V, f = best_V, best_f
        trace.append(best_f)
    return V, np.asarray(trace)


def maximize(dataset: Dataset, model: GaussianClassModel, V0,
             config: OptimConfig | None = None,
             clamp: ClampStats | None = None):
    """Maximize the classification log-likelihood over projections.

    Each value call builds a :class:`~opgd.objective.GradientWorkspace`
    (projected variances, differences, posteriors, log-likelihood) and
    keeps the last one. :func:`ascend` asks for the gradient only at the
    point it just valued, so the gradient reuses that workspace instead
    of evaluating the densities again; at any other point it builds its
    own. An accepted point's clamps are therefore counted once.

    Returns ``(V, trace)``; see :func:`ascend` for the trace contract.
    """
    if dataset.labels is None:
        raise ValueError("a labeled dataset is required")
    config = config if config is not None else OptimConfig()
    V0 = check_projection(V0, model.p)
    last = {}

    def value(V):
        last["V"] = np.array(V, dtype=float)
        last["ws"] = build_workspace(dataset, V, model, clamp)
        return last["ws"].log_likelihood

    def grad(V):
        if "V" in last and np.array_equal(V, last["V"]):
            ws = last["ws"]
        else:
            ws = build_workspace(dataset, V, model, clamp)
        return grad_ell1(dataset, V, model, ws) - grad_ell2(dataset, V, model, ws)

    return ascend(value, grad, V0, config, scale=float(dataset.n))


def order_columns(dataset: Dataset, V, model: GaussianClassModel):
    """Greedy likelihood ordering of projection columns.

    The first output column maximizes the single-column objective; each
    later position appends the remaining column that maximizes the
    objective of the augmented set. Ties go to the lowest original
    index. The column set is preserved exactly.
    """
    V = check_projection(V, model.p)
    m = V.shape[1]
    if m == 1:
        return V.copy()
    order: list[int] = []
    remaining = list(range(m))
    while remaining:
        best_j = remaining[0]
        best_val = -np.inf
        for j in remaining:
            val = classification_log_likelihood(
                dataset, V[:, order + [j]], model)
            if val > best_val:
                best_val, best_j = val, j
        order.append(best_j)
        remaining.remove(best_j)
    return V[:, order]
