"""Warm-start initialization, monotone quasi-Newton ascent, column ordering.

The ascent moves along a limited-memory BFGS direction (Liu & Nocedal
1989; Nocedal & Wright, *Numerical Optimization*, ch. 7): the two-loop
recursion applies the inverse-curvature estimate built from the last
:data:`MEMORY` accepted steps to the gradient. A candidate ``V + t D`` is
accepted when it improves the objective, by at least
``ARMIJO_C * t * <G, D>``, otherwise ``t`` is shrunk, so accepted
iterates form an increasing objective trace. Without stored steps, or
when the direction is not an ascent direction or its line search fails,
the step is a plain gradient step. The same routine drives both the
supervised likelihood and the clustering objective.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, Dataset, GaussianClassModel, NumericalError, \
    ScatterMatrices, _require_labels, check_projection, symmetrize
# Nothing here calls ``classification_log_likelihood`` any more; it stays
# importable from this module because perfbench's tracer wraps it here.
from .objective import ClampStats, build_workspace, \
    classification_log_likelihood, component_logsumexp, diag_log_densities, \
    grad_ell1, grad_ell2  # noqa: F401

# Line search gives up below this step size.
MIN_STEP = 1e-14

# Number of (step, gradient change) pairs the quasi-Newton direction keeps.
MEMORY = 10

# Line search: the first trial step along the gradient (quasi-Newton trials
# start at 1), the factor a failed trial shrinks the step by, and the Armijo
# sufficient-increase constant.
INIT_STEP = 1.0
BACKTRACK = 0.5
ARMIJO_C = 1e-4


@dataclass(frozen=True)
class OptimConfig:
    """Settings for initialization and the ascent.

    ``grad_tol`` applies to the max-abs gradient entry divided by the
    number of observations; ``epsilon_init`` and ``ridge_frac`` control
    the warm-start eigenproblem; ``seed`` only feeds the randomized
    last-resort initialization fallback. Every float must be finite.
    """

    max_iters: int = 500
    grad_tol: float = 1e-6
    epsilon_init: float = 1e-3
    ridge_frac: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 0:
            raise ConfigError("max_iters must be non-negative")
        for name in ("grad_tol", "epsilon_init", "ridge_frac"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, "
                                  f"got {value}")


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
    ``B u = lambda (W + ridge I) u`` by Cholesky whitening: with
    ``W + ridge I = L L'``, the eigenvectors are ``L^{-T} w`` for those
    ``w`` of the symmetric ``L^{-1} B L^{-T}``, so eigenvalues are real
    and non-negative up to round-off. Columns have unit norm, ordered by
    decreasing eigenvalue; also returns the eigenvalues for rank
    inspection. A zero within scatter, where every class or cluster is
    one repeated row, is a ``NumericalError``: the ridge scales with
    its trace, so nothing would make ``W + ridge I`` definite.
    """
    p = scatter.within.shape[0]
    ridge = ridge_frac * np.trace(scatter.within) / p
    if not ridge > 0:
        raise NumericalError("no class or cluster has within-group spread: "
                             "the rows of each are identical")
    W = symmetrize(scatter.within) + ridge * np.eye(p)
    L_inv = np.linalg.inv(np.linalg.cholesky(W))
    evals, evecs = np.linalg.eigh(
        symmetrize(L_inv @ symmetrize(scatter.between) @ L_inv.T))
    order = np.argsort(-evals, kind="stable")[:r]
    return _normalize_columns(L_inv.T @ evecs[:, order]), evals[order]


def _fallback_projection(scatter: ScatterMatrices, dim: int,
                         config: OptimConfig):
    """Discriminant directions, then null-space principal components."""
    p = scatter.within.shape[0]
    V, evals = discriminant_directions(scatter, dim, config.ridge_frac)
    informative = int(np.sum(evals > max(evals[0], 0.0) * 1e-9 + 1e-300))
    cols = [V[:, j] for j in range(min(informative, dim))]
    rng = np.random.default_rng(config.seed)
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
            # fully degenerate scatter: seeded random direction, a new
            # draw for each column
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


def _two_loop(G, pairs):
    """L-BFGS two-loop recursion: the direction ``H G``.

    ``pairs`` holds ``(s, y, 1 / s'y)`` oldest first, with ``s`` a step
    and ``y`` the gradient's decrease over it, so ``H`` estimates the
    inverse curvature of the negated objective. The initial ``H`` is
    ``s'y / y'y`` of the newest pair times the identity.
    """
    q = G.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * np.vdot(s, q)
        q -= a * y
        alphas.append(a)
    _, y, rho = pairs[-1]
    r = q / (rho * np.vdot(y, y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        r += (a - rho * np.vdot(y, r)) * s
    return r


def ascend(value_fn, grad_fn, V0, config: OptimConfig, scale: float = 1.0):
    """Monotone L-BFGS ascent with Armijo backtracking from ``V0``.

    ``value_fn``/``grad_fn`` map a projection to the objective and its
    gradient. ``scale`` divides the max-abs gradient entry before the
    ``grad_tol`` comparison (callers pass n). Each iteration evaluates
    one gradient, at the accepted point; line-search trials evaluate
    values only.

    The direction ``D`` comes from :func:`_two_loop` over the last
    :data:`MEMORY` accepted steps; a step whose curvature ``s'y`` is not
    positive is not stored. A quasi-Newton trial starts at ``t = 1``.
    With no stored steps, when ``<G, D>`` is not positive, or when the
    quasi-Newton line search fails, the memory is cleared and the step
    is taken along the gradient from :data:`INIT_STEP`, doubled after
    each accepted gradient step; a failed trial shrinks ``t`` by
    :data:`BACKTRACK`. A candidate is accepted when its value
    exceeds ``f`` and reaches ``f + ARMIJO_C * t * <G, D>``, so a step
    that gains nothing in floating point is a failed trial; the ascent
    stops at the gradient tolerance, after ``max_iters`` iterations, or
    when a gradient line search fails.

    Returns ``(V, trace)`` where ``trace`` are the accepted objective
    values, strictly increasing; the returned ``V`` attains the highest
    value evaluated anywhere in the search, including rejected
    candidates.
    """
    V = np.array(V0, dtype=float)
    f = float(value_fn(V))
    if not np.isfinite(f):
        raise NumericalError("objective is not finite at the initial projection")
    trace = [f]
    best_V, best_f = V, f
    step = INIT_STEP
    pairs = deque(maxlen=MEMORY)
    last = None                 # (step taken, gradient before it)
    for _ in range(config.max_iters):
        G = grad_fn(V)
        if last is not None:
            s, G_old = last
            y = G_old - G
            sy = float(np.vdot(s, y))
            if sy > 0:
                pairs.append((s, y, 1.0 / sy))
        if np.abs(G).max() / scale <= config.grad_tol:
            break
        tries = [(G, float(np.vdot(G, G)), step)]
        if pairs:
            D = _two_loop(G, pairs)
            slope = float(np.vdot(G, D))
            if slope > 0:
                tries.insert(0, (D, slope, 1.0))
            else:
                pairs.clear()
        accepted = False
        for D, slope, t in tries:
            while t >= MIN_STEP:
                cand = V + t * D
                fc = float(value_fn(cand))
                if np.isfinite(fc) and fc > best_f:
                    best_V, best_f = cand, fc
                if np.isfinite(fc) and fc > f and \
                        fc >= f + ARMIJO_C * t * slope:
                    accepted = True
                    break
                t *= BACKTRACK
            if accepted:
                break
            pairs.clear()       # retry along the gradient
        if not accepted:
            break
        if D is G:
            step = 2.0 * t
        last = (cand - V, G)
        V, f = cand, fc
        trace.append(f)
    if best_f > trace[-1]:
        # a rejected candidate beat the last accepted iterate
        V, f = best_V, best_f
        trace.append(best_f)
    return V, np.asarray(trace)


def reuse_workspace(build, value, grad):
    """The ``(value_fn, grad_fn)`` pair :func:`ascend` takes, sharing one
    workspace per point.

    ``build(V)`` evaluates the model at ``V`` into a workspace, such as
    a :class:`~opgd.objective.GradientWorkspace`; ``value(V, ws)`` and
    ``grad(V, ws)`` read the objective and its gradient from it. Each
    value call builds a workspace and keeps the last one. :func:`ascend`
    asks for the gradient only at the point it has just valued, so the
    gradient reuses that workspace instead of evaluating the model
    again, and a rejected trial point never forms a gradient; at any
    other point the gradient builds its own.
    """
    last = {}

    def value_fn(V):
        last["V"] = V = np.array(V, dtype=float)
        last["ws"] = build(V)
        return value(V, last["ws"])

    def grad_fn(V):
        same = "V" in last and np.array_equal(V, last["V"])
        return grad(V, last["ws"] if same
                    else build(np.asarray(V, dtype=float)))

    return value_fn, grad_fn


def maximize(dataset: Dataset, model: GaussianClassModel, V0,
             config: OptimConfig | None = None,
             clamp: ClampStats | None = None):
    """Maximize the classification log-likelihood over projections.

    ``V0`` is checked once; the ascent's iterates are not checked again.
    The gradient reads the workspace of the value at its point (see
    :func:`reuse_workspace`), so an accepted point's clamps are counted
    once.

    Returns ``(V, trace)``; see :func:`ascend` for the trace contract.
    """
    _require_labels(dataset)
    config = config if config is not None else OptimConfig()
    V0 = check_projection(V0, model.p)
    value, grad = reuse_workspace(
        lambda V: build_workspace(dataset.X, V, model, dataset.label_index,
                                  clamp),
        lambda V, ws: ws.log_likelihood,
        lambda V, ws: grad_ell1(dataset, V, model, ws)
        - grad_ell2(dataset, V, model, ws))
    return ascend(value, grad, V0, config, scale=float(dataset.n))


def order_columns(dataset: Dataset, V, model: GaussianClassModel):
    """Greedy likelihood ordering of projection columns.

    The first output column maximizes the single-column objective; each
    later position appends the remaining column that maximizes the
    objective of the augmented set. Ties go to the lowest original
    index. The column set is preserved exactly.

    Under the diagonal model a column subset's log-posteriors are the
    log priors plus a sum of per-column log-densities, so those are
    evaluated once at the full ``V``; each candidate then costs one
    addition and one log-sum-exp.
    """
    _require_labels(dataset)
    V = check_projection(V, model.p)
    m = V.shape[1]
    if m == 1:
        return V.copy()
    ws = build_workspace(dataset.X, V, model)
    terms = [diag_log_densities(ws.diffs[:, j:j + 1], ws.proj_vars[:, j:j + 1])
             for j in range(m)]
    base = model.log_weights[:, None]
    order: list[int] = []
    remaining = list(range(m))
    while len(remaining) > 1:
        best_j = remaining[0]
        best_val = -np.inf
        for j in remaining:
            logpost = base + terms[j]
            val = float(np.sum(logpost[dataset.label_index]
                               - component_logsumexp(logpost)))
            if val > best_val:
                best_val, best_j = val, j
        order.append(best_j)
        remaining.remove(best_j)
        base = base + terms[best_j]
    return V[:, order + remaining]
