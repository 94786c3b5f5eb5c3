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

Every direction of a supervised fit is solved in one frame, the
whitening ``S`` of the total covariance ``Sigma`` (``S' Sigma S = I``,
see :func:`whitened_frame`). The warm start, LDA and SAVE each take the
top eigenvectors of one symmetric matrix of that frame
(:func:`leading_directions`), and the supervised ascent moves ``U`` with
``V = S U``. The objective satisfies ``L(X A; V) = L(X; A V)`` for any
invertible ``A``; in this frame the directions and the ascent's steps
do too, so neither depends on the units or the basis of the columns.
The enhancement ascent stays in input coordinates, because its
orthonormality penalty is not unit-free.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import EIGEN_FLOOR_FRAC, ConfigError, DataError, Dataset, \
    GaussianClassModel, GmmModel, NumericalError, ScatterMatrices, \
    _require_labels, check_projection, symmetrize, whitening
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
    """Settings for the warm start and the ascent.

    ``grad_tol`` applies to the max-abs gradient entry divided by the
    number of observations; ``epsilon_init`` weighs the SAVE matrix
    against the between-class scatter in the warm start (see
    :func:`init_projection`). Every float must be finite and positive.
    """

    max_iters: int = 500
    grad_tol: float = 1e-6
    epsilon_init: float = 0.1

    def __post_init__(self):
        if self.max_iters < 0:
            raise ConfigError("max_iters must be non-negative")
        for name in ("grad_tol", "epsilon_init"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, "
                                  f"got {value}")


def _normalize_columns(V):
    norms = np.linalg.norm(V, axis=0)
    return V / np.where(norms > 0, norms, 1.0)


def whitened_frame(scatter: ScatterMatrices):
    """The :func:`~opgd.core.whitening` ``S`` of the total scatter, the
    frame every direction of a supervised fit is solved in.

    A within scatter that is numerically zero, at or below
    ``EIGEN_FLOOR_FRAC`` of the total in trace, is a ``NumericalError``:
    every class or cluster is one repeated row (a fitted mixture's
    components keep only their covariance floor), the groups separate
    with no spread, and no discriminant is defined.
    """
    if not np.trace(scatter.within) > \
            EIGEN_FLOOR_FRAC * np.trace(scatter.total):
        raise NumericalError("no class or cluster has within-group spread: "
                             "the rows of each are identical")
    return whitening(scatter.total)


def leading_directions(S, M, r: int):
    """The top-``r`` eigenvectors of the symmetric matrix ``M`` of the
    whitened frame ``S``, mapped back as ``S u`` and scaled to unit
    columns, in decreasing order of their eigenvalues, which are also
    returned. ``r`` above the rank of the frame is a ``DataError``."""
    rank = S.shape[1]
    if r > rank:
        raise DataError(f"dim {r} exceeds {rank}, the rank of the total "
                        "covariance")
    evals, evecs = np.linalg.eigh(symmetrize(M))
    return _normalize_columns(S @ evecs[:, ::-1][:, :r]), evals[::-1][:r]


def save_matrix(S, model: GmmModel):
    """SAVE's ``sum_k w_k (I - S' Sigma_k S)^2`` in the whitened frame
    ``S`` of the model's total covariance (Cook & Weisberg 1991): large
    along the directions where some component's spread differs from the
    whole."""
    D = np.eye(S.shape[1]) - S.T @ model.covariances @ S
    return symmetrize(np.einsum("k,kij->ij", model.weights, D @ D))


def init_projection(model: GmmModel, dim: int,
                    config: OptimConfig | None = None):
    """Warm-start projection: the leading eigenvectors of ``S'BS + eps
    M`` in the whitened frame ``S`` of the model's total covariance.

    ``B`` is the model's between-group scatter, so ``S'BS`` gives the
    discriminant (LDA) directions, and ``M`` is :func:`save_matrix`,
    which ranks the directions beyond the rank ``K - 1`` of ``B`` by how
    much the components' spreads differ there; ``eps`` is
    ``epsilon_init``. ``model`` is the class model of a supervised fit
    or a fitted mixture. Columns have unit norm.
    """
    config = config if config is not None else OptimConfig()
    if not 1 <= dim <= model.p:
        raise ConfigError(f"dim must lie in [1, {model.p}], got {dim}")
    S = whitened_frame(model.scatter)
    M = S.T @ model.scatter.between @ S \
        + config.epsilon_init * save_matrix(S, model)
    return leading_directions(S, M, dim)[0]


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

    The ascent runs in the :func:`whitened_frame` ``S`` of the class
    model: it moves ``U``, with ``V = S U``, on the value ``f(S U)`` and
    the gradient ``S' grad f(S U)``, from ``U0 = S' Sigma V0`` with its
    columns scaled to unit length, which changes no value. So its steps
    do not depend on the units or the basis of the columns, up to the
    max-abs gradient entry of the stop test. No copy of the data is
    made. ``V0`` is checked once; the ascent's
    iterates are not checked again. The gradient reads the workspace of
    the value at its point (see :func:`reuse_workspace`), so an accepted
    point's clamps are counted once.

    Returns ``(S U, trace)``, or ``(V0, trace)`` when the ascent
    accepted no step; see :func:`ascend` for the trace contract.
    """
    _require_labels(dataset)
    config = config if config is not None else OptimConfig()
    V0 = check_projection(V0, model.p)
    S = whitened_frame(model.scatter)
    value, grad = reuse_workspace(
        lambda U: build_workspace(dataset.X, S @ U, model,
                                  dataset.label_index, clamp),
        lambda U, ws: ws.log_likelihood,
        lambda U, ws: S.T @ (grad_ell1(dataset, S @ U, model, ws)
                             - grad_ell2(dataset, S @ U, model, ws)))
    U, trace = ascend(value, grad,
                      _normalize_columns(S.T @ model.scatter.total @ V0),
                      config, scale=float(dataset.n))
    return (V0.copy() if len(trace) == 1 else S @ U), trace


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
