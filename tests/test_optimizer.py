"""Tests for initialization, quasi-Newton ascent and column ordering."""

import warnings

import numpy as np
import pytest

from opgd import objective, optimizer
from opgd.core import ConfigError, Dataset, compute_scatter, estimate_class_model
from opgd.objective import classification_log_likelihood, grad_objective
from opgd.optimizer import (
    MIN_STEP,
    OptimConfig,
    _fallback_projection,
    _real_basis_from_eig,
    ascend,
    discriminant_directions,
    init_projection,
    maximize,
    order_columns,
    reuse_workspace,
)


def _two_class_diagonal(seed=0, n_per=150):
    """Classes separated along e1 only; e2 is pure noise."""
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.standard_normal((n_per, 2)) + [3.0, 0.0],
        rng.standard_normal((n_per, 2)) - [3.0, 0.0],
    ])
    y = np.repeat([1, 2], n_per)
    ds = Dataset(X=X, labels=y)
    return ds, estimate_class_model(ds)


def _cosine(u, v):
    u, v = np.ravel(u), np.ravel(v)
    return abs(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))


class TestOptimConfig:
    def test_defaults_valid(self):
        cfg = OptimConfig()
        assert cfg.max_iters > 0 and 0 < optimizer.BACKTRACK < 1

    def test_zero_iterations_allowed(self):
        assert OptimConfig(max_iters=0).max_iters == 0

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_iters": -1},
            {"grad_tol": 0.0},
            {"grad_tol": -2.0},
            {"epsilon_init": 0.0},
            {"ridge_frac": 0.0},
            {"grad_tol": -np.inf},
            {"epsilon_init": -1e-3},
            {"ridge_frac": -1.0},
            {"grad_tol": np.nan},
            {"grad_tol": np.inf},
            {"epsilon_init": -np.inf},
            {"epsilon_init": np.nan},
            {"epsilon_init": np.inf},
            {"ridge_frac": np.nan},
            {"ridge_frac": -np.inf},
            {"ridge_frac": np.inf},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            OptimConfig(**kw)


class TestRealBasis:
    def test_real_spectrum_passthrough(self):
        A = np.diag([3.0, 2.0, 1.0])
        evals, evecs = np.linalg.eig(A)
        V = _real_basis_from_eig(evals, evecs, 2)
        assert V.shape == (3, 2)
        assert np.isrealobj(V)
        # leading directions of a diagonal matrix are coordinate axes
        assert _cosine(V[:, 0], np.eye(3)[0]) > 1 - 1e-12

    def test_complex_pair_spans_real_plane(self):
        """A rotation block has complex eigenvectors; the returned real
        basis must span the same invariant subspace."""
        theta = 0.7
        A = np.zeros((4, 4))
        A[:2, :2] = 5.0 * np.array([
            [np.cos(theta), -np.sin(theta)],
            [np.sin(theta), np.cos(theta)],
        ])
        A[2, 2], A[3, 3] = 1.0, 0.5
        evals, evecs = np.linalg.eig(A)
        V = _real_basis_from_eig(evals, evecs, 2)
        assert np.isrealobj(V) and V.shape == (4, 2)
        # invariant plane of the rotation block is span(e1, e2)
        np.testing.assert_allclose(V[2:, :], 0.0, atol=1e-10)
        assert np.linalg.matrix_rank(V[:2, :]) == 2

    def test_odd_dim_cut_through_pair_keeps_rank(self):
        theta = 1.1
        A = np.zeros((3, 3))
        A[:2, :2] = 4.0 * np.array([
            [np.cos(theta), -np.sin(theta)],
            [np.sin(theta), np.cos(theta)],
        ])
        A[2, 2] = 0.2
        evals, evecs = np.linalg.eig(A)
        V = _real_basis_from_eig(evals, evecs, 2)
        assert np.linalg.matrix_rank(V, tol=1e-8) == 2


class TestInitProjection:
    def test_matches_discriminant_direction_two_class(self):
        """With a small ridge and epsilon the init reproduces the leading
        discriminant direction."""
        ds, model = _two_class_diagonal(1)
        sc = compute_scatter(ds, model)
        V = init_projection(sc, 1, OptimConfig())
        w, _ = discriminant_directions(sc, 1)
        assert _cosine(V, w) > 1 - 1e-6

    def test_informative_direction_found(self):
        ds, model = _two_class_diagonal(2)
        sc = compute_scatter(ds, model)
        V = init_projection(sc, 1, OptimConfig())
        assert _cosine(V, [1.0, 0.0]) > 0.99

    def test_epsilon_fills_beyond_class_rank(self):
        """dim above K - 1 stays full rank thanks to the total-scatter term."""
        ds, model = _two_class_diagonal(3)
        sc = compute_scatter(ds, model)
        V = init_projection(sc, 2, OptimConfig())
        assert V.shape == (2, 2)
        assert np.linalg.matrix_rank(V, tol=1e-8) == 2

    def test_unit_columns(self):
        ds, model = _two_class_diagonal(4)
        sc = compute_scatter(ds, model)
        V = init_projection(sc, 2, OptimConfig())
        np.testing.assert_allclose(np.linalg.norm(V, axis=0), 1.0, atol=1e-12)

    def test_single_class_init_is_principal_components(self):
        """K = 1 leaves only epsilon * total scatter; columns are its
        leading eigenvectors."""
        rng = np.random.default_rng(5)
        X = rng.standard_normal((300, 3)) * [5.0, 1.0, 0.2]
        ds = Dataset(X=X, labels=np.ones(300, int))
        sc = compute_scatter(ds, estimate_class_model(ds))
        V = init_projection(sc, 2, OptimConfig())
        w, Q = np.linalg.eigh(sc.total)
        assert _cosine(V[:, 0], Q[:, -1]) > 1 - 1e-8
        assert _cosine(V[:, 1], Q[:, -2]) > 1 - 1e-8


def _tiny_two_class_scatter(seed):
    """Two classes of 2-3 rows in 8 columns: the within scatter is
    singular and the warm start's eigenvectors can come out dependent."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(2, 4, size=2)
    ds = Dataset(X=rng.standard_normal((counts.sum(), 8)),
                 labels=np.repeat([1, 2], counts))
    return compute_scatter(ds, estimate_class_model(ds))


class TestFallbackProjection:
    def test_dependent_eigenvectors_fall_back_with_a_warning(self):
        """On tiny tables of many columns the eigen-solve of the warm
        start can select nearly dependent eigenvectors; the fallback then
        gives a finite projection of unit columns with a warning."""
        hits = 0
        for seed in range(30):
            sc = _tiny_two_class_scatter(seed)
            for dim in (7, 8):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", UserWarning)
                    V = init_projection(sc, dim, OptimConfig())
                if not caught:
                    continue
                hits += 1
                assert [str(w.message) for w in caught] == [
                    "warm-start eigen-solve failed (selected eigenvectors "
                    "nearly dependent); using discriminant/principal-"
                    "component fallback"]
                assert V.shape == (8, dim) and np.all(np.isfinite(V))
                np.testing.assert_allclose(np.linalg.norm(V, axis=0), 1.0,
                                           atol=1e-12)
        assert hits >= 2

    @pytest.mark.parametrize("dim", [1, 4, 5, 8])
    def test_discriminant_then_principal_then_seeded_directions(self, dim):
        """With two classes one direction is discriminant; the rest are
        principal components of the total scatter outside the columns
        so far, and, past its rank of 4, seeded random directions. All
        are orthonormal, and the first is the discriminant direction."""
        sc = _tiny_two_class_scatter(6)
        assert np.linalg.matrix_rank(sc.total) == 4
        config = OptimConfig(seed=3)
        V = _fallback_projection(sc, dim, config)
        assert V.shape == (8, dim) and np.all(np.isfinite(V))
        np.testing.assert_allclose(V.T @ V, np.eye(dim), atol=1e-10)
        w, _ = discriminant_directions(sc, 1, config.ridge_frac)
        assert _cosine(V[:, 0], w) > 1 - 1e-10
        np.testing.assert_array_equal(V, _fallback_projection(sc, dim,
                                                              config))
        if dim > 1:
            # the principal components lie in the span of the data
            Q = np.linalg.svd(sc.total)[0][:, :4]
            k = min(dim, 4)
            np.testing.assert_allclose(Q @ (Q.T @ V[:, :k]), V[:, :k],
                                       atol=1e-8)


def _off_ridge(G, D):
    """``D`` plus a large component orthogonal to ``G``: still uphill at
    ``t = 0``, but on a concave quadratic every trial step down to
    ``MIN_STEP`` loses more across the ridge than it gains along it."""
    u = np.ones_like(G)
    u -= (np.vdot(u, G) / np.vdot(G, G)) * G
    return D + 1e8 * u / np.linalg.norm(u)


class TestAscend:
    def test_monotone_trace_on_quadratic(self):
        """Concave quadratic: trace non-decreasing, converges to optimum."""
        A = np.diag([2.0, 0.5])
        b = np.array([[1.0], [-3.0]])

        def value(V):
            return float(-(V * (A @ V)).sum() / 2 + (b * V).sum())

        def grad(V):
            return -A @ V + b

        V0 = np.zeros((2, 1))
        V, trace = ascend(value, grad, V0, OptimConfig(max_iters=200))
        assert np.all(np.diff(trace) >= -1e-10)
        np.testing.assert_allclose(V, np.linalg.solve(A, b), atol=1e-4)

    def test_zero_iterations_returns_start(self):
        def value(V):
            return float(-(V ** 2).sum())

        V0 = np.array([[1.0], [2.0]])
        V, trace = ascend(value, lambda V: -2 * V, V0, OptimConfig(max_iters=0))
        np.testing.assert_array_equal(V, V0)
        assert len(trace) == 1 and trace[0] == value(V0)

    def test_gradient_tolerance_stops_early(self):
        def value(V):
            return float(-(V ** 2).sum())

        V0 = np.full((2, 1), 1e-12)
        _, trace = ascend(value, lambda V: -2 * V, V0,
                          OptimConfig(max_iters=500, grad_tol=1e-6))
        assert len(trace) < 5

    def test_returns_best_point_seen(self):
        """Even when late steps are rejected the best evaluated point wins."""
        ds, model = _two_class_diagonal(6)
        V0 = np.array([[0.3], [1.0]])
        V, trace = maximize(ds, model, V0, OptimConfig(max_iters=100))
        final = classification_log_likelihood(ds, V, model)
        assert final == pytest.approx(trace[-1], abs=1e-9)
        assert final >= trace[0] - 1e-10

    def test_ill_conditioned_quadratic_within_bound(self):
        """10-d concave quadratic with condition number 1e3: the optimum is
        reached to 1e-6 within 100 iterations. Steepest ascent with the
        same Armijo line search and step doubling is still more than 0.1
        away after those 100 iterations."""
        rng = np.random.default_rng(0)
        Q = np.linalg.qr(rng.standard_normal((10, 10)))[0]
        A = Q @ np.diag(np.logspace(0, -3, 10)) @ Q.T
        V_opt = rng.standard_normal((10, 1))
        b = A @ V_opt

        def value(V):
            return float(-(V * (A @ V)).sum() / 2 + (b * V).sum())

        def grad(V):
            return -A @ V + b

        config = OptimConfig(max_iters=100, grad_tol=1e-10)
        V, trace = ascend(value, grad, np.zeros((10, 1)), config)
        assert np.abs(V - V_opt).max() <= 1e-6
        assert np.all(np.diff(trace) >= 0.0)

        V, f, step = np.zeros((10, 1)), value(np.zeros((10, 1))), 1.0
        for _ in range(config.max_iters):
            G = grad(V)
            t = step
            while t >= MIN_STEP and value(V + t * G) < \
                    f + optimizer.ARMIJO_C * t * float(np.sum(G * G)):
                t *= optimizer.BACKTRACK
            V = V + t * G
            f, step = value(V), 2.0 * t
        assert np.abs(V - V_opt).max() > 0.1

    def test_zero_gain_step_is_a_stalled_line_search(self):
        """Near the optimum of a 10-d concave quadratic, with a gradient
        tolerance the round-off in the gradient cannot meet, a candidate
        whose value equals ``f`` is a failed trial: the ascent stops as a
        stalled line search before its cap instead of taking zero-gain
        steps until then."""
        rng = np.random.default_rng(1)
        Q = np.linalg.qr(rng.standard_normal((10, 10)))[0]
        A = Q @ np.diag(np.logspace(0, -3, 10)) @ Q.T
        b = A @ rng.standard_normal((10, 1))
        grads = []

        def value(V):
            return float(-(V * (A @ V)).sum() / 2 + (b * V).sum())

        def grad(V):
            grads.append(V)
            return -A @ V + b

        config = OptimConfig(max_iters=1000, grad_tol=1e-10)
        _, trace = ascend(value, grad, np.zeros((10, 1)), config)
        assert len(grads) < config.max_iters
        assert np.all(np.diff(trace) > 0.0)

    @pytest.mark.parametrize("spoil, searched", [
        (lambda G, D: -D, False),
        (_off_ridge, True),
    ], ids=["non_ascent", "line_search_fails"])
    def test_failed_direction_falls_back_to_gradient(self, monkeypatch,
                                                     spoil, searched):
        """A quasi-Newton direction that is not uphill (never searched),
        or along which the line search fails, clears the memory, and the
        step goes along the gradient instead. With positive-curvature
        pairs a non-ascent direction comes only from round-off, so the
        fourth direction is spoiled here to force both cases."""
        real = optimizer._two_loop
        seen = []

        def two_loop(G, pairs):
            seen.append(len(pairs))
            D = real(G, pairs)
            return spoil(G, D) if len(seen) == 4 else D

        monkeypatch.setattr(optimizer, "_two_loop", two_loop)
        A = np.diag([3.0, 1.0, 0.3])
        b = np.array([[1.0], [-2.0], [0.5]])
        valued, accepted = [], []

        def value(V):
            valued.append(V)
            return float(-(V * (A @ V)).sum() / 2 + (b * V).sum())

        def grad(V):
            accepted.append((V, -A @ V + b, len(valued)))
            return accepted[-1][1]

        V, trace = ascend(value, grad, np.zeros((3, 1)),
                          OptimConfig(max_iters=200, grad_tol=1e-12))
        # the fourth direction came from four pairs; the next one from the
        # single pair of the gradient step that replaced it
        assert seen[3:5] == [4, 1]
        (V4, G4, n4), (V5, _, _) = accepted[4:6]
        assert _cosine(V5 - V4, G4) == pytest.approx(1.0, abs=1e-12)
        first_trial_along_G = _cosine(valued[n4] - V4, G4) > 1 - 1e-12
        assert first_trial_along_G != searched
        assert np.all(np.diff(trace) >= 0.0)
        np.testing.assert_allclose(V, np.linalg.solve(A, b), atol=1e-8)

    def test_pair_without_positive_curvature_is_skipped(self, monkeypatch):
        """``f = sum(v^2/2 - v^4/4)`` is convex near 0, so the first steps
        from there have ``s'y <= 0``; no such pair reaches the direction."""
        real = optimizer._two_loop
        used = []

        def two_loop(G, pairs):
            used.extend(float(np.vdot(s, y)) for s, y, _ in pairs)
            return real(G, pairs)

        monkeypatch.setattr(optimizer, "_two_loop", two_loop)
        accepted = []

        def value(V):
            return float((V ** 2 / 2 - V ** 4 / 4).sum())

        def grad(V):
            accepted.append((V, V - V ** 3))
            return accepted[-1][1]

        V0 = np.array([[0.05], [0.1], [-0.02]])
        V, trace = ascend(value, grad, V0, OptimConfig(max_iters=100))
        curvatures = [float(np.vdot(Vb - Va, Ga - Gb))
                      for (Va, Ga), (Vb, Gb) in zip(accepted, accepted[1:])]
        assert min(curvatures) <= 0.0 < max(curvatures)
        assert used and min(used) > 0.0
        assert np.all(np.diff(trace) >= 0.0)
        np.testing.assert_allclose(np.abs(V), 1.0, atol=1e-6)


class TestMaximize:
    def test_rotated_informative_direction_recovered(self):
        """Classes separated along (1, 1) / sqrt(2); the ascent must turn
        the projection toward it."""
        rng = np.random.default_rng(7)
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        # moderate separation keeps posteriors off their saturation plateau
        shift = 1.2 * u
        X = np.vstack([
            rng.standard_normal((200, 2)) + shift,
            rng.standard_normal((200, 2)) - shift,
        ])
        ds = Dataset(X=X, labels=np.repeat([1, 2], 200))
        model = estimate_class_model(ds)
        V0 = np.array([[1.0], [0.0]])  # start 45 degrees away
        V, trace = maximize(ds, model, V0, OptimConfig(max_iters=300))
        assert _cosine(V, u) > 0.99
        assert trace[-1] > trace[0]

    def test_monotone_likelihood_random_instances(self):
        rng = np.random.default_rng(8)
        for seed in range(6):
            r = np.random.default_rng(seed)
            X = r.standard_normal((40, 4))
            y = r.integers(1, 4, size=40)
            y[:6] = np.repeat([1, 2, 3], 2)
            ds = Dataset(X=X, labels=y)
            model = estimate_class_model(ds)
            V0 = r.standard_normal((4, 2))
            _, trace = maximize(ds, model, V0, OptimConfig(max_iters=60))
            assert np.all(np.diff(trace) >= -1e-10)


def _counting_ascend(monkeypatch, counts, probe=None):
    """Patch ``optimizer.ascend`` to count the value and gradient calls
    ``maximize`` makes; ``probe(value_fn, grad_fn)`` runs afterwards."""
    real = optimizer.ascend

    def ascend(value_fn, grad_fn, *args, **kwargs):
        def value(V):
            counts["value"] += 1
            return value_fn(V)

        def grad(V):
            counts["grad"] += 1
            return grad_fn(V)

        out = real(value, grad, *args, **kwargs)
        if probe is not None:
            probe(value_fn, grad_fn)
        return out

    monkeypatch.setattr(optimizer, "ascend", ascend)


def _fused_case(seed=9):
    r = np.random.default_rng(seed)
    X = r.standard_normal((60, 4)) * [1.0, 2.0, 1.0, 0.5]
    y = r.integers(1, 4, size=60)
    X[:, 0] += y
    ds = Dataset(X=X, labels=y)
    return ds, estimate_class_model(ds), r.standard_normal((4, 2))


class TestFusedMaximize:
    """``maximize`` values and differentiates from one workspace."""

    def test_matches_plain_ascent(self):
        ds, model, V0 = _fused_case()
        config = OptimConfig(max_iters=80)
        V, trace = maximize(ds, model, V0, config)
        V_ref, trace_ref = ascend(
            lambda M: classification_log_likelihood(ds, M, model),
            lambda M: grad_objective(ds, M, model), V0, config,
            scale=float(ds.n))
        assert len(trace) == len(trace_ref) > 2
        np.testing.assert_allclose(trace, trace_ref, rtol=1e-12)
        np.testing.assert_allclose(V, V_ref, rtol=1e-12)

    def test_one_density_evaluation_per_value_call(self, monkeypatch):
        counts = {"value": 0, "grad": 0, "densities": 0}
        real = objective.diag_log_densities

        def densities(*args):
            counts["densities"] += 1
            return real(*args)

        monkeypatch.setattr(objective, "diag_log_densities", densities)
        _counting_ascend(monkeypatch, counts)
        ds, model, V0 = _fused_case()
        maximize(ds, model, V0, OptimConfig(max_iters=40))
        assert counts["grad"] > 10
        assert counts["densities"] == counts["value"]

    def test_gradient_away_from_last_value_builds_its_own(self, monkeypatch):
        ds, model, V0 = _fused_case()
        got = {}

        def probe(value_fn, grad_fn):
            value_fn(V0 + 0.5)
            got["G"] = grad_fn(V0)

        _counting_ascend(monkeypatch, {"value": 0, "grad": 0}, probe)
        maximize(ds, model, V0, OptimConfig(max_iters=5))
        np.testing.assert_array_equal(got["G"], grad_objective(ds, V0, model))


def test_reuse_workspace_builds_once_per_value():
    """A gradient at the point just valued reads its workspace; one at
    any other point builds its own."""
    built = []

    def build(V):
        built.append(V.copy())
        return float(V.sum())

    value, grad = reuse_workspace(build, lambda V, ws: ws,
                                  lambda V, ws: (ws, V))
    A, B = np.ones((2, 1)), np.zeros((2, 1))
    assert value(A) == 2.0 and len(built) == 1
    assert grad(A)[0] == 2.0 and len(built) == 1
    assert grad(B)[0] == 0.0 and len(built) == 2
    assert grad(A)[0] == 2.0 and len(built) == 2


def _brute_force_order(ds, V, model):
    """Greedy ordering by a fresh likelihood evaluation of every
    candidate column set; ``np.argmax`` takes the first of tied values,
    the lowest remaining index."""
    order, remaining = [], list(range(V.shape[1]))
    while remaining:
        vals = [classification_log_likelihood(ds, V[:, order + [j]], model)
                for j in remaining]
        order.append(remaining.pop(int(np.argmax(vals))))
    return order


class TestOrderColumns:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_greedy(self, seed):
        """Random instances. On odd seeds the last column is the first one
        negated: the model sees the same column, so every step that
        compares the two is an exact tie, and the returned matrix shows
        which one won."""
        rng = np.random.default_rng(seed)
        n, p, K = int(rng.integers(30, 120)), int(rng.integers(3, 9)), \
            int(rng.integers(2, 5))
        m = int(rng.integers(2, p + 1))
        y = np.r_[np.repeat(np.arange(1, K + 1), 2),
                  rng.integers(1, K + 1, n - 2 * K)]
        X = rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0, p) \
            + rng.normal(size=(K, p))[y - 1]
        ds = Dataset(X=X, labels=y)
        model = estimate_class_model(ds)
        V = rng.standard_normal((p, m))
        if seed % 2:
            V[:, -1] = -V[:, 0]
        np.testing.assert_array_equal(
            order_columns(ds, V, model), V[:, _brute_force_order(ds, V, model)])

    def test_permutation_only(self):
        ds, model = _two_class_diagonal(9)
        rng = np.random.default_rng(9)
        X = np.hstack([ds.X, rng.standard_normal((ds.n, 2))])
        ds4 = Dataset(X=X, labels=ds.labels)
        model4 = estimate_class_model(ds4)
        V = np.eye(4)[:, [1, 2, 0]]
        W = order_columns(ds4, V, model4)
        # same column set, possibly reordered
        assert sorted(map(tuple, W.T.tolist())) == sorted(map(tuple, V.T.tolist()))

    def test_informative_column_promoted_first(self):
        """Greedy ordering puts the separating direction ahead of noise."""
        ds, model = _two_class_diagonal(10)
        V = np.eye(2)[:, [1, 0]]  # noise direction first
        W = order_columns(ds, V, model)
        np.testing.assert_array_equal(W[:, 0], [1.0, 0.0])

    def test_single_class_is_noop(self):
        rng = np.random.default_rng(11)
        ds = Dataset(X=rng.standard_normal((20, 3)), labels=np.ones(20, int))
        model = estimate_class_model(ds)
        V = rng.standard_normal((3, 2))
        np.testing.assert_array_equal(order_columns(ds, V, model), V)
