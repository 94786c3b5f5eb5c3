"""Tests for mixture fitting, the enhancement objective and the pre-filter."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, solve_triangular
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from opgd.clustering import (
    ClusterConfig,
    GmmModel,
    _diag_em,
    _em_converged,
    _floor_covariance,
    _kmeans,
    cluster_objective,
    enhance_gmm,
    fit_gmm_em,
    grad_cluster_objective,
    hard_labels,
    pca_prefilter,
    responsibilities,
)
from opgd.core import ConfigError, DataError
from opgd.evaluation import adjusted_rand_index
from opgd.optimizer import OptimConfig


def _three_blobs(seed=0, n_per=80, delta=5.0, p_extra=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [delta, 0.0], [0.0, delta]])
    X = np.vstack([rng.standard_normal((n_per, 2)) + c for c in centers])
    if p_extra:
        X = np.hstack([X, rng.standard_normal((3 * n_per, p_extra))])
    y = np.repeat([1, 2, 3], n_per)
    return X, y


def _far_blobs(seed=13):
    """Three unit-sd blobs, two of them overlapping, each at least 1e3
    from the data mean: moments about the data mean would lose about six
    digits to cancellation."""
    X, y = _three_blobs(seed, n_per=100, delta=3.0, p_extra=2)
    X[:200, 0] += 1e3
    X[200:, 0] -= 2e3
    X[200:, 1] -= 3.0
    return X, y


def _pentagon_draw(seed, n=3000):
    """Five overlapping clusters on a pentagon under 18 noise columns of
    sd 6: the shape of the benchmark's cluster workload."""
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(5) / 5
    centers = 8.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    y = rng.integers(0, 5, n)
    return np.hstack([centers[y] + 4.0 * rng.standard_normal((n, 2)),
                      6.0 * rng.standard_normal((n, 18))])


def _random_gmm(rng, K, p):
    means = rng.normal(scale=3.0, size=(K, p))
    covs = np.empty((K, p, p))
    for k in range(K):
        A = rng.standard_normal((p, p))
        covs[k] = A @ A.T / p + np.eye(p)
    w = rng.uniform(1.0, 2.0, size=K)
    return GmmModel(weights=w / w.sum(), means=means, covariances=covs)


def _fd_gradient(fn, V, h=1e-6):
    G = np.zeros_like(V)
    for i in range(V.shape[0]):
        for j in range(V.shape[1]):
            Vp = V.copy()
            Vp[i, j] += h
            Vm = V.copy()
            Vm[i, j] -= h
            G[i, j] = (fn(Vp) - fn(Vm)) / (2 * h)
    return G


def _reference_kmeans(X, K, rng, iters=100):
    """Lloyd iterations on explicit ``(n, K, p)`` differences, centres
    from boolean-mask means: the loop the matrix-product distances
    replace."""
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    for k in range(1, K):
        d2 = np.min(((X[:, None, :] - centers[None, :k, :]) ** 2).sum(-1),
                    axis=1)
        centers[k] = X[rng.choice(n, p=d2 / d2.sum())]
    assign = np.full(n, -1, dtype=int)
    for _ in range(iters):
        new = np.argmin(((X[:, None, :] - centers[None]) ** 2).sum(-1), axis=1)
        if np.array_equal(new, assign):
            break
        assign = new
        for k in range(K):
            if np.any(assign == k):
                centers[k] = X[assign == k].mean(axis=0)
    return assign


def _reference_em(X, K, config):
    """Full-covariance EM one component at a time, with scipy's Cholesky
    and triangular solve: the loop the batched EM replaces."""
    n, p = X.shape
    rng = np.random.default_rng(config.seed)
    data_cov_trace = float(np.var(X, axis=0).sum())
    R = np.zeros((n, K))
    R[np.arange(n), _kmeans(X, K, rng)] = 1.0
    weights, means, covs = np.empty(K), np.empty((K, p)), np.empty((K, p, p))
    trace, floored = [], set()
    for _ in range(config.em_max_iters + 1):
        mass = R.sum(axis=0)
        for k in range(K):
            means[k] = R[:, k] @ X / mass[k]
            D = X - means[k]
            S = (D * R[:, k, None]).T @ D / mass[k]
            floor = config.cov_floor * max(np.trace(S),
                                           1e-6 * data_cov_trace) / p
            covs[k] = _floor_covariance(S, floor)
            if np.linalg.eigvalsh(0.5 * (S + S.T))[0] < floor:
                floored.add(k)
            weights[k] = mass[k] / n
        weights = weights / weights.sum()
        ld = np.empty((n, K))
        for k in range(K):
            L = np.tril(cho_factor(covs[k], lower=True)[0])
            Y = (X - means[k]) @ solve_triangular(L, np.eye(p), lower=True).T
            ld[:, k] = -0.5 * (p * np.log(2 * np.pi)
                               + 2.0 * np.log(np.diag(L)).sum()
                               + np.einsum("ij,ij->i", Y, Y))
        joint = np.log(weights)[None, :] + ld
        ll_per_point = logsumexp(joint, axis=1)
        ll = float(ll_per_point.sum())
        trace.append(ll)
        R = np.exp(joint - ll_per_point[:, None])
        if _em_converged(trace, config.em_tol):
            break
    return GmmModel(weights, means, covs), np.asarray(trace), floored


def _reference_diag_em(Z, weights, means, variances, config):
    """Diagonal-covariance EM one component at a time, with scipy's
    densities: the loop the batched M-step replaces."""
    n, d = Z.shape
    floor = config.cov_floor * max(float(np.var(Z, axis=0).mean()), 1e-12)
    variances = np.maximum(variances, floor)
    trace = []
    for _ in range(config.em_max_iters + 1):
        joint = np.log(weights)[None, :] + np.column_stack([
            multivariate_normal.logpdf(Z, mean=m, cov=np.diag(v))
            for m, v in zip(means, variances)])
        ll_per_point = logsumexp(joint, axis=1)
        ll = float(ll_per_point.sum())
        trace.append(ll)
        R = np.exp(joint - ll_per_point[:, None])
        if _em_converged(trace, config.em_tol):
            break
        mass = R.sum(axis=0)
        for k in range(len(weights)):
            means[k] = R[:, k] @ Z / mass[k]
            D = Z - means[k]
            variances[k] = np.maximum((R[:, k] @ (D * D)) / mass[k], floor)
            weights[k] = mass[k] / n
        weights = weights / weights.sum()
    return weights, means, variances, R, np.asarray(trace)


class TestClusterConfig:
    def test_defaults(self):
        cfg = ClusterConfig()
        assert cfg.lam is None
        assert cfg.em_tol == 1e-5  # mclust's EM tolerance

    @pytest.mark.parametrize(
        "kw",
        [
            {"lam": -1.0},
            {"lam": np.nan},
            {"lam": np.inf},
            {"em_max_iters": 0},
            {"em_tol": 0.0},
            {"em_tol": np.nan},
            {"em_tol": np.inf},
            {"cov_floor": 0.0},
            {"cov_floor": np.nan},
            {"cov_floor": -np.inf},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            ClusterConfig(**kw)


class TestEmConverged:
    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8, 0.95])
    def test_geometric_sequence_stops_where_aitken_predicts(self, a):
        """On ``l_t = l_inf - c a^t`` the extrapolated gain is exactly
        ``c a^t``, so the rule stops at the first ``t >= 2`` where that
        is within ``tol * |l_t|``."""
        l_inf, c, tol = -1000.0, 400.0, 1e-5
        trace = [l_inf - c * a ** t for t in range(400)]
        stop = next(t for t in range(1, len(trace))
                    if _em_converged(trace[:t + 1], tol))
        want = next(t for t in range(2, len(trace))
                    if c * a ** t <= tol * abs(trace[t]))
        assert stop == want

    @pytest.mark.parametrize("trace", [
        [0.0, 1.0, 2.0, 3.0],      # a = 1: gains do not shrink
        [0.0, 1.0, 3.0],           # a = 2
        [5.0, 5.0, 6.0],           # d_{t-1} = 0
        [5.0, 4.0, 6.0],           # d_{t-1} < 0
        [0.0, 1.0],                # fewer than three values
        [0.0],
    ])
    def test_never_stops_by_aitken_without_a_shrinking_gain(self, trace):
        # a tolerance so loose that any extrapolation would pass it
        assert not _em_converged(trace, tol=1e3)

    @pytest.mark.parametrize("trace", [[0.0, 1.0, 1.0], [0.0, 1.0, 0.5],
                                       [3.0, 2.0], [2.0, 2.0]])
    def test_step_without_gain_stops(self, trace):
        assert _em_converged(trace, tol=1e-12)


class TestFitGmmEm:
    def test_recovers_separated_clusters(self):
        X, y = _three_blobs(0)
        gmm = fit_gmm_em(X, 3, ClusterConfig(seed=0))
        lab = hard_labels(X, gmm)
        assert adjusted_rand_index(lab, y) > 0.95
        np.testing.assert_allclose(gmm.weights.sum(), 1.0, atol=1e-12)

    def test_log_likelihood_trace_monotone(self):
        X, _ = _three_blobs(1)
        _, trace = fit_gmm_em(X, 3, ClusterConfig(seed=1), return_trace=True)
        assert np.all(np.diff(trace) >= -1e-8)

    def test_seed_determinism(self):
        X, _ = _three_blobs(2)
        g1 = fit_gmm_em(X, 3, ClusterConfig(seed=7))
        g2 = fit_gmm_em(X, 3, ClusterConfig(seed=7))
        np.testing.assert_array_equal(g1.means, g2.means)
        np.testing.assert_array_equal(g1.covariances, g2.covariances)

    def test_single_component_is_sample_moments(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((100, 3)) * [1.0, 2.0, 0.5]
        gmm = fit_gmm_em(X, 1, ClusterConfig(seed=0))
        np.testing.assert_allclose(gmm.means[0], X.mean(axis=0), atol=1e-8)
        D = X - X.mean(axis=0)
        np.testing.assert_allclose(gmm.covariances[0], D.T @ D / 100, atol=1e-6)

    def test_responsibility_rows_sum_to_one(self):
        X, _ = _three_blobs(4)
        gmm = fit_gmm_em(X, 3, ClusterConfig(seed=4))
        R = responsibilities(X, gmm)
        np.testing.assert_allclose(R.sum(axis=1), 1.0, atol=1e-12)

    def test_noisy_fit_stops_before_the_cap(self):
        """Five overlapping clusters under twelve noise columns: a rule
        on the one-step gain at 1e-8 ran this fit to its 300 cap."""
        rng = np.random.default_rng(0)
        angles = 2.0 * np.pi * np.arange(5) / 5
        centers = 8.0 * np.column_stack([np.cos(angles), np.sin(angles)])
        y = rng.integers(0, 5, 1000)
        X = np.hstack([centers[y] + 4.0 * rng.standard_normal((1000, 2)),
                       6.0 * rng.standard_normal((1000, 12))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, trace = fit_gmm_em(X, 5, ClusterConfig(seed=0),
                                  return_trace=True)
        assert len(trace) - 1 < 300
        assert np.all(np.diff(trace) >= 0.0)

    def test_cap_warns(self):
        X, _ = _three_blobs(1, delta=2.0)
        with pytest.warns(UserWarning,
                          match="full-space EM stopped at its cap of 3 "):
            _, trace = fit_gmm_em(X, 3, ClusterConfig(seed=1, em_max_iters=3),
                                  return_trace=True)
        assert len(trace) == 4

    def test_cap_returns_the_mixture_of_its_last_e_step(self):
        """At the cap the last trace entry is the log-likelihood of the
        returned mixture: no M-step follows the last E-step."""
        X, _ = _three_blobs(1, delta=2.0)
        config = ClusterConfig(seed=1, em_max_iters=3)
        with pytest.warns(UserWarning, match="at its cap of 3 "):
            gmm, trace = fit_gmm_em(X, 3, config, return_trace=True)
        joint = np.log(gmm.weights)[None, :] + np.column_stack([
            multivariate_normal.logpdf(X, mean=m, cov=S)
            for m, S in zip(gmm.means, gmm.covariances)])
        assert trace[-1] == pytest.approx(logsumexp(joint, axis=1).sum(),
                                          rel=1e-12)

    def test_leaves_the_data_unchanged(self):
        X, _ = _three_blobs(2)
        before = X.copy()
        fit_gmm_em(X, 3, ClusterConfig(seed=2))
        np.testing.assert_array_equal(X, before)

    def test_peak_memory_is_one_copy_of_the_data(self):
        """EM holds ``X1 = [X - c, 1]`` and arrays of the size of the
        responsibilities; the M-step forms each row block's differences
        from the anchors as it reaches it, not the K copies of the data
        ``(K, p, n)`` would be."""
        rng = np.random.default_rng(11)
        K = 6
        X = rng.standard_normal((6000, 40)) \
            + 4.0 * rng.integers(0, K, (6000, 1))
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                fit_gmm_em(X, K, ClusterConfig(seed=11, em_max_iters=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * X.nbytes

    def test_data_without_columns_is_a_data_error(self):
        with pytest.raises(DataError, match="no columns"):
            fit_gmm_em(np.empty((4, 0)), 2)

    def test_converged_fit_and_enhancement_do_not_warn(self):
        X, _ = _three_blobs(0, p_extra=1)
        cc = ClusterConfig(seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gmm, trace = fit_gmm_em(X, 3, cc, return_trace=True)
            enhance_gmm(X, gmm, 2, cc, OptimConfig(max_iters=100))
        assert len(trace) - 1 < cc.em_max_iters

    @staticmethod
    def _assert_matches_reference(X, K, config):
        gmm, trace = fit_gmm_em(X, K, config, return_trace=True)
        ref, ref_trace, floored = _reference_em(X, K, config)
        assert len(trace) == len(ref_trace)
        np.testing.assert_allclose(trace, ref_trace, rtol=1e-12)
        for got, want in ((gmm.weights, ref.weights), (gmm.means, ref.means),
                          (gmm.covariances, ref.covariances)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        return gmm, len(trace), floored

    def test_batched_em_matches_per_component_loop(self):
        X, _ = _three_blobs(5, n_per=100, delta=3.0, p_extra=3)
        _, iters, floored = self._assert_matches_reference(
            X, 4, ClusterConfig(seed=5, em_tol=1e-10))
        assert 2 < iters < 301 and not floored

    def test_blobs_far_from_the_data_mean_match_reference(self):
        """Each component's scatter is taken about its own mean: moments
        about the data mean put covariances 5e-9 off here, outside
        rtol 1e-8."""
        X, _ = _far_blobs()
        config = ClusterConfig(seed=13, em_tol=1e-10)
        gmm, trace = fit_gmm_em(X, 3, config, return_trace=True)
        ref, ref_trace, floored = _reference_em(X, 3, config)
        assert 2 < len(trace) == len(ref_trace) < 301 and not floored
        np.testing.assert_allclose(gmm.covariances, ref.covariances,
                                   rtol=1e-8)

    def test_anchor_follows_a_drifting_mean(self):
        """A tight cluster (sd 0.01) inside a broad one, both 1e3 from
        the data mean: the tight component's mean drifts many of its
        standard deviations from where k-means put it. Its scatter
        stays within rtol 1e-10 of the loop's (4.6e-12 here); about an
        anchor left at the first M-step's means it was 3.7e-9 off."""
        rng = np.random.default_rng(0)
        X = np.vstack([rng.standard_normal((100, 2)) * 0.01 + [1e3, 0.0],
                       rng.standard_normal((200, 2)) * 5.0 + [1e3, 0.0],
                       rng.standard_normal((150, 2)) + [-2e3, 0.0]])
        config = ClusterConfig(seed=0, em_tol=1e-10)
        gmm, trace = fit_gmm_em(X, 3, config, return_trace=True)
        ref, ref_trace, _ = _reference_em(X, 3, config)
        assert len(trace) == len(ref_trace)
        np.testing.assert_allclose(gmm.covariances, ref.covariances,
                                   rtol=1e-10)

    def test_workload_shape_matches_reference(self):
        """On the benchmark's cluster workload shape at the default
        ``em_tol``: the same E-step count and trace as the per-component
        loop, and the trace the docstring promises."""
        X = _pentagon_draw(7)
        config = ClusterConfig(seed=7)
        _, trace = fit_gmm_em(X, 5, config, return_trace=True)
        _, ref_trace, _ = _reference_em(X, 5, config)
        assert len(trace) == len(ref_trace) < config.em_max_iters
        np.testing.assert_allclose(trace, ref_trace, rtol=1e-12)
        assert np.all(np.diff(trace) >= -1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_dead_component_is_reseeded(self, seed):
        """Three distinct points, ten copies each, leave a fourth
        component no mass: k-means leaves it empty, so the first M-step,
        before any E-step, re-seeds it from the seeded draw, and every
        later M-step at the worst-explained point, each with a warning.
        The fit that comes back is a proper mixture whose last trace
        entry is its own likelihood."""
        X = np.repeat([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]], 10, axis=0)
        assert len(set(_kmeans(X, 4, np.random.default_rng(seed)))) == 3
        message = "mixture component 4 lost all responsibility mass"
        with pytest.warns(UserWarning, match=message) as caught:
            gmm, trace = fit_gmm_em(X, 4, ClusterConfig(seed=seed),
                                    return_trace=True)
        assert [str(w.message) for w in caught] == \
            [message + "; re-seeding"] * len(trace)
        for a in (gmm.weights, gmm.means, gmm.covariances, trace):
            assert np.all(np.isfinite(a))
        assert gmm.weights.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.sort(gmm.weights),
                                   np.array([1, 10, 10, 10]) / 31, rtol=1e-9)
        joint = np.log(gmm.weights)[None, :] + np.column_stack([
            multivariate_normal.logpdf(X, mean=m, cov=S)
            for m, S in zip(gmm.means, gmm.covariances)])
        assert trace[-1] == pytest.approx(logsumexp(joint, axis=1).sum(),
                                          rel=1e-10)
        R = responsibilities(X, gmm)
        np.testing.assert_allclose(
            R, np.exp(joint - logsumexp(joint, axis=1, keepdims=True)),
            rtol=1e-9, atol=1e-12)

    def test_component_below_floor_is_clamped_like_floor_covariance(self):
        """A blob flat in one coordinate has its scatter eigenvalue clamped
        at the floor, exactly as ``_floor_covariance`` clamps it."""
        X, _ = _three_blobs(6, p_extra=1)
        X[:80, 2] = 0.0
        config = ClusterConfig(seed=6, em_max_iters=5, cov_floor=1e-3)
        gmm, _, floored = self._assert_matches_reference(X, 3, config)
        assert floored
        k = next(iter(floored))
        floor = 1e-3 * np.trace(gmm.covariances[k]) / 3
        assert np.linalg.eigvalsh(gmm.covariances[k])[0] == \
            pytest.approx(floor, rel=1e-3)


class TestClusterObjective:
    def test_matches_brute_force(self):
        """Objective recomputed from scratch with scipy densities."""
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 4))
        gmm = _random_gmm(rng, 3, 4)
        V = rng.standard_normal((4, 2))
        lam = 40.0

        Z = X @ V
        joint = np.empty((40, 3))
        for k in range(3):
            pv = np.diag(V.T @ gmm.covariances[k] @ V)
            joint[:, k] = np.log(gmm.weights[k]) + multivariate_normal.logpdf(
                Z, mean=gmm.means[k] @ V, cov=np.diag(pv)
            )
        term1 = (joint.max(axis=1) - logsumexp(joint, axis=1)).sum()
        G = V.T @ V - np.eye(2)
        ref = term1 - lam * np.sum(G * G)
        np.testing.assert_allclose(
            cluster_objective(X, V, gmm, lam), ref, atol=1e-9
        )

    def test_objective_nonpositive_without_penalty_at_orthonormal(self):
        """max <= logsumexp entrywise, so the assignment term is <= 0;
        orthonormal V kills the penalty."""
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 3))
        gmm = _random_gmm(rng, 2, 3)
        V = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        assert cluster_objective(X, V, gmm, 30.0) <= 0.0

    def test_gradient_against_finite_differences(self):
        """Valid away from argmax boundaries; seeds checked to keep a
        clear top-component margin at every point."""
        rng = np.random.default_rng(7)
        X = rng.standard_normal((30, 4)) * 2.0
        gmm = _random_gmm(rng, 3, 4)
        V = rng.standard_normal((4, 2))
        lam = 3.0
        joint = np.log(gmm.weights)[None, :] + np.stack(
            [
                multivariate_normal.logpdf(
                    X @ V,
                    mean=gmm.means[k] @ V,
                    cov=np.diag(np.diag(V.T @ gmm.covariances[k] @ V)),
                )
                for k in range(3)
            ],
            axis=1,
        )
        top2 = np.sort(joint, axis=1)[:, -2:]
        assert np.all(top2[:, 1] - top2[:, 0] > 1e-3), "degenerate test case"
        G = grad_cluster_objective(X, V, gmm, lam)
        G_fd = _fd_gradient(lambda M: cluster_objective(X, M, gmm, lam), V)
        np.testing.assert_allclose(G, G_fd, rtol=1e-5, atol=1e-7)

    def test_workspace_gives_the_same_value_and_gradient(self):
        """A workspace built at ``V`` gives exactly what each function
        computes without one."""
        from opgd.objective import build_workspace

        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 4)) * 2.0
        gmm = _random_gmm(rng, 3, 4)
        V = rng.standard_normal((4, 2))
        ws = build_workspace(X, V, gmm)
        assert cluster_objective(X, V, gmm, 4.0, workspace=ws) == \
            cluster_objective(X, V, gmm, 4.0)
        np.testing.assert_array_equal(
            grad_cluster_objective(X, V, gmm, 4.0, workspace=ws),
            grad_cluster_objective(X, V, gmm, 4.0))

    def test_penalty_gradient_alone(self):
        """With a flat assignment term (K = 1) only the penalty drives V."""
        rng = np.random.default_rng(8)
        X = rng.standard_normal((25, 3))
        gmm = _random_gmm(rng, 1, 3)
        V = rng.standard_normal((3, 2))
        lam = 5.0
        G = grad_cluster_objective(X, V, gmm, lam)
        ref = -4.0 * lam * V @ (V.T @ V - np.eye(2))
        np.testing.assert_allclose(G, ref, atol=1e-9)


class TestKmeans:
    @pytest.mark.parametrize("seed", range(7, 20))
    def test_partitions_match_explicit_differences(self, seed):
        """On 3,000 points of the benchmark's cluster workload shape."""
        X = _pentagon_draw(seed)
        np.testing.assert_array_equal(
            _kmeans(X, 5, np.random.default_rng(0)),
            _reference_kmeans(X, 5, np.random.default_rng(0)))


class TestDiagEm:
    @staticmethod
    def _start():
        X, _ = _three_blobs(10, n_per=60, delta=2.5)
        return X, (np.array([0.2, 0.3, 0.5]),
                   np.array([[0.5, 0.5], [2.0, 0.0], [0.0, 2.0]]),
                   np.ones((3, 2)))

    def test_matches_per_component_loop(self):
        X, start = self._start()
        config = ClusterConfig(em_tol=1e-10)
        got = _diag_em(X, *(a.copy() for a in start), config)
        want = _reference_diag_em(X, *(a.copy() for a in start), config)
        assert 2 < len(got[4]) == len(want[4]) < 301
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("start_means", [
        [[1e3 + 0.5, -0.5], [1e3, 2.5], [-2e3, 0.3]],
        [[900.0, 0.0], [1100.0, 3.0], [-1900.0, 0.0]]])
    def test_far_from_the_data_mean_matches_per_component_loop(
            self, start_means):
        """Statistics about each component's anchor near its mean, not
        about the data mean: from the first start, an expansion about the
        data mean stopped after 135 E-steps, against the loop's 140; from
        the second, 100 sd from every mean, anchors left at the start
        stopped after 119 against 118."""
        X, _ = _far_blobs()
        start = (np.full(3, 1.0 / 3.0), np.array(start_means),
                 np.ones((3, 2)))
        config = ClusterConfig(em_tol=1e-10)
        got = _diag_em(X[:, :2], *(a.copy() for a in start), config)
        want = _reference_diag_em(X[:, :2], *(a.copy() for a in start),
                                  config)
        assert 2 < len(got[4]) == len(want[4]) < 301
        np.testing.assert_allclose(got[2], want[2], rtol=1e-8)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-12)

    def test_workload_shape_matches_reference(self):
        """On the benchmark's cluster workload shape projected onto the
        pentagon's plane, warm-started from the full-space fit as
        ``enhance_gmm`` does: the loop's E-step count (212, under the
        cap) and labels."""
        X = _pentagon_draw(7)
        config = ClusterConfig(seed=7)
        gmm = fit_gmm_em(X, 5, config)
        start = (gmm.weights, gmm.means[:, :2],
                 np.stack([np.diag(S)[:2] for S in gmm.covariances]))
        got = _diag_em(X[:, :2], *(a.copy() for a in start), config)
        want = _reference_diag_em(X[:, :2], *(a.copy() for a in start),
                                  config)
        assert len(got[4]) == len(want[4]) < config.em_max_iters
        np.testing.assert_array_equal(np.argmax(got[3], axis=1),
                                      np.argmax(want[3], axis=1))

    def test_dead_component_is_reseeded(self):
        """A start mean far from every point gets no mass at the first
        E-step: it is re-seeded with a warning, and the returned
        responsibilities are those of the returned, proper mixture."""
        X, (weights, means, variances) = self._start()
        means[2] = [1e4, 1e4]
        with pytest.warns(UserWarning,
                          match="projected component 3 lost all "
                                "responsibility mass; re-seeding"):
            weights, means, variances, R, trace = _diag_em(
                X, weights, means, variances, ClusterConfig())
        for a in (weights, means, variances, R, trace):
            assert np.all(np.isfinite(a))
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert weights[2] > 0.01 and np.abs(means[2]).max() < 10.0
        joint = np.log(weights)[None, :] + np.column_stack([
            multivariate_normal.logpdf(X, mean=m, cov=np.diag(v))
            for m, v in zip(means, variances)])
        np.testing.assert_allclose(
            R, np.exp(joint - logsumexp(joint, axis=1, keepdims=True)),
            rtol=1e-10, atol=1e-12)

    def test_cap_warns(self):
        X, start = self._start()
        with pytest.warns(UserWarning,
                          match="projected EM stopped at its cap of 3 "):
            got = _diag_em(X, *start, ClusterConfig(em_max_iters=3))
        assert len(got[4]) == 4

    def test_leaves_the_callers_arrays_unchanged(self):
        """The warm start is copied before the first M-step writes the
        new parameters."""
        X, start = self._start()
        before = [a.copy() for a in (X, *start)]
        _diag_em(X, *start, ClusterConfig())
        for got, want in zip((X, *start), before):
            np.testing.assert_array_equal(got, want)

    def test_cap_returns_the_mixture_of_its_last_e_step(self):
        """At the cap the responsibilities, and so the labels, are those
        of the returned mixture: no M-step follows the last E-step."""
        X, start = self._start()
        with pytest.warns(UserWarning, match="at its cap of 3 "):
            weights, means, variances, R, _ = _diag_em(
                X, *start, ClusterConfig(em_max_iters=3))
        joint = np.log(weights)[None, :] + np.column_stack([
            multivariate_normal.logpdf(X, mean=m, cov=np.diag(v))
            for m, v in zip(means, variances)])
        want = np.exp(joint - logsumexp(joint, axis=1, keepdims=True))
        np.testing.assert_array_equal(np.argmax(R, axis=1),
                                      np.argmax(want, axis=1))
        np.testing.assert_allclose(R, want, rtol=1e-10, atol=1e-12)


class TestEnhanceGmm:
    def test_projection_near_orthonormal_and_labels_sensible(self):
        X, y = _three_blobs(9, p_extra=3)
        cc = ClusterConfig(seed=9)
        gmm = fit_gmm_em(X, 3, cc)
        V, lab, projected = enhance_gmm(X, gmm, 2, cc,
                                        OptimConfig(max_iters=150))
        assert V.shape == (5, 2)
        G = V.T @ V - np.eye(2)
        assert np.sum(G * G) <= 1e-2
        assert adjusted_rand_index(lab, y) > 0.9
        assert projected.means.shape == (3, 2)
        # re-estimated projected covariances are diagonal
        for C in projected.covariances:
            np.testing.assert_array_equal(C, np.diag(np.diag(C)))

    def test_objective_not_worse_than_start(self):
        X, _ = _three_blobs(10, p_extra=2)
        cc = ClusterConfig(seed=10)
        gmm = fit_gmm_em(X, 3, cc)
        lam = float(X.shape[0])
        V, _, _ = enhance_gmm(X, gmm, 2, cc, OptimConfig(max_iters=100))
        # compare against the orthonormalized warm start it was given
        from opgd.optimizer import init_projection

        V0 = np.linalg.qr(init_projection(gmm, 2, OptimConfig()))[0]
        assert cluster_objective(X, V, gmm, lam) >= \
            cluster_objective(X, V0, gmm, lam) - 1e-9

    def test_gradient_reuses_the_workspace_of_its_value(self, monkeypatch):
        """Each value request builds one workspace; the gradient at the
        point just valued builds none. Each request still calls the
        objective or its gradient once."""
        import opgd.clustering as clustering

        X, _ = _three_blobs(12, p_extra=2)
        cc = ClusterConfig(seed=12)
        gmm = fit_gmm_em(X, 3, cc)
        calls = dict.fromkeys(("value", "grad", "build_workspace",
                               "cluster_objective",
                               "grad_cluster_objective"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        ascend = clustering.ascend

        def counting_ascend(value_fn, grad_fn, *args, **kwargs):
            return ascend(counted("value", value_fn),
                          counted("grad", grad_fn), *args, **kwargs)

        monkeypatch.setattr(clustering, "ascend", counting_ascend)
        for name in ("build_workspace", "cluster_objective",
                     "grad_cluster_objective"):
            monkeypatch.setattr(clustering, name,
                                counted(name, getattr(clustering, name)))
        enhance_gmm(X, gmm, 2, cc, OptimConfig(max_iters=50))
        assert calls["grad"] > 1
        assert calls["build_workspace"] == calls["value"]
        assert calls["cluster_objective"] == calls["value"]
        assert calls["grad_cluster_objective"] == calls["grad"]

    def test_dim_validation(self):
        X, _ = _three_blobs(11)
        gmm = fit_gmm_em(X, 2, ClusterConfig(seed=11))
        with pytest.raises(ConfigError):
            enhance_gmm(X, gmm, 0)
        with pytest.raises(ConfigError):
            enhance_gmm(X, gmm, 3)


class TestPcaPrefilter:
    def test_drops_negligible_direction(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((200, 3)) * [5.0, 2.0, 1.0]
        tiny = base[:, :1] * 1e-4 + rng.standard_normal((200, 1)) * 1e-6
        X = np.hstack([base, tiny])
        Xr, basis = pca_prefilter(X, 0.999)
        assert Xr.shape == (200, 3) and basis.shape == (4, 3)
        # retained columns reproduce the projection of centered data
        np.testing.assert_allclose(Xr, (X - X.mean(axis=0)) @ basis, atol=1e-10)

    def test_threshold_one_keeps_everything(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((50, 4))
        Xr, basis = pca_prefilter(X, 1.0)
        assert Xr.shape == (50, 4)

    def test_descending_variance_order(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((300, 4)) * [1.0, 4.0, 2.0, 0.1]
        Xr, _ = pca_prefilter(X, 1.0)
        v = Xr.var(axis=0)
        assert np.all(np.diff(v) <= 1e-12)

    def test_bad_threshold(self):
        for threshold in (0.0, 1.5):
            with pytest.raises(ConfigError):
                pca_prefilter(np.eye(3), threshold)

    def test_data_without_variance_is_a_data_error(self):
        """No component could be kept, and the mixture fit after it
        would have no columns."""
        with pytest.raises(DataError, match="no column varies"):
            pca_prefilter(np.tile([1.0, 2.0], (4, 1)), 0.99)

    def test_collinear_pair_reduced(self):
        """A 0.9999-correlated pair loses its difference direction."""
        rng = np.random.default_rng(15)
        z = rng.standard_normal(500) * 4.0
        X = np.column_stack([
            rng.standard_normal(500),
            z,
            z + rng.standard_normal(500) * 0.05,
        ])
        Xr, _ = pca_prefilter(X, 0.999)
        assert Xr.shape[1] == 2
