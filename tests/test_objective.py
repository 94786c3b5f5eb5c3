"""Tests for the projected-Gaussian likelihood, its pieces and gradients."""

import warnings

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from opgd.clustering import GmmModel, grad_cluster_objective
from opgd.core import Dataset, NumericalError, estimate_class_model
from opgd.objective import (
    ClampStats,
    build_workspace,
    classification_log_likelihood,
    ell1,
    ell1_direct,
    ell2,
    full_gaussian_log_densities,
    grad_ell1,
    grad_ell2,
    grad_objective,
    grad_weighted_log_densities,
    log_densities,
    posteriors,
    projected_variances,
    component_logsumexp,
)


def _instance(seed, n=30, p=5, K=3, dim=2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) + rng.normal(scale=2.0, size=(1, p))
    y = rng.integers(1, K + 1, size=n)
    y[: 2 * K] = np.repeat(np.arange(1, K + 1), 2)  # two per class minimum
    ds = Dataset(X=X, labels=y)
    model = estimate_class_model(ds)
    V = rng.standard_normal((p, dim))
    return ds, model, V


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


class TestProjectedVariances:
    def test_matches_direct_quadratic_form(self):
        rng = np.random.default_rng(0)
        _, model, V = _instance(1, p=4, dim=3)
        pv = projected_variances(V, model.covariances)
        for k in range(model.K):
            np.testing.assert_allclose(
                pv[k], np.diag(V.T @ model.covariances[k] @ V), atol=1e-12
            )

    def test_floor_engages_on_null_direction(self):
        """A direction with zero class variance is clamped, and counted."""
        ds, model, _ = _instance(2, p=3)
        cov = model.covariances.copy()
        cov[0] = np.diag([1.0, 1.0, 0.0])  # third direction degenerate
        V = np.eye(3)[:, [2]]
        stats = ClampStats()
        pv = projected_variances(V, cov, stats)
        assert pv[0, 0] > 0.0
        assert stats.count >= 1


class TestLogDensities:
    def test_matches_scipy_diagonal_gaussian(self):
        """Entry (i, k) is the projected diagonal-covariance log density."""
        ds, model, V = _instance(3, n=12, p=4, K=2, dim=2)
        L = log_densities(ds.X, V, model.means, model.covariances)
        Z = ds.X @ V
        pv = projected_variances(V, model.covariances)
        for k in range(model.K):
            ref = multivariate_normal.logpdf(
                Z, mean=model.means[k] @ V, cov=np.diag(pv[k])
            )
            np.testing.assert_allclose(L[:, k], ref, atol=1e-10)

    def test_single_point_gradient(self):
        """Per-point gradient of log phi(V'x) against finite differences:
        the weighted kernel with one unit weight."""
        ds, model, V = _instance(5, n=10, p=4, K=2, dim=2)
        ws = build_workspace(ds.X, V, model)
        W = np.zeros((model.K, ds.n))
        W[0, 2] = 1.0
        G = grad_weighted_log_densities(ds.X, model.means, ws.cov_proj,
                                        ws.proj_vars, ws.diffs, W)
        G_fd = _fd_gradient(lambda M: log_densities(
            ds.X, M, model.means, model.covariances)[2, 0], V)
        np.testing.assert_allclose(G, G_fd, rtol=1e-6, atol=1e-8)


class TestRowLogsumexp:
    """``component_logsumexp`` against ``scipy.special.logsumexp`` over
    axis 0, the oracle it replaces."""

    @staticmethod
    def _quiet(a, **kw):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return component_logsumexp(a, **kw)

    def test_random_rows_up_to_1e3(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1e3, 1e3, size=(7, 200))
        a[:, :50] *= rng.uniform(0.0, 1e-3, size=(1, 50))  # some small columns
        np.testing.assert_allclose(self._quiet(a), logsumexp(a, axis=0),
                                   rtol=1e-13)

    def test_single_column(self):
        a = np.random.default_rng(1).normal(scale=100.0, size=(1, 30))
        np.testing.assert_allclose(self._quiet(a), logsumexp(a, axis=0),
                                   rtol=1e-13)

    def test_keepdims(self):
        a = np.random.default_rng(2).normal(scale=50.0, size=(4, 20))
        got = self._quiet(a, keepdims=True)
        assert got.shape == (1, 20)
        np.testing.assert_allclose(
            got, logsumexp(a, axis=0, keepdims=True), rtol=1e-13)

    def test_dominant_term_kept_accurate(self):
        """``a_yi - lse_i`` keeps the small terms a plain ``log`` of the
        shifted sum rounds away."""
        a = np.array([[0.0, -40.0], [5.0, -30.0]]).T
        np.testing.assert_allclose(a[0] - self._quiet(a),
                                   a[0] - logsumexp(a, axis=0), rtol=1e-13)
        assert a[0, 0] - self._quiet(a)[0] < 0.0

    def test_infinite_rows(self):
        a = np.array([[-np.inf, -np.inf, -np.inf],
                      [1.0, np.inf, 800.0],
                      [-np.inf, 2.0, 3.0]]).T
        got = self._quiet(a)
        assert got[0] == -np.inf
        assert got[1] == np.inf
        np.testing.assert_allclose(got[2], logsumexp(a[:, 2]), rtol=1e-13)


class TestFullGaussianLogDensities:
    """Against ``scipy.stats.multivariate_normal.logpdf``."""

    @staticmethod
    def _reference(Z, means, covs):
        return np.column_stack([
            multivariate_normal.logpdf(Z, mean=m, cov=S)
            for m, S in zip(means, covs)])

    @staticmethod
    def _spd(rng, d, cond=None):
        Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        w = np.logspace(0.0, -np.log10(cond), d) if cond \
            else rng.uniform(0.5, 3.0, d)
        return (Q * w) @ Q.T

    def test_one_dimension(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((25, 1))
        means = rng.standard_normal((3, 1))
        covs = rng.uniform(0.1, 4.0, size=(3, 1, 1))
        np.testing.assert_allclose(full_gaussian_log_densities(Z, means, covs),
                                   self._reference(Z, means, covs), rtol=1e-10)

    def test_twenty_dimensions_five_components(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((300, 20)) * 2.0
        means = rng.standard_normal((5, 20))
        covs = np.stack([self._spd(rng, 20) for _ in range(5)])
        np.testing.assert_allclose(full_gaussian_log_densities(Z, means, covs),
                                   self._reference(Z, means, covs), rtol=1e-10)

    def test_row_blocks_agree_with_one_block(self, monkeypatch):
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((23, 4))
        means = rng.standard_normal((3, 4))
        covs = np.stack([self._spd(rng, 4) for _ in range(3)])
        whole = full_gaussian_log_densities(Z, means, covs)
        monkeypatch.setattr("opgd.objective._BLOCK_ENTRIES", 5 * 12)
        np.testing.assert_array_equal(
            full_gaussian_log_densities(Z, means, covs), whole)

    def test_ill_conditioned_covariance(self):
        rng = np.random.default_rng(2)
        S = self._spd(rng, 6, cond=1e8)
        assert np.linalg.cond(S) == pytest.approx(1e8, rel=1e-3)
        Z = rng.multivariate_normal(np.zeros(6), S, size=50)
        means, covs = np.zeros((1, 6)), S[None]
        np.testing.assert_allclose(full_gaussian_log_densities(Z, means, covs),
                                   self._reference(Z, means, covs), rtol=1e-10)

    def test_singular_covariance_gets_ridge(self):
        S = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        ridge = 1e-8 * np.trace(S) / 3
        Z = np.random.default_rng(3).standard_normal((10, 3))
        means = np.zeros((1, 3))
        with pytest.warns(UserWarning, match="singular covariance"):
            got = full_gaussian_log_densities(Z, means, S[None])
        ridged = (S + ridge * np.eye(3))[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(
                got, full_gaussian_log_densities(Z, means, ridged))
        # the ridged covariance has condition number ~1e8 and a quadratic
        # of order 1e8, so scipy's eigendecomposition agrees only to ~1e-7
        np.testing.assert_allclose(got, self._reference(Z, means, ridged),
                                   rtol=1e-6)

    def test_one_singular_component_in_a_batch(self):
        """Only the singular component takes the ridge, with one warning;
        every other column is what that component gives on its own."""
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((40, 3))
        means = rng.standard_normal((4, 3))
        covs = np.stack([self._spd(rng, 3) for _ in range(4)])
        covs[2] = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 3.0]]
        with pytest.warns(UserWarning, match="singular covariance") as rec:
            got = full_gaussian_log_densities(Z, means, covs)
        assert len(rec) == 1
        for k in (0, 1, 3):
            alone = full_gaussian_log_densities(Z, means[k:k + 1],
                                                covs[k:k + 1])
            np.testing.assert_allclose(got[:, k], alone[:, 0], rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_raises(self, bad):
        covs = np.stack([np.eye(3), np.eye(3)])
        covs[1, 0, 2] = bad
        with pytest.raises(NumericalError, match="component 2"):
            full_gaussian_log_densities(np.zeros((2, 3)), np.zeros((2, 3)),
                                        covs)

    def test_indefinite_covariance_raises(self):
        with pytest.warns(UserWarning, match="singular covariance"), \
                pytest.raises(np.linalg.LinAlgError):
            full_gaussian_log_densities(np.zeros((2, 3)), np.zeros((1, 3)),
                                        np.diag([1.0, -1.0, 1.0])[None])


class TestDecomposition:
    def test_log_likelihood_splits_into_three_terms(self):
        """l = sum log prior + l1 - l2 for the observed labels."""
        for seed in range(8):
            ds, model, V = _instance(seed, n=25, p=5, K=3, dim=2)
            lhs = classification_log_likelihood(ds, V, model)
            prior_term = float(np.log(model.priors[ds.labels - 1]).sum())
            rhs = prior_term + ell1(ds, V, model) - ell2(ds, V, model)
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_closed_form_ell1_equals_direct_sum(self):
        """The per-point quadratic forms telescope into n * dim."""
        for seed in range(8):
            ds, model, V = _instance(seed, n=30, p=4, K=2, dim=3)
            np.testing.assert_allclose(
                ell1(ds, V, model), ell1_direct(ds, V, model), atol=1e-8
            )

    def test_single_class_objective_is_zero(self):
        """With one class the posterior is identically 1: l1 = l2, l = 0."""
        rng = np.random.default_rng(6)
        ds = Dataset(X=rng.standard_normal((20, 3)), labels=np.ones(20, int))
        model = estimate_class_model(ds)
        V = rng.standard_normal((3, 2))
        assert classification_log_likelihood(ds, V, model) == pytest.approx(0.0, abs=1e-9)


class TestWorkspace:
    def test_pieces_match_their_definitions(self):
        ds, model, V = _instance(13, n=40, p=5, K=3, dim=2)
        ws = build_workspace(ds.X, V, model, ds.label_index)
        logpost = np.log(model.priors)[:, None] + \
            log_densities(ds.X, V, model.means, model.covariances).T
        post = np.exp(logpost - logsumexp(logpost, axis=0, keepdims=True))
        np.testing.assert_allclose(ws.posteriors, post, rtol=1e-13)
        np.testing.assert_array_equal(ws.log_joint, logpost)
        np.testing.assert_allclose(ws.log_mix, logsumexp(logpost, axis=0),
                                   rtol=1e-13)
        np.testing.assert_allclose(
            ws.log_likelihood,
            np.log(post[ds.labels - 1, np.arange(ds.n)]).sum(), rtol=1e-12)
        np.testing.assert_array_equal(
            ws.diffs, (V.T @ ds.X.T)[None] - (model.means @ V)[:, :, None])
        np.testing.assert_array_equal(
            ws.proj_vars, projected_variances(V, model.covariances))
        np.testing.assert_array_equal(ws.cov_proj, model.covariances @ V)

    def test_observation_axis_is_last_and_contiguous(self):
        ds, model, V = _instance(16, n=50, p=6, K=4, dim=3)
        ws = build_workspace(ds.X, V, model)
        assert ws.diffs.shape == (4, 3, 50)
        assert ws.posteriors.shape == (4, 50)
        assert ws.diffs.flags.c_contiguous
        assert ws.posteriors.flags.c_contiguous

    def test_unlabeled_dataset_has_no_log_likelihood(self):
        ds, model, V = _instance(14)
        ws = build_workspace(ds.X, V, model)
        assert ws.log_likelihood is None
        np.testing.assert_allclose(ws.posteriors.sum(axis=0), 1.0)


class TestPosteriors:
    def test_rows_sum_to_one(self):
        ds, model, V = _instance(7)
        P = posteriors(ds, V, model)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P >= 0)

    def test_bayes_rule_against_direct_computation(self):
        ds, model, V = _instance(8, n=15, p=4, K=3, dim=2)
        L = log_densities(ds.X, V, model.means, model.covariances)
        w = np.log(model.priors) + L
        ref = np.exp(w - w.max(axis=1, keepdims=True))
        ref /= ref.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(posteriors(ds, V, model), ref, atol=1e-12)


class TestScalingInvariance:
    def test_likelihood_invariant_to_positive_column_rescaling(self):
        for seed in range(5):
            ds, model, V = _instance(seed, dim=3)
            rng = np.random.default_rng(100 + seed)
            scales = rng.uniform(0.1, 10.0, size=3)
            base = classification_log_likelihood(ds, V, model)
            scaled = classification_log_likelihood(ds, V * scales, model)
            np.testing.assert_allclose(scaled, base, atol=1e-8)

    def test_posteriors_invariant(self):
        ds, model, V = _instance(9, dim=2)
        P0 = posteriors(ds, V, model)
        P1 = posteriors(ds, V * [3.7, 0.02], model)
        np.testing.assert_allclose(P1, P0, atol=1e-10)


class TestGradients:
    def test_ell1_gradient(self):
        for seed in range(5):
            ds, model, V = _instance(seed, n=20, p=4, K=3, dim=2)
            G = grad_ell1(ds, V, model)
            G_fd = _fd_gradient(lambda W: ell1(ds, W, model), V)
            np.testing.assert_allclose(G, G_fd, rtol=1e-5, atol=1e-7)

    def test_ell1_gradient_matches_per_class_sum(self):
        """The batched form against the per-class sum it replaces, with
        the projected variances read from a workspace."""
        ds, model, V = _instance(15, n=30, p=6, K=4, dim=3)
        pv = projected_variances(V, model.covariances)
        ref = -sum((model.covariances[k] @ V) * (model.counts[k] / pv[k])
                   for k in range(model.K))
        np.testing.assert_allclose(
            grad_ell1(ds, V, model, build_workspace(ds.X, V, model)), ref,
            rtol=1e-13)

    def test_ell2_gradient(self):
        for seed in range(5):
            ds, model, V = _instance(seed, n=20, p=4, K=3, dim=2)
            G = grad_ell2(ds, V, model)
            G_fd = _fd_gradient(lambda W: ell2(ds, W, model), V)
            np.testing.assert_allclose(G, G_fd, rtol=1e-5, atol=1e-7)

    def test_full_gradient(self):
        for seed in range(10):
            ds, model, V = _instance(seed, n=25, p=5, K=3, dim=3)
            G = grad_objective(ds, V, model)
            G_fd = _fd_gradient(
                lambda W: classification_log_likelihood(ds, W, model), V
            )
            denom = max(1.0, float(np.linalg.norm(G_fd)))
            assert np.linalg.norm(G - G_fd) / denom < 1e-5

    def test_single_class_gradient_vanishes(self):
        """K = 1 keeps the posterior pinned at 1 whatever V is."""
        rng = np.random.default_rng(10)
        ds = Dataset(X=rng.standard_normal((15, 4)), labels=np.ones(15, int))
        model = estimate_class_model(ds)
        V = rng.standard_normal((4, 2))
        np.testing.assert_allclose(grad_objective(ds, V, model), 0.0, atol=1e-10)


# Reference for the scatter-free kernel: the dense formulation it
# replaced, which forms every p x p weighted scatter S_k explicitly.

def _weighted_scatter(X, means, W):
    """S_k = sum_i W_ki (x_i - mu_k)(x_i - mu_k)' for every class."""
    K, p = means.shape
    S = np.empty((K, p, p))
    for k in range(K):
        D = X - means[k]
        S[k] = D.T @ (D * W[k, :, None])
    return S


def _scatter_grad(X, V, means, covariances, W):
    """Gradient of sum_ik W_ki log phi_k(V'x_i) from the dense scatters:
    column j sums (1/s_kj) [(v_j'S_k v_j / s_kj - m_k) Sigma_k - S_k] v_j."""
    proj_vars = projected_variances(V, covariances)
    S = _weighted_scatter(X, means, W)
    col_mass = W.sum(axis=1)
    G = np.zeros_like(V)
    for k in range(covariances.shape[0]):
        s = proj_vars[k]
        coef = (np.diag(V.T @ S[k] @ V) / s - col_mass[k]) / s
        G += (covariances[k] @ V) * coef[None, :] - (S[k] @ V) / s[None, :]
    return G


def _mixture_case(seed, n, p, K, dim):
    """Random points, means, PD covariances, projection, and the ``K x n``
    posteriors and hard (argmax) assignments under equal weights."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) * 2.0
    means = rng.normal(scale=2.0, size=(K, p))
    A = rng.standard_normal((K, p, p))
    covs = A @ A.transpose(0, 2, 1) / p + np.eye(p)
    V = rng.standard_normal((p, dim))
    joint = log_densities(X, V, means, covs).T
    post = np.exp(joint - logsumexp(joint, axis=0, keepdims=True))
    hard = np.zeros_like(post)
    hard[np.argmax(joint, axis=0), np.arange(n)] = 1.0
    return X, V, means, covs, post, hard


class TestGradientKernel:
    @pytest.mark.parametrize("n, p, K, dim", [
        (40, 5, 3, 2),
        (40, 5, 3, 1),     # p' = 1
        (40, 5, 3, 5),     # p' = p
        (40, 5, 1, 2),     # one class
        (6, 10, 3, 3),     # fewer points than dimensions
    ])
    @pytest.mark.parametrize("weights", ["posterior", "hard_minus_posterior"])
    def test_matches_dense_scatter_reference(self, n, p, K, dim, weights):
        X, V, means, covs, post, hard = _mixture_case(n + p + K + dim,
                                                      n, p, K, dim)
        W = post if weights == "posterior" else hard - post
        diffs = (V.T @ X.T)[None] - (means @ V)[:, :, None]
        got = grad_weighted_log_densities(
            X, means, covs @ V, projected_variances(V, covs), diffs, W)
        np.testing.assert_allclose(got, _scatter_grad(X, V, means, covs, W),
                                   rtol=1e-10)

    def test_grad_ell2_is_posterior_weighted_kernel(self):
        ds, model, V = _instance(11, n=40, p=6, K=3, dim=3)
        ref = _scatter_grad(ds.X, V, model.means, model.covariances,
                            posteriors(ds, V, model).T)
        np.testing.assert_allclose(grad_ell2(ds, V, model), ref, rtol=1e-10)

    def test_cluster_gradient_is_one_kernel_call(self):
        """Hard minus posterior weights in one call equal the numerator
        and denominator gradients taken apart."""
        X, V, means, covs, post, hard = _mixture_case(12, 40, 5, 3, 2)
        gmm = GmmModel(weights=np.full(3, 1.0 / 3.0), means=means,
                       covariances=covs)
        lam = 7.0
        ref = _scatter_grad(X, V, means, covs, hard) \
            - _scatter_grad(X, V, means, covs, post) \
            - 4.0 * lam * V @ (V.T @ V - np.eye(2))
        np.testing.assert_allclose(grad_cluster_objective(X, V, gmm, lam),
                                   ref, rtol=1e-10)
