"""Tests for the projection classifier and the three reference methods."""

import warnings

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from opgd.classifier import (
    OpgdModel,
    fit_opgd,
    lda_features,
    lda_fit,
    lda_predict,
    predict,
    rda_fit,
    rda_predict,
    save_features,
    save_fit,
    save_predict,
)
from opgd.core import (
    ConfigError,
    Dataset,
    compute_scatter,
    estimate_class_model,
)
from opgd.evaluation import default_grid
from opgd.optimizer import OptimConfig


def _blobs(seed=0, n_per=60, centers=((0.0, 0.0, 0.0), (3.0, 0.0, 0.0), (0.0, 3.0, 0.0))):
    rng = np.random.default_rng(seed)
    parts = [rng.standard_normal((n_per, len(c))) + c for c in centers]
    X = np.vstack(parts)
    y = np.repeat(np.arange(1, len(centers) + 1), n_per)
    return Dataset(X=X, labels=y)


def _cosine(u, v):
    u, v = np.ravel(u), np.ravel(v)
    return abs(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))


class TestFitOpgd:
    def test_model_fields_consistent_with_training_moments(self):
        ds = _blobs(0)
        m = fit_opgd(ds, 2, OptimConfig(max_iters=50))
        assert m.p == 3 and m.dim == 2 and m.K == 3
        ref = estimate_class_model(ds)
        np.testing.assert_allclose(m.projected_means, ref.means @ m.projection,
                                   atol=1e-10)
        for k in range(3):
            np.testing.assert_allclose(
                m.projected_vars[k],
                np.diag(m.projection.T @ ref.covariances[k] @ m.projection),
                atol=1e-10,
            )
        np.testing.assert_allclose(np.linalg.norm(m.projection, axis=0), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(m.priors.sum(), 1.0)

    def test_training_error_low_on_separated_blobs(self):
        ds = _blobs(1)
        m = fit_opgd(ds, 2)
        yhat, _ = predict(m, ds.X)
        assert np.mean(yhat != ds.labels) <= 0.08

    def test_diagnostics_recorded(self):
        ds = _blobs(2)
        m = fit_opgd(ds, 1, OptimConfig(max_iters=40))
        d = m.diagnostics
        assert d.iterations >= 0
        assert d.trace[-1] == pytest.approx(d.final_objective)
        assert d.clamp_count >= 0

    def test_explicit_start_point_used(self):
        ds = _blobs(3)
        V0 = np.eye(3)[:, :2]
        m = fit_opgd(ds, 2, OptimConfig(max_iters=0), V0=V0)
        # zero iterations, so only normalization and ordering applied
        assert sorted(map(tuple, np.abs(m.projection).T.tolist())) == \
            sorted(map(tuple, V0.T.tolist()))

    def test_dim_out_of_range(self):
        ds = _blobs(4)
        with pytest.raises(ConfigError):
            fit_opgd(ds, 4)
        with pytest.raises(ConfigError):
            fit_opgd(ds, 0)

    def test_v0_shape_mismatch(self):
        ds = _blobs(5)
        with pytest.raises(ConfigError):
            fit_opgd(ds, 2, V0=np.eye(3))

    def test_label_names_attached(self):
        ds = _blobs(6)
        m = fit_opgd(Dataset(ds.X, ds.labels, label_names=("a", "b", "c")),
                     1, OptimConfig(max_iters=5))
        assert m.label_names == ("a", "b", "c")
        with pytest.raises(ConfigError):
            fit_opgd(Dataset(ds.X, ds.labels, label_names=("a",)), 1)


@pytest.mark.parametrize("fit", [
    lambda ds, names: lda_fit(Dataset(ds.X, ds.labels, names), 1),
    lambda ds, names: save_fit(Dataset(ds.X, ds.labels, names), 1),
    lambda ds, names: rda_fit(Dataset(ds.X, ds.labels, names), 0.5),
], ids=["lda", "save", "rda"])
def test_baseline_label_names_match_class_count(fit):
    ds = _blobs(6)
    assert fit(ds, None).label_names == ("1", "2", "3")
    assert fit(ds, ["a", "b", "c"]).label_names == ("a", "b", "c")
    for names in (("a",), ("a", "b", "c", "d")):
        with pytest.raises(ConfigError, match=f"{len(names)} label names "
                                              "for 3 classes"):
            fit(ds, names)


class TestPredict:
    def test_posterior_rows_sum_to_one(self):
        ds = _blobs(7)
        m = fit_opgd(ds, 2, OptimConfig(max_iters=30))
        yhat, post = predict(m, ds.X)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(yhat, np.argmax(post, axis=1) + 1)

    def test_tie_goes_to_lowest_class(self):
        """Symmetric two-class model: the midpoint posterior is (.5, .5)."""
        m = OpgdModel(
            projection=np.array([[1.0], [0.0]]),
            projected_means=np.array([[-1.0], [1.0]]),
            projected_vars=np.ones((2, 1)),
            priors=np.array([0.5, 0.5]),
            label_names=("1", "2"),
        )
        yhat, post = predict(m, np.array([[0.0, 5.0]]))
        np.testing.assert_allclose(post[0], [0.5, 0.5], atol=1e-12)
        assert yhat[0] == 1

    def test_single_point_accepted(self):
        ds = _blobs(8)
        m = fit_opgd(ds, 1, OptimConfig(max_iters=10))
        yhat, post = predict(m, ds.X[0])
        assert yhat.shape == (1,) and post.shape == (1, 3)


class TestNaiveBayesEquivalence:
    def test_identity_projection_matches_diagonal_qda_oracle(self):
        """p' = p, V = I, no iterations: the classifier reduces to
        Gaussian naive Bayes with MLE variances."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n, p, K = 50, 4, 3
            X = rng.standard_normal((n, p)) * rng.uniform(0.5, 2, size=p)
            y = rng.integers(1, K + 1, size=n)
            y[: 2 * K] = np.repeat(np.arange(1, K + 1), 2)
            ds = Dataset(X=X, labels=y)
            m = fit_opgd(ds, p, OptimConfig(max_iters=0), V0=np.eye(p))
            yhat, _ = predict(m, X)

            ref = estimate_class_model(ds)
            scores = np.empty((n, K))
            for k in range(K):
                var = np.diag(ref.covariances[k])
                scores[:, k] = np.log(ref.priors[k]) - 0.5 * (
                    np.log(2 * np.pi * var) + (X - ref.means[k]) ** 2 / var
                ).sum(axis=1)
            np.testing.assert_array_equal(yhat, np.argmax(scores, axis=1) + 1)


class TestLda:
    def test_two_class_direction_is_classical(self):
        """For K = 2 the single discriminant direction is W^-1 (mu1-mu2)."""
        rng = np.random.default_rng(10)
        A = rng.standard_normal((3, 3))
        X = np.vstack([
            rng.standard_normal((80, 3)) @ A + [2.0, 0.0, 1.0],
            rng.standard_normal((80, 3)) @ A,
        ])
        ds = Dataset(X=X, labels=np.repeat([1, 2], 80))
        model = estimate_class_model(ds)
        sc = compute_scatter(ds, model)
        V = lda_features(sc, 1, n_classes=2)
        w = np.linalg.solve(sc.within, model.means[0] - model.means[1])
        assert _cosine(V, w) > 1 - 1e-8

    def test_rank_limit_enforced(self):
        ds = _blobs(11)
        sc = compute_scatter(ds, estimate_class_model(ds))
        with pytest.raises(ConfigError):
            lda_features(sc, 3, n_classes=3)
        with pytest.raises(ConfigError):
            lda_features(sc, 0)

    def test_noninformative_warning(self):
        """Identical class means leave no between-class scatter."""
        rng = np.random.default_rng(12)
        X = rng.standard_normal((100, 3))
        y = np.repeat([1, 2], 50)
        X[y == 2] = X[y == 1]  # classes indistinguishable in distribution
        ds = Dataset(X=X, labels=y)
        sc = compute_scatter(ds, estimate_class_model(ds))
        with pytest.warns(UserWarning, match="non-informative"):
            lda_features(sc, 1, n_classes=2)

    def test_class_without_spread_along_the_direction(self):
        """Class 2 is one repeated row and class 1 spreads at a scale of
        1e8, so the pooled variance along the direction that separates
        them is tiny next to the scatter: it is taken from the projected
        rows, never as ``v' W v``, whose rounding error is negative
        here."""
        X = np.array([[-1e8, 0.0, 0.0], [0.0, 0.0, 0.0],
                      [0.0, 0.0, 1.5e8], [0.0, 0.0, 0.0]])
        ds = Dataset(X, [1, 2, 1, 2])
        model = lda_fit(ds, 1)
        assert model.covariance[0, 0] >= 0.0
        labels, post = lda_predict(model, X)
        assert np.all(np.isfinite(post))

    def test_predictions_match_pooled_gaussian_oracle(self):
        """Full-rank LDA agrees with a pooled-covariance Gaussian rule."""
        ds = _blobs(13)
        m = lda_fit(ds, 2)
        yhat, post = lda_predict(m, ds.X)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)

        ref = estimate_class_model(ds)
        sc = compute_scatter(ds, ref)
        scores = np.empty((ds.n, 3))
        for k in range(3):
            scores[:, k] = np.log(ref.priors[k]) + multivariate_normal.logpdf(
                ds.X, mean=ref.means[k], cov=sc.within
            )
        np.testing.assert_array_equal(yhat, np.argmax(scores, axis=1) + 1)


class TestSave:
    def test_variance_contrast_direction_found(self):
        """Classes share their mean but differ in spread along e1; the
        first SAVE direction must align with e1."""
        rng = np.random.default_rng(14)
        X = np.vstack([
            rng.standard_normal((300, 3)) * [3.0, 1.0, 1.0],
            rng.standard_normal((300, 3)) * [0.3, 1.0, 1.0],
        ])
        ds = Dataset(X=X, labels=np.repeat([1, 2], 300))
        V = save_features(ds, 1)
        assert _cosine(V, np.eye(3)[0]) > 0.999

    def test_rank_bounds(self):
        ds = _blobs(15)
        with pytest.raises(ConfigError):
            save_features(ds, 0)
        with pytest.raises(ConfigError):
            save_features(ds, 4)

    def test_quadratic_readout_matches_oracle(self):
        """Predictions use full per-class Gaussians in the subspace."""
        ds = _blobs(16)
        m = save_fit(ds, 2)
        yhat, _ = save_predict(m, ds.X)

        Z = ds.X @ m.projection
        ref = estimate_class_model(Dataset(Z, ds.labels))
        scores = np.empty((ds.n, 3))
        for k in range(3):
            scores[:, k] = np.log(ref.priors[k]) + multivariate_normal.logpdf(
                Z, mean=ref.means[k], cov=ref.covariances[k]
            )
        np.testing.assert_array_equal(yhat, np.argmax(scores, axis=1) + 1)


class TestRda:
    def test_alpha_zero_equals_pooled_rule(self):
        ds = _blobs(17)
        m = rda_fit(ds, 0.0)
        yhat, _ = rda_predict(m, ds.X)
        l, _ = lda_predict(lda_fit(ds, 2), ds.X)  # full-rank r = K - 1
        np.testing.assert_array_equal(yhat, l)

    def test_alpha_one_equals_qda_oracle(self):
        ds = _blobs(18)
        m = rda_fit(ds, 1.0)
        yhat, _ = rda_predict(m, ds.X)

        ref = estimate_class_model(ds)
        scores = np.empty((ds.n, 3))
        for k in range(3):
            scores[:, k] = np.log(ref.priors[k]) + multivariate_normal.logpdf(
                ds.X, mean=ref.means[k], cov=ref.covariances[k]
            )
        np.testing.assert_array_equal(yhat, np.argmax(scores, axis=1) + 1)

    def test_alpha_out_of_range(self):
        ds = _blobs(19)
        for a in (-0.1, 1.1):
            with pytest.raises(ConfigError):
                rda_fit(ds, a)

    def test_singular_class_covariance_handled(self):
        """alpha = 1 with n_k < p: the ridge fallback still predicts."""
        rng = np.random.default_rng(20)
        X = rng.standard_normal((8, 5))
        ds = Dataset(X=X, labels=np.array([1, 1, 1, 1, 2, 2, 2, 2]))
        m = rda_fit(ds, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            yhat, post = rda_predict(m, X)
        assert np.all(np.isfinite(post))
        assert set(yhat) <= {1, 2}

    def test_alpha_grid(self):
        g = default_grid("rda", 10, 3)
        assert g[0] == 0.0 and g[-1] == 1.0 and len(g) == 10
        assert default_grid("rda", 1, 2) == [0.0, 1.0]


def _three_classes(seed=40, n_per=100):
    """Three classes in four columns: apart in location along the first,
    in spread along the third and fourth."""
    rng = np.random.default_rng(seed)
    y = np.repeat([1, 2, 3], n_per)
    X = rng.standard_normal((3 * n_per, 4))
    X[:, 0] += 1.5 * (y - 2)
    X[y == 2, 2] *= 2.5
    X[y == 3, 3] *= 0.4
    return Dataset(X, y)


def _transform(kind, p, seed=41):
    """A diagonal ``A`` whose entries span 10^4, a general ``A`` with
    condition number 10, or a permutation of the columns."""
    rng = np.random.default_rng(seed)
    if kind == "diagonal":
        return np.diag(rng.permutation(np.logspace(-2, 2, p)))
    if kind == "general":
        Q1 = np.linalg.qr(rng.standard_normal((p, p)))[0]
        Q2 = np.linalg.qr(rng.standard_normal((p, p)))[0]
        return Q1 @ np.diag(np.logspace(0, 1, p)) @ Q2
    return np.eye(p)[:, rng.permutation(p)]


_FITS = {"opgd": (lambda ds: fit_opgd(ds, 2), predict),
         "lda": (lambda ds: lda_fit(ds, 2), lda_predict),
         "save": (lambda ds: save_fit(ds, 2), save_predict)}


class TestUnitsAndBasis:
    """For any invertible ``A``, ``L(X A; V) = L(X; A V)``: a fit on the
    columns ``X A`` must reach the same model, up to that change of
    coordinates, as a fit on ``X``."""

    @pytest.mark.parametrize("kind", ["diagonal", "general", "columns"])
    @pytest.mark.parametrize("method", ["opgd", "lda", "save"])
    def test_same_labels_on_transformed_columns(self, method, kind):
        ds = _three_classes()
        A = _transform(kind, ds.p)
        fit, predictor = _FITS[method]
        labels = predictor(fit(ds), ds.X)[0]
        moved = predictor(fit(Dataset(ds.X @ A, ds.labels)), ds.X @ A)[0]
        np.testing.assert_array_equal(moved, labels)

    @pytest.mark.parametrize("kind", ["diagonal", "general", "columns"])
    def test_same_log_likelihood_on_transformed_columns(self, kind):
        ds = _three_classes()
        A = _transform(kind, ds.p)
        plain = fit_opgd(ds, 2).diagnostics
        moved = fit_opgd(Dataset(ds.X @ A, ds.labels), 2).diagnostics
        assert plain.iterations < OptimConfig().max_iters  # converged
        assert moved.final_objective == pytest.approx(plain.final_objective,
                                                      rel=1e-6)

    @pytest.mark.parametrize("method", ["opgd", "lda", "save"])
    def test_same_labels_on_permuted_rows(self, method):
        ds = _three_classes()
        order = np.random.default_rng(42).permutation(ds.n)
        fit, predictor = _FITS[method]
        model = fit(ds)
        permuted = fit(Dataset(ds.X[order], ds.labels[order]))
        np.testing.assert_array_equal(predictor(permuted, ds.X)[0],
                                      predictor(model, ds.X)[0])
        if method == "opgd":
            assert permuted.diagnostics.final_objective == pytest.approx(
                model.diagnostics.final_objective, rel=1e-6)
