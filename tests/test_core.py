"""Tests for data containers, class-model estimation and scatter matrices."""

import numpy as np
import pytest

from opgd.core import (
    CollinearityError,
    ConfigError,
    DataError,
    Dataset,
    DegenerateClassError,
    check_projection,
    compute_scatter,
    estimate_class_model,
    scatter_from_responsibilities,
    sphere,
    symmetrize,
)


def _random_labeled(rng, n=40, p=4, K=3):
    X = rng.standard_normal((n, p))
    y = rng.integers(1, K + 1, size=n)
    # force every class to occur
    y[:K] = np.arange(1, K + 1)
    return Dataset(X=X, labels=y)


class TestDataset:
    def test_shapes_and_properties(self):
        rng = np.random.default_rng(0)
        ds = _random_labeled(rng, n=30, p=5, K=4)
        assert ds.n == 30 and ds.p == 5 and ds.K == 4

    def test_unlabeled_has_no_class_count(self):
        ds = Dataset(X=np.eye(3))
        assert ds.labels is None and ds.K is None

    def test_rejects_nonfinite(self):
        X = np.ones((4, 2))
        X[2, 1] = np.nan
        with pytest.raises(DataError):
            Dataset(X=X)

    def test_rejects_zero_based_labels(self):
        with pytest.raises(DataError):
            Dataset(X=np.eye(3), labels=[0, 1, 2])

    def test_rejects_gappy_labels(self):
        with pytest.raises(DataError, match="never occur"):
            Dataset(X=np.eye(3), labels=[1, 3, 3])

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset(X=np.eye(3), labels=[1, 2])

    def test_arrays_are_readonly(self):
        ds = _random_labeled(np.random.default_rng(1))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 7.0
        with pytest.raises(ValueError):
            ds.labels[0] = 2


class TestEstimateClassModel:
    def test_matches_manual_mle(self):
        """Priors n_k/n, class means, covariances with divisor n_k."""
        rng = np.random.default_rng(2)
        ds = _random_labeled(rng, n=60, p=3, K=3)
        model = estimate_class_model(ds)
        for k in range(1, 4):
            Xk = ds.X[ds.labels == k]
            np.testing.assert_allclose(model.priors[k - 1], len(Xk) / ds.n)
            np.testing.assert_allclose(model.means[k - 1], Xk.mean(axis=0))
            D = Xk - Xk.mean(axis=0)
            np.testing.assert_allclose(
                model.covariances[k - 1], D.T @ D / len(Xk), atol=1e-12
            )
        assert model.priors.sum() == pytest.approx(1.0)
        assert model.counts.sum() == ds.n

    def test_requires_labels(self):
        with pytest.raises(DataError):
            estimate_class_model(Dataset(X=np.eye(4)))

    def test_singleton_class_rejected(self):
        X = np.arange(10.0).reshape(5, 2)
        with pytest.raises(DegenerateClassError, match="class 2"):
            estimate_class_model(Dataset(X=X, labels=[1, 1, 2, 1, 1]))

    def test_covariances_symmetric(self):
        rng = np.random.default_rng(3)
        model = estimate_class_model(_random_labeled(rng, n=50, p=6, K=2))
        for C in model.covariances:
            np.testing.assert_array_equal(C, C.T)


class TestScatter:
    def test_within_plus_between_is_total_covariance(self):
        """The 1/n convention makes W + B equal the covariance of X."""
        rng = np.random.default_rng(4)
        ds = _random_labeled(rng, n=80, p=4, K=3)
        sc = compute_scatter(ds, estimate_class_model(ds))
        D = ds.X - ds.X.mean(axis=0)
        np.testing.assert_allclose(sc.total, D.T @ D / ds.n, atol=1e-12)
        np.testing.assert_allclose(sc.within + sc.between, sc.total, atol=1e-13)

    def test_grand_mean(self):
        rng = np.random.default_rng(5)
        ds = _random_labeled(rng)
        sc = compute_scatter(ds, estimate_class_model(ds))
        np.testing.assert_allclose(sc.grand_mean, ds.X.mean(axis=0), atol=1e-13)

    def test_one_hot_responsibilities_match_hard_labels(self):
        rng = np.random.default_rng(6)
        ds = _random_labeled(rng, n=50, p=3, K=3)
        hard = compute_scatter(ds, estimate_class_model(ds))
        R = np.zeros((ds.n, 3))
        R[np.arange(ds.n), ds.labels - 1] = 1.0
        soft = scatter_from_responsibilities(ds.X, R)
        np.testing.assert_allclose(soft.within, hard.within, atol=1e-12)
        np.testing.assert_allclose(soft.between, hard.between, atol=1e-12)

    def test_empty_component_contributes_nothing(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 3))
        R = np.zeros((20, 3))
        R[:10, 0] = 1.0
        R[10:, 1] = 1.0
        # third column is all zero
        sc = scatter_from_responsibilities(X, R)
        sc2 = scatter_from_responsibilities(X, R[:, :2])
        np.testing.assert_allclose(sc.within, sc2.within, atol=1e-14)


class TestProjectionChecks:
    def test_vector_promoted_to_column(self):
        V = check_projection(np.ones(4), 4)
        assert V.shape == (4, 1)

    def test_wrong_row_count(self):
        with pytest.raises(ConfigError):
            check_projection(np.ones((3, 1)), 4)

    def test_too_many_columns(self):
        with pytest.raises(ConfigError):
            check_projection(np.ones((3, 4)), 3)

    def test_zero_column(self):
        V = np.eye(3)
        V[:, 1] = 0.0
        with pytest.raises(ConfigError, match="zero column"):
            check_projection(V, 3)

    def test_symmetrize(self):
        A = np.array([[1.0, 2.0], [0.0, 3.0]])
        np.testing.assert_array_equal(symmetrize(A), [[1.0, 1.0], [1.0, 3.0]])


class TestSphere:
    def test_identity_total_covariance(self):
        rng = np.random.default_rng(9)
        ds = Dataset(X=rng.standard_normal((200, 4)) @ rng.standard_normal((4, 4)))
        sph, T = sphere(ds)
        D = sph.X - sph.X.mean(axis=0)
        np.testing.assert_allclose(D.T @ D / sph.n, np.eye(4), atol=1e-10)
        assert T.shape == (4, 4)

    def test_backmap_recovers_input_direction(self):
        """A direction u in sphered space corresponds to T @ u in inputs."""
        rng = np.random.default_rng(10)
        X = rng.standard_normal((100, 3)) * [1.0, 5.0, 0.2]
        ds = Dataset(X=X)
        sph, T = sphere(ds)
        u = rng.standard_normal(3)
        np.testing.assert_allclose(sph.X @ u, (X - X.mean(axis=0)) @ (T @ u),
                                   atol=1e-10)

    def test_labels_carried_over(self):
        rng = np.random.default_rng(11)
        ds = _random_labeled(rng)
        sph, _ = sphere(ds)
        np.testing.assert_array_equal(sph.labels, ds.labels)

    def test_singular_covariance_raises(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((50, 2))
        X = np.column_stack([base, base[:, 0] + base[:, 1]])  # exact collinearity
        with pytest.raises(CollinearityError):
            sphere(Dataset(X=X))
