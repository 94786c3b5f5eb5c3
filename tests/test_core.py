"""Tests for data containers, class-model estimation and scatter matrices."""

import numpy as np
import pytest

from opgd import classifier, evaluation, objective, optimizer
from opgd.core import (
    CollinearityError,
    ConfigError,
    DataError,
    Dataset,
    DegenerateClassError,
    GaussianClassModel,
    GmmModel,
    check_projection,
    compute_scatter,
    estimate_class_model,
    frozen,
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

    @pytest.mark.parametrize("row", [0, 818, 819, 4999])
    def test_rejects_nonfinite_in_any_row_block(self, row):
        """The entries are checked a block of rows at a time (819 rows
        of 40 columns here); a bad entry in the first or last row, or on
        either side of a block boundary, is found."""
        X = np.ones((5000, 40))
        X[row, 39] = -np.inf
        with pytest.raises(DataError, match="non-finite entries"):
            Dataset(X=X)

    def test_rejects_zero_based_labels(self):
        with pytest.raises(DataError):
            Dataset(X=np.eye(3), labels=[0, 1, 2])

    def test_rejects_gappy_labels(self):
        with pytest.raises(DataError, match="never occur"):
            Dataset(X=np.eye(3), labels=[1, 3, 3])
        with pytest.raises(DataError, match="never occur") as err:
            Dataset(np.zeros((2, 1)), [1, 10**6])
        assert len(str(err.value)) < 200

    def test_names_its_classes(self):
        """Names default to ``"1".."K"``, are kept as strings and set K;
        an unlabeled dataset has none, and names without labels are a
        data error."""
        X = np.eye(3)
        assert Dataset(X, [2, 1, 2]).label_names == ("1", "2")
        assert Dataset(X, [2, 1, 2], [10, "b"]).label_names == ("10", "b")
        assert Dataset(X, [2, 1, 2], ["a", "b"]).K == 2
        assert Dataset(X).label_names is None
        with pytest.raises(DataError, match="without labels"):
            Dataset(X, label_names=["a"])

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset(X=np.eye(3), labels=[1, 2])

    def test_arrays_are_readonly(self):
        ds = _random_labeled(np.random.default_rng(1))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 7.0
        with pytest.raises(ValueError):
            ds.labels[0] = 2

    def test_copies_a_writable_array(self):
        """A writable caller array is copied: writing to it later does
        not reach the dataset."""
        X = np.arange(12.0).reshape(4, 3)
        y = np.array([1, 2, 1, 2])
        ds = Dataset(X=X, labels=y)
        assert not np.shares_memory(ds.X, X)
        assert not np.shares_memory(ds.labels, y)
        X[0, 0], y[0] = 99.0, 2
        assert ds.X[0, 0] == 0.0 and ds.labels[0] == 1

    def test_adopts_a_read_only_array(self):
        """A read-only, C-contiguous array of the stored dtype that views
        nothing writable is kept without a copy."""
        X = frozen(np.arange(12.0).reshape(4, 3).copy())
        y = frozen(np.array([1, 2, 1, 2]))
        ds = Dataset(X=X, labels=y)
        assert ds.X is X and ds.labels is y
        assert Dataset(X=X[1:]).X.base is X

    @pytest.mark.parametrize("case", ["view-of-writable", "fortran",
                                      "float32"])
    def test_copies_a_read_only_array_it_cannot_keep(self, case):
        """A read-only view of a writable array, or a read-only array
        that is not C-contiguous or not float64, is copied."""
        base = np.arange(12.0).reshape(4, 3)
        X = {"view-of-writable": base[1:],
             "fortran": np.asfortranarray(base),
             "float32": base.astype(np.float32)}[case]
        X.setflags(write=False)
        ds = Dataset(X=X)
        assert not np.shares_memory(ds.X, X)
        assert ds.X.dtype == np.float64 and not ds.X.flags.writeable


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

    def test_is_the_class_mixture_weighted_by_its_priors(self):
        """The class model is a mixture whose weights are the priors,
        with the mixture's cached log weights and floors."""
        ds = _random_labeled(np.random.default_rng(3), n=30, p=3, K=3)
        model = estimate_class_model(ds)
        assert isinstance(model, GmmModel)
        assert type(model) is GaussianClassModel
        assert model.priors is model.weights
        np.testing.assert_array_equal(model.log_weights, np.log(model.priors))
        assert model.log_weights is model.log_weights
        assert (model.K, model.p) == (3, 3)
        assert not model.weights.flags.writeable
        assert not model.counts.flags.writeable

    def test_singleton_class_rejected(self):
        X = np.arange(10.0).reshape(5, 2)
        with pytest.raises(DegenerateClassError, match="class 2"):
            estimate_class_model(Dataset(X=X, labels=[1, 1, 2, 1, 1]))

    def test_singleton_class_is_named_by_its_label(self):
        X = np.arange(10.0).reshape(5, 2)
        ds = Dataset(X=X, labels=[1, 1, 2, 1, 1],
                     label_names=("setosa", "zz"))
        with pytest.raises(DegenerateClassError, match="^class zz has 1 "):
            estimate_class_model(ds)

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

    def test_label_names_carried_over(self):
        ds = _random_labeled(np.random.default_rng(11))
        named = Dataset(ds.X, ds.labels, ("a", "b", "c"))
        assert sphere(named)[0].label_names == ("a", "b", "c")

    def test_singular_covariance_raises(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((50, 2))
        X = np.column_stack([base, base[:, 0] + base[:, 1]])  # exact collinearity
        with pytest.raises(CollinearityError):
            sphere(Dataset(X=X))


_LABELLED = _random_labeled(np.random.default_rng(40))
_UNLABELLED = Dataset(_LABELLED.X)
_V = np.eye(4)[:, :2]
_NEEDS_LABELS = "a labeled dataset is required"
_WRONG_COLUMNS = "expected points with 4 coordinates"


@pytest.mark.parametrize("call, message", [
    (lambda m: estimate_class_model(_UNLABELLED), _NEEDS_LABELS),
    (lambda m: compute_scatter(_UNLABELLED, m), _NEEDS_LABELS),
    (lambda m: objective.classification_log_likelihood(_UNLABELLED, _V, m),
     _NEEDS_LABELS),
    (lambda m: objective.ell1(_UNLABELLED, _V, m), _NEEDS_LABELS),
    (lambda m: objective.grad_objective(_UNLABELLED, _V, m), _NEEDS_LABELS),
    (lambda m: optimizer.maximize(_UNLABELLED, m, _V), _NEEDS_LABELS),
    (lambda m: optimizer.order_columns(_UNLABELLED, _V, m), _NEEDS_LABELS),
    (lambda m: classifier.rda_fit(_UNLABELLED, 0.5), _NEEDS_LABELS),
    (lambda m: evaluation.grid_search(
        "lda", [1], _UNLABELLED, evaluation.make_split(_UNLABELLED.n)),
     _NEEDS_LABELS),
    (lambda m: classifier.predict(classifier.fit_opgd(
        _LABELLED, 1, optimizer.OptimConfig(max_iters=2)), np.ones((2, 3))),
     _WRONG_COLUMNS),
    (lambda m: classifier.lda_predict(classifier.lda_fit(_LABELLED, 1),
                                      np.ones(5)), _WRONG_COLUMNS),
    (lambda m: classifier.rda_predict(classifier.rda_fit(_LABELLED, 0.5),
                                      np.ones((1, 2, 4))), _WRONG_COLUMNS),
], ids=["estimate_class_model", "compute_scatter",
        "classification_log_likelihood", "ell1", "grad_objective",
        "maximize", "order_columns", "rda_fit", "grid_search", "predict",
        "lda_predict", "rda_predict"])
def test_library_checks_raise_a_data_error(call, message):
    """Unlabeled data where labels are needed, and points with the wrong
    number of coordinates, are data errors with one message each."""
    with pytest.raises(DataError, match=message):
        call(estimate_class_model(_LABELLED))
