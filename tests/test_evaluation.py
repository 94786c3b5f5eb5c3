"""Tests for partition metrics, split/fold plans and the grid search."""

import numpy as np
import pytest

from opgd.classifier import lda_fit
from opgd.core import ConfigError, DataError, Dataset, NumericalError
from opgd.evaluation import (
    FoldPlan,
    GridSearchResult,
    SplitPlan,
    _fit_method,
    _predict_method,
    adjusted_rand_index,
    default_grid,
    grid_search,
    make_folds,
    make_split,
    misclassification_error,
    normalized_mutual_information,
)
from opgd.optimizer import OptimConfig


def _pair_count_ari(a, b):
    """Direct O(n^2) pair-counting oracle."""
    a, b = np.asarray(a), np.asarray(b)
    n = len(a)
    same_a = a[:, None] == a[None, :]
    same_b = b[:, None] == b[None, :]
    iu = np.triu_indices(n, k=1)
    n11 = int(np.sum(same_a[iu] & same_b[iu]))
    n00 = int(np.sum(~same_a[iu] & ~same_b[iu]))
    n10 = int(np.sum(same_a[iu] & ~same_b[iu]))
    n01 = int(np.sum(~same_a[iu] & same_b[iu]))
    total = n11 + n00 + n10 + n01
    expected = (n11 + n10) * (n11 + n01) / total
    max_index = 0.5 * ((n11 + n10) + (n11 + n01))
    if max_index == expected:
        return 1.0
    return (n11 - expected) / (max_index - expected)


def _entropy_nmi(a, b):
    """Plug-in entropy oracle with the sqrt normalization."""
    a, b = np.asarray(a), np.asarray(b)
    n = len(a)

    def H(x):
        _, cnt = np.unique(x, return_counts=True)
        p = cnt / n
        return float(-(p * np.log(p)).sum())

    mi = 0.0
    for ua in np.unique(a):
        for ub in np.unique(b):
            nij = np.sum((a == ua) & (b == ub))
            if nij:
                pij = nij / n
                mi += pij * np.log(pij / ((np.sum(a == ua) / n) *
                                          (np.sum(b == ub) / n)))
    denom = np.sqrt(H(a) * H(b))
    return 0.0 if denom == 0 else float(mi / denom)


class TestMisclassification:
    def test_basic(self):
        assert misclassification_error([1, 2, 3], [1, 2, 2]) == pytest.approx(1 / 3)
        assert misclassification_error([1], [1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            misclassification_error([1, 2], [1])

    def test_empty(self):
        with pytest.raises(DataError):
            misclassification_error([], [])


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        assert adjusted_rand_index([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0

    def test_relabeling_invariance(self):
        a = [1, 1, 2, 2, 3]
        b = [3, 3, 1, 1, 2]
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_known_value(self):
        a = [1, 1, 1, 2, 2, 2]
        b = [1, 1, 2, 2, 3, 3]
        np.testing.assert_allclose(adjusted_rand_index(a, b),
                                   _pair_count_ari(a, b), atol=1e-12)

    def test_degenerate_all_singletons_both(self):
        """Both metrics' denominator vanishes; identical partitions get 1."""
        assert adjusted_rand_index([1, 2, 3], [3, 1, 2]) == 1.0

    def test_random_partitions_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            a = rng.integers(1, 4, size=n)
            b = rng.integers(1, 4, size=n)
            np.testing.assert_allclose(adjusted_rand_index(a, b),
                                       _pair_count_ari(a, b), atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.integers(1, 4, size=25)
        b = rng.integers(1, 3, size=25)
        assert adjusted_rand_index(a, b) == pytest.approx(
            adjusted_rand_index(b, a), abs=1e-15)


class TestNormalizedMutualInformation:
    def test_identical_partitions(self):
        assert normalized_mutual_information([1, 1, 2], [1, 1, 2]) == \
            pytest.approx(1.0)

    def test_independent_partitions(self):
        """A product partition structure has zero mutual information."""
        a = [1, 1, 2, 2]
        b = [1, 2, 1, 2]
        assert normalized_mutual_information(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_single_block_warns_and_returns_zero(self):
        with pytest.warns(UserWarning):
            v = normalized_mutual_information([1, 1, 1], [1, 2, 1])
        assert v == 0.0

    def test_random_partitions_match_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            a = rng.integers(1, 4, size=n)
            b = rng.integers(1, 4, size=n)
            if len(set(a)) < 2 or len(set(b)) < 2:
                continue
            np.testing.assert_allclose(normalized_mutual_information(a, b),
                                       _entropy_nmi(a, b), atol=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.integers(1, 5, size=40)
            b = rng.integers(1, 5, size=40)
            assert normalized_mutual_information(a, b) <= 1.0 + 1e-12


class TestMakeSplit:
    def test_partition_covers_everything(self):
        plan = make_split(101, (0.5, 0.25, 0.25), seed=4)
        allidx = np.concatenate([plan.train, plan.val, plan.test])
        np.testing.assert_array_equal(np.sort(allidx), np.arange(101))
        assert len(plan.train) == 50 or len(plan.train) == 51

    def test_sizes_round_to_targets(self):
        plan = make_split(100, (0.5, 0.25, 0.25), seed=5)
        assert len(plan.train) == 50
        assert len(plan.val) == 25
        assert len(plan.test) == 25

    def test_seed_determinism(self):
        p1 = make_split(60, seed=6)
        p2 = make_split(60, seed=6)
        np.testing.assert_array_equal(p1.train, p2.train)
        p3 = make_split(60, seed=7)
        assert not np.array_equal(p1.train, p3.train)

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            make_split(50, (0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            make_split(50, (0.7, 0.3, 0.0))

    def test_too_small(self):
        with pytest.raises(ConfigError):
            make_split(2, (0.5, 0.25, 0.25))


class TestMakeFolds:
    def test_balanced_assignment(self):
        plan = make_folds(20, 4, seed=8)
        _, counts = np.unique(plan.assignment, return_counts=True)
        np.testing.assert_array_equal(counts, [5, 5, 5, 5])

    def test_fold_indices_disjoint_covering(self):
        plan = make_folds(17, 3, seed=9)
        for fold in range(3):
            rest, held = plan.fold_indices(fold)
            merged = np.sort(np.concatenate([rest, held]))
            np.testing.assert_array_equal(merged, np.arange(17))

    def test_groups_stay_whole(self):
        """All rows of one group land in one fold."""
        groups = np.repeat(np.arange(8), 6)  # 8 groups of 6 rows
        plan = make_folds(48, 8, grouping=groups, seed=10)
        for g in range(8):
            folds = np.unique(plan.assignment[groups == g])
            assert folds.shape == (1,)

    @pytest.mark.parametrize("seed", range(6))
    def test_grouped_assignment_is_the_loop_over_groups(self, seed):
        """Dealing the shuffled groups to folds by one lookup gives the
        assignment of masking the rows of each group in turn."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 400))
        names = np.array([f"g{v}" for v in rng.integers(0, 10 ** 6, 40)])
        grouping = names[rng.integers(0, int(rng.integers(3, 41)), n)]
        groups = np.unique(grouping)
        k = int(rng.integers(2, groups.shape[0] + 1))
        expected = np.empty(n, dtype=int)
        order = np.random.default_rng(seed).permutation(groups.shape[0])
        for slot, gi in enumerate(order):
            expected[grouping == groups[gi]] = slot % k
        plan = make_folds(n, k, grouping=grouping, seed=seed)
        np.testing.assert_array_equal(plan.assignment, expected)

    def test_k_exceeding_groups_rejected(self):
        groups = np.repeat([0, 1, 2], 5)
        with pytest.raises(ConfigError):
            make_folds(15, 4, grouping=groups)

    def test_k_bounds(self):
        with pytest.raises(ConfigError):
            make_folds(10, 1)
        with pytest.raises(ConfigError):
            make_folds(3, 5)


class TestDefaultGrid:
    def test_ranges(self):
        assert default_grid("opgd", 5, 3) == [1, 2, 3, 4, 5]
        assert default_grid("lda", 5, 3) == [1, 2]
        assert default_grid("save", 4, 2) == [1, 2, 3, 4]
        g = default_grid("rda", 10, 3)
        assert g[0] == 0.0 and g[-1] == 1.0 and len(g) == 10

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            default_grid("qda", 3, 2)


def _planted_dataset(seed=0, n_per=50):
    """Two informative dims, two noise dims; ideal projection rank 2."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    X = np.vstack([rng.standard_normal((n_per, 2)) + c for c in centers])
    X = np.hstack([X, rng.standard_normal((3 * n_per, 2)) * 3.0])
    y = np.repeat([1, 2, 3], n_per)
    return Dataset(X=X, labels=y)


class TestGridSearch:
    def test_split_mode_picks_informative_dim(self):
        ds = _planted_dataset(11)
        plan = make_split(ds.n, seed=11)
        res = grid_search("opgd", [1, 2, 3, 4], ds, plan,
                          OptimConfig(max_iters=60))
        assert isinstance(res, GridSearchResult)
        assert res.best_hyper == 2
        assert res.model.dim == 2
        assert len(res.val_errors) == 4 and not res.failures

    def test_fold_mode_runs_and_refits_on_everything(self):
        ds = _planted_dataset(12, n_per=30)
        plan = make_folds(ds.n, 3, seed=12)
        res = grid_search("lda", [1, 2], ds, plan)
        assert res.best_hyper in (1, 2)
        assert res.model.projection.shape[0] == 4

    def test_tie_goes_to_smallest_hyper(self):
        """A duplicated grid value scores identically; the smaller
        (equal) value must win, and generally ties prefer small."""
        ds = _planted_dataset(13, n_per=40)
        plan = make_split(ds.n, seed=13)
        res = grid_search("rda", [0.0, 0.0, 1.0], ds, plan)
        assert res.best_hyper in (0.0, 1.0)
        errs = dict((h, e) for h, e in res.val_errors)
        if errs[0.0] <= errs[1.0]:
            assert res.best_hyper == 0.0

    @pytest.mark.parametrize("method, grid, want", [
        ("rda", [0.0, 0.0, 1.0], [0.0, 1.0]),
        ("lda", [2, 1, 2.0], [1, 2])])
    def test_repeated_grid_value_is_fitted_once(self, method, grid, want):
        ds = _planted_dataset(13, n_per=40)
        res = grid_search(method, grid, ds, make_split(ds.n, seed=13))
        assert [h for h, _ in res.val_errors] == want

    def test_failed_grid_points_recorded(self):
        """r beyond K - 1 fails for reduced-rank discriminant features
        but the search carries on with the valid points."""
        ds = _planted_dataset(14, n_per=30)
        plan = make_split(ds.n, seed=14)
        res = grid_search("lda", [1, 2, 3], ds, plan)
        assert res.best_hyper in (1, 2)
        assert any(h == 3 for h, _ in res.failures)
        assert dict(res.val_errors)[3] is None

    def test_all_failures_raise(self):
        ds = _planted_dataset(15, n_per=30)
        plan = make_split(ds.n, seed=15)
        with pytest.raises(ConfigError, match="every grid point failed"):
            grid_search("lda", [3, 4], ds, plan)

    @pytest.mark.parametrize("missing", [3, 2], ids=["top", "middle"])
    def test_training_part_without_a_class_is_a_data_error(self, missing):
        """Whichever class fold 0's training rows lack, the search stops
        before any fit with one error naming the fold and the class."""
        ds = _planted_dataset(18, n_per=30)
        assignment = np.arange(ds.n) % 3
        assignment[ds.labels == missing] = 0
        plan = FoldPlan(assignment=assignment, k=3, seed=0)
        with pytest.raises(DataError, match=f"fold 0 hold no observation "
                                            f"of class {missing}$"):
            grid_search("rda", [0.5], ds, plan)

    def test_one_class_is_a_data_error(self):
        ds = Dataset(np.random.default_rng(19).standard_normal((20, 2)),
                     np.ones(20, int))
        with pytest.raises(DataError, match="at least two classes"):
            grid_search("rda", [0.5], ds, make_split(ds.n, seed=19))

    @staticmethod
    def _collinear_dataset():
        ds = _planted_dataset(20, n_per=30)
        return Dataset(np.column_stack([ds.X, 2.0 * ds.X[:, 0]]), ds.labels)

    @staticmethod
    def _one_row_of_class_3_in_training():
        """A split whose training rows hold one row of class 3."""
        ds = _planted_dataset(21, n_per=30)
        train, val, test = np.flatnonzero(ds.labels != 3).reshape(-1, 3).T
        three = np.flatnonzero(ds.labels == 3)
        plan = SplitPlan(train=np.r_[train, three[0]],
                         val=np.r_[val, three[1:15]],
                         test=np.r_[test, three[15:]],
                         ratios=(0.4, 0.3, 0.3), seed=0)
        return ds, plan

    @pytest.mark.parametrize("case, kind, message", [
        ("numerical", NumericalError, "numerically singular"),
        ("data", DataError, "class 3 has 1 observation"),
        ("mixed", ConfigError, "0.5: class 3 has 1 observation"),
    ])
    def test_fully_failed_grid_raises_the_kind_its_failures_share(
            self, case, kind, message):
        """A numerical failure is recorded like the others; a grid whose
        every point failed raises the kind of error its failures share,
        or a ``ConfigError`` when they differ."""
        if case == "numerical":
            ds = self._collinear_dataset()
            args = ("save", [1, 2], ds, make_split(ds.n, seed=20))
        else:
            ds, plan = self._one_row_of_class_3_in_training()
            args = ("rda", [0.5] if case == "data" else [0.5, 2.0], ds,
                    plan)
        with pytest.raises(kind, match="every grid point failed") as info:
            grid_search(*args)
        assert type(info.value) is kind and message in str(info.value)

    def test_lda_fits_with_the_ridge_of_the_run(self):
        ds = _planted_dataset(22, n_per=30)
        plan = make_split(ds.n, seed=22)
        res = grid_search("lda", [1], ds, plan, OptimConfig(ridge_frac=0.5))
        refit = Dataset(ds.X[np.r_[plan.train, plan.val]],
                        ds.labels[np.r_[plan.train, plan.val]])
        np.testing.assert_array_equal(res.model.projection,
                                      lda_fit(refit, 1, 0.5).projection)
        assert not np.array_equal(res.model.projection,
                                  lda_fit(refit, 1).projection)

    def test_unknown_method_rejected(self):
        ds = _planted_dataset(16, n_per=30)
        plan = make_split(ds.n, seed=16)
        with pytest.raises(ConfigError):
            grid_search("pcr", [1], ds, plan)

    def test_empty_grid_rejected(self):
        ds = _planted_dataset(17, n_per=30)
        plan = make_split(ds.n, seed=17)
        with pytest.raises(ConfigError):
            grid_search("opgd", [], ds, plan)

    @pytest.mark.parametrize("method, value", [
        ("opgd", 1.5), ("lda", 2.9), ("save", 0.5), ("opgd", float("inf")),
        ("lda", float("nan")), ("save", -0.5)])
    def test_non_integer_dimension_refused(self, method, value):
        """A dimension that is not an integer is refused by name, before
        any fit, instead of being truncated."""
        ds = _planted_dataset(18, n_per=20)
        plan = make_split(ds.n, seed=18)
        with pytest.raises(ConfigError, match=repr(value)):
            grid_search(method, [1, value], ds, plan)

    @pytest.mark.parametrize("method", ["opgd", "lda", "save"])
    def test_integer_valued_float_is_a_dimension(self, method):
        ds = _planted_dataset(19, n_per=30)
        plan = make_split(ds.n, seed=19)
        res = grid_search(method, [2.0], ds, plan, OptimConfig(max_iters=30))
        assert res.best_hyper == 2 and type(res.best_hyper) is int
        assert res.val_errors[0][0] == 2 and type(res.val_errors[0][0]) is int
        assert res.model.projection.shape == (4, 2)

    def test_rda_blends_are_floats(self):
        ds = _planted_dataset(20, n_per=30)
        plan = make_split(ds.n, seed=20)
        res = grid_search("rda", [1, 0.5], ds, plan)
        assert [h for h, _ in res.val_errors] == [0.5, 1.0]
        assert all(type(h) is float for h, _ in res.val_errors)

    @pytest.mark.parametrize("method, grid", [("opgd", [1, 2, 3]),
                                              ("rda", [0.0, 0.5, 1.0])])
    def test_split_error_is_the_validation_error(self, method, grid):
        """Each grid point's split error is the share of validation rows
        a model fitted on the train part gets wrong."""
        ds = _planted_dataset(21, n_per=30)
        plan = make_split(ds.n, seed=21)
        opt = OptimConfig(max_iters=30)
        res = grid_search(method, grid, ds, plan, opt)
        train = Dataset(ds.X[plan.train], ds.labels[plan.train])
        for h, err in res.val_errors:
            pred = _predict_method(method, _fit_method(method, train, h, opt),
                                   ds.X[plan.val])
            assert err == misclassification_error(pred, ds.labels[plan.val])

    def test_fold_error_pools_every_fold(self):
        """A fold plan's error is the wrong predictions of every held-out
        fold over all rows, and the model is refitted on every row."""
        ds = _planted_dataset(22, n_per=20)
        plan = make_folds(ds.n, 4, seed=22)
        res = grid_search("save", [1, 2], ds, plan)
        for h, err in res.val_errors:
            wrong = 0
            for fold in range(plan.k):
                rest, held = plan.fold_indices(fold)
                fit = _fit_method("save", Dataset(ds.X[rest], ds.labels[rest]),
                                  h, None)
                wrong += int(np.sum(_predict_method("save", fit, ds.X[held])
                                    != ds.labels[held]))
            assert err == wrong / ds.n
        full = _fit_method("save", ds, res.best_hyper, None)
        np.testing.assert_array_equal(res.model.projection, full.projection)

    @pytest.mark.parametrize("plan_kind", ["split", "folds"])
    def test_refit_warm_starts_only_on_a_split(self, monkeypatch, plan_kind):
        """The opgd refit starts from the winning validation model's
        projection on a split, and from its own warm start on folds."""
        import opgd.evaluation as evaluation
        calls = []
        fit_opgd = evaluation.fit_opgd

        def recording_fit(train, dim, config, V0=None):
            model = fit_opgd(train, dim, config, V0=V0)
            calls.append((train.n, dim, V0, model.projection))
            return model

        monkeypatch.setattr(evaluation, "fit_opgd", recording_fit)
        ds = _planted_dataset(23, n_per=20)
        plan = make_split(ds.n, seed=23) if plan_kind == "split" \
            else make_folds(ds.n, 3, seed=23)
        res = grid_search("opgd", [1, 2], ds, plan, OptimConfig(max_iters=30))
        *searched, (n_refit, dim, V0, _) = calls
        assert dim == res.best_hyper
        assert all(v is None for _, _, v, _ in searched)
        if plan_kind == "split":
            assert n_refit == len(plan.train) + len(plan.val)
            winner = [V for _, d, _, V in searched if d == dim]
            assert len(searched) == 2 and V0 is winner[0]
        else:
            assert n_refit == ds.n and V0 is None
            assert len(searched) == 2 * plan.k
