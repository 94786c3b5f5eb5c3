"""Tests for ingestion, manifests, model files and the command line."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import opgd
from opgd.cli import (
    ingest_csv,
    main,
    make_manifest,
    parse_model,
    serialize_model,
    write_manifest,
)
from opgd.classifier import LdaModel, OpgdModel, RdaModel, SaveModel, \
    fit_opgd, lda_fit, rda_fit, save_fit
from opgd.clustering import ClusterConfig, GmmModel, fit_gmm_em
from opgd.core import ConfigError, DataError, Dataset
from opgd.optimizer import OptimConfig


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _blob_csv(path, seed=0, n_per=40, delim=",", label="y", extra_cols=0):
    rng = np.random.default_rng(seed)
    centers = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]
    lines = [delim.join([f"x{j + 1}" for j in range(2 + extra_cols)] + [label])]
    for c, (cx, cy) in enumerate(centers, start=1):
        for _ in range(n_per):
            vals = [cx + rng.standard_normal(), cy + rng.standard_normal()]
            vals += list(rng.standard_normal(extra_cols))
            lines.append(delim.join([repr(float(v)) for v in vals] + [str(c)]))
    return _write(path, "\n".join(lines) + "\n")


class TestIngest:
    def test_basic_comma(self, tmp_path):
        p = _write(tmp_path / "d.csv", "a,b,y\n1,2,red\n3,4,blue\n5,6,red\n")
        ing = ingest_csv(p, label_column="y")
        assert ing.feature_names == ("a", "b")
        np.testing.assert_array_equal(ing.dataset.X, [[1, 2], [3, 4], [5, 6]])
        # lexical order: blue < red
        assert ing.label_names == ("blue", "red")
        np.testing.assert_array_equal(ing.dataset.labels, [2, 1, 2])

    def test_tab_and_semicolon_sniffed(self, tmp_path):
        for delim, name in (("\t", "t.tsv"), (";", "s.csv")):
            p = _write(tmp_path / name,
                       delim.join(["a", "b"]) + "\n" + delim.join(["1", "2"]) + "\n")
            ing = ingest_csv(p)
            assert ing.feature_names == ("a", "b")
            np.testing.assert_array_equal(ing.dataset.X, [[1.0, 2.0]])

    def test_numeric_labels_sorted_numerically(self, tmp_path):
        """'10' sorts after '2' numerically even though it is lexically
        smaller; original spellings are preserved."""
        p = _write(tmp_path / "d.csv", "a,y\n1,10\n2,2\n3,10\n")
        ing = ingest_csv(p, label_column="y")
        assert ing.label_names == ("2", "10")
        np.testing.assert_array_equal(ing.dataset.labels, [2, 1, 2])

    def test_unlabeled(self, tmp_path):
        p = _write(tmp_path / "d.csv", "a,b\n1,2\n3,4\n")
        ing = ingest_csv(p)
        assert ing.dataset.labels is None and ing.label_names == ()

    def test_missing_label_column(self, tmp_path):
        p = _write(tmp_path / "d.csv", "a,b\n1,2\n")
        with pytest.raises(ConfigError, match="no column named"):
            ingest_csv(p, label_column="y")

    def test_nonnumeric_cell_cites_location(self, tmp_path):
        p = _write(tmp_path / "d.csv", "a,b\n1,2\n1,oops\n")
        with pytest.raises(DataError, match=r"row 3, column 'b'"):
            ingest_csv(p)

    def test_ragged_row(self, tmp_path):
        p = _write(tmp_path / "d.csv", "a,b\n1,2\n1\n")
        with pytest.raises(DataError, match="row 3"):
            ingest_csv(p)

    def test_drop_constant(self, tmp_path):
        p = _write(tmp_path / "d.csv", "a,c,b\n1,7,2\n3,7,4\n")
        ing = ingest_csv(p, drop_constant=True)
        assert ing.feature_names == ("a", "b")
        assert ing.dropped_columns == ("c",)

    def test_perturbation_seeded_and_scaled(self, tmp_path):
        p = _write(tmp_path / "d.csv", "a,b\n1,100\n2,200\n3,300\n4,400\n")
        i1 = ingest_csv(p, perturb_sd=1e-3, seed=5)
        i2 = ingest_csv(p, perturb_sd=1e-3, seed=5)
        i3 = ingest_csv(p, perturb_sd=1e-3, seed=6)
        np.testing.assert_array_equal(i1.dataset.X, i2.dataset.X)
        assert not np.array_equal(i1.dataset.X, i3.dataset.X)
        base = ingest_csv(p).dataset.X
        shift = np.abs(i1.dataset.X - base)
        # second column has 100x the sd, so 100x the perturbation scale
        assert shift[:, 1].mean() > 10 * shift[:, 0].mean()

    def test_group_column_passed_through(self, tmp_path):
        p = _write(tmp_path / "d.csv", "a,g,y\n1,s1,1\n2,s1,1\n3,s2,2\n4,s2,2\n")
        ing = ingest_csv(p, label_column="y", group_column="g")
        np.testing.assert_array_equal(ing.groups, ["s1", "s1", "s2", "s2"])
        assert ing.feature_names == ("a",)

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path / "d.csv", "")
        with pytest.raises(DataError):
            ingest_csv(p)


class TestManifest:
    def test_id_deterministic_and_timestamp_free(self):
        m1 = make_manifest("fit", "d.csv", 3, dim=2, method="opgd")
        m2 = make_manifest("fit", "d.csv", 3, method="opgd", dim=2)
        assert m1.manifest_id == m2.manifest_id

    def test_id_changes_with_params(self):
        m1 = make_manifest("fit", "d.csv", 3, dim=2)
        m2 = make_manifest("fit", "d.csv", 3, dim=3)
        m3 = make_manifest("fit", "d.csv", 4, dim=2)
        assert len({m1.manifest_id, m2.manifest_id, m3.manifest_id}) == 3

    def test_none_params_omitted(self):
        m1 = make_manifest("fit", "d.csv", 0, alpha=None)
        m2 = make_manifest("fit", "d.csv", 0)
        assert m1.manifest_id == m2.manifest_id

    def test_written_file_has_no_timestamp(self, tmp_path):
        m = make_manifest("fit", "d.csv", 0, dim=2)
        path = tmp_path / "run.manifest"
        write_manifest(m, str(path))
        text = path.read_text()
        assert f"id\t{m.manifest_id}" in text


def _labeled_dataset(seed=0, n=60, p=3, K=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = rng.integers(1, K + 1, size=n)
    y[: 2 * K] = np.repeat(np.arange(1, K + 1), 2)
    return Dataset(X=X, labels=y)


class TestModelFiles:
    def _roundtrip(self, model):
        text = serialize_model(model, "abc123")
        back, source = parse_model(text)
        assert source == "abc123"
        assert type(back) is type(model)
        assert serialize_model(back, "abc123") == text
        return back

    def test_opgd_roundtrip(self):
        ds = _labeled_dataset(0)
        m = fit_opgd(ds, 2, OptimConfig(max_iters=20))
        back = self._roundtrip(m)
        np.testing.assert_array_equal(back.projection, m.projection)
        np.testing.assert_array_equal(back.projected_vars, m.projected_vars)
        assert back.label_names == m.label_names

    def test_lda_roundtrip(self):
        m = lda_fit(_labeled_dataset(1), 2)
        back = self._roundtrip(m)
        np.testing.assert_array_equal(back.covariance, m.covariance)

    def test_save_roundtrip(self):
        m = save_fit(_labeled_dataset(2, n=80), 2)
        back = self._roundtrip(m)
        np.testing.assert_array_equal(back.covariances, m.covariances)

    def test_rda_roundtrip(self):
        m = rda_fit(_labeled_dataset(3), 0.5)
        back = self._roundtrip(m)
        assert back.alpha == m.alpha
        np.testing.assert_array_equal(back.covariances, m.covariances)

    def test_gmm_roundtrip(self):
        rng = np.random.default_rng(4)
        m = fit_gmm_em(rng.standard_normal((50, 3)), 2, ClusterConfig(seed=4))
        back = self._roundtrip(m)
        np.testing.assert_array_equal(back.means, m.means)
        np.testing.assert_array_equal(back.covariances, m.covariances)

    def test_corrupt_file_rejected(self):
        with pytest.raises(DataError):
            parse_model("not a model file\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.replace("field\tcovariances\t3\t3\t3\t3",
                             "field\tcovariances\t2\t9\t3"),
         "'covariances' has 2 axes, expected 3"),
        (lambda t: t.replace("scalar\talpha\t0.5\n", ""),
         r"missing fields: \['alpha'\]"),
        (lambda t: t.replace("scalar\talpha\t0.5", "scalar\talpha"),
         "malformed model file at line 5"),
    ], ids=["field_axes", "missing_scalar", "short_scalar"])
    def test_inconsistent_file_rejected(self, edit, message):
        text = serialize_model(rda_fit(_labeled_dataset(3), 0.5))
        with pytest.raises(DataError, match=message):
            parse_model(edit(text))


    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb"])
    def test_label_a_file_cannot_store_is_refused(self, bad):
        model = lda_fit(_labeled_dataset(1), 2, label_names=("x", bad, "z"))
        with pytest.raises(DataError, match="holds a tab or line break"):
            serialize_model(model)


# A model file's fields by type tag, with their axes: K classes or
# components, p input columns, d projected coordinates.
_MODEL_FIELDS = {
    "opgd": (OpgdModel, {"projection": "pd", "projected_means": "Kd",
                         "projected_vars": "Kd", "priors": "K"}),
    "lda": (LdaModel, {"projection": "pd", "means": "Kd",
                       "covariance": "dd", "priors": "K"}),
    "save": (SaveModel, {"projection": "pd", "means": "Kd",
                         "covariances": "Kdd", "priors": "K"}),
    "rda": (RdaModel, {"means": "Kp", "covariances": "Kpp", "priors": "K"}),
    "gmm": (GmmModel, {"weights": "K", "means": "Kp",
                       "covariances": "Kpp"}),
}
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Tabs separate a file's cells, and newlines or carriage returns its lines.
_LABEL = st.text(st.characters(blacklist_characters="\t\n\r"), max_size=4)


@st.composite
def _models(draw, tag):
    cls, fields = _MODEL_FIELDS[tag]
    size = {axis: draw(st.integers(1, 4)) for axis in "Kpd"}
    kwargs = {name: draw(arrays(float, tuple(size[a] for a in axes),
                                elements=_FINITE))
              for name, axes in fields.items()}
    if tag == "rda":
        kwargs["alpha"] = draw(_FINITE)
    if tag != "gmm":
        kwargs["label_names"] = tuple(draw(st.lists(
            _LABEL, min_size=size["K"], max_size=size["K"])))
    return cls(**kwargs)


@pytest.mark.parametrize("tag", sorted(_MODEL_FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_model_file_round_trip_is_byte_identical(tag, data):
    """serialize -> parse -> serialize gives the same bytes for every
    type, shape and finite value."""
    model = data.draw(_models(tag))
    text = serialize_model(model, "0123456789abcdef")
    back, source = parse_model(text)
    assert type(back) is type(model) and source == "0123456789abcdef"
    assert serialize_model(back, source) == text


class TestCommands:
    def test_fit_predict_cycle(self, tmp_path, capsys):
        data = _blob_csv(tmp_path / "train.csv", seed=0)
        model_path = str(tmp_path / "m.opgd")
        rc = main(["fit", "--data", data, "--labels", "y", "--dim", "2",
                   "--out", model_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "manifest\t" in out and "training_error\t" in out
        err_line = [l for l in out.splitlines()
                    if l.startswith("training_error")][0]
        assert float(err_line.split("\t")[1]) < 0.1

        pred_path = str(tmp_path / "pred.tsv")
        rc = main(["predict", "--data", data, "--labels", "y",
                   "--model", model_path, "--out", pred_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "test_error\t" in out
        lines = open(pred_path).read().splitlines()
        assert lines[0].startswith("# manifest\t")
        assert lines[1].split("\t") == ["label", "p_1", "p_2", "p_3"]
        assert len(lines) == 2 + 120

    def test_fit_methods_all_work(self, tmp_path):
        data = _blob_csv(tmp_path / "train.csv", seed=1)
        for method, extra in [("lda", ["--dim", "2"]),
                              ("save", ["--dim", "2"]),
                              ("rda", ["--alpha", "0.3"])]:
            out = str(tmp_path / f"m.{method}")
            rc = main(["fit", "--data", data, "--labels", "y",
                       "--method", method, "--out", out] + extra)
            assert rc == 0
            model, _ = parse_model(open(out).read())
            assert model.label_names == ("1", "2", "3")

    def test_features_writes_coordinates_and_projection(self, tmp_path):
        data = _blob_csv(tmp_path / "train.csv", seed=2)
        out = str(tmp_path / "feat.tsv")
        rc = main(["features", "--data", data, "--labels", "y",
                   "--dim", "2", "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[1].split("\t") == ["v1", "v2", "label"]
        assert len(lines) == 2 + 120
        proj = open(out + ".projection").read().splitlines()
        assert proj[1].split("\t") == ["feature", "v1", "v2"]
        assert [r.split("\t")[0] for r in proj[2:]] == ["x1", "x2"]

    def test_cluster_outputs_and_metrics(self, tmp_path, capsys):
        data = _blob_csv(tmp_path / "d.csv", seed=3, extra_cols=2)
        out = str(tmp_path / "clu.tsv")
        rc = main(["cluster", "--data", data, "--labels", "y",
                   "--clusters", "3", "--dim", "2", "--out", out])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "ari_enhanced\t" in stdout
        labels = open(out).read().splitlines()
        assert labels[1] == "cluster" and len(labels) == 2 + 120
        metrics = dict(
            r.split("\t") for r in open(out + ".metrics").read().splitlines()[2:]
        )
        assert float(metrics["ari_enhanced"]) > 0.8
        assert float(metrics["ari_enhanced_x100"]) == pytest.approx(
            100 * float(metrics["ari_enhanced"]))
        gmm, _ = parse_model(open(out + ".gmm").read())
        assert gmm.means.shape == (3, 4)

    def test_cluster_accepts_initial_mixture_file(self, tmp_path):
        data = _blob_csv(tmp_path / "d.csv", seed=4)
        out1 = str(tmp_path / "first.tsv")
        assert main(["cluster", "--data", data, "--labels", "y",
                     "--clusters", "3", "--dim", "1", "--out", out1]) == 0
        out2 = str(tmp_path / "second.tsv")
        rc = main(["cluster", "--data", data, "--labels", "y",
                   "--clusters", "3", "--dim", "1",
                   "--init-gmm", out1 + ".gmm", "--out", out2])
        assert rc == 0

    @staticmethod
    def _cluster_from_mixture(tmp_path, first_cov_diag):
        """Cluster 3-d blobs from a mixture file whose first component
        has covariance diag(first_cov_diag)."""
        data = _blob_csv(tmp_path / "d.csv", seed=4, extra_cols=1)
        gmm = GmmModel(weights=np.full(3, 1.0 / 3.0),
                       means=np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0],
                                       [0.0, 4.0, 0.0]]),
                       covariances=np.stack([np.diag(first_cov_diag),
                                             np.eye(3), np.eye(3)]))
        init = _write(tmp_path / "init.gmm", serialize_model(gmm, "0" * 16))
        return main(["cluster", "--data", data, "--labels", "y",
                     "--clusters", "3", "--dim", "2", "--init-gmm", init,
                     "--out", str(tmp_path / "clu.tsv")])

    def test_cluster_singular_initial_covariance_gets_ridge(self, tmp_path):
        with pytest.warns(UserWarning, match="singular covariance"):
            assert self._cluster_from_mixture(tmp_path, [1.0, 1.0, 0.0]) == 0

    def test_cluster_indefinite_initial_covariance_is_numerical_error(
            self, tmp_path, capsys):
        with pytest.warns(UserWarning, match="singular covariance"):
            rc = self._cluster_from_mixture(tmp_path, [1.0, -1.0, 1.0])
        assert rc == 4
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @staticmethod
    def _run_with_model(tmp_path, command, model_path):
        """``predict --model`` or ``cluster --init-gmm`` on 2-d blobs."""
        data = _blob_csv(tmp_path / "d.csv", seed=10)
        flag = ["--model"] if command == "predict" else \
            ["--clusters", "3", "--dim", "1", "--init-gmm"]
        return main([command, "--data", data, "--labels", "y"] + flag
                    + [model_path, "--out", str(tmp_path / "out.tsv")])

    @pytest.mark.parametrize("command", ["predict", "cluster"])
    def test_missing_model_file_is_data_error(self, tmp_path, capsys,
                                              command):
        missing = str(tmp_path / "missing.opgd")
        assert self._run_with_model(tmp_path, command, missing) == 3
        err = capsys.readouterr().err
        assert f"error: cannot read {missing}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["predict", "cluster"])
    @pytest.mark.parametrize("corrupt", [
        lambda cells: cells[:-1],                 # a cell short
        lambda cells: ["zzz"] + cells[1:],        # non-numeric
    ], ids=["short_row", "non_numeric"])
    def test_malformed_array_block_is_data_error(self, tmp_path, capsys,
                                                 command, corrupt):
        ds = _labeled_dataset(11)
        model = lda_fit(ds, 2) if command == "predict" else \
            fit_gmm_em(ds.X, 3, ClusterConfig(seed=11))
        lines = serialize_model(model, "0" * 16).splitlines()
        row = next(i for i, l in enumerate(lines)
                   if l.startswith("field\t")) + 1
        lines[row] = "\t".join(corrupt(lines[row].split("\t")))
        path = _write(tmp_path / "bad.model", "\n".join(lines) + "\n")
        assert self._run_with_model(tmp_path, command, path) == 3
        err = capsys.readouterr().err
        assert "error: malformed array block" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["predict", "cluster"])
    @pytest.mark.parametrize("bad", ["nan", "-inf"])
    def test_non_finite_model_field_is_data_error(self, tmp_path, capsys,
                                                  command, bad):
        ds = _labeled_dataset(12, p=2)
        model = rda_fit(ds, 0.5) if command == "predict" else \
            fit_gmm_em(ds.X, 3, ClusterConfig(seed=12))
        lines = serialize_model(model, "0" * 16).splitlines()
        row = next(i for i, l in enumerate(lines)
                   if l.startswith("field\tcovariances")) + 2
        lines[row] = "\t".join([bad] + lines[row].split("\t")[1:])
        path = _write(tmp_path / "bad.model", "\n".join(lines) + "\n")
        assert self._run_with_model(tmp_path, command, path) == 3
        err = capsys.readouterr().err
        assert "error: model field 'covariances' holds non-finite" in err
        assert "Traceback" not in err

    def test_predict_column_count_mismatch_is_data_error(self, tmp_path,
                                                        capsys):
        """Without ``--labels`` the label column is read as a feature."""
        data = _blob_csv(tmp_path / "d.csv", seed=13)
        model = str(tmp_path / "m.lda")
        assert main(["fit", "--data", data, "--labels", "y", "--method",
                     "lda", "--dim", "1", "--out", model]) == 0
        rc = main(["predict", "--data", data, "--model", model,
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "has 3 feature columns, the model was fitted on 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.replace("labels\t1\t2\t3", "labels\t1"),
         "'means' has 3 classes, but the labels line has 1"),
        (lambda t: t.replace("field\tpriors\t1\t3", "field\tpriors\t1\t2")
         .rsplit("\t", 1)[0] + "\n",
         "'priors' has 2 classes, but the labels line has 3"),
    ], ids=["labels_cut", "priors_cut"])
    def test_inconsistent_model_file_is_data_error(self, tmp_path, capsys,
                                                   edit, message):
        """A model file whose fields disagree with one another exits 3
        with one error line."""
        data = _blob_csv(tmp_path / "d.csv", seed=14)
        model = tmp_path / "m.lda"
        assert main(["fit", "--data", data, "--labels", "y", "--method",
                     "lda", "--dim", "2", "--out", str(model)]) == 0
        model.write_text(edit(model.read_text()))
        capsys.readouterr()
        rc = main(["predict", "--data", data, "--labels", "y", "--model",
                   str(model), "--out", str(tmp_path / "p.tsv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == f"error: model field {message}\n"

    def test_evaluate_split_table(self, tmp_path):
        data = _blob_csv(tmp_path / "d.csv", seed=5, n_per=60, extra_cols=1)
        out = str(tmp_path / "res.tsv")
        rc = main(["evaluate", "--data", data, "--labels", "y",
                   "--method", "opgd,lda", "--max-iters", "60",
                   "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[1].split("\t") == ["method", "hyper", "val_error",
                                        "test_error"]
        rows = {r.split("\t")[0]: r.split("\t") for r in lines[2:]}
        assert set(rows) == {"opgd", "lda"}
        for row in rows.values():
            assert 0.0 <= float(row[3]) <= 1.0

    def test_evaluate_grouped_folds(self, tmp_path):
        rng = np.random.default_rng(6)
        lines = ["a,b,g,y"]
        for g in range(4):
            for _ in range(15):
                c = rng.integers(1, 3)
                mu = 3.0 if c == 2 else 0.0
                lines.append(f"{mu + rng.standard_normal()!r},"
                             f"{rng.standard_normal()!r},s{g},{c}")
        data = _write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        out = str(tmp_path / "res.tsv")
        rc = main(["evaluate", "--data", data, "--labels", "y",
                   "--method", "lda", "--folds", "4", "--group", "g",
                   "--grid", "1", "--out", out])
        assert rc == 0
        rows = open(out).read().splitlines()[2:]
        assert rows[0].split("\t")[0] == "lda"

    def test_gradcheck_passes(self, tmp_path):
        out = str(tmp_path / "gc.tsv")
        rc = main(["gradcheck", "--trials", "10", "--seed", "0",
                   "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert any("max_rel_err" in l for l in lines)

    def test_exit_code_config_error(self, tmp_path, capsys):
        data = _blob_csv(tmp_path / "d.csv", seed=7)
        rc = main(["fit", "--data", data, "--labels", "nope",
                   "--out", str(tmp_path / "m.opgd")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_exit_code_data_error(self, tmp_path, capsys):
        p = _write(tmp_path / "bad.csv", "a,y\n1,1\nzzz,2\n")
        rc = main(["fit", "--data", str(p), "--labels", "y",
                   "--out", str(tmp_path / "m.opgd")])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["fit", "--dim", "2"],
        ["evaluate", "--method", "lda", "--max-iters", "20"],
    ])
    def test_output_in_missing_directory_is_config_error(
            self, tmp_path, capsys, command):
        data = _blob_csv(tmp_path / "d.csv", seed=9)
        out = str(tmp_path / "no" / "such" / "x")
        rc = main([command[0], "--data", data, "--labels", "y",
                   "--out", out] + command[1:])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {out}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["evaluate", "--method", "lda", "--grid", "x"],
        ["evaluate", "--method", "opgd", "--grid", "inf"],
        ["evaluate", "--method", "lda", "--split", "a,b,c"],
        ["evaluate", "--method", "lda", "--split", "nan,nan,nan"],
        ["cluster", "--clusters", "0"],
        ["fit", "--perturb", "nan"],
        ["cluster", "--clusters", "3", "--perturb", "inf"],
        ["evaluate", "--method", ""],
        ["evaluate", "--method", ","],
        ["cluster", "--clusters", "3", "--lambda", "nan"],
        ["cluster", "--clusters", "3", "--lambda", "inf"],
        ["fit", "--method", "opgd", "--ridge", "nan"],
        ["fit", "--method", "opgd", "--epsilon", "nan"],
        ["fit", "--method", "opgd", "--epsilon", "inf"],
        ["cluster", "--clusters", "3", "--epsilon", "nan"],
        ["fit", "--method", "lda", "--epsilon", "nan"],
        ["fit", "--method", "rda", "--ridge", "inf"],
        ["fit", "--method", "save", "--ridge", "-1"],
        ["features", "--method", "lda", "--epsilon", "0"],
        ["features", "--method", "save", "--ridge", "nan"],
        ["evaluate", "--method", "lda", "--epsilon", "nan"],
        ["evaluate", "--method", "rda,save", "--ridge=-inf"],
    ], ids=["grid_word", "grid_inf", "split_words", "split_nan",
            "zero_clusters", "perturb_nan", "perturb_inf", "method_empty",
            "method_comma", "lambda_nan", "lambda_inf", "ridge_nan",
            "epsilon_nan", "epsilon_inf", "cluster_epsilon_nan",
            "lda_epsilon_nan", "rda_ridge_inf", "save_ridge_negative",
            "features_lda_epsilon_zero", "features_save_ridge_nan",
            "evaluate_lda_epsilon_nan", "evaluate_rda_save_ridge_ninf"])
    def test_bad_flag_value_is_config_error(self, tmp_path, capsys, command):
        data = _blob_csv(tmp_path / "d.csv", seed=4)
        rc = main([command[0], "--data", data, "--labels", "y",
                   "--out", str(tmp_path / "o.tsv")] + command[1:])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "o.tsv.manifest").exists()

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_gradcheck_without_trials_is_config_error(self, capsys, trials):
        assert main(["gradcheck", "--trials", trials]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_undecodable_model_file_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "m.opgd"
        model.write_bytes(b"opgd-model-v1\ntype\t\xff\n")
        data = _blob_csv(tmp_path / "d.csv", seed=5)
        rc = main(["predict", "--data", data, "--model", str(model),
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 3
        assert f"error: cannot read {model}" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        rc = main(["fit", "--data", str(tmp_path / "absent.csv"),
                   "--labels", "y", "--out", str(tmp_path / "m.opgd")])
        assert rc == 3


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        data = _blob_csv(tmp_path / "d.csv", seed=8)
        outputs = []
        for tag in ("one", "two"):
            out = str(tmp_path / f"{tag}.opgd")
            assert main(["fit", "--data", data, "--labels", "y",
                         "--dim", "2", "--seed", "3", "--out", out]) == 0
            outputs.append((open(out, "rb").read(),
                            open(out + ".manifest", "rb").read()))
        assert outputs[0] == outputs[1]

    def test_different_seed_changes_manifest(self, tmp_path):
        data = _blob_csv(tmp_path / "d.csv", seed=9)
        ids = []
        for seed in ("0", "1"):
            out = str(tmp_path / f"s{seed}.opgd")
            assert main(["fit", "--data", data, "--labels", "y",
                         "--seed", seed, "--out", out]) == 0
            ids.append(open(out + ".manifest").read().splitlines()[-1])
        assert ids[0] != ids[1]


def test_no_scipy_at_run_time(tmp_path):
    """A fresh interpreter that fits, predicts and clusters through the
    CLI never imports scipy."""
    data = _blob_csv(tmp_path / "d.csv", seed=14)
    model = str(tmp_path / "m.lda")
    calls = [
        ["fit", "--data", data, "--labels", "y", "--method", "lda",
         "--dim", "1", "--out", model],
        ["fit", "--data", data, "--labels", "y", "--max-iters", "20",
         "--out", str(tmp_path / "m.opgd")],
        ["predict", "--data", data, "--labels", "y", "--model", model,
         "--out", str(tmp_path / "p.tsv")],
        ["cluster", "--data", data, "--clusters", "3", "--dim", "1",
         "--max-iters", "20", "--out", str(tmp_path / "c.tsv")],
    ]
    script = ("import sys\nimport opgd.cli\n"
              f"for argv in {calls!r}:\n"
              "    assert opgd.cli.main(argv) == 0, argv\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(opgd.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("first_cov_diag, rc", [([1.0, 1.0, 0.0], 0),
                                                ([1.0, -1.0, 1.0], 4)],
                         ids=["singular", "indefinite"])
def test_library_warnings_print_one_line(tmp_path, first_cov_diag, rc):
    """Under the console script, a library warning prints as one
    ``warning: <message>`` line on stderr, with no source path and no
    ``warnings.warn(...)`` line, and the exit code is kept."""
    data = _blob_csv(tmp_path / "d.csv", seed=4, extra_cols=1)
    gmm = GmmModel(weights=np.full(3, 1.0 / 3.0),
                   means=np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0],
                                   [0.0, 4.0, 0.0]]),
                   covariances=np.stack([np.diag(first_cov_diag),
                                         np.eye(3), np.eye(3)]))
    init = _write(tmp_path / "init.gmm", serialize_model(gmm, "0" * 16))
    argv = ["cluster", "--data", data, "--labels", "y", "--clusters", "3",
            "--dim", "2", "--init-gmm", init,
            "--out", str(tmp_path / "clu.tsv")]
    script = f"import sys\nimport opgd.cli\nsys.exit(opgd.cli.main({argv!r}))\n"
    src = os.path.dirname(os.path.dirname(os.path.abspath(opgd.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == rc, run.stderr
    lines = run.stderr.splitlines()
    assert lines[0].startswith("warning: singular covariance; adding ridge ")
    assert all(line.startswith(("warning: ", "error: ")) for line in lines)
    assert (lines[-1].startswith("error: ")) == (rc != 0)
    assert ".py" not in run.stderr and "warnings.warn" not in run.stderr
