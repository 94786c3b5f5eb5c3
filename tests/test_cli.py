"""Tests for ingestion, manifests, model files and the command line."""

import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import opgd
from opgd import cli
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
from opgd.core import ConfigError, DataError, Dataset, estimate_class_model
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
        assert ing.dataset.label_names == ("blue", "red")
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
        assert ing.dataset.label_names == ("2", "10")
        np.testing.assert_array_equal(ing.dataset.labels, [2, 1, 2])

    def test_unlabeled(self, tmp_path):
        p = _write(tmp_path / "d.csv", "a,b\n1,2\n3,4\n")
        ing = ingest_csv(p)
        assert ing.dataset.labels is None and ing.dataset.label_names is None

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
        ds = _labeled_dataset(1)
        model = lda_fit(Dataset(ds.X, ds.labels, ("x", bad, "z")), 2)
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

    @pytest.mark.parametrize("pca", [[], ["--pca-threshold", "0.999"]],
                             ids=["raw", "prefilter"])
    def test_cluster_projection_names_every_input_column(self, tmp_path,
                                                         pca):
        """``cluster`` writes ``.projection`` as ``features`` does: one
        named row per input column. Through the pre-filter it is mapped
        back to the input columns, and ``.features`` holds the centred
        data times it."""
        rng = np.random.default_rng(10)
        y = np.repeat([1, 2, 3], 30)
        X = rng.standard_normal((90, 4)) + 4.0 * np.eye(4)[y]
        X = np.column_stack([X, X[:, 1] + X[:, 2]])
        lines = ["x1,x2,x3,x4,x5,y"] + [
            ",".join(map(repr, row)) + f",{c}"
            for row, c in zip(X.tolist(), y.tolist())]
        data = _write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        out = str(tmp_path / "clu.tsv")
        assert main(["cluster", "--data", data, "--labels", "y",
                     "--clusters", "3", "--dim", "2", "--max-iters", "30",
                     "--out", out, *pca]) == 0
        proj = [r.split("\t") for r in
                open(out + ".projection").read().splitlines()[1:]]
        assert proj[0] == ["feature", "v1", "v2"]
        assert [r[0] for r in proj[1:]] == ["x1", "x2", "x3", "x4", "x5"]
        V = np.array([[float(v) for v in r[1:]] for r in proj[1:]])
        Z = np.array([[float(v) for v in r.split("\t")[:2]] for r in
                      open(out + ".features").read().splitlines()[2:]])
        Xin = X - X.mean(axis=0) if pca else X
        np.testing.assert_allclose(Z, Xin @ V, rtol=1e-9, atol=1e-9)

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

    def test_cluster_without_labels_computes_no_initial_labels(
            self, tmp_path, monkeypatch):
        """The initial mixture's labels feed only ``.metrics``: a run
        without ``--labels`` never computes them, and writes the files
        it writes when they are computed."""
        data = _blob_csv(tmp_path / "d.csv", seed=4)
        out = str(tmp_path / "c.tsv")
        suffixes = ("", ".features", ".projection", ".gmm", ".manifest")
        outputs = []
        for patched in (False, True):
            if patched:
                def refuse(*args):
                    raise AssertionError("hard_labels called")
                monkeypatch.setattr(cli, "hard_labels", refuse)
            assert main(["cluster", "--data", data, "--clusters", "3",
                         "--dim", "1", "--out", out]) == 0
            outputs.append([open(out + s, "rb").read() for s in suffixes])
            assert not os.path.exists(out + ".metrics")
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("dim", ["1", "2"])
    def test_zero_within_scatter_is_numerical_error(self, tmp_path, capsys,
                                                    dim):
        """When every class's rows are identical the within scatter is
        zero, so the warm start has no discriminant to solve for, and
        ``fit`` exits 4 with one error line that names the cause, before
        any check of ``--dim`` against the rank of the table."""
        data = _write(tmp_path / "d.csv",
                      "a,b,y\n0,0,1\n0,0,1\n0,0,1\n1,2,2\n1,2,2\n1,2,2\n")
        out = tmp_path / "m.opgd"
        rc = main(["fit", "--data", data, "--labels", "y", "--dim", dim,
                   "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err == ("error: no class or cluster has within-group spread: "
                       "the rows of each are identical\n")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("method", ["opgd", "lda", "save"])
    def test_duplicated_column_changes_no_prediction(self, tmp_path, capsys,
                                                     method):
        """Every direction is solved in the whitened frame of the total
        covariance, which a copy of a column leaves one dimension short:
        the fit succeeds and predicts the labels it predicts without the
        copy."""
        ds = _labeled_dataset(30, n=90, p=3)
        labels = []
        for name, X in (("plain", ds.X),
                        ("copy", np.column_stack([ds.X, ds.X[:, 1]]))):
            header = ",".join(f"x{j}" for j in range(X.shape[1])) + ",y"
            data = _write(tmp_path / f"{name}.csv",
                          _table(header, X, ds.labels))
            model = str(tmp_path / f"{name}.{method}")
            assert main(["fit", "--data", data, "--labels", "y", "--method",
                         method, "--dim", "2", "--out", model]) == 0
            pred = str(tmp_path / f"{name}.tsv")
            assert main(["predict", "--data", data, "--labels", "y",
                         "--model", model, "--out", pred]) == 0
            labels.append([line.split("\t")[0] for line in
                           open(pred).read().splitlines()[2:]])
        assert capsys.readouterr().err == ""
        assert labels[0] == labels[1]

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
        ["fit", "--method", "opgd", "--epsilon", "nan"],
        ["fit", "--method", "opgd", "--epsilon", "inf"],
        ["cluster", "--clusters", "3", "--epsilon", "nan"],
        ["fit", "--method", "lda", "--epsilon", "nan"],
        ["features", "--method", "lda", "--epsilon", "0"],
        ["evaluate", "--method", "lda", "--epsilon", "nan"],
    ], ids=["grid_word", "grid_inf", "split_words", "split_nan",
            "zero_clusters", "perturb_nan", "perturb_inf", "method_empty",
            "method_comma", "lambda_nan", "lambda_inf",
            "epsilon_nan", "epsilon_inf", "cluster_epsilon_nan",
            "lda_epsilon_nan", "features_lda_epsilon_zero",
            "evaluate_lda_epsilon_nan"])
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


def _table_csv(path, columns, rows):
    """A comma table with ``columns`` as header; ``rows`` maps a column
    name to its cells."""
    lines = [",".join(columns)]
    lines += [",".join(str(rows[c][i]) for c in columns)
              for i in range(len(rows[columns[0]]))]
    return _write(path, "\n".join(lines) + "\n")


def _blob_columns(seed, n_per=20):
    """Three labelled blobs in x1/x2, a constant column c, a numeric
    noise column e and a string column g."""
    rng = np.random.default_rng(seed)
    n = 3 * n_per
    y = np.repeat([1, 2, 3], n_per)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])[y - 1]
    xy = centers + rng.standard_normal((n, 2))
    return {"x1": [repr(v) for v in xy[:, 0].tolist()],
            "x2": [repr(v) for v in xy[:, 1].tolist()],
            "c": ["1.5"] * n,
            "e": [repr(v) for v in rng.standard_normal(n).tolist()],
            "g": [f"s{i % 4}" for i in range(n)],
            "y": [str(v) for v in y]}


class TestEvaluate:
    def _run(self, tmp_path, capsys, data, *argv):
        capsys.readouterr()
        rc = main(["evaluate", "--data", data, "--labels", "y", "--method",
                   "lda,save", "--grid", "1", "--folds", "3",
                   "--out", str(tmp_path / "res.tsv"), *argv])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        rows = {r.split("\t")[0]: r.split("\t")
                for r in out.splitlines()[1:]}
        return rc, rows, err

    def test_test_table_without_a_dropped_column(self, tmp_path, capsys):
        """With ``--drop-constant``, the test table is scored in the
        training table's columns: a constant column dropped from the
        training table is ignored in the test table."""
        train = _table_csv(tmp_path / "train.csv", ["x1", "c", "x2", "y"],
                           _blob_columns(1))
        test_cols = _blob_columns(2)
        test_cols["c"] = test_cols["e"]
        with_c = _table_csv(tmp_path / "t1.csv", ["x1", "c", "x2", "y"],
                            test_cols)
        without_c = _table_csv(tmp_path / "t2.csv", ["x1", "x2", "y"],
                               test_cols)
        results = []
        for test in (with_c, without_c):
            rc, rows, _ = self._run(tmp_path, capsys, train,
                                    "--drop-constant", "--test", test)
            assert rc == 0
            results.append({m: r[3] for m, r in rows.items()})
        assert results[0] == results[1]
        assert set(results[0]) == {"lda", "save"}
        assert all(0.0 <= float(e) <= 1.0 for e in results[0].values())

    def test_test_columns_are_matched_by_name(self, tmp_path, capsys):
        """Reordered test columns, and extra ones (a string column among
        them), give the test error of a table laid out as the training
        table."""
        cols = _blob_columns(3)
        train = _table_csv(tmp_path / "train.csv", ["x1", "x2", "g", "y"],
                           _blob_columns(4))
        plain = _table_csv(tmp_path / "t1.csv", ["x1", "x2", "y"], cols)
        shuffled = _table_csv(tmp_path / "t2.csv",
                              ["y", "g", "x2", "e", "x1"], cols)
        results = []
        for test in (plain, shuffled):
            rc, rows, _ = self._run(tmp_path, capsys, train, "--group", "g",
                                    "--test", test)
            assert rc == 0
            results.append({m: r[3] for m, r in rows.items()})
        assert results[0] == results[1]

    def test_test_table_missing_a_column_is_data_error(self, tmp_path,
                                                        capsys):
        cols = _blob_columns(5)
        train = _table_csv(tmp_path / "train.csv", ["x1", "x2", "y"], cols)
        test = _table_csv(tmp_path / "t.csv", ["x1", "e", "y"], cols)
        rc, _, err = self._run(tmp_path, capsys, train, "--test", test)
        assert rc == 3
        assert err.startswith(f"error: {test}: no column named 'x2'")
        assert not (tmp_path / "res.tsv").exists()

    @pytest.mark.parametrize("flag", ["--test", "--group"])
    def test_flag_without_folds_is_config_error(self, tmp_path, capsys,
                                                flag):
        """``--test`` and ``--group`` act only with ``--folds``; without
        it they are refused before any work, even naming no file."""
        data = _blob_csv(tmp_path / "d.csv", seed=6)
        capsys.readouterr()
        rc = main(["evaluate", "--data", data, "--labels", "y",
                   "--method", "lda", "--out", str(tmp_path / "res.tsv"),
                   flag, str(tmp_path / "absent")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag} needs --folds\n"
        assert not (tmp_path / "res.tsv.manifest").exists()

    @pytest.mark.parametrize("method", ["opgd", "lda", "save"])
    def test_fractional_dimension_is_config_error(self, tmp_path, capsys,
                                                  method):
        data = _blob_csv(tmp_path / "d.csv", seed=7)
        capsys.readouterr()
        rc = main(["evaluate", "--data", data, "--labels", "y",
                   "--method", method, "--grid", "1,1.7",
                   "--out", str(tmp_path / "res.tsv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: {method} takes integer dimensions, got "
                       "grid value 1.7\n")
        assert not (tmp_path / "res.tsv.manifest").exists()

    def test_integer_valued_grid_is_a_dimension(self, tmp_path, capsys):
        data = _blob_csv(tmp_path / "d.csv", seed=8)
        rc, rows, _ = self._run(tmp_path, capsys, data, "--grid", "2.0")
        assert rc == 0
        assert rows["lda"][1] == "2" and rows["save"][1] == "2"


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

    @pytest.mark.parametrize("command", ["predict", "features"])
    def test_block_size_does_not_change_tables(self, tmp_path, monkeypatch,
                                               command):
        """Tables are formatted and written a block of rows at a time;
        blocks of 7 rows, with a short last block, give the bytes of one
        block holding every row."""
        data = _blob_csv(tmp_path / "d.csv", seed=5)
        model = str(tmp_path / "m.opgd")
        assert main(["fit", "--data", data, "--labels", "y", "--dim", "2",
                     "--out", model]) == 0
        argv = {"predict": ["--model", model],
                "features": ["--method", "lda", "--dim", "2"]}[command]
        tables = []
        for rows in (7, 10 ** 6):
            monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
            out = str(tmp_path / f"{command}{rows}.tsv")
            assert main([command, "--data", data, "--labels", "y",
                         "--out", out, *argv]) == 0
            with open(out, "rb") as fh:
                tables.append(fh.read())
        assert tables[0].count(b"\n") > 2 + 7
        assert tables[0] == tables[1]

    def test_different_seed_changes_manifest(self, tmp_path):
        data = _blob_csv(tmp_path / "d.csv", seed=9)
        ids = []
        for seed in ("0", "1"):
            out = str(tmp_path / f"s{seed}.opgd")
            assert main(["fit", "--data", data, "--labels", "y",
                         "--seed", seed, "--out", out]) == 0
            ids.append(open(out + ".manifest").read().splitlines()[-1])
        assert ids[0] != ids[1]


def test_table_is_written_one_block_of_row_strings_at_a_time(tmp_path):
    """A 20,000-row table is written as one join of all its rows would
    write it. Each row is joined as it is read, so a block is held as
    its row strings only: the traced peak stays under twice the bytes
    written, where holding each block's lists of cells took three
    times."""
    rng = np.random.default_rng(6)
    Z = rng.standard_normal((20000, 3))
    labels = rng.integers(1, 6, 20000).tolist()
    path = str(tmp_path / "t.tsv")
    tracemalloc.start()
    try:
        cli._write_table(path, "m", ["v1", "v2", "v3", "c"],
                         (zrow + [str(c)] for zrow, c in
                          zip(cli._fmt_rows(Z), labels)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with open(path, "rb") as fh:
        written = fh.read()
    expected = "# manifest\tm\nv1\tv2\tv3\tc\n" + "".join(
        "\t".join(map(repr, row)) + f"\t{c}\n"
        for row, c in zip(Z.tolist(), labels))
    assert written == expected.encode()
    assert peak < 2 * len(written)


class TestManifestParams:
    @staticmethod
    def _manifest_id(capsys):
        out = capsys.readouterr().out
        return [l for l in out.splitlines() if l.startswith("manifest\t")][0]

    def test_label_column_changes_the_fit_manifest(self, tmp_path, capsys):
        """Two label-like columns: fitting on one or the other gives
        different models, so the manifest ids differ too."""
        rng = np.random.default_rng(15)
        y = np.repeat([1, 2], 30)
        z = np.tile([1, 2], 30)
        X = rng.standard_normal((60, 2)) + 3.0 * y[:, None]
        rows = [f"{a!r},{b!r},{c},{d}"
                for (a, b), c, d in zip(X.tolist(), y, z)]
        data = _write(tmp_path / "d.csv", "\n".join(["x1,x2,y,z"] + rows)
                      + "\n")
        ids, models = [], []
        for label in ("y", "z"):
            out = str(tmp_path / f"m_{label}.lda")
            assert main(["fit", "--data", data, "--method", "lda",
                         "--dim", "1", "--labels", label, "--out", out]) == 0
            ids.append(self._manifest_id(capsys))
            models.append([l for l in open(out).read().splitlines()
                           if not l.startswith("manifest\t")])
        assert models[0] != models[1]
        assert ids[0] != ids[1]
        assert "param\tlabels\tz\n" in open(out + ".manifest").read()

    def test_label_column_changes_the_cluster_manifest(self, tmp_path,
                                                       capsys):
        """On a two-column file, ``--labels y`` takes ``y`` out of the
        features; without it ``y`` is clustered on."""
        rng = np.random.default_rng(16)
        x = np.r_[rng.standard_normal(30), 5.0 + rng.standard_normal(30)]
        y = np.repeat([1, 2], 30)
        data = _write(tmp_path / "d.csv", "\n".join(
            ["x,y"] + [f"{a!r},{b}" for a, b in zip(x.tolist(), y)]) + "\n")
        ids = []
        for tag, extra in (("plain", []), ("labeled", ["--labels", "y"])):
            out = str(tmp_path / f"{tag}.tsv")
            assert main(["cluster", "--data", data, "--clusters", "2",
                         "--dim", "1", "--max-iters", "20", "--out", out]
                        + extra) == 0
            ids.append(self._manifest_id(capsys))
        assert ids[0] != ids[1]

    def test_init_gmm_with_other_cluster_count_is_config_error(
            self, tmp_path, capsys):
        data = _blob_csv(tmp_path / "d.csv", seed=17)
        X = ingest_csv(data, label_column="y").dataset.X
        init = _write(tmp_path / "one.gmm", serialize_model(
            fit_gmm_em(X, 1, ClusterConfig(seed=17)), "0" * 16))
        out = tmp_path / "c.tsv"
        rc = main(["cluster", "--data", data, "--labels", "y",
                   "--clusters", "3", "--dim", "1", "--init-gmm", init,
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: --clusters 3 disagrees with ")
        assert "which has 1 components" in err and "Traceback" not in err
        assert not out.exists()
        assert not (tmp_path / "c.tsv.manifest").exists()


_IDENTICAL_ROWS = "a,b,y\n" + "0,0,1\n" * 3 + "1,2,2\n" * 3
_TWO_POINTS = "a,b,c\n" + "1,2,0\n" * 3 + "5,6,0\n" * 3
_CONSTANT = "a,b\n" + "1,2\n" * 4
# text of numpy's own exceptions, which names no cause in the user's data
_NUMPY_TEXT = ("not positive definite", "Singular matrix",
               "did not converge", "division")


@pytest.mark.parametrize("table, argv", [
    (_IDENTICAL_ROWS, ["fit", "--labels", "y", "--method", "opgd"]),
    (_IDENTICAL_ROWS, ["fit", "--labels", "y", "--method", "lda",
                       "--dim", "1"]),
    (_IDENTICAL_ROWS, ["features", "--labels", "y"]),
    (_IDENTICAL_ROWS, ["cluster", "--labels", "y", "--clusters", "2"]),
    (_IDENTICAL_ROWS, ["cluster", "--labels", "y", "--clusters", "2",
                       "--dim", "1", "--pca-threshold", "0.99"]),
    (_TWO_POINTS, ["cluster", "--clusters", "2"]),
    (_TWO_POINTS, ["cluster", "--clusters", "2", "--dim", "1",
                   "--pca-threshold", "0.99"]),
    (_CONSTANT, ["cluster", "--clusters", "2"]),
    (_CONSTANT, ["cluster", "--clusters", "2", "--pca-threshold", "0.99"]),
], ids=["identical-fit-opgd", "identical-fit-lda", "identical-features",
        "identical-cluster", "identical-cluster-pca", "two-points-cluster",
        "two-points-cluster-pca", "constant-cluster", "constant-cluster-pca"])
def test_degenerate_table_ends_in_one_named_error(tmp_path, capsys, table,
                                                  argv):
    """A table with no spread to fit ends with an exit code of 2, 3 or
    4 and one ``error:`` line that names the cause, after any
    ``warning:`` lines, as under the console script."""
    data = _write(tmp_path / "d.csv", table)

    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category,
                                                filename, lineno, line))

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        rc = main([argv[0], "--data", data, *argv[1:],
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc in (2, 3, 4) and "Traceback" not in err
    lines = err.splitlines()
    assert all(line.startswith("warning: ") for line in lines[:-1])
    assert lines[-1].startswith("error: ")
    assert not any(text in lines[-1] for text in _NUMPY_TEXT)


def _main_as_console(argv):
    """``main(argv)`` with every warning printed to stderr as under the
    console script."""
    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category,
                                                filename, lineno, line))

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        return main(argv)


def _table(header, X, y):
    return header + "\n" + "".join(
        ",".join(map(repr, row)) + f",{lab}\n"
        for row, lab in zip(np.asarray(X).tolist(), np.asarray(y).tolist()))


_rng = np.random.default_rng(20)
_a = _rng.standard_normal((60, 2))
# column b is 2a, so the class covariances are singular
_COLLINEAR = _table("a,b,c,y", np.column_stack([_a[:, 0], 2 * _a[:, 0],
                                                _a[:, 1]]),
                    np.repeat([1, 2, 3], 20))
# each class is one point repeated, so no class has spread
_NO_SPREAD = _table("a,b,c,y", np.repeat(
    [[0.0, 0.0, 1.0], [4.0, 0.0, 2.0], [0.0, 4.0, 0.0]], 20, axis=0),
    np.repeat([1, 2, 3], 20))
_ONE_CLASS = _table("a,b,c,y", _rng.standard_normal((20, 3)), np.ones(20))
# class 3 is all of group 3, so the training rows of its fold lack it
_GROUPED = _table("a,b,g,y", np.column_stack(
    [_rng.standard_normal((30, 2)), np.repeat([1, 2, 3], 10)]),
    np.r_[np.tile([1, 2], 10), np.full(10, 3)])
# class 3 has two rows, so the training rows of a split hold at most one
_PAIR_CLASS = _table("a,b,y", _rng.standard_normal((22, 2)),
                     np.r_[np.tile([1, 2], 10), 3, 3])
_ONE_CLASS_ERROR = "error: a classifier needs at least two classes"
_NO_VARIANCE_ERROR = "error: no column varies: every row is the same point"


# feature columns that are all constant, and a table with two classes
_CONSTANT_LABELLED = "a,b,y\n" + "1,2,1\n1,2,2\n" * 3
_TWO_CLASS = _table("x1,x2,y", _rng.standard_normal((20, 2)),
                    np.tile([1, 2], 10))


def _failure_files(tmp_path):
    """The inputs of the failure cases, by placeholder: the tables above,
    a labelled table of three blobs in two columns (``blobs``), an lda
    model of two inputs, three broken copies of it, and mixtures of two
    and three inputs."""
    model = serialize_model(lda_fit(_labeled_dataset(21, p=2), 1), "0" * 16)
    lines = model.splitlines()
    texts = {
        "no_spread": _NO_SPREAD, "one_class": _ONE_CLASS,
        "constant": _CONSTANT, "grouped": _GROUPED,
        "pair_class": _PAIR_CLASS, "constant_labelled": _CONSTANT_LABELLED,
        "two_class": _TWO_CLASS, "model": model,
        "truncated": "\n".join(lines[:-1]) + "\n",
        "unknown": model.replace("type\tlda", "type\tqda"),
        "unlabelled": "\n".join(ln for ln in lines
                                if not ln.startswith("labels\t")) + "\n",
    }
    for name, p in (("gmm", 2), ("gmm3", 3)):
        gmm = GmmModel(weights=[0.5, 0.5], means=np.arange(2 * p).reshape(
            2, p) / 2.0, covariances=np.stack([np.eye(p)] * 2))
        texts[name] = serialize_model(gmm, "0" * 16)
    files = {name: _write(tmp_path / name, text)
             for name, text in texts.items()}
    files["blobs"] = _blob_csv(tmp_path / "blobs.csv", seed=21)
    return files


@pytest.mark.parametrize("data, argv, rc, line", [
    ("no_spread", ["evaluate", "--labels", "y", "--method", "rda,lda,save"],
     4, "error: every grid point failed: no class or cluster has "
        "within-group spread"),
    ("one_class", ["fit", "--labels", "y", "--method", "opgd"], 3,
     _ONE_CLASS_ERROR),
    ("one_class", ["fit", "--labels", "y", "--method", "rda"], 3,
     _ONE_CLASS_ERROR),
    ("one_class", ["fit", "--labels", "y", "--method", "save"], 3,
     _ONE_CLASS_ERROR),
    ("one_class", ["fit", "--labels", "y", "--method", "lda", "--dim", "1"],
     3, _ONE_CLASS_ERROR),
    ("one_class", ["features", "--labels", "y"], 3, _ONE_CLASS_ERROR),
    ("one_class", ["evaluate", "--labels", "y", "--method",
                   "opgd,lda,rda,save"], 3, _ONE_CLASS_ERROR),
    ("constant", ["cluster", "--clusters", "2"], 3, _NO_VARIANCE_ERROR),
    ("constant", ["cluster", "--clusters", "2", "--pca-threshold", "0.99"],
     3, _NO_VARIANCE_ERROR),
    ("constant", ["cluster", "--clusters", "2", "--init-gmm", "{gmm}"], 3,
     _NO_VARIANCE_ERROR),
    ("grouped", ["evaluate", "--labels", "y", "--method", "rda", "--folds",
                 "3", "--group", "g"], 3,
     "error: the training rows of fold 0 hold no observation of class 3"),
    ("pair_class", ["evaluate", "--labels", "y", "--method", "rda"], 3,
     "error: every grid point failed: class 3 has 1 observation(s)"),
    ("constant_labelled", ["fit", "--labels", "y", "--drop-constant"], 3,
     "error: {constant_labelled}: no feature columns remain"),
    ("blobs", ["predict", "--model", "{truncated}"], 3,
     "error: truncated array block for 'priors'"),
    ("blobs", ["predict", "--model", "{unknown}"], 3,
     "error: unknown model type 'qda'"),
    ("blobs", ["predict", "--model", "{unlabelled}"], 3,
     "error: model file is missing the labels line"),
    ("blobs", ["predict", "--model", "{gmm}"], 2,
     "error: {gmm} is not a classifier model file"),
    ("blobs", ["fit"], 2, "error: fit requires --labels"),
    ("blobs", ["features"], 2, "error: features requires --labels"),
    ("blobs", ["evaluate"], 2, "error: evaluate requires --labels"),
    ("blobs", ["cluster", "--labels", "y", "--clusters", "3", "--init-gmm",
               "{model}"], 2, "error: {model} is not a gmm model file"),
    ("blobs", ["cluster", "--labels", "y", "--clusters", "2", "--init-gmm",
               "{gmm3}"], 3,
     "error: initial mixture has 3 dims, data has 2 (after any "
     "pre-filter)"),
    ("blobs", ["evaluate", "--labels", "y", "--method", "lda", "--grid",
               ","], 2, "error: empty --grid"),
    ("blobs", ["evaluate", "--labels", "y", "--method", "lda", "--folds",
               "3", "--test", "{two_class}"], 3,
     "error: train and test label sets differ"),
    ("blobs", ["cluster", "--clusters", "500"], 3,
     "error: need at least K=500 observations, got 120"),
    ("blobs", ["evaluate", "--labels", "y", "--method", "lda", "--grid",
               "1,5"], 0,
     "warning: lda grid point 5 failed: r must be at most K-1 = 2, got 5"),
], ids=["no-spread-evaluate-lda", "one-class-fit-opgd", "one-class-fit-rda",
        "one-class-fit-save", "one-class-fit-lda", "one-class-features",
        "one-class-evaluate", "constant-cluster", "constant-cluster-pca",
        "constant-cluster-init-gmm", "fold-without-class-evaluate",
        "split-with-one-row-of-class-evaluate", "no-feature-columns",
        "truncated-array-block", "unknown-model-type", "no-labels-line",
        "predict-with-a-mixture",
        "fit-without-labels", "features-without-labels",
        "evaluate-without-labels", "init-gmm-not-a-mixture",
        "init-gmm-other-dims", "empty-grid", "test-label-sets-differ",
        "more-clusters-than-rows", "failed-grid-point-warns"])
def test_failure_ends_with_the_code_of_its_cause(tmp_path, capsys, data,
                                                 argv, rc, line):
    """A named failure ends a run with the exit code of its cause and one
    ``error:`` line naming it, after any ``warning:`` lines, with no
    traceback and no output, manifest or temporary file left behind: one
    class is a data error for every classifier, a table where no column
    varies is one for ``cluster`` on every path, a training part without
    a class is one before any fit, and a fully failed grid ends with the
    code its failures share. A grid point that fails leaves a
    ``warning:`` line, and the run goes on to exit 0."""
    files = _failure_files(tmp_path)
    argv = [arg.format(**files) for arg in argv]
    out = tmp_path / "out"
    assert _main_as_console([argv[0], "--data", files[data], *argv[1:],
                             "--out", str(out)]) == rc
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert all(ln.startswith("warning: ") for ln in lines[:-1])
    assert lines[-1].startswith(line.format(**files))
    assert out.exists() == (rc == 0)
    assert (tmp_path / "out.manifest").exists() == (rc == 0)
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".opgd-tmp")]


def test_class_model_has_no_model_file():
    """The class model is a mixture, but only a fitted mixture has a
    model file."""
    ds = Dataset(np.random.default_rng(22).standard_normal((10, 2)),
                 np.repeat([1, 2], 5))
    with pytest.raises(ConfigError,
                       match="cannot serialize GaussianClassModel"):
        serialize_model(estimate_class_model(ds))


def test_ridge_warning_prints_once_per_run(tmp_path, capsys):
    """A run that meets singular covariances in many fits prints one
    ridge warning, and so does a second run in the same process."""
    data = _write(tmp_path / "d.csv", _COLLINEAR)
    for run in range(2):
        assert _main_as_console(["evaluate", "--data", data, "--labels", "y",
                                 "--method", "rda,lda",
                                 "--out", str(tmp_path / f"e{run}")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["warning: singular covariance; adding ridge "
                         "1e-8 * max(trace, 1) / d to its diagonal to keep "
                         "the discriminant defined"]


# classes named by words, the last of which has two rows
_NAMED_PAIR_CLASS = _table("a,b,y", _rng.standard_normal((22, 2)),
                           ["setosa", "virginica"] * 10 + ["zz", "zz"])
_NAMED_GROUPED = _table("a,b,g,y", np.column_stack(
    [_rng.standard_normal((30, 2)), np.repeat([1, 2, 3], 10)]),
    ["setosa", "virginica"] * 10 + ["zz"] * 10)


@pytest.mark.parametrize("table, argv, error", [
    (_NAMED_PAIR_CLASS, ["evaluate", "--method", "rda"],
     "error: every grid point failed: class zz has 1 observation(s)"),
    (_NAMED_PAIR_CLASS, ["evaluate", "--method", "save", "--grid", "1"],
     "error: every grid point failed: class zz has 1 observation(s)"),
    (_NAMED_GROUPED, ["evaluate", "--method", "rda", "--folds", "3",
                      "--group", "g"],
     "error: the training rows of fold 0 hold no observation of class zz"),
    (_NAMED_PAIR_CLASS.replace(",zz\n", ",setosa\n", 1), ["fit"],
     "error: class zz has 1 observation(s)"),
], ids=["split-rda", "split-save", "folds", "fit"])
def test_errors_name_a_class_by_its_label(tmp_path, capsys, table, argv,
                                          error):
    """A class with too few rows, or missing from a training part, is
    named by its label, not by its id."""
    data = _write(tmp_path / "d.csv", table)
    assert main([argv[0], "--data", data, "--labels", "y", *argv[1:],
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines()[-1].startswith(error)


@st.composite
def _degenerate_tables(draw):
    """Small labeled tables with duplicate rows, constant or collinear
    columns, 1-4 classes, classes of one row, at a scale of 1e-8, 1 or
    1e8."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n = sum(sizes)
    X = draw(arrays(float, (n, 2),
                    elements=st.sampled_from([-1.0, 0.0, 1.0, 2.5])))
    third = draw(st.sampled_from(["constant", "collinear", "free"]))
    if third == "constant":
        extra = np.full(n, 3.0)
    elif third == "collinear":
        extra = X[:, 0] - 2.0 * X[:, 1]
    else:
        extra = draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    scale = draw(st.sampled_from([1e-8, 1.0, 1e8]))
    X = np.column_stack([X, extra]) * scale
    return _table("a,b,c,y", X, np.repeat(np.arange(1, len(sizes) + 1),
                                          sizes))


_PROPERTY_CALLS = [
    *(["fit", "--labels", "y", "--method", method, "--dim", "1",
       "--max-iters", "20"] for method in ("opgd", "lda", "rda", "save")),
    ["features", "--labels", "y", "--dim", "1", "--max-iters", "20"],
    ["cluster", "--labels", "y", "--clusters", "2", "--dim", "1",
     "--max-iters", "20"],
    ["cluster", "--labels", "y", "--clusters", "2", "--dim", "1",
     "--max-iters", "20", "--pca-threshold", "0.99"],
    ["evaluate", "--labels", "y", "--method", "opgd,lda,rda,save",
     "--max-iters", "20"],
]


@settings(max_examples=20, deadline=None)
@given(table=_degenerate_tables())
def test_degenerate_tables_end_in_a_named_exit(tmp_path_factory, table):
    """Every command on a small degenerate table exits 0, 2, 3 or 4,
    with only ``warning:`` lines on stderr and at most one ``error:``
    line after them, which holds no text of a numpy exception."""
    directory = tmp_path_factory.mktemp("degenerate")
    data = _write(directory / "d.csv", table)
    for argv in _PROPERTY_CALLS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = _main_as_console([argv[0], "--data", data, *argv[1:],
                                   "--out", str(directory / "out")])
        lines = err.getvalue().splitlines()
        assert rc in (0, 2, 3, 4), (argv, lines)
        assert "Traceback" not in err.getvalue()
        if rc:
            assert lines[-1].startswith("error: "), (argv, lines)
            assert not any(text in lines[-1] for text in _NUMPY_TEXT)
            lines = lines[:-1]
        assert all(line.startswith("warning: ") for line in lines), \
            (argv, lines)


def test_no_scipy_at_run_time(tmp_path):
    """A fresh interpreter that fits, predicts and clusters through the
    CLI never imports scipy, nor ``numpy.ma``, which numpy's first
    ``unique`` of a process imports."""
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
              "             if m.split('.')[0] == 'scipy'\n"
              "             or m.split('.')[:2] == ['numpy', 'ma']))\n")
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


@pytest.mark.parametrize("header, test_header, argv, line", [
    ("a,a,y", "a,a,y", ["--folds", "3", "--test", "{test}"],
     "error: {test}: the header holds 'a' more than once"),
    ("a,a,y", "a,b,y", ["--folds", "3", "--test", "{test}"],
     "error: {test}: the feature columns name 'a' twice"),
    ("a,g,g,y", None, ["--folds", "3", "--group", "g"],
     "error: {data}: the header holds 'g' more than once"),
    ("a,y,y", None, [],
     "error: {data}: the header holds 'y' more than once"),
], ids=["test-header", "test-feature-list", "group", "labels"])
def test_a_column_looked_up_by_a_name_held_twice_is_a_data_error(
        tmp_path, capsys, header, test_header, argv, line):
    """A name looked up in a header that holds it twice, or a list of
    feature columns that names a column twice, is a data error naming
    the column: the first copy is not used in silence."""
    rng = np.random.default_rng(22)
    y = np.repeat([1, 2, 3], 20)
    width = header.count(",")
    # every copy of a column holds what its name says
    cells = {"a": rng.standard_normal(60), "g": np.arange(60) % 4, "y": y}
    files = {"data": _write(tmp_path / "d.csv", _table(
        header, np.column_stack([cells[c] for c in header.split(",")[:-1]]),
        y))}
    if test_header is not None:
        files["test"] = _write(tmp_path / "t.csv", _table(
            test_header, rng.standard_normal((60, width)), y))
    out = tmp_path / "out"
    rc = main(["evaluate", "--data", files["data"], "--labels", "y",
               "--method", "lda", *[a.format(**files) for a in argv],
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == line.format(**files) + "\n"
    assert not out.exists()
