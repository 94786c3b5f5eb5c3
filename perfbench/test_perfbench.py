"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They check the input generator, the tracer, the correctness checks and
the shape of the result; they time nothing.
"""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import TARGETS, Tracer, layer_metrics, self_times, \
    unit_of  # noqa: E402

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")
with open(SPEC_PATH, encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bytes(files):
    out = {}
    for role, path in files.items():
        with open(path, "rb") as fh:
            out[role] = fh.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seeded(tmp_path, workload):
    written = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        os.makedirs(tmp_path / name)
        written[name] = _bytes(workloads.generate(workload, seed,
                                                  str(tmp_path / name)))
    assert written["a"] == written["b"]
    for role, data in written["a"].items():
        assert data != written["c"][role]
        assert data.split(b"\n", 1)[0].split(b",")[-1] == b"y"


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in SPEC[kind]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} \
        in SPEC["end_to_end"]
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        if not m["name"].startswith("quality."):
            assert m["unit"] == unit_of(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert 1 <= SPEC["run_seconds"] <= 60
    assert os.path.getsize(SPEC_PATH) <= 64 * 1024


def _fake_child(problems_in_pass=None):
    """Stands in for the worker processes: a set-up, then passes."""
    done = []

    def child(role, args, deadline, **options):
        if role == "setup":
            return {"setup_s": 0.5, "files": {}, "sha256": "x"}
        done.append(role)
        traced = bool(options["traced"])
        return {"traced": traced, "wall_s": float(len(done)),
                "calls": [{"command": "evaluate", "seconds": 1.0,
                           "digest": "d",
                           "problems": ["exit code 4"]
                           if len(done) == problems_in_pass else []}],
                **({"layers": layer_metrics([])} if traced else {}),
                "quality": {"eval_test_error": 0.25},
                "peak_rss_mb": 50.0, "env": {}}
    return child


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tmp_path, monkeypatch, capsys,
                                               trace):
    monkeypatch.setattr(run, "_child", _fake_child())
    args = SimpleNamespace(workload="evaluate", seed=1, seconds=0.0,
                           trace=trace)
    assert run.run(args, SPEC, str(tmp_path)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == run.MIN_PASSES
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert any(line.startswith(f"{m['name']}\t") and
                   line.endswith(f"\t{m['better']} is better")
                   for line in lines)


def test_a_failed_check_makes_the_run_incorrect(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.setattr(run, "_child", _fake_child(problems_in_pass=2))
    args = SimpleNamespace(workload="evaluate", seed=1, seconds=0.0, trace=0)
    assert run.run(args, SPEC, str(tmp_path)) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_traced_counts_repeat_and_tracer_restores(tmp_path):
    import opgd.cli
    import opgd.optimizer

    files = workloads.generate("evaluate", 3, str(tmp_path))
    def targets():
        return [getattr(importlib.import_module(mod), attr)
                for mod, attr, _ in TARGETS]

    originals = targets()
    predictors = dict(opgd.cli._PREDICTORS)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            calls = worker.run_pass("evaluate", files,
                                    str(tmp_path / "out"), tracer)
        assert [c["rc"] for c in calls] == [0]
        metrics = layer_metrics(tracer.spans)
        counts.append({k: v for k, v in metrics.items()
                       if unit_of(k) in run.EXACT_UNITS})
        # self times partition the command span
        command = tracer.spans[0]
        assert command.name == "cli.evaluate" and command.parent is None
        assert sum(self_times(tracer.spans)) == pytest.approx(
            command.duration, rel=1e-9)
        assert all(sp.info["monotone"] for sp in tracer.spans
                   if sp.name == "optimizer.ascend")
    assert counts[0] == counts[1]
    assert counts[0]["evaluation.fits"] > 30
    assert counts[0]["objective.value_calls"] > 0
    assert targets() == originals
    assert opgd.cli._PREDICTORS == predictors
    assert opgd.optimizer.ascend.__module__ == "opgd.optimizer"


def test_predict_check_rejects_posteriors_not_summing_to_one(tmp_path):
    table = ["# manifest\tabc", "label\tp_1\tp_2", "1\t0.75\t0.25",
             "2\t0.5\t0.6"]
    (tmp_path / "predictions.tsv").write_text("\n".join(table) + "\n")
    problems = checks.check_predict(str(tmp_path), "test_error\t0.0\n",
                                    ["1", "2"])
    assert any("summing to 1" in p for p in problems)
    table[3] = "2\t0.4\t0.6"
    (tmp_path / "predictions.tsv").write_text("\n".join(table) + "\n")
    assert checks.check_predict(str(tmp_path), "test_error\t0.0\n",
                                ["1", "2"]) == []
    assert checks.check_predict(str(tmp_path), "test_error\t0.5\n",
                                ["1", "2"])


def test_matched_error_ignores_cluster_numbering(tmp_path):
    rows = ["# manifest\tabc", "cluster", "2", "2", "1", "1", "1"]
    (tmp_path / "clusters.tsv").write_text("\n".join(rows) + "\n")
    truth = ["a", "a", "b", "b", "a"]
    assert checks.matched_error(str(tmp_path), truth) == pytest.approx(0.2)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evaluate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
