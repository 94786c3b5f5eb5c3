"""Spans around the calls into each layer of ``opgd``, and the per-layer
metrics computed from them.

The tracer replaces public functions through the module attributes the
callers look them up in (``opgd.optimizer.classification_log_likelihood``,
``opgd.clustering.ascend``, ...) with timing wrappers, and puts every
original back on exit. No file of the program changes. Each wrapper
records a span (name, call site, start, end, parent) plus a few counts
taken at the boundary, such as the accepted-value trace ``ascend``
returns. A layer's self time is the time its spans cover minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("core", "objective", "optimizer", "classifier", "clustering",
          "evaluation", "cli")

_FITS = ("fit_opgd", "lda_fit", "rda_fit", "save_fit")
_PREDICTS = ("opgd_predict", "lda_predict", "rda_predict", "save_predict")


def _classifier_name(attr: str) -> str:
    return "classifier.predict" if attr == "opgd_predict" \
        else f"classifier.{attr}"


# (module whose attribute is replaced, attribute, span name). The module
# is the call site: ``opgd.optimizer.ascend`` is the supervised ascent,
# ``opgd.clustering.ascend`` the enhancement ascent.
TARGETS = (
    [("opgd.cli", "ingest_csv", "cli.ingest_csv"),
     ("opgd.cli", "serialize_model", "cli.serialize_model"),
     ("opgd.cli", "parse_model", "cli.parse_model"),
     ("opgd.cli", "write_manifest", "cli.write_manifest"),
     ("opgd.cli", "grid_search", "evaluation.grid_search"),
     ("opgd.cli", "estimate_class_model", "core.estimate_class_model"),
     ("opgd.cli", "fit_gmm_em", "clustering.fit_gmm_em"),
     ("opgd.cli", "enhance_gmm", "clustering.enhance_gmm"),
     ("opgd.cli", "hard_labels", "clustering.hard_labels")]
    + [(site, attr, _classifier_name(attr))
       for site in ("opgd.cli", "opgd.evaluation")
       for attr in _FITS + _PREDICTS]
    + [("opgd.classifier", "estimate_class_model",
        "core.estimate_class_model"),
       ("opgd.classifier", "compute_scatter", "core.compute_scatter"),
       ("opgd.classifier", "sphere", "core.sphere"),
       ("opgd.classifier", "init_projection", "optimizer.init_projection"),
       ("opgd.classifier", "maximize", "optimizer.maximize"),
       ("opgd.classifier", "order_columns", "optimizer.order_columns"),
       ("opgd.classifier", "projected_variances",
        "objective.projected_variances"),
       ("opgd.optimizer", "ascend", "optimizer.ascend"),
       ("opgd.optimizer", "classification_log_likelihood",
        "objective.classification_log_likelihood"),
       ("opgd.optimizer", "build_workspace", "objective.build_workspace"),
       ("opgd.optimizer", "grad_ell1", "objective.grad_ell1"),
       ("opgd.optimizer", "grad_ell2", "objective.grad_ell2"),
       ("opgd.clustering", "scatter_from_responsibilities",
        "core.scatter_from_responsibilities"),
       ("opgd.clustering", "init_projection", "optimizer.init_projection"),
       ("opgd.clustering", "ascend", "optimizer.ascend"),
       ("opgd.clustering", "responsibilities", "clustering.responsibilities"),
       ("opgd.clustering", "cluster_objective",
        "clustering.cluster_objective"),
       ("opgd.clustering", "grad_cluster_objective",
        "clustering.grad_cluster_objective"),
       ("opgd.clustering", "log_densities", "objective.log_densities"),
       ("opgd.clustering", "projected_variances",
        "objective.projected_variances")]
)

# ``opgd.cli`` also reaches the predictors through this table, which
# holds the function objects captured at import.
_PREDICTOR_TABLE = ("opgd.cli", "_PREDICTORS")


@dataclass
class Span:
    name: str
    site: str
    start: float
    parent: int | None
    end: float = float("nan")
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``installed()`` patches the targets."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, site: str = ""):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, site, time.perf_counter(), parent)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, site: str):
        call = _CALLS.get(name.rsplit(".", 1)[1], _plain_call)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, site) as sp:
                return call(fn, sp, args, kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, module_name))
            module = importlib.import_module(_PREDICTOR_TABLE[0])
            table = getattr(module, _PREDICTOR_TABLE[1])
            original_table = dict(table)
            table.update({
                tag: self._wrap(fn, _classifier_name(f"{tag}_predict"),
                                _PREDICTOR_TABLE[0])
                for tag, fn in original_table.items()})
            try:
                yield self
            finally:
                table.clear()
                table.update(original_table)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _plain_call(fn, sp, args, kwargs):
    return fn(*args, **kwargs)


def _ingest_call(fn, sp, args, kwargs):
    result = fn(*args, **kwargs)
    sp.info["bytes"] = os.path.getsize(args[0])
    return result


def _ascend_call(fn, sp, args, kwargs):
    value_fn, grad_fn, V0, config = args[:4]
    counts = {"value_calls": 0, "grad_calls": 0, "values_since_grad": 0,
              "value_s": 0.0, "grad_s": 0.0}

    def value(V):
        counts["value_calls"] += 1
        counts["values_since_grad"] += 1
        t0 = time.perf_counter()
        try:
            return value_fn(V)
        finally:
            counts["value_s"] += time.perf_counter() - t0

    def grad(V):
        counts["grad_calls"] += 1
        counts["values_since_grad"] = 0
        t0 = time.perf_counter()
        try:
            return grad_fn(V)
        finally:
            counts["grad_s"] += time.perf_counter() - t0

    V, trace = fn(value, grad, V0, config, *args[4:], **kwargs)
    sp.info.update(counts)
    sp.info["steps"] = len(trace) - 1
    sp.info["monotone"] = bool(np.all(np.diff(trace) >= 0.0))
    # The loop leaves right after a gradient only by the tolerance test;
    # before its last iteration only by a failed line search.
    if counts["values_since_grad"] == 0:
        sp.info["stop"] = "tolerance"
    elif counts["grad_calls"] < config.max_iters:
        sp.info["stop"] = "stalled"
    else:
        sp.info["stop"] = "cap"
    return V, trace


def _em_call(fn, sp, args, kwargs):
    wanted = kwargs.pop("return_trace", False)
    model, trace = fn(*args, return_trace=True, **kwargs)
    sp.info["iters"] = len(trace) - 1
    return (model, trace) if wanted else model


def _grid_call(fn, sp, args, kwargs):
    result = fn(*args, **kwargs)
    sp.info["failures"] = len(result.failures)
    return result


_CALLS = {"ingest_csv": _ingest_call, "ascend": _ascend_call,
          "fit_gmm_em": _em_call, "grid_search": _grid_call}


# ---------------------------------------------------------------------------
# Per-layer metrics

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [sp.duration for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            own[sp.parent] -= sp.duration
    return own


def _has_ancestor(spans, sp, name):
    while sp.parent is not None:
        sp = spans[sp.parent]
        if sp.name == name:
            return True
    return False


def _stops(ascents, reason):
    return sum(sp.info.get("stop") == reason for sp in ascents)


def _info_sum(spans, key):
    """Sum of a boundary count; a call that raised recorded none."""
    return sum(sp.info.get(key, 0) for sp in spans)


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    for suffix, unit in (("_ms_per_call", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_pct", "%"), ("_per_step", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_metrics(spans: list[Span], written_bytes: int = 0) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name.

    Every key is present whatever the workload; a layer the pass did not
    reach reports 0. ``objective.*`` calls are the value and gradient
    evaluations the ascents ask for: the supervised likelihood on
    ``classify`` and ``evaluate``, the clustering objective on
    ``cluster``.
    """
    own = self_times(spans)

    def pick(*names, site=None):
        return [sp for sp in spans if sp.name in names
                and (site is None or sp.site == site)]

    def total(*names, site=None):
        return float(sum(sp.duration for sp in pick(*names, site=site)))

    def per_call_ms(seconds, calls):
        return 1000.0 * seconds / calls if calls else 0.0

    ascents = pick("optimizer.ascend")
    value_calls = _info_sum(ascents, "value_calls")
    grad_calls = _info_sum(ascents, "grad_calls")
    grad_s = float(_info_sum(ascents, "grad_s"))
    sup = pick("optimizer.ascend", site="opgd.optimizer")
    enh = pick("optimizer.ascend", site="opgd.clustering")
    steps = _info_sum(sup, "steps")
    sup_values = _info_sum(sup, "value_calls")
    m = {
        "core.estimate_s": total(
            "core.estimate_class_model", "core.compute_scatter",
            "core.scatter_from_responsibilities", "core.sphere"),
        "objective.value_calls": value_calls,
        "objective.value_ms_per_call": per_call_ms(
            _info_sum(ascents, "value_s"), value_calls),
        "objective.grad_calls": grad_calls,
        "objective.grad_ms_per_call": per_call_ms(grad_s, grad_calls),
        "objective.grad_s": grad_s,
        "optimizer.init_s": total("optimizer.init_projection"),
        "optimizer.ascend_s": total("optimizer.ascend"),
        "optimizer.accepted_steps": steps,
        "optimizer.value_evals_per_step":
            sup_values / steps if steps else 0.0,
        "optimizer.hit_cap": _stops(sup, "cap"),
        "optimizer.stalled": _stops(sup, "stalled"),
        "optimizer.order_s": total("optimizer.order_columns"),
        "optimizer.order_value_calls": sum(
            _has_ancestor(spans, sp, "optimizer.order_columns")
            for sp in pick("objective.classification_log_likelihood")),
        "classifier.fit_opgd_s": total("classifier.fit_opgd"),
        "classifier.predict_s": total("classifier.predict"),
        "classifier.baseline_fit_s": total(
            "classifier.lda_fit", "classifier.rda_fit", "classifier.save_fit"),
        "classifier.baseline_predict_s": total(
            "classifier.lda_predict", "classifier.rda_predict",
            "classifier.save_predict"),
        "clustering.em_s": total("clustering.fit_gmm_em"),
        "clustering.em_iters": _info_sum(pick("clustering.fit_gmm_em"),
                                         "iters"),
        "clustering.enhance_s": total("clustering.enhance_gmm"),
        "clustering.enhance_steps": _info_sum(enh, "steps"),
        "clustering.enhance_value_calls":
            len(pick("clustering.cluster_objective")),
        "clustering.enhance_grad_calls":
            len(pick("clustering.grad_cluster_objective")),
        "clustering.enhance_hit_cap": _stops(enh, "cap"),
        "clustering.enhance_stalled": _stops(enh, "stalled"),
        "clustering.responsibilities_s": total("clustering.responsibilities"),
        "evaluation.grid_search_s": total("evaluation.grid_search"),
        "evaluation.fits": len([sp for sp in spans
                                if sp.site == "opgd.evaluation"
                                and sp.name.rsplit(".", 1)[1] in _FITS]),
        "evaluation.grid_failures": _info_sum(
            pick("evaluation.grid_search"), "failures"),
        "cli.ingest_s": total("cli.ingest_csv"),
        "cli.ingest_mb": _info_sum(pick("cli.ingest_csv"), "bytes") / 1e6,
        "cli.serialize_s": total("cli.serialize_model", "cli.parse_model",
                                 "cli.write_manifest"),
        "cli.write_mb": written_bytes / 1e6,
        "cli.self_s": float(sum(own[i] for i, sp in enumerate(spans)
                                if sp.parent is None)),
    }
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_s"] = float(sum(
            own[i] for i, sp in enumerate(spans) if sp.layer == layer))
    return m


def ascents_monotone(spans: list[Span]) -> bool:
    """True when every accepted-value trace seen by ``ascend`` is
    non-decreasing."""
    return all(sp.info.get("monotone", True) for sp in spans
               if sp.name == "optimizer.ascend")
