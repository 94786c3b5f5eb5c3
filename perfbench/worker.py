"""One benchmark process: set a workload up, or run its CLI calls.

``run.py`` starts each set-up and each pass in a fresh process, as a
user starts the CLI, with the BLAS thread count pinned in the
environment:

    python3 perfbench/worker.py setup --workload W --seed N --dir D
    python3 perfbench/worker.py pass  --workload W --dir D [--traced 1]

A pass calls the CLI in-process through ``opgd.cli.main``, after the
imports. The last line of standard output is one JSON object with what
the role measured.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401  (imported lazily by the CLI's calls)
import scipy.special  # noqa: E402,F401

import opgd.cli  # noqa: E402

if not os.path.abspath(opgd.cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"opgd was imported from {opgd.cli.__file__}, not from {SRC}")

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, ascents_monotone, layer_metrics  # noqa: E402


def run_pass(workload, files, out, tracer=None):
    """Run the workload's CLI calls once into ``out``, fresh."""
    shutil.rmtree(out, ignore_errors=True)
    calls = []
    for command, argv, directory in workloads.cli_calls(workload, files, out):
        os.makedirs(directory)
        captured = io.StringIO()
        span = tracer.span(f"cli.{command}") if tracer \
            else contextlib.nullcontext()
        error = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(captured), span:
            try:
                rc = opgd.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a traceback is a failed call
                rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        calls.append({"command": command, "directory": directory,
                      "seconds": seconds, "rc": rc, "error": error,
                      "stdout": captured.getvalue()})
    return calls


def check_call(workload, call, files, truth):
    """Problems with one call: exit code and the checks on its outputs."""
    if call["rc"] != 0:
        return [f"exit code {call['rc']} {call['error'] or ''}".strip()]
    out, stdout = call["directory"], call["stdout"]
    try:
        if call["command"] == "fit":
            return checks.check_fit(out, stdout, workloads.CLASSIFY_P, 3)
        if call["command"] == "predict":
            return checks.check_predict(out, stdout, truth)
        if call["command"] == "cluster":
            return checks.check_cluster(out, len(truth), workloads.CLUSTER_K)
        return checks.check_evaluate(out)
    except Exception as exc:  # unreadable output is a failed check
        return [f"output check raised {type(exc).__name__}: {exc}"]


def quality(workload, files, out, truth, stdout):
    """Result figures of the last pass; they repeat exactly per seed.

    ``stdout`` maps each command to what it printed.
    """
    if workload == "classify":
        test_error = float(
            checks.stdout_values(stdout["predict"])["test_error"])
        return {"test_error": test_error,
                "fit_loglik": checks.fit_loglik(
                    os.path.join(out, "fit", "model.opgd"), files["train"])}
    if workload == "cluster":
        metrics = checks.cluster_metrics(os.path.join(out, "cluster"))
        return {"matched_error": checks.matched_error(
                    os.path.join(out, "cluster"), truth),
                "ari_enhanced": metrics["ari_enhanced"],
                "nmi_enhanced": metrics["nmi_enhanced"]}
    return {"eval_test_error": checks.evaluate_test_error(
        os.path.join(out, "evaluate"))}


def _truth(workload, files):
    if workload == "classify":
        return checks.truth_labels(files["test"])
    return checks.truth_labels(files["data"])


def one_pass(workload, files, directory, traced):
    """Run the workload's calls once into ``directory``/out and check them.

    Returns the pass record: wall time, each call's time, problems and
    output digest, the quality figures and, when ``traced``, the
    per-layer metrics.
    """
    truth = _truth(workload, files)
    out = os.path.join(directory, "out")
    tracer = Tracer() if traced else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        calls = run_pass(workload, files, out, tracer)
    written = 0
    for call in calls:
        call["problems"] = check_call(workload, call, files, truth)
        call["digest"] = None
        if call["rc"] == 0:
            call["digest"], size = checks.digest(call["directory"])
            written += size
    record = {"traced": traced, "wall_s": sum(c["seconds"] for c in calls),
              "calls": [{k: c[k] for k in ("command", "seconds", "problems",
                                           "digest")}
                        for c in calls]}
    if tracer:
        record["layers"] = layer_metrics(tracer.spans, written)
        if not ascents_monotone(tracer.spans):
            # every workload's ascents run in its first call
            record["calls"][0]["problems"].append(
                "an ascent's accepted-value trace decreased")
    try:
        record["quality"] = quality(workload, files, out, truth,
                                    {c["command"]: c["stdout"] for c in calls})
    except Exception as exc:  # missing or malformed outputs, already failed
        record["quality"] = {}
        record["calls"][-1]["problems"].append(
            f"quality figures unreadable: {type(exc).__name__}: {exc}")
    return record


def _blas_threads():
    """Threads the bundled OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": _blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "pass"))
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.role == "setup":
        files = workloads.generate(args.workload, args.seed, args.dir)
        result = {"setup_s": time.perf_counter() - START, "files": files,
                  "sha256": checks.digest(args.dir)[0]}
    else:
        with open(os.path.join(args.dir, "files.json"),
                  encoding="utf-8") as fh:
            files = json.load(fh)
        result = one_pass(args.workload, files, args.dir, bool(args.traced))
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
