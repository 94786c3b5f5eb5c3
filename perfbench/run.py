"""Benchmark of the ``opgd`` command line on seeded synthetic workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 \
        --trace 0

``--trace 0`` times the workload's CLI calls and prints the end-to-end
metrics; ``--trace 1`` runs the calls again with every layer's public
functions wrapped in timing spans and prints the per-layer metrics.
Metric names, units and directions are those of ``BENCHMARK.json``.
Human-readable lines come first; the last line of standard output is
the JSON result. The exit code is 0 when every correctness check
passed, 1 when one failed and 2 when the benchmark could not run.

Each set-up and each pass runs in a fresh Python process, with BLAS
pinned to one thread: ``SETUP_REPEATS`` set-ups (import plus data
generation, whose median is ``setup_s``), then the passes, each one
process that imports the program and runs the workload's CLI calls.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_REPEATS = 3
# The median of fewer passes than this is too easily moved by one slow one.
MIN_PASSES = 3
# The whole run, set-ups included, must end well within 180 s.
DEADLINE_S = 170.0
BLAS_THREADS = "1"
# Per-layer metrics in these units repeat exactly between traced passes.
EXACT_UNITS = {"count", "MB", "ratio"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(role, args, deadline, **options):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    argv = [sys.executable, WORKER, role, "--workload", args.workload]
    for key, value in options.items():
        argv += [f"--{key}", str(value)]
    remaining = deadline - time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} did not finish within the deadline") \
            from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def _command_medians(passes):
    seconds = {}
    for p in passes:
        for call in p["calls"]:
            seconds.setdefault(call["command"], []).append(call["seconds"])
    return {command: _median(v) for command, v in seconds.items()}


def end_to_end(setups, result):
    passes = result["passes"]
    return {"setup_s": _median([s["setup_s"] for s in setups]),
            "wall_s": _median([p["wall_s"] for p in passes]),
            "peak_rss_mb": result["peak_rss_mb"]}


def per_layer(result):
    """Per-layer values from the traced passes, and the problems found.

    Counts must repeat exactly between traced passes; times are medians.
    """
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    values, problems = {}, []
    for name in traced[0]["layers"]:
        series = [p["layers"][name] for p in traced]
        if unit_of(name) in EXACT_UNITS:
            if len(set(series)) > 1:
                problems.append(f"{name} differs between traced passes: "
                                f"{series}")
            values[name] = series[0]
        else:
            values[name] = _median(series)
    commands = _command_medians(untraced)
    for command in ("fit", "predict", "cluster", "evaluate"):
        values[f"cli.{command}_s"] = commands.get(command, 0.0)
    values["trace.overhead_pct"] = 100.0 * (
        _median([p["wall_s"] for p in traced])
        / _median([p["wall_s"] for p in untraced]) - 1.0)
    for name in ("test_error", "fit_loglik", "ari_enhanced", "nmi_enhanced",
                 "matched_error", "eval_test_error"):
        values[f"quality.{name}"] = result["quality"].get(name, 0.0)
    return values, problems


def _print_lines(args, spec_metrics, values, result, setups, failures,
                 failed, attempted):
    passes = result["passes"]
    print(f"workload\t{args.workload}\tseed\t{args.seed}\ttrace\t{args.trace}"
          f"\tpasses\t{len(passes)}\tset-ups\t{len(setups)}")
    for m in spec_metrics:
        print(f"{m['name']}\t{values[m['name']]!r}\t{m['unit']}"
              f"\t{m['better']} is better")
    named = {m["name"] for m in spec_metrics}
    for name in sorted(set(values) - named):
        print(f"{name}\t{values[name]!r}\t{unit_of(name)}\t"
              "not in the JSON: reads 0 where the layer is not reached")
    print("pass_wall_s\t" + " ".join(
        f"{'T' if p['traced'] else 'U'}{p['wall_s']:.3f}" for p in passes))
    if not args.trace:
        for command, seconds in _command_medians(passes).items():
            print(f"{command}_s\t{seconds!r}\ts\tmedian of {len(passes)} "
                  "untraced passes")
        for name, value in sorted(result["quality"].items()):
            print(f"{name}\t{value!r}")
    print(f"fail_rate\t{failed / attempted!r}\t"
          f"({failed} of {attempted} calls failed a check)")
    for problem in failures:
        print(f"failed\t{problem}")
    print("env\t" + json.dumps(result["env"], sort_keys=True))


def _traced_pass(done):
    """Trace schedule: untraced, traced, traced, then untraced/traced
    pairs, so both kinds have a median."""
    return done in (1, 2) or (done > 2 and done % 2 == 0)


def run_passes(args, run_dir, deadline):
    """Fresh-process passes while the next still fits in ``--seconds``,
    and at least ``MIN_PASSES``. Every pass must write the bytes the first
    one wrote."""
    passes, lengths = [], []
    t_start = time.monotonic()
    while len(passes) < MIN_PASSES or \
            time.monotonic() - t_start + max(lengths) <= args.seconds:
        traced = int(bool(args.trace) and _traced_pass(len(passes)))
        t0 = time.monotonic()
        record = _child("pass", args, deadline, dir=run_dir, traced=traced)
        lengths.append(time.monotonic() - t0)
        for call, first in zip(record["calls"],
                               (passes or [record])[0]["calls"]):
            if call["digest"] != first["digest"]:
                call["problems"].append("outputs differ from the first "
                                        "pass's bytes")
        passes.append(record)
    return {"passes": passes, "quality": passes[0]["quality"],
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
            "env": passes[0]["env"]}


def run(args, spec, run_dir):
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for i in range(SETUP_REPEATS if not args.trace else 1):
        directory = os.path.join(run_dir, f"setup{i}")
        os.makedirs(directory)
        setups.append(_child("setup", args, deadline, seed=args.seed,
                             dir=directory))
    with open(os.path.join(run_dir, "files.json"), "w",
              encoding="utf-8") as fh:
        json.dump(setups[0]["files"], fh)
    result = run_passes(args, run_dir, deadline)

    calls = [(i, c) for i, p in enumerate(result["passes"])
             for c in p["calls"]]
    attempted = len(calls)
    failed = sum(bool(c["problems"]) for _, c in calls)
    failures = [f"pass {i} {c['command']}: {problem}"
                for i, c in calls for problem in c["problems"]]
    if any(s["sha256"] != setups[0]["sha256"] for s in setups):
        failures.append("set-up: one seed gave different input bytes")
        failed += 1

    if args.trace:
        spec_metrics = spec["per_layer"]
        values, problems = per_layer(result)
        failures += [f"trace: {problem}" for problem in problems]
        failed += bool(problems)
    else:
        spec_metrics = spec["end_to_end"]
        values = end_to_end(setups, result)
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {missing}")

    _print_lines(args, spec_metrics, values, result, setups, failures,
                 failed, attempted)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }))
    return 0 if not failures else 1


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "opgd", "cli.py")):
        print(f"error: no opgd source tree under {ROOT}/src", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                               dir=work)
    try:
        return run(args, spec, run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
