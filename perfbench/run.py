"""Benchmark of the helmdd pipeline: time to a verified solution, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload deltak_dense_n64 --seed 0 --seconds 30 --trace 0

One invocation runs one workload (see ``pipeline.WORKLOADS``) in this
process only, so the peak RSS belongs to that workload.  The workload is
repeated from scratch (fresh mesh and eigen cache) for about ``--seconds``
seconds and times are the medians over repetitions; the set-up is repeated
at least three times.  BLAS runs on one thread (see ``BLAS_ENV``).
``--trace 0`` reports the end-to-end metrics with only the benchmark's own
stage spans; ``--trace 1`` alternates untraced and traced repetitions and
reports per-layer metrics from the traced ones plus the tracing overhead.  Every solution is checked against a sparse direct
solve after the timed work, and iterations and coarse dimension against the
references of the workload.  The last line of standard output is one JSON
object; the full record, with the environment and the spans, goes to
``perfbench/results/``.  The exit code is 1 when any check fails.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
MIN_SETUPS = 3
# One BLAS thread, set before numpy loads: the library runs single-threaded
# by default (workers=1), and on a 2-core machine two OpenBLAS threads made
# every workload slower and its run-to-run spread several times wider.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"time_to_solution_s": "s", "setup_s": "s", "solve_s": "s",
                    "iterations": "count", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name.endswith("_ratio") else "count"


def import_helmdd():
    """Import helmdd from this checkout's ``src``, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import helmdd
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import helmdd from {SRC}: {exc}")
    if Path(helmdd.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: helmdd was imported from {helmdd.__file__}, "
                         f"not from {SRC}")


def _blas_threads(numpy):
    """OpenBLAS thread count of numpy's bundled BLAS, or None when unknown."""
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workers):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(numpy),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "workers": workers}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds positive")
    return args


def measure(pipeline, workload, nodal, seconds, trace):
    """Repeat the workload for about ``seconds``; returns the repetition
    records and the peak RSS in MB after the first repetition.

    The repetition count is fixed after the first one (``seconds`` divided by
    its time, rounded), so every run of a workload does the same work.  In
    trace mode odd repetitions are traced and at least two are made.
    """
    reps = []
    target = 1
    while len(reps) < target:
        traced = trace == 1 and len(reps) % 2 == 1
        tracer, configs, instance = pipeline.run_rep(workload, nodal, traced=traced)
        tts, setup, solve = pipeline.rep_times(tracer)
        reps.append({"traced": traced, "tracer": tracer, "configs": configs,
                     "instance": instance, "tts": tts, "setup": setup, "solve": solve})
        if len(reps) == 1:
            target = max(2 if trace else 1, round(seconds / tts))
            # later repetitions reuse a heap the first one grew, so the peak
            # is taken after the first, whatever the repetition count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            # the output check solves the first repetition's system only
            del instance["B"], instance["rhs"]
        print(f"rep {len(reps)}/{target}{' traced' if traced else ''}: "
              f"time_to_solution {tts:.3f} s, setup {setup:.3f} s, solve {solve:.3f} s",
              flush=True)
    return reps, peak_rss_mb


def check(pipeline, workload, seed, reps):
    """Output checks of every repetition, after all timed work.

    Returns ``(attempted, failed, problems)``: configurations checked, those
    that failed, and one message per problem found.
    """
    problems = []
    attempted = failed = 0
    reference = None
    first = [(c["iterations"], c["cs"]) for c in reps[0]["configs"]]
    for n, rep in enumerate(reps, 1):
        failures, reference = pipeline.check_configs(
            workload, seed, rep["configs"], reps[0]["instance"], reference)
        attempted += len(failures)
        failed += sum(1 for f in failures if f)
        for c, msgs in zip(rep["configs"], failures):
            problems += [f"rep {n} tau={c['tau']:g}: {m}" for m in msgs]
        if [(c["iterations"], c["cs"]) for c in rep["configs"]] != first:
            problems.append(f"rep {n}: iterations or coarse dimension differ from rep 1")
    return attempted, failed, problems


def per_layer(pipeline, traced, untraced_tts):
    """Medians of the per-layer metrics over traced repetitions.

    Returns ``(metrics, self time by layer, problems)``; a count that differs
    between repetitions is a problem.
    """
    med = statistics.median
    problems = []
    per_rep = [pipeline.layer_metrics(r["tracer"], r["instance"]) for r in traced]
    metrics = {}
    for name in per_rep[0]:
        values = [m[name] for m in per_rep]
        if name in pipeline.COUNT_METRICS:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between repetitions: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = med(values)
    metrics["trace.overhead_s"] = med(r["tts"] for r in traced) - untraced_tts
    selfs = [pipeline.layer_self_times(r["tracer"]) for r in traced]
    self_by_layer = {k: med(s[k] for s in selfs) for k in selfs[0]}
    return metrics, self_by_layer, problems


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)
    import_helmdd()
    import pipeline

    workload = pipeline.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(pipeline.WORKLOADS)}")
    env = environment(pipeline.WORKERS)
    print(f"helmdd benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env))

    nodal = pipeline.make_inputs(workload, args.seed)
    reps, peak_rss_mb = measure(pipeline, workload, nodal, args.seconds, args.trace)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    setups = [r["setup"] for r in untraced]
    while args.trace == 0 and len(setups) < MIN_SETUPS:
        tracer, _, _ = pipeline.run_rep(workload, nodal, solve=False)
        setups.append(pipeline.rep_times(tracer)[1])

    attempted, failed, problems = check(pipeline, workload, args.seed, reps)
    first = reps[0]["configs"]
    for c in first:
        print(f"tau={c['tau']:g}: iterations={c['iterations']} CS={c['cs']} "
              f"relres={c['relres']} distance_to_direct={c.get('rel_error')}")

    med = statistics.median
    end_to_end = {
        "time_to_solution_s": med(r["tts"] for r in untraced),
        "setup_s": med(setups),
        "solve_s": med(r["solve"] for r in untraced),
        "iterations": sum(c["iterations"] or 0 for c in first),
        "peak_rss_mb": peak_rss_mb,
    }
    # coarse_dim is 0 for one_level and failed_share 0 when all is well, so
    # neither can carry a relative bound; the output check pins both
    shown = dict(end_to_end, coarse_dim=sum(c["cs"] for c in first),
                 failed_share=failed / attempted)
    units = dict(END_TO_END_UNITS, coarse_dim="count", failed_share="share")
    print(f"end-to-end, medians of {len(untraced)} repetitions "
          f"({len(setups)} set-ups), {len(first)} configuration(s) each:")
    for name, value in shown.items():
        print(f"  {name:<20} {value:>14.6g} {units[name]}")

    layers, self_by_layer = {}, {}
    if traced:
        layers, self_by_layer, count_problems = per_layer(
            pipeline, traced, end_to_end["time_to_solution_s"])
        problems += count_problems
        print(f"per layer, medians of {len(traced)} traced repetitions:")
        for name, value in layers.items():
            print(f"  {name:<30} {value:>14.6g} {layer_unit(name)}")
        print("self time by layer (s): " + ", ".join(
            f"{k}={v:.3f}" for k, v in sorted(self_by_layer.items(), key=lambda kv: -kv[1])))

    correct = not problems
    for p in problems:
        print(f"CHECK FAILED: {p}")
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "correct": correct,
              "problems": problems, "attempted": attempted, "failed": failed,
              "end_to_end": shown, "per_layer": layers, "self_by_layer": self_by_layer,
              "repetitions": [{"traced": r["traced"], "time_to_solution_s": r["tts"],
                               "setup_s": r["setup"], "solve_s": r["solve"]} for r in reps],
              "setups_s": setups,
              "configs": [{k: c.get(k) for k in ("tau", "iterations", "cs", "converged",
                                                 "relres", "rel_error", "error")}
                          for c in first],
              "spans": [r["tracer"].spans for r in traced]}
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float))
    print(f"record written to {out.relative_to(HERE.parent)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
