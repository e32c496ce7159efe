"""Tests of the benchmark itself, on instances small enough to run in seconds.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import helmdd.eigencoarse as eigencoarse
import pipeline
import run
from spans import self_times

HERE = Path(__file__).resolve().parent

# Same code paths as the three workloads at a fraction of the size: the
# sweep's local spaces (1,369 dofs) are above DENSE_CUTOFF, so it takes the
# ARPACK path with cache hits at tau=0.5 and 0.7, like deltak_tau_sweep_k30.
SMALL = (
    pipeline.Workload("onelevel_layered", 10.0, 4, "one_level", (0.0,), (21,), (0,),
                      medium="layered", a_max=10.0, n_cells=40),
    pipeline.Workload("deltak_sweep", 10.0, 4, "delta_k", (0.3, 0.5, 0.7),
                      (17, 15, 12), (12, 28, 52), n_cells=72),
    pipeline.Workload("deltak_dense", 10.0, 16, "delta_k", (0.5,), (21,), (36,),
                      n_cells=40),
)


def _traced(workload, seed=0):
    nodal = pipeline.make_inputs(workload, seed)
    tracer, configs, instance = pipeline.run_rep(workload, nodal, traced=True)
    return tracer, configs, instance


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_counts_repeat_exactly(workload):
    runs = [_traced(workload, seed=3) for _ in range(2)]
    counts = []
    for tracer, configs, instance in runs:
        layers = pipeline.layer_metrics(tracer, instance)
        counts.append(([(c["iterations"], c["cs"]) for c in configs],
                       {k: layers[k] for k in pipeline.COUNT_METRICS}))
    assert counts[0] == counts[1]
    failures, _ = pipeline.check_configs(workload, 3, runs[0][1], runs[0][2])
    assert not any(failures)


def test_sweep_layer_counts():
    tracer, configs, instance = _traced(SMALL[1])
    layers = pipeline.layer_metrics(tracer, instance)
    n_sub = SMALL[1].N
    # tau=0.3 solves every subdomain; later taus reuse cached spectra
    assert layers["eigencoarse.local_solves"] + layers["eigencoarse.cache_hits"] == 3 * n_sub
    assert layers["eigencoarse.cache_hits"] >= n_sub
    assert layers["eigencoarse.eigsh_calls"] >= layers["eigencoarse.local_solves"]
    assert 0 < layers["eigencoarse.kept_ratio"] <= 1
    assert layers["schwarz.apply_calls"] == sum(c["iterations"] + 1 for c in configs)
    assert layers["krylov.self_s"] + layers["krylov.spmv_s"] <= layers["krylov.gmres_s"]


def test_onelevel_has_no_eigen_work():
    tracer, _, instance = _traced(SMALL[0])
    layers = pipeline.layer_metrics(tracer, instance)
    for name in ("eigencoarse.local_solves", "eigencoarse.eigsh_calls",
                 "eigencoarse.cache_hits", "eigencoarse.build_s"):
        assert layers[name] == 0


def test_self_times_cover_the_repetition():
    tracer, _, _ = _traced(SMALL[1])
    own = self_times(tracer.spans)
    assert min(own.values()) >= 0
    rep = next(s for s in tracer.spans if s["name"] == "rep")
    assert sum(own.values()) == pytest.approx(rep["end"] - rep["start"], rel=1e-9)
    assert sum(pipeline.layer_self_times(tracer).values()) == pytest.approx(sum(own.values()))


def test_untraced_repetition_patches_nothing():
    tracer, _, _ = pipeline.run_rep(SMALL[1], None, traced=False)
    names = {s["name"] for s in tracer.spans}
    assert "eigencoarse.solve_local_eigenproblem" not in names
    assert "schwarz.apply" not in names
    _traced(SMALL[1])
    assert eigencoarse.solve_local_eigenproblem.__module__ == "helmdd.eigencoarse"
    assert spla.eigsh.__name__ == "eigsh" and spla.eigsh.__module__.startswith("scipy")


def test_inputs_follow_the_seed():
    w = SMALL[1]
    assert pipeline.make_inputs(w, 0) is None
    a, b = pipeline.make_inputs(w, 5), pipeline.make_inputs(w, 5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, pipeline.make_inputs(w, 6))


def test_check_catches_wrong_outputs():
    w = SMALL[1]
    _, configs, instance = pipeline.run_rep(w, None)
    failures, reference = pipeline.check_configs(w, 0, configs, instance)
    assert failures == [[], [], []]

    wrong = dataclasses.replace(w, ref_iterations=(18, 15, 12), ref_cs=(12, 28, 53))
    failures, _ = pipeline.check_configs(wrong, 0, configs, instance, reference)
    assert ["iterations" in m for m in failures[0]] == [True]
    assert ["coarse dimension" in m for m in failures[2]] == [True]
    # iterations are only pinned for the paper's source (seed 0)
    failures, _ = pipeline.check_configs(wrong, 1, configs, instance, reference)
    assert failures[0] == []

    configs[1]["solution"] = configs[1]["solution"] * (1 + 10 * pipeline.ERROR_TOL)
    failures, _ = pipeline.check_configs(w, 0, configs, instance, reference)
    assert failures[1] and "direct solution" in failures[1][0]


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and perfbench/ present, no result is printed."""
    root = HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deltak_dense_n64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    assert not lines or "correct" not in lines[-1]


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(pipeline.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    tracer, _, instance = _traced(SMALL[1])
    layers = pipeline.layer_metrics(tracer, instance)
    expected = {name: run.layer_unit(name) for name in [*layers, "trace.overhead_s"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == expected
