"""The benchmark's workloads and one repetition of the helmdd pipeline.

A repetition drives the library quick-start sequence through the top-level
``helmdd`` API, exactly as ``helmdd grid`` does for one instance: mesh ->
assembly -> decomposition -> (per tau, with one eigen cache per instance)
coarse space -> factorization -> weighted GMRES.  Every public call is
timed by a span; with ``traced`` set, the calls inside the preconditioner,
the coarse solve and the eigensolves are timed too.
"""

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

import helmdd as H
from helmdd.errors import NumericalError

from spans import Tracer, duration, instrument, self_times

KH = 0.1            # the paper's resolution rule k*h = 0.1
TOL = 1e-6
MAXIT = 200
WORKERS = 1         # the library default
# Relative Euclidean distance to the direct solution allowed for a GMRES
# solution at TOL: the stopping test bounds the preconditioned residual, not
# the error, so the bound leaves room for the conditioning of the operator
# (distances of up to 3e-5 occur on the workloads).  A wrong preconditioner
# or solve gives distances of order one.
ERROR_TOL = 1e-3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an instance and the tau values solved on it.

    ``ref_iterations`` (seed 0, the paper's source) and ``ref_cs`` (any seed:
    the coarse space does not depend on the load) are the outputs of the
    unmodified library; a run that differs fails its output check.
    """

    name: str
    k: float
    N: int
    method: str
    taus: tuple
    ref_iterations: tuple
    ref_cs: tuple
    medium: str = "homogeneous"
    a_max: float = 1.0
    n_cells: int = 0    # 0: the kh rule


WORKLOADS = {w.name: w for w in (
    Workload("onelevel_layered_k30", 30.0, 25, "one_level", (0.0,),
             ref_iterations=(127,), ref_cs=(0,), medium="layered", a_max=10.0),
    Workload("deltak_tau_sweep_k30", 30.0, 25, "delta_k", (0.3, 0.5, 0.7),
             ref_iterations=(68, 38, 26), ref_cs=(224, 450, 770)),
    Workload("deltak_dense_n64", 20.0, 64, "delta_k", (0.5,),
             ref_iterations=(43,), ref_cs=(448,)),
)}


def n_cells_of(workload):
    return workload.n_cells or H.mesh_for_wavenumber(workload.k, KH)


def make_inputs(workload, seed):
    """Seed 0: the paper's centred Gaussian source (assembled by helmdd).

    Any other seed: independent standard-normal nodal values of a P1 load
    field, drawn here so the program only receives the generated numbers.
    """
    if seed == 0:
        return None
    n_dof = (n_cells_of(workload) - 1) ** 2
    return np.random.default_rng(seed).standard_normal(n_dof)


def _load_vector(mesh, fesys, nodal):
    if nodal is None:
        return H.assemble_gaussian_source(mesh)
    return fesys.S @ nodal


def _nnz_lu(prec):
    return sum(lu.L.nnz + lu.U.nnz for lu in prec.local_lu)


def _solve_config(tracer, traced, workload, fesys, layout, rhs, cache, tau, solve):
    """Coarse space, factorization and (if ``solve``) GMRES for one tau."""
    out = {"tau": tau, "cs": 0, "iterations": None, "converged": False,
           "relres": None, "solution": None, "error": None}
    try:
        coarse = None
        if workload.method != "one_level":
            with tracer.span("eigencoarse.build_coarse_space", "eigencoarse",
                             n_sub=layout.n_subdomains) as bspan:
                coarse = H.build_coarse_space(fesys, layout, workload.method, tau,
                                              cache=cache, workers=WORKERS)
            out["cs"] = bspan["cs"] = coarse.cs
        with tracer.span("schwarz.factorize", "schwarz") as fspan:
            prec = H.factorize(fesys, layout, coarse, workers=WORKERS)
        if traced:
            fspan["lu_nnz"] = _nnz_lu(prec)
        if not solve:
            return out
        if traced:
            prec.apply = tracer.wrap(prec.apply, "schwarz.apply", "schwarz")
            if coarse is not None:
                coarse.coarse_solve = tracer.wrap(
                    coarse.coarse_solve, "schwarz.coarse_solve", "schwarz")
        with tracer.span("solve", "bench"):
            op = H.preconditioned_operator(prec, fesys)
            if traced:
                op.matvec = tracer.wrap(op.matvec, "schwarz.operator_matvec", "schwarz")
            b = prec.apply(rhs)
            with tracer.span("krylov.gmres_weighted", "krylov", n=fesys.n_dof):
                report = H.gmres_weighted(op, b, fesys.Dk, tol=TOL, maxit=MAXIT)
    except NumericalError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    out.update(iterations=report.iterations, converged=report.converged,
               relres=float(report.residual_history[-1]),
               solution=report.solution)
    if not report.converged:
        out["error"] = f"no convergence within {MAXIT} iterations"
    return out


def run_rep(workload, nodal, traced=False, solve=True):
    """One repetition of the workload; returns ``(tracer, configs, instance)``.

    ``instance`` holds what the output check needs (B, rhs) and the sizes
    reported as per-layer counts.  With ``solve`` unset only the set-up
    stages run.
    """
    tracer = Tracer()
    configs = []
    with tracer.span("rep", "bench"):
        with tracer.span("mesh.build_unit_square_mesh", "mesh"):
            mesh = H.build_unit_square_mesh(n_cells_of(workload))
        coeff = (H.CoefficientField() if workload.medium == "homogeneous"
                 else H.CoefficientField(workload.medium, workload.a_max))
        with tracer.span("assembly.assemble_system", "assembly"):
            fesys = H.assemble_system(mesh, coeff, workload.k)
        with tracer.span("assembly.load_vector", "assembly"):
            rhs = _load_vector(mesh, fesys, nodal)
        px = int(round(np.sqrt(workload.N)))
        with tracer.span("decomp.partition_uniform", "decomp"):
            owner = H.partition_uniform(mesh, px, px)
        with tracer.span("decomp.add_overlap", "decomp"):
            layout = H.add_overlap(mesh, owner, layers=1)
        cache = {}
        with instrument(tracer) if traced else nullcontext():
            for tau in workload.taus:
                configs.append(_solve_config(tracer, traced, workload, fesys,
                                             layout, rhs, cache, tau, solve))
    instance = {"B": fesys.B, "rhs": rhs, "nnz": int(fesys.B.nnz),
                "n_loc_max": int(max(d.size for d in layout.overl_dofs))}
    return tracer, configs, instance


SETUP_SPANS = ("mesh.build_unit_square_mesh", "assembly.assemble_system",
               "assembly.load_vector", "decomp.partition_uniform",
               "decomp.add_overlap", "eigencoarse.build_coarse_space",
               "schwarz.factorize")


def rep_times(tracer):
    """End-to-end times of one repetition: (time_to_solution, setup, solve)."""
    total = sum(duration(s) for s in tracer.spans if s["name"] == "rep")
    setup = sum(duration(s) for s in tracer.spans if s["name"] in SETUP_SPANS)
    solve = sum(duration(s) for s in tracer.spans if s["name"] == "solve")
    return total, setup, solve


def layer_metrics(tracer, instance):
    """Per-layer metrics of one traced repetition."""
    spans = tracer.spans
    own = self_times(spans)

    def total(name):
        return sum(duration(s) for s in spans if s["name"] == name)

    def of(name):
        return [s for s in spans if s["name"] == name]

    local = of("eigencoarse.solve_local_eigenproblem")
    builds = of("eigencoarse.build_coarse_space")
    solves_in = {}
    for s in local:
        solves_in[s["parent"]] = solves_in.get(s["parent"], 0) + 1
    computed = sum(s["computed"] for s in local)
    kept = sum(s["kept"] for s in local)
    gmres = of("krylov.gmres_weighted")
    return {
        "mesh.build_s": total("mesh.build_unit_square_mesh"),
        "assembly.assemble_s": total("assembly.assemble_system") + total("assembly.load_vector"),
        "assembly.nnz": instance["nnz"],
        "decomp.layout_s": total("decomp.partition_uniform") + total("decomp.add_overlap"),
        "decomp.n_loc_max": instance["n_loc_max"],
        "eigencoarse.build_s": total("eigencoarse.build_coarse_space"),
        "eigencoarse.local_solve_s": total("eigencoarse.solve_local_eigenproblem"),
        "eigencoarse.local_solve_max_s": max((duration(s) for s in local), default=0.0),
        "eigencoarse.local_solves": len(local),
        "eigencoarse.cache_hits": sum(b["n_sub"] - solves_in.get(b["id"], 0) for b in builds),
        "eigencoarse.eigsh_calls": len(of("eigencoarse.eigsh")),
        "eigencoarse.eigsh_s": total("eigencoarse.eigsh"),
        "eigencoarse.modes_computed": computed,
        "eigencoarse.kept_ratio": kept / computed if computed else 0.0,
        "eigencoarse.coarse_dim": sum(b["cs"] for b in builds),
        "schwarz.factor_s": total("schwarz.factorize"),
        "schwarz.lu_nnz": sum(s["lu_nnz"] for s in of("schwarz.factorize")),
        "schwarz.apply_s": total("schwarz.apply"),
        "schwarz.apply_calls": len(of("schwarz.apply")),
        "schwarz.coarse_solve_s": total("schwarz.coarse_solve"),
        "krylov.gmres_s": total("krylov.gmres_weighted"),
        "krylov.self_s": sum(own[s["id"]] for s in gmres),
        # B @ x inside the operator; the Dk products stay in krylov.self_s
        "krylov.spmv_s": sum(own[s["id"]] for s in of("schwarz.operator_matvec")),
        "krylov.basis_mb": max((2 * s["n"] * (MAXIT + 1) * 8 / 1e6 for s in gmres),
                               default=0.0),
    }


COUNT_METRICS = ("assembly.nnz", "decomp.n_loc_max", "eigencoarse.local_solves",
                 "eigencoarse.cache_hits", "eigencoarse.eigsh_calls",
                 "eigencoarse.modes_computed", "eigencoarse.coarse_dim",
                 "schwarz.lu_nnz", "schwarz.apply_calls")


def layer_self_times(tracer):
    """Self time summed per layer (the benchmark's own glue is layer ``bench``)."""
    own = self_times(tracer.spans)
    out = {}
    for s in tracer.spans:
        out[s["layer"]] = out.get(s["layer"], 0.0) + own[s["id"]]
    return out


def check_configs(workload, seed, configs, instance, reference=None):
    """Output check, outside any timed region; returns a list of failure messages
    per config (empty when the config passed) and the reference solution."""
    if reference is None and any(c["solution"] is not None for c in configs):
        reference = spla.spsolve(instance["B"].tocsc(), instance["rhs"])
    failures = []
    for c, ref_it, ref_cs in zip(configs, workload.ref_iterations, workload.ref_cs):
        msgs = []
        if c["error"]:
            msgs.append(c["error"])
        if c["cs"] != ref_cs:
            msgs.append(f"coarse dimension {c['cs']} != reference {ref_cs}")
        if seed == 0 and c["iterations"] is not None and c["iterations"] != ref_it:
            msgs.append(f"iterations {c['iterations']} != reference {ref_it}")
        if c["solution"] is not None:
            err = np.linalg.norm(c["solution"] - reference) / np.linalg.norm(reference)
            c["rel_error"] = float(err)
            if not err <= ERROR_TOL:
                msgs.append(f"distance to the direct solution {err:.2e} > {ERROR_TOL:.0e}")
        failures.append(msgs)
    return failures, reference
