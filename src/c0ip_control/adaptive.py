"""SOLVE -> ESTIMATE -> MARK -> REFINE loop with history capture."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

from .assembly import error_norms
from .estimator import estimate
from .mesh import bisect, dorfler_mark, mesh_metrics
from .solver import discretize, solve_pdas

__all__ = ["LevelRecord", "AdaptiveHistory", "run_adaptive"]


@dataclass
class LevelRecord:
    level: int
    ndof: int               # free dofs of the state space
    ntriangles: int
    h_max: float
    min_angle: float
    eta_u: float
    eta_phi: float
    eta_control: float
    eta_total: float
    err_u: float | None
    err_phi: float | None
    err_q: float | None
    pdas_iterations: int
    seconds: float


@dataclass
class AdaptiveHistory:
    records: list = field(default_factory=list)
    meshes: list = field(default_factory=list)
    solutions: list = field(default_factory=list)

    CSV_COLUMNS = ["level", "N", "eta_u", "eta_phi", "eta_control",
                   "eta_total", "err_u", "err_phi", "err_q", "pdas_iters"]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.CSV_COLUMNS)
            for r in self.records:
                def fmt(v):
                    return "" if v is None else "%.6e" % v
                writer.writerow([r.level, r.ndof, fmt(r.eta_u),
                                 fmt(r.eta_phi), fmt(r.eta_control),
                                 fmt(r.eta_total), fmt(r.err_u),
                                 fmt(r.err_phi), fmt(r.err_q),
                                 r.pdas_iterations])


def run_adaptive(spec, mesh, theta=0.3, max_dofs=50000, max_levels=25,
                 keep_solutions=False):
    """Adaptive refinement loop driven by Doerfler marking of the estimator.

    Stops once the free dof count reaches ``max_dofs``, after
    ``max_levels`` levels, or on a level whose estimator is zero on every
    triangle (an exact discrete solution), whichever comes first; the last
    level is always recorded. When ``spec.exact`` is
    available the true errors are recorded alongside the estimator.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    if max_dofs < 1 or max_levels < 1:
        raise ValueError("stop criterion must be positive")
    history = AdaptiveHistory()
    for level in range(max_levels):
        t0 = time.perf_counter()
        ws = discretize(spec, mesh)
        sol = solve_pdas(ws)
        report = estimate(ws, sol)
        err_u = err_phi = err_q = None
        if spec.exact is not None:
            case = spec.exact
            err_u, _ = error_norms(sol.u, case.u, case.u_hess, ws.geom,
                                   ws.cache, spec.eta)
            err_phi, _ = error_norms(sol.phi, case.phi, case.phi_hess,
                                     ws.geom, ws.cache, spec.eta)
            err_q = case.control_error(ws.geom, sol.q)
        seconds = time.perf_counter() - t0
        h_max, min_angle, _ = mesh_metrics(mesh)
        history.records.append(LevelRecord(
            level=level, ndof=ws.dofmap.nfree,
            ntriangles=mesh.num_triangles, h_max=h_max, min_angle=min_angle,
            eta_u=report.eta_u, eta_phi=report.eta_phi,
            eta_control=report.control_term, eta_total=report.eta_total,
            err_u=err_u, err_phi=err_phi, err_q=err_q,
            pdas_iterations=sol.iterations, seconds=seconds))
        history.meshes.append(mesh)
        if keep_solutions:
            history.solutions.append(sol)
        if ws.dofmap.nfree >= max_dofs or not report.marking.sum() > 0.0:
            break
        marked = dorfler_mark(report.marking, theta)
        mesh = bisect(mesh, marked)
    return history
