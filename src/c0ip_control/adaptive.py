"""SOLVE -> ESTIMATE -> MARK -> REFINE loop with history capture."""

from __future__ import annotations

from dataclasses import astuple, dataclass

from .estimator import estimate
from .io import write_csv
from .mesh import bisect, dorfler_mark
from .solver import discretize, solve_pdas

__all__ = ["LevelRecord", "AdaptiveHistory", "run_adaptive"]

# level cap of run_adaptive, well above the levels either domain of the
# command line takes to reach 50k dofs
MAX_LEVELS = 60


@dataclass
class LevelRecord:
    level: int
    ndof: int               # free dofs of the state space
    eta_u: float
    eta_phi: float
    eta_control: float
    eta_total: float
    err_u: float | None
    err_phi: float | None
    err_q: float | None
    pdas_iterations: int


@dataclass
class AdaptiveHistory:
    records: list
    meshes: list
    solutions: list
    # why the loop stopped: "max_dofs", "max_levels" or "zero_estimator"
    stop_reason: str | None = None

    # the fields of LevelRecord, in order
    CSV_COLUMNS = ["level", "N", "eta_u", "eta_phi", "eta_control",
                   "eta_total", "err_u", "err_phi", "err_q", "pdas_iters"]

    def to_csv(self, path):
        write_csv(path, self.CSV_COLUMNS,
                  [astuple(r) for r in self.records])


def _solve_level(spec, mesh, level):
    """Solve and estimate one level on ``mesh``.

    Returns its ``LevelRecord``, ``KktSolution`` and marking indicators;
    the level's discretization, LU factor and estimator report are freed on
    return, before the mesh is refined and the next level is built.
    """
    ws = discretize(spec, mesh)
    sol = solve_pdas(ws)
    report = estimate(ws, sol)
    err_u = err_phi = err_q = None
    if spec.exact is not None:
        err_u, err_phi, err_q = spec.exact.errors(ws, sol)[0]
    record = LevelRecord(
        level=level, ndof=ws.dofmap.nfree,
        eta_u=report.eta_u, eta_phi=report.eta_phi,
        eta_control=report.control_term, eta_total=report.eta_total,
        err_u=err_u, err_phi=err_phi, err_q=err_q,
        pdas_iterations=sol.iterations)
    return record, sol, report.marking


def run_adaptive(spec, mesh, theta=0.3, max_dofs=50000):
    """Adaptive refinement loop driven by Doerfler marking of the estimator.

    Stops once the free dof count reaches ``max_dofs``, after MAX_LEVELS
    levels, or on a level whose estimator is zero on every triangle (an
    exact discrete solution), whichever comes first; the last level is
    always recorded, and ``stop_reason`` names the criterion that ended the
    loop. An estimator that is not finite raises ``dorfler_mark``'s
    ``ValueError``. When ``spec.exact`` is available the true errors are
    recorded alongside the estimator.

    A level's discretization (with its LU factor) and estimator report do
    not outlive the level: they are freed before the mesh is refined, so
    the run peaks at one level's operators. The history keeps only every
    level's record, mesh and solution.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    if max_dofs < 1:
        raise ValueError("stop criterion must be positive")
    records, meshes, solutions = [], [], []
    stop_reason = "max_levels"
    for level in range(MAX_LEVELS):
        record, sol, marking = _solve_level(spec, mesh, level)
        records.append(record)
        meshes.append(mesh)
        solutions.append(sol)
        if record.ndof >= max_dofs:
            stop_reason = "max_dofs"
            break
        if marking.sum() == 0.0:
            stop_reason = "zero_estimator"
            break
        mesh = bisect(mesh, dorfler_mark(marking, theta))
    return AdaptiveHistory(records, meshes, solutions, stop_reason)
