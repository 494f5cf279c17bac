"""Benchmark command line: convergence tables, adaptive runs, comparisons."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .adaptive import run_adaptive
from .assembly import error_norms
from .cases import boundary_demo_spec, example1_spec, example2_spec
from .controls import vi_residual
from .estimator import estimate
from .io import write_csv, write_mesh_txt, write_vtk
from .mesh import bisect, make_lshape, make_unit_square
from .solver import discretize, solve_pdas, solve_variational

__all__ = ["RunConfig", "run_example1", "run_example2", "run_boundary_demo",
           "run_vd_compare", "main"]


@dataclass
class RunConfig:
    domain: str = "square"
    mode: str = "uniform"
    levels: int = 5
    alpha: float = 1e-3
    eta: float = 10.0
    qmin: float = -750.0
    qmax: float = -50.0
    theta: float = 0.3
    max_dofs: int = 50000
    diagonal: str = "ne"
    out: str = "out"

    def outpath(self, name):
        os.makedirs(self.out, exist_ok=True)
        return os.path.join(self.out, name)


def _uniform_square_meshes(config):
    """Uniformly bisected mesh sequence labelled h = 1/4, 1/8, ...

    Starting from the two-triangle square, every triangle is bisected twice
    per level (bisect-all is applied twice), which halves the mesh size each
    time while keeping the newest-vertex structure of adaptive runs. The
    level labelled h = 1/n has 2 n^2 triangles on an n x n vertex grid.
    """
    mesh = make_unit_square(1, diagonal=config.diagonal)
    for _ in range(4):
        mesh = bisect(mesh, range(mesh.num_triangles))
    for j in range(config.levels):
        if j:
            for _ in range(2):
                mesh = bisect(mesh, range(mesh.num_triangles))
        yield 1.0 / (4 * 2 ** j), mesh


def _orders(errors):
    out = [None]
    for prev, cur in zip(errors, errors[1:]):
        out.append(math.log2(prev / cur))
    return out


def run_example1(config):
    """Manufactured convergence study on uniform unit-square meshes.

    Returns rows (h, err_u, order_u, err_phi, order_phi, err_q, order_q)
    and writes them to example1.csv in the output directory.
    """
    spec = example1_spec(config.alpha, config.qmin, config.qmax, config.eta)
    case = spec.exact
    hs, eus, ephis, eqs = [], [], [], []
    for h, mesh in _uniform_square_meshes(config):
        ws = discretize(spec, mesh)
        sol = solve_pdas(ws)
        del ws.lu   # the error norms need no factor; free it first
        eu, _ = error_norms(sol.u, case.u, case.u_hess, ws.geom, ws.cache,
                            spec.eta)
        ephi, _ = error_norms(sol.phi, case.phi, case.phi_hess, ws.geom,
                              ws.cache, spec.eta)
        eq = case.control_error(ws.geom, sol.q)
        hs.append(h)
        eus.append(eu)
        ephis.append(ephi)
        eqs.append(eq)
    rows = [
        (h, eu, ou, ep, op, eq, oq)
        for h, eu, ou, ep, op, eq, oq in zip(
            hs, eus, _orders(eus), ephis, _orders(ephis), eqs, _orders(eqs))
    ]
    write_csv(config.outpath("example1.csv"),
              ["h", "err_u", "order_u", "err_phi", "order_phi",
               "err_q", "order_q"], rows)
    return rows


def run_example2(config, initial_subdivision=2, max_levels=60):
    """Adaptive L-shape run with f = u_d = 1; exports history and meshes."""
    spec = example2_spec(config.alpha, config.qmin, config.qmax, config.eta)
    mesh = make_lshape(initial_subdivision, diagonal=config.diagonal)
    history = run_adaptive(spec, mesh, theta=config.theta,
                           max_dofs=config.max_dofs, max_levels=max_levels,
                           keep_solutions=True)
    history.to_csv(config.outpath("example2.csv"))
    picks = sorted({0, len(history.meshes) // 2, len(history.meshes) - 1})
    for idx in picks:
        m = history.meshes[idx]
        sol = history.solutions[idx]
        nv = m.num_vertices
        write_vtk(m, config.outpath("example2_level%02d.vtk" % idx),
                  point_data={"u_h": sol.u.coeffs[:nv],
                              "phi_h": sol.phi.coeffs[:nv]},
                  cell_data={"q_h": sol.q.values})
    write_mesh_txt(history.meshes[-1],
                   config.outpath("example2_final.node"),
                   config.outpath("example2_final.ele"))
    return history


def run_boundary_demo(config, subdivision=8):
    """Boundary flux control on the square: KKT report and estimator totals."""
    spec = boundary_demo_spec(config.alpha, config.qmin, config.qmax,
                              config.eta)
    mesh = make_unit_square(subdivision, diagonal=config.diagonal)
    ws = discretize(spec, mesh)
    sol = solve_pdas(ws)
    means = ws.coupling.T @ sol.phi.coeffs / ws.measures
    kkt = vi_residual(sol.q, means, spec.alpha)
    report = estimate(ws, sol)
    rows = [
        ("state_residual", sol.state_residual),
        ("adjoint_residual", sol.adjoint_residual),
        ("pdas_iterations", sol.iterations),
        ("kkt_satisfied", int(kkt.satisfied)),
        ("active_lower", len(sol.active_lower)),
        ("active_upper", len(sol.active_upper)),
        ("eta_u", report.eta_u),
        ("eta_phi", report.eta_phi),
        ("eta_control", report.control_term),
        ("eta_total", report.eta_total),
    ]
    write_csv(config.outpath("boundary_demo.csv"), ["quantity", "value"],
              rows)
    return sol, kkt, report


def run_vd_compare(config):
    """Full discretization vs variational discretization on Example 1 meshes.

    Tabulates energy errors of both solutions and the L2 distance between
    the piecewise-constant control and the variational one, taken at the
    variational control's points (a degree-8 rule on every element).
    """
    spec = example1_spec(config.alpha, config.qmin, config.qmax, config.eta)
    case = spec.exact
    rows = []
    for h, mesh in _uniform_square_meshes(config):
        ws = discretize(spec, mesh)
        sol = solve_pdas(ws)
        vd = solve_variational(ws, sol)
        del ws.lu   # the error norms need no factor; free it first
        eu, _ = error_norms(sol.u, case.u, case.u_hess, ws.geom, ws.cache,
                            spec.eta)
        eu_vd, _ = error_norms(vd.u, case.u, case.u_hess, ws.geom, ws.cache,
                               spec.eta)
        ephi, _ = error_norms(sol.phi, case.phi, case.phi_hess, ws.geom,
                              ws.cache, spec.eta)
        ephi_vd, _ = error_norms(vd.phi, case.phi, case.phi_hess, ws.geom,
                                 ws.cache, spec.eta)
        per_triangle = len(vd.q.values) // len(sol.q.values)
        diff = vd.q.values - np.repeat(sol.q.values, per_triangle)
        qdist = float(np.sqrt(np.sum(vd.q.measures * diff ** 2)))
        rows.append((h, eu, eu_vd, ephi, ephi_vd, qdist))
    write_csv(config.outpath("vd_compare.csv"),
              ["h", "err_u_full", "err_u_vd", "err_phi_full", "err_phi_vd",
               "q_distance"], rows)
    return rows


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="plate-control",
        description="Benchmarks for constrained optimal control of a "
                    "simply supported plate (C0 interior penalty method).")
    parser.add_argument("--problem", choices=["distributed", "boundary"],
                        help="control problem (default: boundary with "
                             "--mode boundary-demo, else distributed)")
    parser.add_argument("--domain", choices=["square", "lshape"],
                        default="square")
    parser.add_argument("--mode", choices=["uniform", "adaptive",
                                           "vd-compare", "boundary-demo"],
                        help="study to run (default: uniform, or "
                             "boundary-demo with --problem boundary)")
    parser.add_argument("--levels", type=int, default=5,
                        help="mesh levels of the uniform and vd-compare "
                             "studies (h = 1/4, 1/8, ...); --mode adaptive "
                             "ignores it and starts from make_unit_square(4) "
                             "on the square, make_lshape(2) on the L-shape")
    parser.add_argument("--alpha", type=float, default=1e-3)
    parser.add_argument("--eta", type=float, default=10.0)
    parser.add_argument("--qmin", type=float, default=-750.0)
    parser.add_argument("--qmax", type=float, default=-50.0)
    parser.add_argument("--theta", type=float, default=0.3)
    parser.add_argument("--max-dofs", type=int, default=50000)
    parser.add_argument("--diagonal", choices=["ne", "nw"], default="ne")
    parser.add_argument("--out", default="out")
    return parser


def _study(problem, mode):
    """The study mode that --problem and --mode name (each None if unset).

    Boundary control has one study, the boundary demo; each implies the
    other.
    """
    if problem == "boundary" or mode == "boundary-demo":
        if problem == "distributed":
            raise ValueError("--mode boundary-demo runs boundary control; "
                             "it cannot take --problem distributed")
        if mode not in (None, "boundary-demo"):
            raise ValueError("--problem boundary runs the boundary demo; "
                             "--mode %s needs --problem distributed" % mode)
        return "boundary-demo"
    return mode or "uniform"


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig(domain=args.domain,
                           mode=_study(args.problem, args.mode),
                           levels=args.levels, alpha=args.alpha,
                           eta=args.eta, qmin=args.qmin, qmax=args.qmax,
                           theta=args.theta, max_dofs=args.max_dofs,
                           diagonal=args.diagonal, out=args.out)
        if config.levels < 1:
            raise ValueError("--levels must be at least 1, got %d"
                             % config.levels)
        if config.mode != "adaptive" and config.domain != "square":
            raise ValueError("the %s study runs on the square; --domain %s "
                             "needs --mode adaptive"
                             % (config.mode, config.domain))
        if config.mode == "boundary-demo":
            run_boundary_demo(config)
        elif config.mode == "uniform":
            run_example1(config)
        elif config.mode == "adaptive":
            if config.domain == "lshape":
                run_example2(config)
            else:
                spec = example1_spec(config.alpha, config.qmin, config.qmax,
                                     config.eta)
                mesh = make_unit_square(4, diagonal=config.diagonal)
                history = run_adaptive(spec, mesh, theta=config.theta,
                                       max_dofs=config.max_dofs)
                history.to_csv(config.outpath("adaptive_square.csv"))
        elif config.mode == "vd-compare":
            run_vd_compare(config)
    except Exception as exc:  # surface contract violations as exit status
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
