"""Benchmark command line: convergence tables, adaptive runs, comparisons."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .adaptive import run_adaptive
from .cases import boundary_demo_spec, example1_spec, example2_spec
from .controls import vi_residual
from .estimator import estimate
from .io import write_csv, write_mesh_txt, write_vtk
from .mesh import bisect, make_lshape, make_unit_square
from .solver import discretize, solve_pdas, solve_variational

__all__ = ["RunConfig", "run_example1", "run_adaptive_study",
           "run_boundary_demo", "run_vd_compare", "main"]


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


def _solve_uniform_levels(config, solve_level):
    """``(h, solve_level(mesh))`` for every level of
    ``_uniform_square_meshes``, in its order (h = 1/4, 1/8, ...).

    The levels are independent, so they are solved finest first, each in
    its own call: a level's discretization is freed before the next one is
    built, so the study peaks at the finest level alone.
    """
    levels = list(_uniform_square_meshes(config))
    results = [solve_level(mesh) for _, mesh in reversed(levels)]
    return [(h, r) for (h, _), r in zip(levels, reversed(results))]


def run_example1(config):
    """Manufactured convergence study on uniform unit-square meshes.

    Returns rows (h, err_u, order_u, err_phi, order_phi, err_q, order_q),
    coarsest first (h = 1/4, 1/8, ...), and writes them to example1.csv in
    the output directory. The finest level is solved first.
    """
    spec = example1_spec(config.alpha, config.qmin, config.qmax, config.eta)
    case = spec.exact

    def solve_level(mesh):
        ws = discretize(spec, mesh)
        sol = solve_pdas(ws)
        del ws.lu   # the error norms need no factor; free it first
        return case.errors(ws, sol)[0]

    levels = _solve_uniform_levels(config, solve_level)
    hs = [h for h, _ in levels]
    eus, ephis, eqs = ([e[i] for _, e in levels] for i in range(3))
    rows = [
        (h, eu, ou, ep, op, eq, oq)
        for h, eu, ou, ep, op, eq, oq in zip(
            hs, eus, _orders(eus), ephis, _orders(ephis), eqs, _orders(eqs))
    ]
    write_csv(config.outpath("example1.csv"),
              ["h", "err_u", "order_u", "err_phi", "order_phi",
               "err_q", "order_q"], rows)
    return rows


def run_adaptive_study(config):
    """Adaptive run on ``config.domain``; exports history and meshes.

    The L-shape solves Example 2 (f = u_d = 1) from ``make_lshape(2)`` and
    names its files ``example2``; the square solves the manufactured
    Example 1 from ``make_unit_square(4)`` and names them
    ``adaptive_square``. Both write the history as ``<prefix>.csv``, the
    first, middle and last levels as ``<prefix>_levelNN.vtk`` and the final
    mesh as ``<prefix>_final.node``/``.ele``.
    """
    if config.domain == "lshape":
        make_spec, prefix = example2_spec, "example2"
        mesh = make_lshape(2, diagonal=config.diagonal)
    elif config.domain == "square":
        make_spec, prefix = example1_spec, "adaptive_square"
        mesh = make_unit_square(4, diagonal=config.diagonal)
    else:
        raise ValueError("domain must be 'square' or 'lshape', got %r"
                         % (config.domain,))
    spec = make_spec(config.alpha, config.qmin, config.qmax, config.eta)
    history = run_adaptive(spec, mesh, theta=config.theta,
                           max_dofs=config.max_dofs)
    history.to_csv(config.outpath(prefix + ".csv"))
    picks = sorted({0, len(history.meshes) // 2, len(history.meshes) - 1})
    for idx in picks:
        m = history.meshes[idx]
        sol = history.solutions[idx]
        write_vtk(m, config.outpath("%s_level%02d.vtk" % (prefix, idx)),
                  point_data={"u_h": sol.u, "phi_h": sol.phi},
                  cell_data={"q_h": sol.q.values})
    write_mesh_txt(history.meshes[-1],
                   config.outpath(prefix + "_final.node"),
                   config.outpath(prefix + "_final.ele"))
    return history


def run_boundary_demo(config):
    """Boundary flux control on the square: KKT report and estimator totals."""
    spec = boundary_demo_spec(config.alpha, config.qmin, config.qmax,
                              config.eta)
    mesh = make_unit_square(8, diagonal=config.diagonal)
    ws = discretize(spec, mesh)
    sol = solve_pdas(ws)
    means = ws.coupling.T @ sol.phi[ws.dofmap.free] / ws.measures
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

    Tabulates the energy and L2 control errors of both solutions and the
    L2 distance between the piecewise-constant control and the variational
    one, taken at the variational control's points (the error rule on
    every element). The finest level is solved first; the rows come
    coarsest first (h = 1/4, 1/8, ...).
    """
    spec = example1_spec(config.alpha, config.qmin, config.qmax, config.eta)
    case = spec.exact

    def solve_level(mesh):
        ws = discretize(spec, mesh)
        sol = solve_pdas(ws)
        vd = solve_variational(ws, sol)
        del ws.lu   # the error norms need no factor; free it first
        (eu, ephi, eq), (eu_vd, ephi_vd, eq_vd) = case.errors(ws, sol, vd)
        per_triangle = len(vd.q.values) // len(sol.q.values)
        diff = vd.q.values - np.repeat(sol.q.values, per_triangle)
        qdist = float(np.sqrt(np.sum(vd.q.measures * diff ** 2)))
        return eu, eu_vd, ephi, ephi_vd, eq, eq_vd, qdist

    rows = [(h,) + row
            for h, row in _solve_uniform_levels(config, solve_level)]
    write_csv(config.outpath("vd_compare.csv"),
              ["h", "err_u_full", "err_u_vd", "err_phi_full", "err_phi_vd",
               "err_q_full", "err_q_vd", "q_distance"], rows)
    return rows


def _build_parser():
    defaults = RunConfig()
    parser = argparse.ArgumentParser(
        prog="plate-control",
        description="Benchmarks for constrained optimal control of a "
                    "simply supported plate (C0 interior penalty method).")
    parser.add_argument("--problem", choices=["distributed", "boundary"],
                        help="control problem (default: boundary with "
                             "--mode boundary-demo, else distributed)")
    parser.add_argument("--domain", choices=["square", "lshape"],
                        default=defaults.domain)
    parser.add_argument("--mode", choices=["uniform", "adaptive",
                                           "vd-compare", "boundary-demo"],
                        help="study to run (default: uniform, or "
                             "boundary-demo with --problem boundary)")
    parser.add_argument("--levels", type=int, default=defaults.levels,
                        help="mesh levels of the uniform and vd-compare "
                             "studies (h = 1/4, 1/8, ...); --mode adaptive "
                             "ignores it and starts from make_unit_square(4) "
                             "on the square, make_lshape(2) on the L-shape")
    parser.add_argument("--alpha", type=float, default=defaults.alpha)
    parser.add_argument("--eta", type=float, default=defaults.eta)
    parser.add_argument("--qmin", type=float, default=defaults.qmin)
    parser.add_argument("--qmax", type=float, default=defaults.qmax)
    parser.add_argument("--theta", type=float, default=defaults.theta)
    parser.add_argument("--max-dofs", type=int, default=defaults.max_dofs)
    parser.add_argument("--diagonal", choices=["ne", "nw"],
                        default=defaults.diagonal)
    parser.add_argument("--out", default=defaults.out)
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
    fields = vars(_build_parser().parse_args(argv))
    try:
        fields["mode"] = _study(fields.pop("problem"), fields["mode"])
        config = RunConfig(**fields)
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
            run_adaptive_study(config)
        elif config.mode == "vd-compare":
            run_vd_compare(config)
    except Exception as exc:  # surface contract violations as exit status
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
