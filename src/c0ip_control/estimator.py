"""Residual a posteriori error estimators with per-entity breakdowns.

For the state estimator the element term is h_T^2 ||f + q_h||_{0,T}^2
(distributed control; plain ||f|| for boundary control), interior edges
carry h_e [d^2 u_h/dn^2]^2 + h_e^{-1} [grad u_h . n]^2 and boundary edges
h_e (d^2 u_h/dn^2 - q_h)^2 (the control offset only for boundary control).
The adjoint estimator replaces the element residual by h_T^2 ||u_h - u_d||^2
and uses phi_h in the edge terms without control offset. The control
consistency term measures the distance of B_h phi_h + alpha q_h from its
piecewise-constant projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import eval_on_elements
from .fem import quadrature

__all__ = ["EstimatorReport", "estimate"]

_EDGE_W = np.asarray(quadrature("edge", 3).weights)

# degree of the triangle rule of the volume residuals
VOLUME_DEGREE = 6


@dataclass
class EstimatorReport:
    """Squared indicator contributions and totals."""

    volume_u: np.ndarray        # per triangle
    volume_phi: np.ndarray
    hess_jump_u: np.ndarray     # per interior edge
    grad_jump_u: np.ndarray
    hess_jump_phi: np.ndarray
    grad_jump_phi: np.ndarray
    boundary_u: np.ndarray      # per boundary edge
    boundary_phi: np.ndarray
    control_term: float         # not squared
    marking: np.ndarray         # per-triangle aggregate of squared terms

    @property
    def eta_u(self):
        return float(np.sqrt(self.volume_u.sum() + self.hess_jump_u.sum()
                             + self.grad_jump_u.sum()
                             + self.boundary_u.sum()))

    @property
    def eta_phi(self):
        return float(np.sqrt(self.volume_phi.sum() + self.hess_jump_phi.sum()
                             + self.grad_jump_phi.sum()
                             + self.boundary_phi.sum()))

    @property
    def eta_total(self):
        return float(np.sqrt(self.eta_u ** 2 + self.eta_phi ** 2
                             + self.control_term ** 2))


def _volume_residual(h2, geom, rule, values):
    """h_T^2 * int_T values^2 per triangle, with h_T^2 = ``h2``; values
    shape (nt, nq)."""
    integral = np.einsum("q,tq->t", rule.weights, values ** 2) * geom.det
    return h2 * integral


def _control_consistency(ws, phi, gvals):
    """|| (B_h phi_h + alpha q_h) - Pi_h(B_h phi_h + alpha q_h) ||_Q.

    The piecewise-constant alpha q_h drops out of the fluctuation, so this
    is the projection defect of B_h phi_h alone. The triangle means are
    the coupling's B^T phi / |T|; on the boundary, ``gvals`` (nEb, 2) holds
    dphi_h/dn at the edge Gauss points, and the edge means are taken from
    the same values as the squares.
    """
    if ws.spec.kind == "distributed":
        geom = ws.geom
        rule = quadrature("triangle", 4)
        vals = eval_on_elements(ws.dofmap, phi, rule)
        sq_integral = np.einsum("q,tq->t", rule.weights, vals ** 2) * geom.det
        mean = ws.coupling.T @ phi[ws.dofmap.free] / ws.measures
        defect = sq_integral - geom.area * mean ** 2
        return float(np.sqrt(max(defect.sum(), 0.0)))
    mean = gvals @ _EDGE_W
    defect = ws.cache.blength * np.einsum(
        "g,eg->e", _EDGE_W, (gvals - mean[:, None]) ** 2)
    return float(np.sqrt(max(defect.sum(), 0.0)))


def estimate(ws, sol):
    """Estimator report for a solved instance (``ws`` from ``discretize``)."""
    spec, dofmap, cache, geom = ws.spec, ws.dofmap, ws.cache, ws.geom
    rule = quadrature("triangle", VOLUME_DEGREE)
    h2 = ws.mesh.diameters() ** 2
    fvals, udvals = spec.data_at(*geom.quad_points(rule))
    if spec.kind == "distributed":
        state_resid = fvals + sol.q.values[:, None]
    else:
        state_resid = fvals
    volume_u = _volume_residual(h2, geom, rule, state_resid)

    uhvals = eval_on_elements(dofmap, sol.u, rule)
    volume_phi = _volume_residual(h2, geom, rule, uhvals - udvals)

    t_u, t_phi = (cache.interior_traces(v) for v in (sol.u, sol.phi))
    hess_u, hess_phi = (cache.length ** 2 * t[:, 3] ** 2 for t in (t_u, t_phi))
    grad_u, grad_phi = (t[:, 1:3] ** 2 @ _EDGE_W for t in (t_u, t_phi))
    d2_u = cache.boundary_traces(sol.u)[:, 2]
    if spec.kind == "boundary":
        d2_u = d2_u - sol.q.values
    b_phi = cache.boundary_traces(sol.phi)
    boundary_u, boundary_phi = (cache.blength ** 2 * d2 ** 2
                                for d2 in (d2_u, b_phi[:, 2]))

    control = _control_consistency(ws, sol.phi, b_phi[:, :2])

    marking = volume_u + volume_phi
    edge_sq = 0.5 * (hess_u + grad_u + hess_phi + grad_phi)
    np.add.at(marking, cache.tri1, edge_sq)
    np.add.at(marking, cache.tri2, edge_sq)
    np.add.at(marking, cache.btri, boundary_u + boundary_phi)

    return EstimatorReport(volume_u, volume_phi, hess_u, grad_u,
                           hess_phi, grad_phi, boundary_u, boundary_phi,
                           control, marking)
