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

import csv
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

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["triangle", "aggregate"])
            for t, val in enumerate(self.marking):
                writer.writerow([t, "%.8e" % val])
            writer.writerow(["eta_u", "%.8e" % self.eta_u])
            writer.writerow(["eta_phi", "%.8e" % self.eta_phi])
            writer.writerow(["eta_control", "%.8e" % self.control_term])
            writer.writerow(["eta_total", "%.8e" % self.eta_total])


def _volume_residual(mesh, geom, rule, values):
    """h_T^2 * int_T values^2 per triangle; values shape (nt, nq)."""
    h2 = mesh.diameters() ** 2
    integral = np.einsum("q,tq->t", rule.weights, values ** 2) * geom.det
    return h2 * integral


def _edge_terms(cache, coeffs):
    """(hessian jump term, gradient jump term) per interior edge."""
    hess_term = cache.length ** 2 * (cache.jump_d2n @ coeffs) ** 2
    return hess_term, cache.jump_energy(coeffs)


def _boundary_term(cache, coeffs, offset=None):
    """h_e * int_e (d^2 v/dn^2 - offset)^2 per boundary edge."""
    d2 = cache.bhess @ coeffs
    if offset is not None:
        d2 = d2 - offset
    return cache.blength ** 2 * d2 ** 2


def _control_consistency(ws, sol):
    """|| (B_h phi_h + alpha q_h) - Pi_h(B_h phi_h + alpha q_h) ||_Q.

    The piecewise-constant alpha q_h drops out of the fluctuation, so this
    is the projection defect of B_h phi_h alone.
    """
    phi = sol.phi.coeffs
    if ws.spec.kind == "distributed":
        geom = ws.geom
        rule = quadrature("triangle", 4)
        vals = eval_on_elements(ws.dofmap, phi, rule)
        integral = np.einsum("q,tq->t", rule.weights, vals) * geom.det
        sq_integral = np.einsum("q,tq->t", rule.weights, vals ** 2) * geom.det
        mean = integral / geom.area
        defect = sq_integral - geom.area * mean ** 2
        return float(np.sqrt(max(defect.sum(), 0.0)))
    cache = ws.cache
    gvals = cache.boundary_normal_derivative(phi)      # (nEb, 2)
    mean = gvals @ _EDGE_W
    defect = cache.blength * np.einsum(
        "g,eg->e", _EDGE_W, (gvals - mean[:, None]) ** 2)
    return float(np.sqrt(max(defect.sum(), 0.0)))


def estimate(ws, sol):
    """Estimator report for a solved instance (``ws`` from ``discretize``)."""
    spec, mesh, dofmap, cache, geom = (ws.spec, ws.mesh, ws.dofmap, ws.cache,
                                       ws.geom)
    rule = quadrature("triangle", VOLUME_DEGREE)
    x, y = geom.quad_points(rule)

    fvals = np.broadcast_to(np.asarray(spec.f(x, y), dtype=float), x.shape)
    if spec.kind == "distributed":
        state_resid = fvals + sol.q.values[:, None]
    else:
        state_resid = fvals
    volume_u = _volume_residual(mesh, geom, rule, state_resid)

    udvals = np.broadcast_to(np.asarray(spec.u_d(x, y), dtype=float), x.shape)
    uhvals = eval_on_elements(dofmap, sol.u.coeffs, rule)
    volume_phi = _volume_residual(mesh, geom, rule, uhvals - udvals)

    hess_u, grad_u = _edge_terms(cache, sol.u.coeffs)
    hess_phi, grad_phi = _edge_terms(cache, sol.phi.coeffs)
    offset = sol.q.values if spec.kind == "boundary" else None
    boundary_u = _boundary_term(cache, sol.u.coeffs, offset)
    boundary_phi = _boundary_term(cache, sol.phi.coeffs)

    control = _control_consistency(ws, sol)

    marking = volume_u + volume_phi
    edge_sq = 0.5 * (hess_u + grad_u + hess_phi + grad_phi)
    np.add.at(marking, cache.tri1, edge_sq)
    np.add.at(marking, cache.tri2, edge_sq)
    np.add.at(marking, cache.btri, boundary_u + boundary_phi)

    return EstimatorReport(volume_u, volume_phi, hess_u, grad_u,
                           hess_phi, grad_phi, boundary_u, boundary_phi,
                           control, marking)
