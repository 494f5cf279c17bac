"""Benchmark problem data: manufactured solutions and default instances.

A manufactured case is given by the jets of its exact state u and adjoint
phi. A jet evaluates a field at a point set together with the derivatives
that the point set needs: its bilaplacian at the load and volume rule, its
Hessian at the error rule. The exact control is q = clamp(-phi/alpha) and
the data are f = lap^2 u - q and u_d = u - lap^2 phi, so the triple solves
the distributed control problem exactly. ``ManufacturedCase.data`` gives
(f, u_d) from one evaluation of the jets, and ``ManufacturedCase.errors``
gives every error of one level from one evaluation at the error rule.

The reference case uses u = phi = sin^3(pi x) sin^3(pi y) on the unit
square, one jet for both fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import ERROR_DEGREE, error_norms
from .controls import clamp
from .fem import quadrature
from .solver import ProblemSpec

__all__ = [
    "g_sin3",
    "biharmonic_sin3",
    "sin3_jet",
    "ManufacturedCase",
    "example1_case",
    "example1_spec",
    "example2_spec",
    "boundary_demo_spec",
]


def _sin3_derivatives(t, orders):
    """Derivatives of g(t) = sin^3(pi t) of the given orders (0..4).

    One sine, one cosine and one s^3 of ``t`` serve every order; the result
    is a tuple in the order of ``orders``.
    """
    arg = np.pi * t
    s, c = np.sin(arg), np.cos(arg)
    s3 = s ** 3
    out = []
    for order in orders:
        if order == 0:
            out.append(s3)
        elif order == 1:
            out.append(3.0 * np.pi * s ** 2 * c)
        elif order == 2:
            out.append(3.0 * np.pi ** 2 * (2.0 * s * c ** 2 - s3))
        elif order == 3:
            out.append(3.0 * np.pi ** 3 * (2.0 * c ** 3 - 7.0 * s ** 2 * c))
        elif order == 4:
            out.append(3.0 * np.pi ** 4 * (7.0 * s3 - 20.0 * s * c ** 2))
        else:
            raise ValueError("order must be 0..4")
    return tuple(out)


def g_sin3(t, order=0):
    """Derivatives of g(t) = sin^3(pi t) up to fourth order."""
    return _sin3_derivatives(t, (order,))[0]


def sin3_jet(x, y, hessian=False):
    """Jet of w = sin^3(pi x) sin^3(pi y): (w, lap^2 w) at the points, or
    with ``hessian`` (w, (w_xx, w_xy, w_yy))."""
    if hessian:
        gx0, gx1, gx2 = _sin3_derivatives(x, (0, 1, 2))
        gy0, gy1, gy2 = _sin3_derivatives(y, (0, 1, 2))
        return gx0 * gy0, (gx2 * gy0, gx1 * gy1, gx0 * gy2)
    gx0, gx2, gx4 = _sin3_derivatives(x, (0, 2, 4))
    gy0, gy2, gy4 = _sin3_derivatives(y, (0, 2, 4))
    return gx0 * gy0, gx4 * gy0 + 2.0 * gx2 * gy2 + gx0 * gy4


def biharmonic_sin3(x, y):
    """lap^2 u for u = sin^3(pi x) sin^3(pi y)."""
    return sin3_jet(x, y)[1]


@dataclass
class ManufacturedCase:
    """Exact state and adjoint, given by their jets, and the control box.

    A jet ``jet(x, y, hessian=False)`` returns the field's values at the
    points and its bilaplacian, or with ``hessian`` its Hessian
    (w_xx, w_xy, w_yy), as ``sin3_jet`` does. When ``phi_jet`` is
    ``u_jet`` each point set evaluates it once.
    """

    u_jet: object
    phi_jet: object
    alpha: float
    lower: float
    upper: float

    def jets(self, x, y, hessian=False):
        """The jets of u and of phi at the points."""
        u = self.u_jet(x, y, hessian)
        if self.phi_jet is self.u_jet:
            return u, u
        return u, self.phi_jet(x, y, hessian)

    def control(self, phi):
        """The exact control q = clamp(-phi/alpha) from values of phi."""
        return clamp(-phi / self.alpha, self.lower, self.upper)

    def data(self, x, y):
        """(f, u_d) = (lap^2 u - q, u - lap^2 phi) at the points."""
        (u, bilap_u), (phi, bilap_phi) = self.jets(x, y)
        return bilap_u - self.control(phi), u - bilap_phi

    def errors(self, ws, *solutions):
        """(||u - u_h||_h, ||phi - phi_h||_h, ||q - q_h||_0) of each solution
        on ``ws``, one tuple per solution, from one evaluation of the jets
        at the points of the error rule."""
        x, y = ws.geom.quad_points(quadrature("triangle", ERROR_DEGREE))
        (_, hess_u), (phi, hess_phi) = self.jets(x, y, hessian=True)
        q = self.control(phi)

        def norm(coeffs, hess):
            return error_norms(coeffs, ws.dofmap, hess, ws.geom, ws.cache,
                               ws.spec.eta)

        return [(norm(sol.u, hess_u), norm(sol.phi, hess_phi),
                 self.control_error(ws.geom, q, sol.q)) for sol in solutions]

    def control_error(self, geom, q, q_h):
        """||q - q_h||_{0,Omega} by the error rule on ``geom``.

        ``q`` holds the exact control at the rule's points, (nt, nq); the
        control field ``q_h`` is piecewise constant or, as the variational
        control, lives at those points triangle by triangle.
        """
        rule = quadrature("triangle", ERROR_DEGREE)
        diff = q - q_h.values.reshape(len(q), -1)
        val = np.einsum("q,tq->", rule.weights, diff ** 2 * geom.det[:, None])
        return float(np.sqrt(val))


def example1_case(alpha=1e-3, lower=-750.0, upper=-50.0):
    """sin^3 manufactured distributed control problem on the unit square."""
    return ManufacturedCase(u_jet=sin3_jet, phi_jet=sin3_jet, alpha=alpha,
                            lower=lower, upper=upper)


def example1_spec(alpha=1e-3, lower=-750.0, upper=-50.0, eta=10.0):
    """ProblemSpec for the manufactured distributed problem."""
    case = example1_case(alpha, lower, upper)
    return ProblemSpec(kind="distributed", data=case.data, alpha=alpha,
                       lower=lower, upper=upper, eta=eta, exact=case)


def example2_spec(alpha=1e-3, lower=-750.0, upper=-50.0, eta=10.0):
    """Distributed control with f = 1, u_d = 1 (L-shape benchmark data)."""

    def ones(x, y):
        one = np.ones_like(np.asarray(x, dtype=float))
        return one, one

    return ProblemSpec(kind="distributed", data=ones, alpha=alpha,
                       lower=lower, upper=upper, eta=eta, load_degree=2)


def boundary_demo_spec(alpha=1e-3, lower=-750.0, upper=-50.0, eta=10.0):
    """Boundary flux control on the square driven by the sin^3 source."""

    def data(x, y):
        zero = np.zeros_like(np.asarray(x, dtype=float))
        return biharmonic_sin3(x, y), zero

    return ProblemSpec(kind="boundary", data=data, alpha=alpha, lower=lower,
                       upper=upper, eta=eta)
