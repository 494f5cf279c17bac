"""Benchmark problem data: manufactured solutions and default instances.

The reference manufactured case uses u = phi = sin^3(pi x) sin^3(pi y) on
the unit square with the control recovered by clamping -phi/alpha into the
box; the source and observation follow from f = lap^2 u - q and
u_d = u - lap^2 phi, so the triple solves the distributed control problem
exactly.

The data, the exact control and the error norms of one uniform level read
sin^3 and its derivatives at the same quadrature points many times. The
points come from ``ElementGeometry.quad_points`` as read-only arrays, and
sin(pi t) and cos(pi t) of such an array are memoized by its identity:
the memo holds a reference to the array, so its id cannot be reused, and
it keeps only the arrays of the latest point set (the latest read-only
base array). An array that is writable, or a view of a writable one, is
never memoized, so changing coordinates in place gives the new values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import error_norms
from .controls import clamp
from .fem import quadrature
from .solver import ProblemSpec

__all__ = [
    "g_sin3",
    "biharmonic_sin3",
    "ManufacturedCase",
    "example1_case",
    "example1_spec",
    "example2_spec",
    "boundary_demo_spec",
]

# degree of the triangle rule of ``ManufacturedCase.control_error``
CONTROL_ERROR_DEGREE = 8


# the latest read-only point set and sin(pi t), cos(pi t) of its arrays:
# {"base": array, "trig": {id(t): (t, s, c)}}
_TRIG_MEMO = {"base": None, "trig": {}}


def _read_only_base(t):
    """The array at the bottom of ``t``'s views if ``t`` and every array
    it views are read-only, else None."""
    while isinstance(t, np.ndarray) and not t.flags.writeable:
        if t.base is None:
            return t
        t = t.base
    return None


def _sin_cos(t):
    """sin(pi t) and cos(pi t), memoized for read-only arrays (module
    docstring); a new read-only base replaces the memo's point set."""
    base = _read_only_base(t)
    if base is None:
        arg = np.pi * t
        return np.sin(arg), np.cos(arg)
    if _TRIG_MEMO["base"] is not base:
        _TRIG_MEMO["base"], _TRIG_MEMO["trig"] = base, {}
    hit = _TRIG_MEMO["trig"].get(id(t))
    if hit is None:
        arg = np.pi * t
        hit = _TRIG_MEMO["trig"][id(t)] = (t, np.sin(arg), np.cos(arg))
    return hit[1:]


def _sin3_derivatives(t, orders):
    """Derivatives of g(t) = sin^3(pi t) of the given orders (0..4).

    One sine and one cosine of ``t`` serve every order; the result is a
    tuple in the order of ``orders``.
    """
    s, c = _sin_cos(t)
    out = []
    for order in orders:
        if order == 0:
            out.append(s ** 3)
        elif order == 1:
            out.append(3.0 * np.pi * s ** 2 * c)
        elif order == 2:
            out.append(3.0 * np.pi ** 2 * (2.0 * s * c ** 2 - s ** 3))
        elif order == 3:
            out.append(3.0 * np.pi ** 3 * (2.0 * c ** 3 - 7.0 * s ** 2 * c))
        elif order == 4:
            out.append(3.0 * np.pi ** 4 * (7.0 * s ** 3 - 20.0 * s * c ** 2))
        else:
            raise ValueError("order must be 0..4")
    return tuple(out)


def g_sin3(t, order=0):
    """Derivatives of g(t) = sin^3(pi t) up to fourth order."""
    return _sin3_derivatives(t, (order,))[0]


def biharmonic_sin3(x, y):
    """lap^2 u for u = sin^3(pi x) sin^3(pi y)."""
    gx0, gx2, gx4 = _sin3_derivatives(x, (0, 2, 4))
    gy0, gy2, gy4 = _sin3_derivatives(y, (0, 2, 4))
    return gx4 * gy0 + 2.0 * gx2 * gy2 + gx0 * gy4


@dataclass
class ManufacturedCase:
    """Exact solution triple with derivatives and derived data.

    ``u``/``phi`` are value callables and ``*_hess`` return
    (w_xx, w_xy, w_yy). ``q`` is the clamped exact control
    and ``f``, ``u_d`` the induced problem data.
    """

    u: object
    u_hess: object
    phi: object
    phi_hess: object
    q: object
    f: object
    u_d: object
    alpha: float
    lower: float
    upper: float

    def energy_errors(self, ws, *solutions):
        """(||u - u_h||_h, ||phi - phi_h||_h) of each solution on ``ws`` in
        turn, a tuple of two norms per solution.

        Each distinct exact Hessian is evaluated once for all solutions;
        when ``phi_hess`` is ``u_hess`` that is one evaluation.
        """
        def norms(coeffs, hess):
            return error_norms(coeffs, ws.dofmap, hess, ws.geom, ws.cache,
                               ws.spec.eta)

        if self.phi_hess is self.u_hess:
            return tuple(norms([c for sol in solutions
                                for c in (sol.u, sol.phi)], self.u_hess))
        e_u = norms([sol.u for sol in solutions], self.u_hess)
        e_phi = norms([sol.phi for sol in solutions], self.phi_hess)
        return tuple(e for pair in zip(e_u, e_phi) for e in pair)

    def control_error(self, geom, q_h):
        """||q - q_h||_{0,Omega} for a piecewise-constant control field.

        ``geom`` is the element geometry of the mesh that carries ``q_h``.
        """
        rule = quadrature("triangle", CONTROL_ERROR_DEGREE)
        x, y = geom.quad_points(rule)
        qex = np.broadcast_to(np.asarray(self.q(x, y), dtype=float), x.shape)
        diff = qex - q_h.values[:, None]
        val = np.einsum("q,tq->", rule.weights, diff ** 2 * geom.det[:, None])
        return float(np.sqrt(val))


def example1_case(alpha=1e-3, lower=-750.0, upper=-50.0):
    """sin^3 manufactured distributed control problem on the unit square."""

    def u(x, y):
        return g_sin3(x) * g_sin3(y)

    def u_hess(x, y):
        gx0, gx1, gx2 = _sin3_derivatives(x, (0, 1, 2))
        gy0, gy1, gy2 = _sin3_derivatives(y, (0, 1, 2))
        return gx2 * gy0, gx1 * gy1, gx0 * gy2

    def q(x, y):
        return clamp(-u(x, y) / alpha, lower, upper)

    def f(x, y):
        return biharmonic_sin3(x, y) - q(x, y)

    def u_d(x, y):
        return u(x, y) - biharmonic_sin3(x, y)

    return ManufacturedCase(u=u, u_hess=u_hess, phi=u, phi_hess=u_hess,
                            q=q, f=f, u_d=u_d,
                            alpha=alpha, lower=lower, upper=upper)


def example1_spec(alpha=1e-3, lower=-750.0, upper=-50.0, eta=10.0):
    """ProblemSpec for the manufactured distributed problem."""
    case = example1_case(alpha, lower, upper)
    return ProblemSpec(kind="distributed", f=case.f, u_d=case.u_d,
                       alpha=alpha, lower=lower, upper=upper, eta=eta,
                       exact=case)


def example2_spec(alpha=1e-3, lower=-750.0, upper=-50.0, eta=10.0):
    """Distributed control with f = 1, u_d = 1 (L-shape benchmark data)."""

    def one(x, y):
        return np.ones_like(np.asarray(x, dtype=float))

    return ProblemSpec(kind="distributed", f=one, u_d=one, alpha=alpha,
                       lower=lower, upper=upper, eta=eta, load_degree=2)


def boundary_demo_spec(alpha=1e-3, lower=-750.0, upper=-50.0, eta=10.0):
    """Boundary flux control on the square driven by the sin^3 source."""

    def zero(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ProblemSpec(kind="boundary", f=biharmonic_sin3, u_d=zero,
                       alpha=alpha, lower=lower, upper=upper, eta=eta)
