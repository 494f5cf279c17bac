"""Control-space operators: traces, piecewise-constant projection, box clamp.

Controls live on boundary edges (boundary flux control) or on triangles
(distributed control). The trace operator maps a P2 function to its
edge-wise normal derivative (linear per boundary edge) or to itself
(quadratic per triangle); the projection takes entity-wise means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import build_edge_cache
from .fem import quadrature, shape_values

__all__ = [
    "ControlField",
    "TraceField",
    "control_measures",
    "bh_apply",
    "pi_h",
    "clamp",
    "clamp_field",
    "vi_residual",
]


def clamp(values, lower, upper):
    """min(upper, max(lower, values)); infinite bounds skip that side."""
    values = np.asarray(values, dtype=float)
    if np.isfinite(lower):
        values = np.maximum(values, lower)
    if np.isfinite(upper):
        values = np.minimum(values, upper)
    return values


@dataclass
class ControlField:
    """Piecewise-constant control on boundary edges or triangles."""

    kind: str                 # "boundary" | "distributed"
    values: np.ndarray        # one value per control entity
    lower: float
    upper: float
    measures: np.ndarray      # edge lengths or triangle areas

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.measures = np.asarray(self.measures, dtype=float)
        if len(self.values) != len(self.measures):
            raise ValueError("entity count mismatch")

    @property
    def admissible(self):
        lo = self.values >= self.lower - 1e-14 if np.isfinite(self.lower) else True
        hi = self.values <= self.upper + 1e-14 if np.isfinite(self.upper) else True
        return bool(np.all(lo & hi))

    def norm(self):
        """L2 norm over the control domain."""
        return float(np.sqrt(np.sum(self.measures * self.values ** 2)))


def control_measures(mesh, kind):
    """Entity measures for a control space on ``mesh``."""
    if kind == "distributed":
        return mesh.signed_areas()
    if kind == "boundary":
        return mesh.edge_lengths()[mesh.boundary_edges]
    raise ValueError("kind must be 'distributed' or 'boundary'")


@dataclass
class TraceField:
    """Entity-local polynomial data of B_h v.

    Boundary kind: values of dv/dn at the two edge Gauss points per boundary
    edge, shape (ne, 2). Distributed kind: the six local P2 coefficients per
    triangle, shape (nt, 6).
    """

    kind: str
    mesh: object
    data: np.ndarray

    def means(self):
        """Entity-wise mean value (the piecewise-constant projection)."""
        if self.kind == "boundary":
            wg = np.asarray(quadrature("edge", 3).weights)
            return self.data @ wg
        rule = quadrature("triangle", 2)
        vals = shape_values(rule.points)
        integral = np.einsum("q,qi,ti->t", rule.weights, vals, self.data)
        # reference integral / reference area
        return integral / 0.5


def bh_apply(kind, v, cache=None):
    """Apply the control trace operator B_h to a P2 function."""
    if kind == "distributed":
        return TraceField(kind, v.mesh, v.coeffs[v.dofmap.tri_dofs].copy())
    if kind == "boundary":
        if cache is None:
            cache = build_edge_cache(v.mesh, v.dofmap)
        return TraceField(kind, v.mesh,
                          cache.boundary_normal_derivative(v.coeffs))
    raise ValueError("kind must be 'distributed' or 'boundary'")


def pi_h(trace):
    """Project a trace (or per-entity values) onto piecewise constants."""
    if isinstance(trace, TraceField):
        return trace.means()
    return np.asarray(trace, dtype=float).copy()


def clamp_field(d, alpha, lower, upper, kind, measures):
    """Control field with values min(upper, max(lower, -d/alpha))."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    values = clamp(-np.asarray(d, dtype=float) / alpha, lower, upper)
    return ControlField(kind, values, lower, upper, measures)


@dataclass
class ViReport:
    """Entity-wise KKT sign check and sampled variational-inequality values."""

    multiplier: np.ndarray      # Pi_h(B_h phi) + alpha q per entity
    at_lower: np.ndarray
    at_upper: np.ndarray
    violations: np.ndarray      # bool per entity
    vi_lower: float | None      # <m, lower*1 - q>
    vi_upper: float | None      # <m, upper*1 - q>

    @property
    def satisfied(self):
        return not bool(self.violations.any())


def vi_residual(q, trace, alpha, tol=1e-10):
    """Check the discrete first-order conditions for a control field.

    With m = Pi_h(B_h phi) + alpha q the conditions are m >= 0 where q sits
    at the lower bound, m <= 0 at the upper bound and |m| <= tol in between.
    The global inequality <m, p - q> >= 0 is sampled at the two constant
    admissible controls p = lower and p = upper (skipped if infinite).
    """
    if not q.admissible:
        raise ValueError("control field is not admissible")
    m = pi_h(trace) + alpha * q.values
    bound_tol = 1e-12 * max(1.0, np.abs(q.values).max(initial=0.0))
    at_lower = (np.isfinite(q.lower)
                & (np.abs(q.values - q.lower) <= bound_tol))
    at_upper = (np.isfinite(q.upper)
                & (np.abs(q.values - q.upper) <= bound_tol))
    interior = ~(at_lower | at_upper)
    scale = max(1.0, np.abs(m).max(initial=0.0))
    bad = np.zeros(len(m), dtype=bool)
    bad[at_lower] = m[at_lower] < -tol * scale
    bad[at_upper] = m[at_upper] > tol * scale
    bad[interior] = np.abs(m[interior]) > tol * scale

    def vi_value(p_const):
        return float(np.sum(q.measures * m * (p_const - q.values)))

    vi_lo = vi_value(q.lower) if np.isfinite(q.lower) else None
    vi_hi = vi_value(q.upper) if np.isfinite(q.upper) else None
    return ViReport(m, at_lower, at_upper, bad, vi_lo, vi_hi)
