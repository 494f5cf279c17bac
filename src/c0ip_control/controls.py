"""Control fields, the box clamp and the discrete optimality check.

Controls live on boundary edges (boundary flux control) or on triangles
(distributed control). The entity means Pi_h(B_h v) of a P2 function v are
B^T v / measures, with the coupling B and the measures that
``assembly.control_coupling`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ControlField",
    "clamp",
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
    """Piecewise-constant control on boundary edges or triangles, or the
    variational discretization's control at quadrature points."""

    kind: str                 # "boundary" | "distributed"
    values: np.ndarray        # one value per control entity
    lower: float
    upper: float
    measures: np.ndarray      # edge lengths, triangle areas or point weights

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


def vi_residual(q, means, alpha, tol=1e-10):
    """Check the discrete first-order conditions for a control field.

    ``means`` holds Pi_h(B_h phi), one value per control entity. With
    m = Pi_h(B_h phi) + alpha q the conditions are m >= 0 where q sits
    at the lower bound, m <= 0 at the upper bound and |m| <= tol in between.
    The global inequality <m, p - q> >= 0 is sampled at the two constant
    admissible controls p = lower and p = upper (skipped if infinite).
    """
    if not q.admissible:
        raise ValueError("control field is not admissible")
    m = means + alpha * q.values
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
