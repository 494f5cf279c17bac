"""Control fields, the box clamp and the discrete optimality check.

Controls live on boundary edges (boundary flux control) or on triangles
(distributed control). ``assembly.control_coupling`` builds the free rows
of the coupling B and the entity measures; the entity means Pi_h(B_h v) of
a P2 function v that vanishes on the boundary, as the state and the adjoint
do, are B^T v[free] / measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ControlField",
    "clamp",
    "vi_residual",
]

# relative tolerance of vi_residual's sign checks
VI_TOL = 1e-10


def clamp(values, lower, upper):
    """min(upper, max(lower, values)); an infinite bound leaves its side."""
    return np.minimum(np.maximum(np.asarray(values, dtype=float), lower),
                      upper)


@dataclass
class ControlField:
    """Piecewise-constant control on boundary edges or triangles, or the
    variational discretization's control at quadrature points."""

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
        return bool(np.all((self.values >= self.lower - 1e-14)
                           & (self.values <= self.upper + 1e-14)))


@dataclass
class ViReport:
    """Entity-wise KKT sign check and sampled variational-inequality values."""

    violations: np.ndarray      # bool per entity
    vi_lower: float | None      # <m, lower*1 - q>
    vi_upper: float | None      # <m, upper*1 - q>

    @property
    def satisfied(self):
        return not bool(self.violations.any())


def vi_residual(q, means, alpha):
    """Check the discrete first-order conditions for a control field.

    ``means`` holds Pi_h(B_h phi), one value per control entity. With
    m = Pi_h(B_h phi) + alpha q the conditions are m >= 0 where q sits
    at the lower bound, m <= 0 at the upper bound and |m| <= VI_TOL in
    between, each relative to max(1, max |m|). The global inequality
    <m, p - q> >= 0 is sampled at the two constant admissible controls
    p = lower and p = upper (skipped if infinite).
    """
    if not q.admissible:
        raise ValueError("control field is not admissible")
    m = means + alpha * q.values
    bound_tol = 1e-12 * max(1.0, np.abs(q.values).max(initial=0.0))
    at_lower = np.abs(q.values - q.lower) <= bound_tol
    at_upper = np.abs(q.values - q.upper) <= bound_tol
    interior = ~(at_lower | at_upper)
    scale = max(1.0, np.abs(m).max(initial=0.0))
    bad = np.zeros(len(m), dtype=bool)
    bad[at_lower] = m[at_lower] < -VI_TOL * scale
    bad[at_upper] = m[at_upper] > VI_TOL * scale
    bad[interior] = np.abs(m[interior]) > VI_TOL * scale

    def vi_value(p_const):
        return float(np.sum(q.measures * m * (p_const - q.values)))

    vi_lo = vi_value(q.lower) if np.isfinite(q.lower) else None
    vi_hi = vi_value(q.upper) if np.isfinite(q.upper) else None
    return ViReport(bad, vi_lo, vi_hi)
