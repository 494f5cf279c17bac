"""Primal-dual active set solver for the discrete optimality system.

The discrete system couples the state equation A u = f + B q, the adjoint
equation A phi = M u - u_d and a variational inequality for the control.
The active-set iteration (a semismooth Newton method) fixes the control at
its bounds on the estimated active sets and solves for the inactive
controls q_I in reduced space: with u_0 and phi_0 the state and adjoint for
q_I = 0,

    (alpha D_I + B_I^T A^-1 M A^-1 B_I) q_I = -B_I^T phi_0,

an SPD system solved by conjugate gradients preconditioned with alpha D_I.
It serves both discretizations: the piecewise-constant control (D holds
triangle areas or edge lengths) and the variational one, whose control
clamp(-phi_h/alpha) lives at the points x_k of a degree-8 rule, with
B[i, (t, k)] = w_k det_t v_i(x_k) and D = w_k det_t. Every solve with A uses
one sparse LU factor of A per discretization.

Each CG step applies the reduced Hessian to its direction p through
A^-1 B_I p and A^-1 M A^-1 B_I p, the changes of the state and adjoint
along p, so CG carries u and phi along with q_I and no iteration
back-solves them. An iteration with inactive controls makes two solves for
(u_0, phi_0), two for the CG start and two per CG step. CG stops once its
recursive residual is at most CG_RTOL ||B_I^T phi_0||; that relative
residual is what ``PdasStep.cg_residual`` and ``KktSolution.cg_residual``
report. The carried state is u_0 + A^-1 B_I q_I; where the two terms nearly
cancel (small alpha without bounds) its backward error, which
``KktSolution.state_residual`` reports, exceeds that of a fresh solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (assemble_a_h, assemble_load, assemble_mass,
                       build_edge_cache, control_coupling, element_geometry,
                       eval_on_elements)
from .controls import ControlField
from .fem import P2Function, build_dofmap, quadrature, shape_values

__all__ = [
    "ProblemSpec",
    "KktSolution",
    "Discretization",
    "PdasError",
    "PdasStep",
    "discretize",
    "solve_linear_block",
    "solve_pdas",
    "solve_variational",
    "projection_ph",
]


# CG on the reduced control system stops at this relative residual and
# fails after CG_MAX_ITER steps
CG_RTOL = 1e-13
CG_MAX_ITER = 200

# degree of the triangle rule whose points carry the variational control
VD_QUAD_DEGREE = 8

# degree of the triangle rule of the loads of ``projection_ph``
PROJECTION_DEGREE = 8


class PdasError(RuntimeError):
    """A factorization, a reduced CG solve or the active-set loop failed."""

    def __init__(self, message, signatures=None):
        super().__init__(message)
        self.signatures = signatures


@dataclass
class ProblemSpec:
    """Data of one control problem instance.

    ``kind`` selects distributed (volume source) or boundary (flux) control.
    ``f`` and ``u_d`` are vectorized callables of (x, y). ``exact`` may hold
    a manufactured solution (see ``cases``) for error reporting.
    """

    kind: str
    f: object
    u_d: object
    alpha: float = 1e-3
    lower: float = -750.0
    upper: float = -50.0
    eta: float = 10.0
    exact: object = None
    load_degree: int = 6

    def __post_init__(self):
        if self.kind not in ("distributed", "boundary"):
            raise ValueError("kind must be 'distributed' or 'boundary'")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if (np.isfinite(self.lower) and np.isfinite(self.upper)
                and not self.lower < self.upper):
            raise ValueError("bounds must satisfy lower < upper")


@dataclass
class Discretization:
    """Assembled operators for one (spec, mesh) pair.

    ``geom`` is built once here and is the element geometry that every
    operator, estimator and error norm of this pair uses.
    """

    spec: ProblemSpec
    mesh: object
    dofmap: object
    geom: object               # ElementGeometry of ``mesh``
    cache: object
    stiffness: object          # SparseOperator
    mass: object               # SparseOperator
    coupling: sp.csr_matrix    # ndof x n_entities
    measures: np.ndarray
    load_f: np.ndarray         # int f v_i over all dofs
    load_ud: np.ndarray        # int u_d v_i over all dofs

    def full_coeffs(self, free_vec):
        out = np.zeros(self.dofmap.ndof)
        out[self.dofmap.free] = free_vec
        return out

    @cached_property
    def lu(self):
        """Sparse LU factor of the free block of A_h, made on first use.

        A_h is symmetric, so the columns are ordered by minimum degree on
        A + A^T and the diagonal is kept as pivot unless it is smaller than
        a tenth of its column's largest entry; at 16k dofs this has half
        the fill of the default column ordering.
        """
        try:
            return spla.splu(self.stiffness.free, permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=0.1,
                             options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise PdasError("factorization of A_h failed: %s" % exc) from exc

    @cached_property
    def a_norm(self):
        """Infinity norm of the free block of A_h, for backward errors."""
        return spla.norm(self.stiffness.free, np.inf)

    @cached_property
    def ud_norm2(self):
        """int u_d^2 dx with the quadrature rule of ``load_ud``."""
        rule = quadrature("triangle", self.spec.load_degree)
        x, y = self.geom.quad_points(rule)
        ud = np.broadcast_to(np.asarray(self.spec.u_d(x, y), dtype=float),
                             x.shape)
        return float(np.einsum("q,tq->", rule.weights,
                               ud ** 2 * self.geom.det[:, None]))


def discretize(spec, mesh):
    dofmap = build_dofmap(mesh)
    geom = element_geometry(mesh)
    cache = build_edge_cache(mesh, dofmap, geom)
    a_op = assemble_a_h(dofmap, geom, cache, spec.eta)
    m_op = assemble_mass(dofmap, geom)
    bmat, measures = control_coupling(dofmap, geom, cache, spec.kind)
    load_f = assemble_load(dofmap, geom, spec.f, spec.load_degree)
    load_ud = assemble_load(dofmap, geom, spec.u_d, spec.load_degree)
    return Discretization(spec, mesh, dofmap, geom, cache, a_op, m_op, bmat,
                          measures, load_f, load_ud)


def backward_error(op_norm, x, residual, rhs):
    """Normwise relative backward error ||r|| / (||A|| ||x|| + ||b||)."""
    denom = op_norm * np.linalg.norm(x) + np.linalg.norm(rhs)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(residual) / denom)


def solve_linear_block(a_free, m_free, coupling_free, rhs_state, rhs_adjoint):
    """Solve [[A, C], [-M, A]] [u; phi] = [b1; b2] by sparse LU.

    Returns (u, phi, normwise backward error of the block system).
    """
    n = a_free.shape[0]
    block = sp.bmat([[a_free, coupling_free], [-m_free, a_free]],
                    format="csc")
    rhs = np.concatenate([rhs_state, rhs_adjoint])
    try:
        lu = spla.splu(block)
    except RuntimeError as exc:
        raise PdasError("block factorization failed: %s" % exc) from exc
    sol = lu.solve(rhs)
    res = backward_error(spla.norm(block, np.inf), sol,
                         block @ sol - rhs, rhs)
    return sol[:n], sol[n:], res


@dataclass(frozen=True)
class PdasStep:
    """Record of one active-set iteration.

    ``inactive`` is the size of the inactive set, ``flipped`` the number of
    entities whose set (lower, upper, inactive) changed from the previous
    iteration (from all-inactive at the first), ``cg_steps`` and
    ``cg_residual`` the steps and final residual of the reduced solve,
    relative to ||B_I^T phi_0|| (0 and 0.0 when every control is active,
    see the module docstring), and ``infeasible`` the number of inactive
    controls of the iterate outside [lower, upper]. ``objective`` is the
    discrete tracking functional of the iterate.

    The objective of an iterate with ``infeasible > 0`` may lie below that
    of the feasible iterate that follows it, so PDAS is not monotone there.
    """

    inactive: int
    flipped: int
    cg_steps: int
    cg_residual: float
    infeasible: int
    objective: float


@dataclass
class KktSolution:
    """Solution triple with active sets and solver diagnostics."""

    u: P2Function
    phi: P2Function
    q: ControlField
    active_lower: np.ndarray
    active_upper: np.ndarray
    iterations: int
    state_residual: float
    adjoint_residual: float
    cg_residual: float
    trace: list = field(default_factory=list)    # PdasStep per iteration


def _residuals(ws, u_free, phi_free, control_load):
    """Backward errors of the state and adjoint equations; ``control_load``
    is B q on the free dofs."""
    free = ws.dofmap.free
    a_f, m_f = ws.stiffness.free, ws.mass.free
    rhs_state = ws.load_f[free] + control_load
    r_state = a_f @ u_free - rhs_state
    rhs_adj = m_f @ u_free - ws.load_ud[free]
    r_adj = a_f @ phi_free - rhs_adj
    return (backward_error(ws.a_norm, u_free, r_state, rhs_state),
            backward_error(ws.a_norm, phi_free, r_adj, rhs_adj))


def _objective(ws, u_free, qvals, measures):
    """Discrete tracking functional 0.5||u - u_d||^2 + 0.5 alpha ||q||_Q^2.

    ||u - u_d||^2 = u^T M u - 2 u^T l_ud + int u_d^2, with l_ud = ``load_ud``
    and int u_d^2 taken with the same rule, equals the quadrature of
    (u - u_d)^2 with that rule because M is exact for P2.
    """
    free = ws.dofmap.free
    track = (u_free @ (ws.mass.free @ u_free)
             - 2.0 * (u_free @ ws.load_ud[free]) + ws.ud_norm2)
    return 0.5 * float(track) + 0.5 * ws.spec.alpha * float(
        np.sum(measures * qvals ** 2))


def _pcg(apply, rhs, x, inv_diag, carried):
    """Diagonally preconditioned CG for an SPD operator H from start ``x``.

    ``apply(v)`` returns (H v, images), where ``images`` are arrays linear
    in v, L_k v; ``carried`` holds one offset c_k per image. CG updates
    c_k + L_k x along with x from the images of its directions, so no
    further ``apply`` is needed to read them at the final x.

    Stops once ||rhs - H x|| <= CG_RTOL ||rhs|| (recursive residual) and
    returns (x, [c_k + L_k x], steps, relative residual), which the
    iteration trace records; returns x = 0 and ``carried`` unchanged when
    ``rhs`` is zero, and raises PdasError after CG_MAX_ITER steps without
    convergence.
    """
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), carried, 0, 0.0
    x = x.copy()
    hx, images = apply(x)
    carried = [c + image for c, image in zip(carried, images)]
    r = rhs - hx
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for steps in range(CG_MAX_ITER + 1):
        rel = float(np.linalg.norm(r) / rhs_norm)
        if rel <= CG_RTOL:
            return x, carried, steps, rel
        if steps == CG_MAX_ITER:
            break
        hp, images = apply(p)
        step = rz / (p @ hp)
        x += step * p
        for c, image in zip(carried, images):
            c += step * image
        r -= step * hp
        z = inv_diag * r
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    raise PdasError("CG on the reduced control system did not converge in "
                    "%d steps (relative residual %.3e)" % (CG_MAX_ITER, rel))


def solve_pdas(ws, max_iter=50):
    """Primal-dual active set iteration for the coupled optimality system.

    Active sets come from the raw (unclamped) control estimate
    -(1/alpha) Pi_h(B_h phi), from phi = 0 at the first iteration; entities
    with estimate at or beyond a bound are fixed there. The inactive
    controls solve the reduced system of the module docstring by CG,
    warm-started from the raw estimate; CG carries the state and adjoint
    along with them, and the inactive controls are then set to the raw
    estimate of that adjoint, so the clamp relation holds exactly.
    Terminates when the active sets repeat; raises ``PdasError`` with the
    cycle's signatures when an earlier active set other than the last one
    comes back.
    """
    b_f = ws.coupling[ws.dofmap.free].tocsc()
    return _pdas(ws, b_f, ws.measures, np.zeros(len(ws.measures)), max_iter)


def _pdas(ws, b_f, d_meas, raw, max_iter):
    """``solve_pdas`` for the coupling whose free rows are ``b_f`` (CSC),
    with control measures ``d_meas``, from the raw control ``raw``."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    spec = ws.spec
    m_f = ws.mass.free
    load_f, load_ud = ws.load_f[ws.dofmap.free], ws.load_ud[ws.dofmap.free]
    alpha = spec.alpha
    nent = len(d_meas)
    lu = ws.lu

    prev_status = np.zeros(nent, dtype=np.int8)
    seen = []
    solution = None
    trace = []

    for it in range(1, max_iter + 1):
        act_up = (raw >= spec.upper) if np.isfinite(spec.upper) \
            else np.zeros(nent, dtype=bool)
        act_lo = (raw <= spec.lower) if np.isfinite(spec.lower) \
            else np.zeros(nent, dtype=bool)
        act_lo &= ~act_up
        sig = (act_up.tobytes(), act_lo.tobytes())
        if seen and sig == seen[-1]:
            u_free, phi_free, qvals, cg_res = solution
            break
        if sig in seen:
            cycle = seen[seen.index(sig):]
            raise PdasError(
                "active sets cycle with period %d after %d iterations"
                % (len(cycle), it - 1), signatures=cycle)
        seen.append(sig)

        inactive = ~(act_up | act_lo)
        qvals = np.zeros(nent)
        qvals[act_up] = spec.upper
        qvals[act_lo] = spec.lower
        u_free = lu.solve(load_f + b_f @ qvals)
        phi_free = lu.solve(m_f @ u_free - load_ud)
        cg_steps, cg_res = 0, 0.0
        if inactive.any():
            b_in = b_f[:, inactive]
            alpha_d = alpha * d_meas[inactive]

            def reduced_hessian(x):
                du = lu.solve(b_in @ x)
                dphi = lu.solve(m_f @ du)
                return alpha_d * x + b_in.T @ dphi, (du, dphi)

            _, (u_free, phi_free), cg_steps, cg_res = _pcg(
                reduced_hessian, -(b_in.T @ phi_free), raw[inactive],
                1.0 / alpha_d, (u_free, phi_free))

        raw = -(b_f.T @ phi_free) / (alpha * d_meas)
        q_in = raw[inactive]
        qvals[inactive] = q_in
        solution = (u_free, phi_free, qvals, cg_res)
        status = act_up.astype(np.int8) - act_lo.astype(np.int8)
        trace.append(PdasStep(
            int(inactive.sum()), int(np.count_nonzero(status != prev_status)),
            cg_steps, cg_res,
            int(np.count_nonzero((q_in < spec.lower) | (q_in > spec.upper))),
            _objective(ws, u_free, qvals, d_meas)))
        prev_status = status
    else:
        raise PdasError(
            "active sets did not stabilize within %d iterations" % max_iter,
            signatures=seen[-2:])

    q = ControlField(spec.kind, qvals, spec.lower, spec.upper, d_meas)
    r_state, r_adj = _residuals(ws, u_free, phi_free, b_f @ qvals)
    return KktSolution(
        u=P2Function(ws.mesh, ws.dofmap, ws.full_coeffs(u_free)),
        phi=P2Function(ws.mesh, ws.dofmap, ws.full_coeffs(phi_free)),
        q=q,
        active_lower=np.flatnonzero(act_lo),
        active_upper=np.flatnonzero(act_up),
        iterations=it - 1,
        state_residual=r_state,
        adjoint_residual=r_adj,
        cg_residual=cg_res,
        trace=trace,
    )


def _point_coupling(ws, rule):
    """Free rows of N[i, (t, k)] = w_k det_t v_i(x_k) in CSC, column
    t * nq + k, and the point measures w_k det_t, for ``rule``'s points."""
    dofmap = ws.dofmap
    nt, nq = len(dofmap.tri_dofs), len(rule.weights)
    measures = (ws.geom.det[:, None] * rule.weights).ravel()
    free_index = np.full(dofmap.ndof, -1, dtype=np.int32)
    free_index[dofmap.free] = np.arange(dofmap.nfree, dtype=np.int32)
    rows = free_index[dofmap.tri_dofs]                       # (nt, 6)
    is_free = rows >= 0
    keep = np.repeat(is_free[:, None, :], nq, axis=1)        # (nt, nq, 6)
    values = measures.reshape(nt, nq, 1) * shape_values(rule.points)
    indptr = np.zeros(nt * nq + 1, dtype=np.int32)
    np.cumsum(np.repeat(np.count_nonzero(is_free, axis=1), nq),
              out=indptr[1:])
    indices = np.broadcast_to(rows[:, None, :], keep.shape)[keep]
    n_f = sp.csc_matrix((values[keep], indices, indptr),
                        shape=(dofmap.nfree, nt * nq))
    return n_f, measures


def solve_variational(ws, full):
    """Variational discretization: PDAS with one control per point.

    The control is clamp(-phi_h/alpha) at the points of the degree-8 rule
    (module docstring). The iteration starts from -phi_full(x_k)/alpha,
    with ``full`` the ``solve_pdas`` solution of ``ws``, and returns a
    ``KktSolution`` whose ``q`` holds the point values, triangle by
    triangle. Distributed control only; raises ``PdasError`` as
    ``solve_pdas`` does.
    """
    spec = ws.spec
    if spec.kind != "distributed":
        raise ValueError("variational discretization: distributed kind only")
    rule = quadrature("triangle", VD_QUAD_DEGREE)
    n_f, measures = _point_coupling(ws, rule)
    phi_at_points = eval_on_elements(ws.dofmap, full.phi.coeffs, rule)
    return _pdas(ws, n_f, measures, -phi_at_points.ravel() / spec.alpha,
                 max_iter=50)


def evaluate_p2(v, x, y):
    """Evaluate a P2 function at arbitrary points inside the domain.

    Every point is located by a search over all triangles.
    """
    mesh = v.mesh
    pts = np.column_stack([np.atleast_1d(np.asarray(x, dtype=float)).ravel(),
                           np.atleast_1d(np.asarray(y, dtype=float)).ravel()])
    geom = element_geometry(mesh)
    out = np.empty(len(pts))
    for lo in range(0, len(pts), 256):
        chunk = pts[lo:lo + 256]
        rel = chunk[None, :, :] - geom.v0[:, None, :]
        ref = np.einsum("tab,tpb->tpa", geom.inv_jac, rel)
        lam0 = 1.0 - ref[..., 0] - ref[..., 1]
        inside = (ref[..., 0] >= -1e-10) & (ref[..., 1] >= -1e-10) \
            & (lam0 >= -1e-10)
        tri = np.argmax(inside, axis=0)
        sel = np.arange(len(chunk))
        if not inside[tri, sel].all():
            raise ValueError("point outside the mesh")
        vals = shape_values(ref[tri, sel])
        out[lo:lo + 256] = np.einsum(
            "pi,pi->p", vals, v.coeffs[v.dofmap.tri_dofs[tri]])
    return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])


def projection_ph(ws, which):
    """Discrete solutions of the auxiliary problems driven by exact data.

    ``which`` = "state": a_h(P_h u, v) = (f, v) + <q, B_h v> with the exact
    control q; "adjoint": a_h(v, P_h phi) = (u - u_d, v) with the exact
    state u. Requires ``spec.exact``.
    """
    spec = ws.spec
    if spec.exact is None:
        raise ValueError("projection requires a manufactured exact solution")
    free = ws.dofmap.free
    lu = ws.lu
    case = spec.exact
    if which == "state":
        rhs = ws.load_f
        if spec.kind == "distributed":
            rhs = rhs + assemble_load(ws.dofmap, ws.geom, case.q,
                                      PROJECTION_DEGREE)
        else:
            raise NotImplementedError("boundary-control projection")
    elif which == "adjoint":
        def misfit(x, y):
            return case.u(x, y) - spec.u_d(x, y)
        rhs = assemble_load(ws.dofmap, ws.geom, misfit, PROJECTION_DEGREE)
    else:
        raise ValueError("which must be 'state' or 'adjoint'")
    sol = lu.solve(rhs[free])
    return P2Function(ws.mesh, ws.dofmap, ws.full_coeffs(sol))
