"""Primal-dual active set solver for the discrete optimality system.

The discrete system couples the state equation A u = f + B q, the adjoint
equation A phi = M u - u_d and a variational inequality for the control.
The active-set iteration (a semismooth Newton method) fixes the control at
its bounds on the estimated active sets and solves for the inactive
controls q_I in reduced space, with the SPD operator
H = alpha D_I + B_I^T A^-1 M A^-1 B_I, by conjugate gradients
preconditioned with alpha D_I. It serves both discretizations: the
piecewise-constant control (D holds triangle areas or edge lengths) and
the variational one, whose control clamp(-phi_h/alpha) lives at the
points x_k of the degree-8 rule of the error norms
(``assembly.ERROR_DEGREE``), with B[i, (t, k)] = w_k det_t v_i(x_k) and
D = w_k det_t. The iteration reads B only through the products B x and
B^T y, B_I through them on controls that are zero off the inactive set:
the piecewise-constant control multiplies by the CSC coupling of the
discretization, and the variational one applies its point coupling
element by element, as one product of the reference shape values
v_i(x_k) with the point values scaled by w_k det_t, without assembling
it or tabulating its (nt, nq, 6) local values. Every solve with A uses
one sparse LU factor of A per discretization.

Each PDAS iteration starts from the control q_s that holds the bounds on
the active sets and the raw estimate on the inactive set, and back-solves
its state u_s and adjoint phi_s (two solves). With inactive controls, CG
from zero solves H dq = -(alpha D_I q_s,I + B_I^T phi_s) for the correction
of q_s,I at two solves per step, and the state and adjoint of q_s + dq are
back-solved (two solves), so every iterate's u and phi solve their
equations for its control. CG stops once its recursive residual is at
most CG_RTOL ||B_I^T phi_s||; that relative residual is what
``PdasStep.cg_residual`` reports, the solution's in
``KktSolution.trace[-1]``.

While the factor is alive the iteration keeps its control-sized arrays in
a fixed set of buffers: one control buffer, which holds the raw estimate,
then q_s, then q, and is returned; one inactive-supported vector, the
argument of B in the reduced Hessian; CG's x, r, z, p and H p on the
inactive set, updated in place; and for the variational control one
(nt, nq) work array shared by the products with N and N^T. A product
allocates only dof-sized vectors and the gathered (B^T y)_I. Each product
and CG step keeps the operands and the order of operations of the
textbook recurrences, so the results are the same arrays bit for bit as
with fresh arrays at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (ERROR_DEGREE, assemble_a_h, assemble_load,
                       assemble_mass, build_edge_cache, control_coupling,
                       element_geometry, eval_on_elements)
from .controls import ControlField
from .fem import build_dofmap, quadrature, shape_values

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
# fails after CG_MAX_ITER steps; PDAS fails after PDAS_MAX_ITER iterations
CG_RTOL = 1e-13
CG_MAX_ITER = 200
PDAS_MAX_ITER = 50

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
    ``data(x, y)`` returns the source f and the target u_d at the points.
    ``exact`` may hold a manufactured solution (see ``cases``) for error
    reporting.
    """

    kind: str
    data: object
    alpha: float = 1e-3
    lower: float = -750.0
    upper: float = -50.0
    eta: float = 10.0
    exact: object = None
    load_degree: int = 6

    def __post_init__(self):
        if self.kind not in ("distributed", "boundary"):
            raise ValueError("kind must be 'distributed' or 'boundary'")
        if not 0.0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite, got %r"
                             % (self.alpha,))
        if not self.lower < self.upper:
            raise ValueError("bounds must satisfy lower < upper, got %r, %r"
                             % (self.lower, self.upper))
        if not 0.0 < self.eta < np.inf:
            raise ValueError("penalty parameter eta must be positive and "
                             "finite, got %r" % (self.eta,))

    def data_at(self, x, y):
        """(f, u_d) at the points (x, y), each an array of their shape."""
        return tuple(np.broadcast_to(np.asarray(v, dtype=float), x.shape)
                     for v in self.data(x, y))


@dataclass
class Discretization:
    """Assembled operators for one (spec, mesh) pair.

    ``geom`` is built once here and is the element geometry that every
    operator, estimator and error norm of this pair uses. Every operator
    and load lives on the free dofs, assembled there: ``stiffness`` and
    ``mass`` are the free blocks of A_h and M, ``coupling`` the free rows
    of B; the factor and the PDAS products read them as they are.
    """

    spec: ProblemSpec
    mesh: object
    dofmap: object
    geom: object               # ElementGeometry of ``mesh``
    cache: object
    stiffness: sp.csc_matrix   # nfree x nfree
    mass: sp.csc_matrix        # nfree x nfree
    coupling: sp.csc_matrix    # nfree x n_entities
    measures: np.ndarray
    load_f: np.ndarray         # int f v_i over the free dofs
    load_ud: np.ndarray        # int u_d v_i over the free dofs
    ud_norm2: float            # int u_d^2 dx with the rule of ``load_ud``

    def full_coeffs(self, free_vec):
        out = np.zeros(self.dofmap.ndof)
        out[self.dofmap.free] = free_vec
        return out

    @cached_property
    def lu(self):
        """Sparse LU factor of the free block of A_h, made on first use.

        A_h is symmetric, so the columns are ordered by minimum degree on
        A + A^T and the diagonal is kept as pivot unless it is smaller than
        a tenth of its column's largest entry. Minimum degree breaks its
        ties by the input order, the factor order of ``DofMap.free``: at
        h = 1/64 (16 129 dofs) the factor stores 2.81M entries, against
        2.98M with the free dofs ascending and 5.26M with the default
        column ordering.
        """
        try:
            return spla.splu(self.stiffness, permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=0.1,
                             options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise PdasError("factorization of A_h failed: %s" % exc) from exc

    @cached_property
    def a_norm(self):
        """Infinity norm of the free block of A_h, for backward errors.

        A_h is symmetric, so this is its largest absolute column sum; no
        column of the SPD block is empty.
        """
        a = self.stiffness
        return np.add.reduceat(np.abs(a.data), a.indptr[:-1]).max()


def discretize(spec, mesh):
    dofmap = build_dofmap(mesh)
    geom = element_geometry(mesh)
    cache = build_edge_cache(mesh, dofmap, geom)
    a_free = assemble_a_h(dofmap, geom, cache, spec.eta)
    m_free = assemble_mass(dofmap, geom)
    bmat, measures = control_coupling(dofmap, geom, cache, spec.kind)
    # f and u_d at the load rule's points give both loads and int u_d^2
    rule = quadrature("triangle", spec.load_degree)
    f, ud = spec.data_at(*geom.quad_points(rule))
    load_f = assemble_load(dofmap, geom, f, spec.load_degree)
    load_ud = assemble_load(dofmap, geom, ud, spec.load_degree)
    ud_norm2 = float(np.einsum("q,tq->", rule.weights,
                               ud ** 2 * geom.det[:, None]))
    return Discretization(spec, mesh, dofmap, geom, cache, a_free, m_free,
                          bmat, measures, load_f, load_ud, ud_norm2)


def backward_error(op_norm, x, residual, rhs):
    """Normwise relative backward error ||r|| / (||A|| ||x|| + ||b||)."""
    denom = op_norm * np.linalg.norm(x) + np.linalg.norm(rhs)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(residual) / denom)


def solve_linear_block(a_free, m_free, coupling_free, rhs_state, rhs_adjoint):
    """Solve [[A, C], [-M, A]] [u; phi] = [b1; b2] by sparse LU and one
    step of iterative refinement.

    The blocks differ in scale by up to 1/alpha, and the refinement step
    makes the solution componentwise backward stable (Skeel), which a
    single LU solve is not: at alpha = 1e-7 without bounds on
    ``make_unit_square(16)`` it moves u by 1.3e-9 relative, onto a
    refined solution of the same system.

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
    sol += lu.solve(rhs - block @ sol)
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
    relative to ||B_I^T phi_s|| (0 and 0.0 when every control is active,
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
    """Solution triple with active sets and solver diagnostics.

    ``u`` and ``phi`` are the (ndof,) coefficients of the discrete state
    and adjoint over the ``DofMap`` of the discretization they solve.
    ``trace`` holds one ``PdasStep`` per PDAS iteration.
    """

    u: np.ndarray
    phi: np.ndarray
    q: ControlField
    active_lower: np.ndarray
    active_upper: np.ndarray
    state_residual: float
    adjoint_residual: float
    trace: list    # PdasStep per iteration

    @property
    def iterations(self):
        """Number of PDAS iterations."""
        return len(self.trace)


def _residuals(ws, u_free, phi_free, control_load):
    """Backward errors of the state and adjoint equations; ``control_load``
    is B q on the free dofs."""
    a_f, m_f = ws.stiffness, ws.mass
    rhs_state = ws.load_f + control_load
    r_state = a_f @ u_free - rhs_state
    rhs_adj = m_f @ u_free - ws.load_ud
    r_adj = a_f @ phi_free - rhs_adj
    return (backward_error(ws.a_norm, u_free, r_state, rhs_state),
            backward_error(ws.a_norm, phi_free, r_adj, rhs_adj))


def _objective(ws, u_free, qvals, measures):
    """Discrete tracking functional 0.5||u - u_d||^2 + 0.5 alpha ||q||_Q^2.

    ||u - u_d||^2 = u^T M u - 2 u^T l_ud + int u_d^2, with l_ud = ``load_ud``
    and int u_d^2 taken with the same rule, equals the quadrature of
    (u - u_d)^2 with that rule because M is exact for P2.
    """
    track = (u_free @ (ws.mass @ u_free)
             - 2.0 * (u_free @ ws.load_ud) + ws.ud_norm2)
    return 0.5 * float(track) + 0.5 * ws.spec.alpha * float(
        np.sum(measures * qvals ** 2))


def _pcg(apply, rhs, inv_diag, scale):
    """Diagonally preconditioned CG from zero for H x = rhs, with H SPD and
    ``apply(v, out)`` writing H v into ``out``.

    Stops once ||rhs - H x|| <= CG_RTOL * scale (recursive residual) and
    returns (x, steps, ||rhs - H x|| / scale), which the iteration trace
    records; returns x = 0 when ``scale`` is zero, and raises PdasError
    after CG_MAX_ITER steps without convergence. x, r, z, p and H p are
    the only vectors, each updated in place with the operands and order of
    the textbook recurrences; ``rhs`` and ``inv_diag`` are left unchanged.
    """
    x = np.zeros_like(rhs)
    if scale == 0.0:
        return x, 0, 0.0
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    hp = np.empty_like(rhs)
    rz = r @ z
    for steps in range(CG_MAX_ITER + 1):
        rel = float(np.linalg.norm(r) / scale)
        if rel <= CG_RTOL:
            return x, steps, rel
        if steps == CG_MAX_ITER:
            break
        apply(p, hp)
        step = rz / (p @ hp)
        # z is free until it is formed again from the new r
        x += np.multiply(step, p, out=z)
        r -= np.multiply(step, hp, out=hp)
        np.multiply(inv_diag, r, out=z)
        rz, rz_old = r @ z, rz
        p *= rz / rz_old
        p += z
    raise PdasError("CG on the reduced control system did not converge in "
                    "%d steps (relative residual %.3e)" % (CG_MAX_ITER, rel))


def solve_pdas(ws):
    """Primal-dual active set iteration for the coupled optimality system.

    Active sets come from the raw (unclamped) control estimate
    -(1/alpha) Pi_h(B_h phi), from phi = 0 at the first iteration; entities
    with estimate at or beyond a bound are fixed there. The inactive
    controls start from the raw estimate, CG solves the reduced system of
    the module docstring for their correction to a residual of
    CG_RTOL ||B_I^T phi_s||, and the state and adjoint are back-solved for
    the corrected control; the inactive controls are then set to the raw
    estimate of that adjoint, so the clamp relation holds exactly.
    Terminates when the active sets repeat; raises ``PdasError`` with the
    cycle's signatures when an earlier active set other than the last one
    comes back, or after PDAS_MAX_ITER iterations.
    """
    b_f = ws.coupling
    return _pdas(ws, b_f.__matmul__, b_f.T.__matmul__, ws.measures,
                 np.zeros(len(ws.measures)))


def _pdas(ws, apply_b, apply_bt, d_meas, raw):
    """``solve_pdas`` for a coupling B with control measures ``d_meas``,
    from the raw control ``raw``.

    B is read only through ``apply_b(x)``, B x on the free dofs, and
    ``apply_bt(y)``, B^T y on the controls; the reduced Hessian applies
    them to full-length controls that are zero off the inactive set. The
    result of ``apply_bt`` is consumed before the next product, so it may
    be a work array that the next product overwrites.

    ``raw`` becomes the returned control: each iteration turns the raw
    estimate in it into q_s, adds the CG correction, and writes the raw
    estimate of the new adjoint over it; once the active sets repeat, q_s
    is the last iterate's control. Besides it, the iteration allocates one
    control-sized vector per solve, the inactive-supported argument of the
    reduced Hessian, and CG's vectors on the inactive set. B_I^T phi_s,
    the CG right-hand side and the correction dq are freed as soon as they
    are used.
    """
    spec = ws.spec
    m_f = ws.mass
    alpha = spec.alpha
    nent = len(d_meas)
    lu = ws.lu
    q = raw
    x_full = np.zeros(nent)

    def back_solve(qvals):
        u = lu.solve(ws.load_f + apply_b(qvals))
        return u, lu.solve(m_f @ u - ws.load_ud)

    prev_status = np.zeros(nent, dtype=np.int8)
    seen = []
    trace = []

    for it in range(1, PDAS_MAX_ITER + 1):
        act_up = q >= spec.upper
        act_lo = (q <= spec.lower) & ~act_up
        # q_s: the bounds on the active sets, the raw estimate elsewhere
        q[act_up] = spec.upper
        q[act_lo] = spec.lower
        sig = (act_up.tobytes(), act_lo.tobytes())
        # the sets are held once, in their signature
        act_up, act_lo = (np.frombuffer(b, dtype=bool) for b in sig)
        if seen and sig == seen[-1]:
            break
        if sig in seen:
            cycle = seen[seen.index(sig):]
            raise PdasError(
                "active sets cycle with period %d after %d iterations"
                % (len(cycle), it - 1), signatures=cycle)
        seen.append(sig)

        inactive = ~(act_up | act_lo)
        u_free, phi_free = back_solve(q)
        cg_steps, cg_res = 0, 0.0
        if inactive.any():
            alpha_d = alpha * d_meas[inactive]
            x_full.fill(0.0)

            def reduced_hessian(x, out):
                x_full[inactive] = x
                du = lu.solve(apply_b(x_full))
                np.multiply(alpha_d, x, out=out)
                out += apply_bt(lu.solve(m_f @ du))[inactive]

            bt_phi = apply_bt(phi_free)[inactive]
            del u_free, phi_free    # back-solved again for q_s + dq
            scale = np.linalg.norm(bt_phi)
            rhs = alpha_d * q[inactive]
            rhs += bt_phi
            del bt_phi
            dq, cg_steps, cg_res = _pcg(
                reduced_hessian, np.negative(rhs, out=rhs), 1.0 / alpha_d,
                scale)
            del rhs
            q[inactive] += dq
            del dq
            u_free, phi_free = back_solve(q)

        # the raw estimate of this adjoint replaces q_s + dq; the iterate's
        # control is the raw estimate on the inactive set
        bt_phi = apply_bt(phi_free)
        np.multiply(alpha, d_meas, out=q)
        np.divide(np.negative(bt_phi, out=bt_phi), q, out=q)
        objective = _objective(ws, u_free, np.where(
            act_up, spec.upper, np.where(act_lo, spec.lower, q)), d_meas)
        status = act_up.astype(np.int8) - act_lo.astype(np.int8)
        trace.append(PdasStep(
            int(inactive.sum()), int(np.count_nonzero(status != prev_status)),
            cg_steps, cg_res,
            int(np.count_nonzero(inactive & ((q < spec.lower)
                                             | (q > spec.upper)))),
            objective))
        prev_status = status
    else:
        raise PdasError(
            "active sets did not stabilize within %d iterations"
            % PDAS_MAX_ITER,
            signatures=seen[-2:])

    r_state, r_adj = _residuals(ws, u_free, phi_free, apply_b(q))
    return KktSolution(
        u=ws.full_coeffs(u_free),
        phi=ws.full_coeffs(phi_free),
        q=ControlField(q, spec.lower, spec.upper, d_meas),
        active_lower=np.flatnonzero(act_lo),
        active_upper=np.flatnonzero(act_up),
        state_residual=r_state,
        adjoint_residual=r_adj,
        trace=trace,
    )


def _point_kernel(ws, rule):
    """N x and N^T y for the point coupling N[i, (t, k)] = w_k det_t
    v_i(x_k) at ``rule``'s points, column t * nq + k, applied element by
    element; and the point measures w_k det_t.

    Both products contract the reference shape values (nq, 6) with an
    (nt, nq) or (nt, 6) array, so no (nt, nq, 6) table is formed. Their
    (nt, nq) operand is one work array that every product reuses, and
    N^T y returns a view of it: a caller consumes it before the next
    product."""
    dofmap = ws.dofmap
    nt, nq = len(dofmap.tri_dofs), len(rule.weights)
    measures = ws.geom.det[:, None] * rule.weights           # (nt, nq)
    vals = shape_values(rule.points)                         # (nq, 6)
    # row nfree stands for the constrained dofs: N x drops its bin, and
    # N^T y reads 0 there
    rows = dofmap.free_cols[dofmap.tri_dofs]
    y_ext = np.zeros(dofmap.nfree + 1)
    work = np.empty((nt, nq))

    def apply_n(x):
        local = np.multiply(measures, x.reshape(nt, nq), out=work) @ vals
        return np.bincount(rows.ravel(), local.ravel(),
                           minlength=dofmap.nfree + 1)[:-1]

    def apply_nt(y):
        y_ext[:-1] = y
        np.matmul(y_ext[rows], vals.T, out=work)
        return np.multiply(measures, work, out=work).ravel()

    return apply_n, apply_nt, measures.ravel()


def solve_variational(ws, full):
    """Variational discretization: PDAS with one control per point.

    The control is clamp(-phi_h/alpha) at the points of the degree-8 rule
    (module docstring). The iteration starts from -phi_full(x_k)/alpha,
    with ``full`` the ``solve_pdas`` solution of ``ws``, formed in place
    over phi_full(x_k), which is not kept: that array becomes the control
    buffer of ``_pdas`` and the returned ``q.values``, point values
    triangle by triangle. Distributed control only; raises ``PdasError``
    as ``solve_pdas`` does.
    """
    spec = ws.spec
    if spec.kind != "distributed":
        raise ValueError("variational discretization: distributed kind only")
    rule = quadrature("triangle", ERROR_DEGREE)
    apply_n, apply_nt, measures = _point_kernel(ws, rule)
    raw = eval_on_elements(ws.dofmap, full.phi, rule).ravel()
    np.negative(raw, out=raw)
    raw /= spec.alpha
    return _pdas(ws, apply_n, apply_nt, measures, raw)


def evaluate_p2(geom, dofmap, coeffs, x, y):
    """Values at arbitrary points inside the domain of the P2 function with
    coefficients ``coeffs`` over ``dofmap``; ``geom`` is the element
    geometry of its mesh (``Discretization.geom``).

    Every point is located by a search over all triangles.
    """
    pts = np.column_stack([np.atleast_1d(np.asarray(x, dtype=float)).ravel(),
                           np.atleast_1d(np.asarray(y, dtype=float)).ravel()])
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
            "pi,pi->p", vals, coeffs[dofmap.tri_dofs[tri]])
    return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])


def projection_ph(ws, which):
    """Discrete solutions of the auxiliary problems driven by exact data.

    ``which`` = "state": a_h(P_h u, v) = (f, v) + <q, B_h v> with the exact
    control q; "adjoint": a_h(v, P_h phi) = (u - u_d, v) with the exact
    state u and the case's u_d = u - lap^2 phi. Each evaluates the jets of
    ``spec.exact`` once. Returns the (ndof,) coefficients; requires
    ``spec.exact``.
    """
    spec = ws.spec
    if spec.exact is None:
        raise ValueError("projection requires a manufactured exact solution")
    case = spec.exact
    x, y = ws.geom.quad_points(quadrature("triangle", PROJECTION_DEGREE))
    if which == "state":
        if spec.kind != "distributed":
            raise NotImplementedError("boundary-control projection")
        q = case.control(case.jets(x, y)[1][0])
        rhs = ws.load_f + assemble_load(ws.dofmap, ws.geom, q,
                                        PROJECTION_DEGREE)
    elif which == "adjoint":
        # u - u_d from one evaluation of the jets, with u_d = u - lap^2 phi
        # formed as ``ManufacturedCase.data`` forms it, so the same bits
        (u, _), (_, bilap_phi) = case.jets(x, y)
        misfit = u - (u - bilap_phi)
        rhs = assemble_load(ws.dofmap, ws.geom, misfit, PROJECTION_DEGREE)
    else:
        raise ValueError("which must be 'state' or 'adjoint'")
    return ws.full_coeffs(ws.lu.solve(rhs))
