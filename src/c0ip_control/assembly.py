"""Assembly of the C0 interior penalty form for the plate bilinear form.

The discrete form is

    a_h(w, v) = sum_T (D^2 w, D^2 v)_T
              - sum_e ({d^2 w/dn^2}, [grad v . n])_e
              - sum_e ({d^2 v/dn^2}, [grad w . n])_e
              + sum_e (eta / h_e) ([grad w . n], [grad v . n])_e

with the edge sums over interior edges only (simply supported plate: the
boundary carries no form terms). For P2 the element Hessians and second
normal derivatives are constant and the normal-derivative jumps are linear
along each edge, so two-point Gauss integrates every edge term exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fem import REFERENCE_HESSIANS, quadrature, shape_gradients, shape_values

__all__ = [
    "ElementGeometry",
    "EdgeTraceCache",
    "SparseOperator",
    "element_geometry",
    "build_edge_cache",
    "assemble_a_h",
    "assemble_mass",
    "assemble_load",
    "control_coupling",
    "energy_norm",
    "error_norms",
    "broken_hessians",
    "eval_on_elements",
]

_EDGE_RULE = quadrature("edge", 3)  # 2-point Gauss, exact for the edge terms

# degree of the triangle rule of the error norms
ERROR_DEGREE = 8


@dataclass(frozen=True)
class ElementGeometry:
    """Affine maps and physical basis Hessians, one entry per triangle.

    One geometry is shared by every operator of a discretization, so its
    arrays are read-only.
    """

    v0: np.ndarray        # (nt, 2)
    jac: np.ndarray       # (nt, 2, 2), columns v1-v0, v2-v0
    inv_jac: np.ndarray   # (nt, 2, 2)
    det: np.ndarray       # (nt,)
    area: np.ndarray      # (nt,)
    hessians: np.ndarray  # (nt, 6, 2, 2) physical basis Hessians

    def __post_init__(self):
        for arr in (self.v0, self.jac, self.inv_jac, self.det, self.area,
                    self.hessians):
            arr.setflags(write=False)


def element_geometry(mesh):
    p = mesh.vertices[mesh.triangles]
    v0 = p[:, 0]
    jac = np.stack([p[:, 1] - v0, p[:, 2] - v0], axis=2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv_jac = np.empty_like(jac)
    inv_jac[:, 0, 0] = jac[:, 1, 1] / det
    inv_jac[:, 0, 1] = -jac[:, 0, 1] / det
    inv_jac[:, 1, 0] = -jac[:, 1, 0] / det
    inv_jac[:, 1, 1] = jac[:, 0, 0] / det
    # H_phys = J^{-T} H_ref J^{-1}, batched over triangles and basis functions
    hess = np.matmul(inv_jac.transpose(0, 2, 1)[:, None],
                     np.matmul(REFERENCE_HESSIANS, inv_jac[:, None]))
    return ElementGeometry(v0, jac, inv_jac, det, 0.5 * det, hess)


# The small contractions below (length 2 or 4) are written as broadcast
# multiply-adds: they sum the same products in the same order as einsum, so
# the results are bitwise equal, without einsum's per-call overhead.

def _reference_coords(geom, tri, phys_pts):
    """Pull physical points (n, m, 2) back to reference coords in ``tri``."""
    rel = phys_pts - geom.v0[tri][:, None, :]
    inv = geom.inv_jac[tri][:, None]                 # (n, 1, 2, 2)
    out = inv[..., 0] * rel[..., 0, None]
    out += inv[..., 1] * rel[..., 1, None]
    return out


def _physical_gradients(geom, tri, ref_pts):
    """Physical basis gradients: (n, m, 6, 2) for ref points (n, m, 2)."""
    n, m = ref_pts.shape[:2]
    gref = shape_gradients(ref_pts.reshape(-1, 2)).reshape(n, m, 6, 2)
    inv = geom.inv_jac[tri][:, None, None]           # (n, 1, 1, 2, 2)
    out = inv[..., 0, :] * gref[..., 0, None]
    out += inv[..., 1, :] * gref[..., 1, None]
    return out


@dataclass(frozen=True)
class EdgeTraceCache:
    """Per-edge trace data for the interior-penalty terms and estimators.

    Interior arrays are indexed by interior edge; ``normal`` points from
    ``tri1`` to ``tri2``. Boundary arrays use the outward normal of the
    unique adjacent triangle. ``gn*`` hold normal derivatives of the local
    basis functions at the two edge Gauss points; ``d2n*`` the (constant)
    second normal derivatives.
    """

    interior: np.ndarray     # interior edge indices
    tri1: np.ndarray
    tri2: np.ndarray
    normal: np.ndarray       # (nE, 2)
    length: np.ndarray       # (nE,)
    gn1: np.ndarray          # (nE, 2, 6)
    gn2: np.ndarray
    d2n1: np.ndarray         # (nE, 6)
    d2n2: np.ndarray
    dofs: np.ndarray         # (nE, 12) dofs of tri1 then tri2

    boundary: np.ndarray     # boundary edge indices
    btri: np.ndarray
    bnormal: np.ndarray
    blength: np.ndarray
    bgn: np.ndarray          # (nEb, 2, 6)
    bd2n: np.ndarray         # (nEb, 6)
    bdofs: np.ndarray        # (nEb, 6)

    def jump_values(self, coeffs):
        """[grad v . n] at the two Gauss points of every interior edge."""
        c1 = coeffs[self.dofs[:, :6]]
        c2 = coeffs[self.dofs[:, 6:]]
        return (np.einsum("egi,ei->eg", self.gn1, c1)
                - np.einsum("egi,ei->eg", self.gn2, c2))

    def boundary_normal_derivative(self, coeffs):
        """d v / dn at the two Gauss points of every boundary edge."""
        return np.einsum("egi,ei->eg", self.bgn, coeffs[self.bdofs])


def build_edge_cache(mesh, dofmap, geom):
    tg = np.asarray(_EDGE_RULE.points)
    wg = np.asarray(_EDGE_RULE.weights)

    def edge_data(edge_idx, tris):
        pe = mesh.vertices[mesh.edges[edge_idx]]
        d = pe[:, 1] - pe[:, 0]
        length = np.hypot(d[:, 0], d[:, 1])
        normal = np.column_stack([d[:, 1], -d[:, 0]]) / length[:, None]
        # orient outward from the first triangle
        cent = mesh.vertices[mesh.triangles[tris]].mean(axis=1)
        mid = pe.mean(axis=1)
        flip = np.sum(normal * (mid - cent), axis=1) < 0.0
        normal[flip] *= -1.0
        phys = pe[:, None, 0, :] + tg[None, :, None] * d[:, None, :]
        return length, normal, phys

    def side_traces(tris, normal, phys):
        ref = _reference_coords(geom, tris, phys)
        gphys = _physical_gradients(geom, tris, ref)
        gn = np.einsum("egia,ea->egi", gphys, normal)
        hess = geom.hessians[tris]                       # (n, 6, 2, 2)
        n0, n1 = normal[:, None, 0], normal[:, None, 1]
        d2n = n0 * hess[..., 0, 0] * n0
        d2n += n0 * hess[..., 0, 1] * n1
        d2n += n1 * hess[..., 1, 0] * n0
        d2n += n1 * hess[..., 1, 1] * n1
        return gn, d2n

    interior = mesh.interior_edges
    t1 = mesh.edge_tris[interior, 0]
    t2 = mesh.edge_tris[interior, 1]
    length, normal, phys = edge_data(interior, t1)
    gn1, d2n1 = side_traces(t1, normal, phys)
    gn2, d2n2 = side_traces(t2, normal, phys)
    dofs = np.hstack([dofmap.tri_dofs[t1], dofmap.tri_dofs[t2]])

    boundary = mesh.boundary_edges
    bt = mesh.edge_tris[boundary, 0]
    blength, bnormal, bphys = edge_data(boundary, bt)
    bgn, bd2n = side_traces(bt, bnormal, bphys)

    return EdgeTraceCache(interior, t1, t2, normal, length, gn1, gn2,
                          d2n1, d2n2, dofs, boundary, bt, bnormal, blength,
                          bgn, bd2n, dofmap.tri_dofs[bt])


@dataclass
class SparseOperator:
    """Symmetric operator over all dofs with a view on the free block."""

    full: sp.csr_matrix
    dofmap: object

    @cached_property
    def free(self):
        idx = self.dofmap.free
        return self.full[idx][:, idx].tocsc()

    @property
    def shape(self):
        return self.full.shape


def _accumulate(ndof, dofs, local):
    """Sum (n, k, k) local matrices with (n, k) dof maps into a CSR matrix."""
    k = dofs.shape[1]
    dofs = dofs.astype(np.int32)
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(ndof, ndof))
    return mat.tocsr()


def _edge_block(eta, wg, side_a, side_b):
    """(nE, 6, 6) block of the interior-edge form between two sides.

    Each side is (jump, mean, jump_int): its part of the normal-derivative
    jump at the Gauss points, of the mean second normal derivative, and of
    the integrated jump. The block is
    eta * sum_g w_g j_a j_b^T - (mean_a int_b^T + int_a mean_b^T).
    """
    (ja, ma, ia), (jb, mb, ib) = side_a, side_b
    block = (wg[0] * ja[:, 0])[:, :, None] * jb[:, 0, None, :]
    work = np.multiply((wg[1] * ja[:, 1])[:, :, None], jb[:, 1, None, :])
    block += work
    block *= eta
    np.multiply(ma[:, :, None], ib[:, None, :], out=work)
    work += ia[:, :, None] * mb[:, None, :]
    block -= work
    return block


def assemble_a_h(dofmap, geom, cache, eta):
    """Assemble the interior penalty bilinear form as a SparseOperator."""
    if eta <= 0.0:
        raise ValueError("penalty parameter eta must be positive")

    k_el = np.einsum("tikl,tjkl->tij", geom.hessians, geom.hessians)
    k_el *= geom.area[:, None, None]

    # The 12x12 block of an interior edge couples tri1 (side 1) and tri2
    # (side 2). Its two diagonal 6x6 blocks are added into the element
    # matrices of tri1 and tri2; the (1, 2) block is scattered once and the
    # (2, 1) block is its transpose, so no (nE, 12, 12) array is formed.
    wg = np.asarray(_EDGE_RULE.weights)
    sides = []
    for gn, d2n, sign in ((cache.gn1, cache.d2n1, 1.0),
                          (cache.gn2, cache.d2n2, -1.0)):
        jump = sign * gn                                   # (nE, 2, 6)
        jump_int = np.einsum("g,egi->ei", wg, jump) * cache.length[:, None]
        sides.append((jump, 0.5 * d2n, jump_int))
    for side, tri in zip(sides, (cache.tri1, cache.tri2)):
        np.add.at(k_el, tri, _edge_block(eta, wg, side, side))
    rows = np.repeat(cache.dofs[:, :6].astype(np.int32), 6, axis=1).ravel()
    cols = np.tile(cache.dofs[:, 6:].astype(np.int32), (1, 6)).ravel()
    off = sp.coo_matrix((_edge_block(eta, wg, *sides).ravel(), (rows, cols)),
                        shape=(dofmap.ndof, dofmap.ndof)).tocsr()
    # the peak is reached in the CSR sums below, so every array they do not
    # read is released first; each sum stores only its nonzero results
    del sides, rows, cols
    mat = _accumulate(dofmap.ndof, dofmap.tri_dofs, k_el)
    del k_el
    mat = mat + off
    off = off.T.tocsr()
    mat = mat + off
    return SparseOperator(mat, dofmap)


def assemble_mass(dofmap, geom):
    """Standard P2 mass matrix (SPD), exact quadrature."""
    rule = quadrature("triangle", 4)
    vals = shape_values(rule.points)                    # (nq, 6)
    m_ref = np.einsum("g,gi,gj->ij", rule.weights, vals, vals)
    local = geom.det[:, None, None] * m_ref
    return SparseOperator(_accumulate(dofmap.ndof, dofmap.tri_dofs, local),
                          dofmap)


def _quad_points(geom, rule):
    """Physical quadrature points (nt, nq, 2) for a triangle rule."""
    jac = geom.jac[:, None]                          # (nt, 1, 2, 2)
    pts = jac[..., 0] * rule.points[:, 0, None]
    pts += jac[..., 1] * rule.points[:, 1, None]
    pts += geom.v0[:, None, :]
    return pts


def assemble_load(dofmap, geom, f, degree):
    """Load vector F_i = int f v_i with a degree-``degree`` triangle rule."""
    rule = quadrature("triangle", degree)
    pts = _quad_points(geom, rule)
    fvals = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    fvals = np.broadcast_to(fvals, pts.shape[:2])
    vals = shape_values(rule.points)
    local = np.einsum("q,tq,qi->ti", rule.weights, fvals, vals)
    local *= geom.det[:, None]
    vec = np.zeros(dofmap.ndof)
    np.add.at(vec, dofmap.tri_dofs, local)
    return vec


def control_coupling(dofmap, geom, cache, kind):
    """Coupling matrix B with entries <p_entity, B_h v_i> and entity measures.

    Distributed: B[i, T] = int_T v_i dx, measures are triangle areas.
    Boundary:    B[i, e] = int_e dv_i/dn ds over boundary edges, measures are
    edge lengths (normal derivative from the unique adjacent element).
    """
    if kind == "distributed":
        rule = quadrature("triangle", 2)
        vals = np.einsum("q,qi->i", rule.weights, shape_values(rule.points))
        local = geom.det[:, None] * vals            # (nt, 6)
        nt = len(local)
        rows = dofmap.tri_dofs.astype(np.int32).ravel()
        cols = np.repeat(np.arange(nt, dtype=np.int32), 6)
        mat = sp.coo_matrix((local.ravel(), (rows, cols)),
                            shape=(dofmap.ndof, nt))
        return mat.tocsr(), geom.area.copy()
    if kind == "boundary":
        wg = np.asarray(_EDGE_RULE.weights)
        local = np.einsum("g,egi->ei", wg, cache.bgn) * cache.blength[:, None]
        rows = cache.bdofs.astype(np.int32).ravel()
        cols = np.repeat(np.arange(len(cache.boundary), dtype=np.int32), 6)
        mat = sp.coo_matrix((local.ravel(), (rows, cols)),
                            shape=(dofmap.ndof, len(cache.boundary)))
        return mat.tocsr(), cache.blength.copy()
    raise ValueError("kind must be 'distributed' or 'boundary'")


def broken_hessians(geom, dofmap, coeffs):
    """Elementwise (constant) Hessian of a P2 function: (nt, 2, 2)."""
    return np.einsum("tikl,ti->tkl", geom.hessians, coeffs[dofmap.tri_dofs])


def eval_on_elements(dofmap, coeffs, rule):
    """Values of a P2 function at the rule's points on every element."""
    vals = shape_values(rule.points)
    return coeffs[dofmap.tri_dofs] @ vals.T     # (nt, nq)


def energy_norm(v, geom, cache, eta, parts=False):
    """Mesh-dependent energy norm of a P2 function.

    ||v||_h^2 = sum_T ||D^2 v||_{0,T}^2 + sum_e (eta/h_e) int_e [grad v.n]^2.
    With ``parts`` returns (norm, element part, penalty part) of the square.
    """
    hess = broken_hessians(geom, v.dofmap, v.coeffs)
    elem = float(np.sum(geom.area * np.einsum("tkl,tkl->t", hess, hess)))
    wg = np.asarray(_EDGE_RULE.weights)
    jumps = cache.jump_values(v.coeffs)
    pen = float(eta * np.einsum("g,eg->", wg, jumps ** 2))
    if parts:
        return np.sqrt(elem + pen), elem, pen
    return np.sqrt(elem + pen)


def error_norms(v, exact_value, exact_hessian, geom, cache, eta):
    """Energy and L2 error of a P2 function against a smooth exact field.

    ``exact_hessian(x, y)`` must return the tuple (w_xx, w_xy, w_yy). The
    exact field has no normal-derivative jumps, so the penalty part of the
    energy error is that of ``v`` alone.
    """
    dofmap = v.dofmap
    rule = quadrature("triangle", ERROR_DEGREE)
    pts = _quad_points(geom, rule)
    x, y = pts[..., 0], pts[..., 1]

    hxx, hxy, hyy = (np.broadcast_to(np.asarray(h, dtype=float), x.shape)
                     for h in exact_hessian(x, y))
    vh = broken_hessians(geom, dofmap, v.coeffs)
    dxx = hxx - vh[:, None, 0, 0]
    dxy = hxy - vh[:, None, 0, 1]
    dyy = hyy - vh[:, None, 1, 1]
    misfit = np.einsum("q,tq->t", rule.weights,
                       dxx ** 2 + 2.0 * dxy ** 2 + dyy ** 2) * geom.det
    wg = np.asarray(_EDGE_RULE.weights)
    jumps = cache.jump_values(v.coeffs)
    pen = float(eta * np.einsum("g,eg->", wg, jumps ** 2))
    energy_err = np.sqrt(float(misfit.sum()) + pen)

    uvals = np.broadcast_to(np.asarray(exact_value(x, y), dtype=float), x.shape)
    vvals = eval_on_elements(dofmap, v.coeffs, rule)
    l2_err = np.sqrt(float(np.einsum(
        "q,tq->", rule.weights, (uvals - vvals) ** 2 * geom.det[:, None])))
    return energy_err, l2_err
