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

The edge traces are sparse operators over all dofs, built once per mesh in
``EdgeTraceCache``: the edge terms of a_h are T^T G T with T stacking the
mean second normal derivatives and the Gauss-point normal-derivative jumps,
and the norms, the estimator and the boundary control read the same
operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    # id(rule) -> (rule, x, y), filled by ``quad_points``
    _points: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        for arr in (self.v0, self.jac, self.inv_jac, self.det, self.area,
                    self.hessians):
            arr.setflags(write=False)

    def quad_points(self, rule):
        """Physical points (x, y) of a triangle rule, each (nt, nq).

        Computed once per rule; both are read-only views of one (2, nt, nq)
        array, so the manufactured data can memoize on them (``cases``).
        """
        hit = self._points.get(id(rule))
        if hit is not None and hit[0] is rule:
            return hit[1:]
        jac = self.jac.transpose(1, 0, 2)[:, :, None]    # (2, nt, 1, 2)
        xy = jac[..., 0] * rule.points[:, 0]
        xy += jac[..., 1] * rule.points[:, 1]
        xy += self.v0.T[:, :, None]
        xy.setflags(write=False)
        x, y = xy
        self._points[id(rule)] = (rule, x, y)
        return x, y


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
    """Edge traces of P2 functions as sparse operators over all dofs.

    Interior arrays are indexed by interior edge; ``normal`` points from
    ``tri1`` to ``tri2``. Boundary arrays use the outward normal of the
    unique adjacent triangle. Row 2e+g of ``jump`` gives [grad v . n] at
    Gauss point g of interior edge e; row e of ``mean_d2n`` and ``jump_d2n``
    the mean and the jump of the (constant) second normal derivative. On
    boundary edges ``bgrad`` gives dv/dn at the Gauss points and ``bhess``
    d^2 v/dn^2.
    """

    interior: np.ndarray     # interior edge indices
    tri1: np.ndarray
    tri2: np.ndarray
    normal: np.ndarray       # (nE, 2)
    length: np.ndarray       # (nE,)
    jump: sp.csr_matrix      # (2 nE, ndof)
    mean_d2n: sp.csr_matrix  # (nE, ndof)
    jump_d2n: sp.csr_matrix  # (nE, ndof)

    boundary: np.ndarray     # boundary edge indices
    btri: np.ndarray
    bnormal: np.ndarray
    blength: np.ndarray
    bgrad: sp.csr_matrix     # (2 nEb, ndof)
    bhess: sp.csr_matrix     # (nEb, ndof)

    def jump_values(self, coeffs):
        """[grad v . n] at the two Gauss points of every interior edge."""
        return (self.jump @ coeffs).reshape(-1, 2)

    def jump_energy(self, coeffs):
        """sum_g w_g [grad v . n]^2 at the Gauss points, per interior edge."""
        return self.jump_values(coeffs) ** 2 @ _EDGE_RULE.weights

    def boundary_normal_derivative(self, coeffs):
        """d v / dn at the two Gauss points of every boundary edge."""
        return (self.bgrad @ coeffs).reshape(-1, 2)


def _trace_operator(ndof, dofs, local):
    """CSR operator whose row r is sum_k local[r, k] v[dofs[r, k]]."""
    n, k = dofs.shape
    op = sp.csr_matrix((local.ravel(), dofs.astype(np.int32).ravel(),
                        np.arange(0, n * k + 1, k, dtype=np.int32)),
                       shape=(n, ndof))
    # summing the entries of a row on a shared dof leaves the arrays as
    # views of the k-per-row buffers; the copy keeps only the entries
    op.sum_duplicates()
    return op.copy()


def _gauss_sum(length):
    """(n, 2n) map from Gauss-point values to edge integrals."""
    n = len(length)
    weights = (length[:, None] * _EDGE_RULE.weights).ravel()
    indptr = np.arange(0, 2 * n + 1, 2)
    return sp.csr_matrix((weights, np.arange(2 * n), indptr),
                         shape=(n, 2 * n))


def build_edge_cache(mesh, dofmap, geom):
    tg = np.asarray(_EDGE_RULE.points)

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
        """Normal derivatives (n, 2, 6) at the Gauss points and second
        normal derivatives (n, 6) of the local basis of ``tris``."""
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

    ndof = dofmap.ndof
    # the operators index by int32; cast once, before the dofs are copied
    tri_dofs = dofmap.tri_dofs.astype(np.int32)
    interior = mesh.interior_edges
    t1 = mesh.edge_tris[interior, 0]
    t2 = mesh.edge_tris[interior, 1]
    length, normal, phys = edge_data(interior, t1)
    gn1, d2n1 = side_traces(t1, normal, phys)
    gn2, d2n2 = side_traces(t2, normal, phys)
    dofs = np.hstack([tri_dofs[t1], tri_dofs[t2]])
    jump = _trace_operator(ndof, np.repeat(dofs, 2, axis=0),
                           np.concatenate([gn1, -gn2], axis=2))
    mean_d2n = _trace_operator(ndof, dofs, 0.5 * np.hstack([d2n1, d2n2]))
    jump_d2n = _trace_operator(ndof, dofs, np.hstack([d2n1, -d2n2]))

    boundary = mesh.boundary_edges
    bt = mesh.edge_tris[boundary, 0]
    bdofs = tri_dofs[bt]
    blength, bnormal, bphys = edge_data(boundary, bt)
    bgn, bd2n = side_traces(bt, bnormal, bphys)
    bgrad = _trace_operator(ndof, np.repeat(bdofs, 2, axis=0), bgn)
    bhess = _trace_operator(ndof, bdofs, bd2n)

    return EdgeTraceCache(interior, t1, t2, normal, length, jump, mean_d2n,
                          jump_d2n, boundary, bt, bnormal, blength, bgrad,
                          bhess)


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


def _edge_form(cache, eta):
    """Interior-edge terms T^T G T of a_h as a CSC matrix.

    T = [S; J] stacks the mean second normal derivatives S and the
    normal-derivative jumps J; with P the map from Gauss-point values to
    edge integrals and W the Gauss weights, G = [[0, -P], [-P^T, eta W]].
    """
    p = _gauss_sum(cache.length)
    w = sp.diags(np.tile(eta * _EDGE_RULE.weights, len(cache.length)))
    g = sp.bmat([[None, -p], [-p.T, w]], format="csr")
    t = sp.vstack([cache.mean_d2n, cache.jump], format="csr")
    return t.T @ (g @ t)


def assemble_a_h(dofmap, geom, cache, eta):
    """Assemble the interior penalty bilinear form as a SparseOperator."""
    if eta <= 0.0:
        raise ValueError("penalty parameter eta must be positive")

    k_el = np.einsum("tikl,tjkl->tij", geom.hessians, geom.hessians)
    k_el *= geom.area[:, None, None]
    mat = _accumulate(dofmap.ndof, dofmap.tri_dofs, k_el)
    del k_el
    # a sparse sum leaves its output in buffers sized for both operands;
    # converting the CSC sum to CSR stores exactly its nonzero entries
    return SparseOperator((_edge_form(cache, eta) + mat).tocsr(), dofmap)


def assemble_mass(dofmap, geom):
    """Standard P2 mass matrix (SPD), exact quadrature."""
    rule = quadrature("triangle", 4)
    vals = shape_values(rule.points)                    # (nq, 6)
    m_ref = np.einsum("g,gi,gj->ij", rule.weights, vals, vals)
    local = geom.det[:, None, None] * m_ref
    return SparseOperator(_accumulate(dofmap.ndof, dofmap.tri_dofs, local),
                          dofmap)


def assemble_load(dofmap, geom, f, degree):
    """Load vector F_i = int f v_i with a degree-``degree`` triangle rule."""
    rule = quadrature("triangle", degree)
    x, y = geom.quad_points(rule)
    fvals = np.broadcast_to(np.asarray(f(x, y), dtype=float), x.shape)
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
        mat = (_gauss_sum(cache.blength) @ cache.bgrad).T
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
    pen = float(eta * cache.jump_energy(v.coeffs).sum())
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
    x, y = geom.quad_points(rule)

    hxx, hxy, hyy = (np.broadcast_to(np.asarray(h, dtype=float), x.shape)
                     for h in exact_hessian(x, y))
    vh = broken_hessians(geom, dofmap, v.coeffs)
    dxx = hxx - vh[:, None, 0, 0]
    dxy = hxy - vh[:, None, 0, 1]
    dyy = hyy - vh[:, None, 1, 1]
    misfit = np.einsum("q,tq->t", rule.weights,
                       dxx ** 2 + 2.0 * dxy ** 2 + dyy ** 2) * geom.det
    pen = float(eta * cache.jump_energy(v.coeffs).sum())
    energy_err = np.sqrt(float(misfit.sum()) + pen)

    uvals = np.broadcast_to(np.asarray(exact_value(x, y), dtype=float), x.shape)
    vvals = eval_on_elements(dofmap, v.coeffs, rule)
    l2_err = np.sqrt(float(np.einsum(
        "q,tq->", rule.weights, (uvals - vvals) ** 2 * geom.det[:, None])))
    return energy_err, l2_err
