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

The edge traces are dense rows on each edge's dofs, built once per mesh in
``EdgeTraceCache`` from P2 gradients tabulated at the reference edge Gauss
points; A_h, the boundary control, the norms and the estimator read the same
rows.

Every term of a_h is a sum of products of traces, so A_h = X^T Y with one
row of X per trace and Y = G X for a block-diagonal weight G: per triangle
the four Hessian components of its basis (G = |T|), per interior edge the
mean second normal derivative S and the jumps J_1, J_2 at the two Gauss
points (G couples S with J_g through -|e| w_g and J_g with itself through
eta w_g). X and Y share one sparsity pattern, and their columns are the free
dofs (``DofMap.free_cols``), so the product is the free block that the solver
factors. The mass matrix is the same Gram product, with X the rows of the
Cholesky factor R of the reference mass matrix on each triangle's dofs and
Y = det_T X. The loads and the control couplings are built on the free dofs
too; passing a dofmap whose free dofs are all dofs gives any of these
operators over all dofs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import REFERENCE_HESSIANS, quadrature, shape_gradients, shape_values

__all__ = [
    "ElementGeometry",
    "EdgeTraceCache",
    "element_geometry",
    "build_edge_cache",
    "assemble_a_h",
    "assemble_mass",
    "assemble_load",
    "control_coupling",
    "error_norms",
    "broken_hessians",
    "eval_on_elements",
]

_EDGE_RULE = quadrature("edge", 3)  # 2-point Gauss, exact for the edge terms

# degree of the triangle rule of the error norms and the control error,
# whose points carry the variational control
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

    def quad_points(self, rule):
        """Physical points (x, y) of a triangle rule, each (nt, nq).

        Computed on each call; both are read-only views of one
        (2, nt, nq) array.
        """
        jac = self.jac.transpose(1, 0, 2)[:, :, None]    # (2, nt, 1, 2)
        xy = jac[..., 0] * rule.points[:, 0]
        xy += jac[..., 1] * rule.points[:, 1]
        xy += self.v0.T[:, :, None]
        xy.setflags(write=False)
        return xy[0], xy[1]


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
    # H_phys = J^{-T} (H_ref J^{-1}) as two-term sums in the order np.matmul
    # sums them, so bitwise equal to it; triangles run along the last axis,
    # which keeps numpy's inner loops long
    inv = np.ascontiguousarray(inv_jac.transpose(1, 2, 0))     # (2, 2, nt)
    ref = REFERENCE_HESSIANS[..., None, None]                  # (6, 2, 2, 1, 1)
    t = ref[:, :, 0] * inv[0]
    t += ref[:, :, 1] * inv[1]                                 # (6, 2, 2, nt)
    hess = inv[0][:, None] * t[:, None, 0]
    hess += inv[1][:, None] * t[:, None, 1]
    return ElementGeometry(v0, jac, inv_jac, det, 0.5 * det,
                           hess.transpose(3, 0, 1, 2).copy())


def _edge_gradient_table():
    """Reference P2 gradients at the edge Gauss points, (3, 3, 2, 6, 2).

    Entry [p, q, g] holds the six basis gradients at Gauss point g of the
    reference edge that runs from local vertex p to local vertex q.
    """
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    t = np.asarray(_EDGE_RULE.points)[:, None]
    table = np.zeros((3, 3, 2, 6, 2))
    for p in range(3):
        for q in range(3):
            if p != q:
                points = corners[p] + t * (corners[q] - corners[p])
                table[p, q] = shape_gradients(points)
    table.setflags(write=False)
    return table


_EDGE_GRADIENTS = _edge_gradient_table()


# The small contractions below (length 2 or 4) are written as broadcast
# multiply-adds: they sum the same products in the same order as einsum, so
# the results are bitwise equal, without einsum's per-call overhead.

def _side_normal_derivatives(geom, tris, p, q, normal):
    """Normal derivatives (n, 2, 6) of the local basis of ``tris`` at the
    Gauss points of the edges, which run from their first to their second
    vertex, at local positions p and q of ``tris``: grad v . n is the
    reference gradient dotted with J^-1 n."""
    gref = _EDGE_GRADIENTS[p, q]                       # (n, 2, 6, 2)
    inv = geom.inv_jac[tris]
    m = inv[:, :, 0] * normal[:, None, 0]
    m += inv[:, :, 1] * normal[:, None, 1]             # (n, 2) = J^-1 n
    gn = gref[..., 0] * m[:, None, None, 0]
    gn += gref[..., 1] * m[:, None, None, 1]
    return gn


def _apply_rows(dofs, rows, coeffs):
    """Rows (n, r, k) on the dofs (n, k) applied to ``coeffs``: (n, r),
    summed from 0.0 in dof order, as SciPy's CSR product sums, bit for bit.
    """
    terms = rows * coeffs[dofs][:, None]
    out = np.zeros(terms.shape[:2])
    for k in range(terms.shape[2]):
        out += terms[:, :, k]
    return out


@dataclass(frozen=True)
class EdgeTraceCache:
    """Edge traces of P2 functions as dense rows on each edge's dofs.

    Interior arrays follow ``mesh.interior_edges``, and their normal points
    from ``tri1`` to ``tri2``; boundary arrays follow
    ``mesh.boundary_edges`` and use the outward normal of the adjacent
    triangle ``btri``. Each normal's sign comes from the counterclockwise
    order of ``tri1`` (``btri``). ``traces`` holds four rows on the 9
    ``dofs`` of an interior edge's two triangles: the mean of the (constant)
    second normal derivative, [grad v . n] at the two Gauss points and the
    jump of the second normal derivative. ``btraces`` holds three rows on
    the 6 ``bdofs`` of a boundary edge's triangle: dv/dn at the two Gauss
    points and d^2 v/dn^2. Both dof arrays ascend along each edge. The two
    methods apply a whole block to a field, so a reader evaluates each
    field once.
    """

    tri1: np.ndarray
    tri2: np.ndarray
    length: np.ndarray       # (nE,)
    dofs: np.ndarray         # (nE, 9)
    traces: np.ndarray       # (nE, 4, 9)

    btri: np.ndarray
    blength: np.ndarray
    bdofs: np.ndarray        # (nEb, 6)
    btraces: np.ndarray      # (nEb, 3, 6)

    def interior_traces(self, coeffs):
        """The four ``traces`` rows applied to ``coeffs``: (nE, 4)."""
        return _apply_rows(self.dofs, self.traces, coeffs)

    def boundary_traces(self, coeffs):
        """The three ``btraces`` rows applied to ``coeffs``: (nEb, 3)."""
        return _apply_rows(self.bdofs, self.btraces, coeffs)


def _trace_blocks(ndof, dofs, local, m):
    """Rows ``local`` (n, r, k) on the dofs (n, k) merged onto the m
    distinct dofs of each edge, ascending: (n, m) dofs and (n, r, m) rows.

    ``sum_duplicates`` sorts the entries of each row by dof and adds those
    on a repeated dof; the copies keep only the merged entries.
    """
    n, r, k = local.shape
    rows = sp.csr_matrix(
        (local.ravel(), np.repeat(dofs, r, axis=0).ravel(),
         np.arange(0, n * r * k + 1, k, dtype=np.int32)), shape=(n * r, ndof))
    rows.sum_duplicates()
    return (rows.indices.reshape(n, r, m)[:, 0].copy(),
            rows.data.reshape(n, r, m).copy())


def build_edge_cache(mesh, dofmap, geom):
    """The ``EdgeTraceCache`` of ``mesh``.

    Each side's rows are written in place into one (nE, 4, 12) block on the
    12 dofs of an interior edge's two triangles (one (nEb, 3, 6) block on
    a boundary edge's triangle), which ``_trace_blocks`` merges onto the
    edge's distinct dofs; no per-side copy is concatenated.
    """
    def local_ends(edge_idx, tris):
        """Local positions (p, q) in ``tris`` of the edges' first and
        second vertex."""
        corners = mesh.triangles[tris]
        ends = mesh.edges[edge_idx]
        return (np.argmax(corners == ends[:, :1], axis=1),
                np.argmax(corners == ends[:, 1:], axis=1))

    def edge_data(edge_idx, p, q):
        pe = mesh.vertices[mesh.edges[edge_idx]]
        d = pe[:, 1] - pe[:, 0]
        length = np.hypot(d[:, 0], d[:, 1])
        normal = np.column_stack([d[:, 1], -d[:, 0]]) / length[:, None]
        # (d_y, -d_x) lies right of the edge, so it points out of the
        # counterclockwise triangle that runs along the edge from its
        # first to its second vertex, q = p + 1 (mod 3); flip the others
        normal[q != (p + 1) % 3] *= -1.0
        return length, normal

    def side_traces(tris, p, q, normal, out):
        """Rows (n, 3, 6) on the local basis of ``tris``, written to
        ``out``: the normal derivatives at the two Gauss points and the
        second one."""
        out[:, :2] = _side_normal_derivatives(geom, tris, p, q, normal)
        hess = geom.hessians[tris]                       # (n, 6, 2, 2)
        n0, n1 = normal[:, None, 0], normal[:, None, 1]
        d2n = out[:, 2]
        np.multiply(n0 * hess[..., 0, 0], n0, out=d2n)
        d2n += n0 * hess[..., 0, 1] * n1
        d2n += n1 * hess[..., 1, 0] * n0
        d2n += n1 * hess[..., 1, 1] * n1
        return out

    ndof = dofmap.ndof
    # the rows index by int32; cast once, before the dofs are copied
    tri_dofs = dofmap.tri_dofs.astype(np.int32)
    interior = mesh.interior_edges
    t1 = mesh.edge_tris[interior, 0]
    t2 = mesh.edge_tris[interior, 1]
    ends1 = local_ends(interior, t1)
    length, normal = edge_data(interior, *ends1)
    # rows on the 12 dofs of both triangles, side 1 then side 2: the mean
    # of the second normal derivatives, then side 1 minus side 2 of the
    # three side rows; the sides are written in place and side 2 negated
    local = np.empty((len(interior), 4, 12))
    side_traces(t1, *ends1, normal, local[:, 1:, :6])
    side_traces(t2, *local_ends(interior, t2), normal, local[:, 1:, 6:])
    np.multiply(local[:, 3], 0.5, out=local[:, 0])
    np.negative(local[:, 1:, 6:], out=local[:, 1:, 6:])
    dofs, traces = _trace_blocks(
        ndof, tri_dofs[mesh.edge_tris[interior]].reshape(-1, 12), local, 9)

    boundary = mesh.boundary_edges
    bt = mesh.edge_tris[boundary, 0]
    ends = local_ends(boundary, bt)
    blength, bnormal = edge_data(boundary, *ends)
    bdofs, btraces = _trace_blocks(
        ndof, tri_dofs[bt],
        side_traces(bt, *ends, bnormal, np.empty((len(boundary), 3, 6))), 6)

    return EdgeTraceCache(t1, t2, length, dofs, traces,
                          bt, blength, bdofs, btraces)


def _a_h_rows(geom, cache, eta, tri_dofs, cols):
    """CSR arrays (indptr, indices, xdata, ydata) of X and Y = G X.

    Per triangle, four rows of X hold the Hessian components xx, xy, yx, yy
    of its 6 basis functions; per interior edge, three rows hold the
    first three trace rows S, J_1 and J_2 on the edge's 9 dofs.
    """
    nt, ne = len(geom.area), len(cache.length)
    split = 24 * nt
    indptr = np.concatenate([
        np.arange(0, split, 6, dtype=np.int32),
        np.arange(split, split + 27 * ne + 1, 9, dtype=np.int32)])
    indices = np.empty(indptr[-1], dtype=np.int32)
    xdata = np.empty(indptr[-1])
    ydata = np.empty(indptr[-1])

    indices[:split].reshape(nt, 4, 6)[...] = cols[tri_dofs][:, None]
    xdata[:split].reshape(nt, 2, 2, 6)[...] = \
        geom.hessians.transpose(0, 2, 3, 1)
    np.multiply(geom.area[:, None], xdata[:split].reshape(nt, 24),
                out=ydata[:split].reshape(nt, 24))

    indices[split:].reshape(ne, 3, 9)[...] = cols[cache.dofs][:, None]
    xdata[split:].reshape(ne, 3, 9)[...] = cache.traces[:, :3]
    s, jumps = cache.traces[:, :1], cache.traces[:, 1:3]
    w = _EDGE_RULE.weights[:, None]
    lw = cache.length[:, None, None] * w                # (nE, 2, 1)
    gy = ydata[split:].reshape(ne, 3, 9)
    gy[:, 0] = -(lw[:, 0] * jumps[:, 0] + lw[:, 1] * jumps[:, 1])
    gy[:, 1:] = -lw * s + (eta * w) * jumps
    return indptr, indices, xdata, ydata


def _gram(n, rows, *args):
    """X^T Y in CSC on n columns, for the CSR arrays (indptr, indices,
    xdata, ydata) of X and Y = G X that ``rows(*args)`` returns.

    X and Y have n + 1 columns; the last one, which the constrained dofs
    share, is dropped. They are built here rather than passed in, so that
    only this frame holds them and they are freed before the product.
    """
    indptr, indices, xdata, ydata = rows(*args)
    xdata[indices == n] = 0.0
    shape = (len(indptr) - 1, n + 1)
    yt = sp.csr_matrix((ydata, indices, indptr), shape=shape).tocsc()
    del ydata
    x = sp.csr_matrix((xdata, indices, indptr), shape=shape)
    del xdata, indices, indptr
    # row j < n of Y^T X sums y[r, j] x[r, :] over the rows r in order, so
    # its CSR arrays are the CSC arrays of X^T Y; its entries on column n
    # sum to 0.0, which the product does not store
    yt = sp.csr_matrix((yt.data, yt.indices, yt.indptr[:n + 1]),
                       shape=(n, shape[0]))
    prod = yt @ x
    del x, yt
    data, indices = prod.data, prod.indices
    if data.base is not None:
        # the product sizes its arrays before it drops the entries that
        # cancel to 0.0 and then views their heads; keep only the entries
        data, indices = data.copy(), indices.copy()
    mat = sp.csc_matrix((data, indices, prod.indptr), shape=(n, n))
    mat.sort_indices()
    return mat


def assemble_a_h(dofmap, geom, cache, eta):
    """Free block of the interior penalty bilinear form, in CSC."""
    if not 0.0 < eta < np.inf:
        raise ValueError("penalty parameter eta must be positive and "
                         "finite, got %r" % (eta,))
    return _gram(dofmap.nfree, _a_h_rows, geom, cache, eta, dofmap.tri_dofs,
                 dofmap.free_cols)


def _mass_factor_rows():
    """The rows of the upper Cholesky factor R of the P2 reference mass
    matrix (R^T R), each from the diagonal on: 21 values and their local
    dofs."""
    rule = quadrature("triangle", 4)
    vals = shape_values(rule.points)                    # (nq, 6)
    m_ref = np.einsum("g,gi,gj->ij", rule.weights, vals, vals)
    upper = np.triu_indices(6)
    values = np.linalg.cholesky(m_ref).T[upper]
    values.setflags(write=False)
    upper[1].setflags(write=False)
    return values, upper[1]


_MASS_FACTOR, _MASS_FACTOR_DOFS = _mass_factor_rows()


def _mass_rows(geom, tri_dofs, cols):
    """CSR arrays of X and Y = det_T X: per triangle, six rows of X hold
    the rows of R on its dofs (6, 5, ..., 1 entries), so that X^T Y sums
    det_T R^T R."""
    nt = len(tri_dofs)
    indptr = np.zeros(6 * nt + 1, dtype=np.int32)
    np.cumsum(np.tile(np.arange(6, 0, -1, dtype=np.int32), nt),
              out=indptr[1:])
    indices = cols[tri_dofs][:, _MASS_FACTOR_DOFS].ravel()
    xdata = np.tile(_MASS_FACTOR, nt)
    ydata = (geom.det[:, None] * _MASS_FACTOR).ravel()
    return indptr, indices, xdata, ydata


def assemble_mass(dofmap, geom):
    """Free block of the P2 mass matrix (SPD, exact quadrature), in CSC."""
    return _gram(dofmap.nfree, _mass_rows, geom, dofmap.tri_dofs,
                 dofmap.free_cols)


def assemble_load(dofmap, geom, f, degree):
    """Load vector F_i = int f v_i on the free dofs, with a
    degree-``degree`` triangle rule.

    ``f`` holds the (nt, nq) values at the rule's points
    (``ElementGeometry.quad_points``); the weighted values are contracted
    with the reference shape values (nq, 6) in one matrix product.
    """
    rule = quadrature("triangle", degree)
    local = (f * rule.weights) @ shape_values(rule.points)    # (nt, 6)
    local *= geom.det[:, None]
    # sums in element order, as np.add.at does; bin nfree collects the
    # constrained dofs
    return np.bincount(dofmap.free_cols[dofmap.tri_dofs].ravel(),
                       local.ravel(), minlength=dofmap.nfree + 1)[:-1]


def _coupling_block(dofs, local, cols, n):
    """n x ne CSC matrix with local[e, j] at row cols[dofs[e, j]] and
    column e, dropping the rows that map to n."""
    rows = cols[dofs]
    keep = rows < n
    indptr = np.zeros(len(local) + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return sp.csc_matrix((local[keep], rows[keep], indptr),
                         shape=(n, len(local)))


def control_coupling(dofmap, geom, cache, kind):
    """Free rows of the coupling B with entries <p_entity, B_h v_i>, in
    CSC, and the entity measures.

    Distributed: B[i, T] = int_T v_i dx, measures are triangle areas.
    Boundary:    B[i, e] = int_e dv_i/dn ds over boundary edges, measures are
    edge lengths (normal derivative from the unique adjacent element).
    """
    if kind == "distributed":
        rule = quadrature("triangle", 2)
        vals = np.einsum("q,qi->i", rule.weights, shape_values(rule.points))
        local = geom.det[:, None] * vals            # (nt, 6)
        return (_coupling_block(dofmap.tri_dofs, local, dofmap.free_cols,
                                dofmap.nfree),
                geom.area.copy())
    if kind == "boundary":
        grads = cache.btraces[:, :2]                        # (nEb, 2, 6)
        lw = cache.blength[:, None] * _EDGE_RULE.weights    # (nEb, 2)
        local = lw[:, :1] * grads[:, 0] + lw[:, 1:] * grads[:, 1]
        return (_coupling_block(cache.bdofs, local, dofmap.free_cols,
                                dofmap.nfree),
                cache.blength.copy())
    raise ValueError("kind must be 'distributed' or 'boundary'")


def broken_hessians(geom, dofmap, coeffs):
    """Elementwise (constant) Hessian of a P2 function: (nt, 2, 2)."""
    return np.einsum("tikl,ti->tkl", geom.hessians, coeffs[dofmap.tri_dofs])


def eval_on_elements(dofmap, coeffs, rule):
    """Values of a P2 function at the rule's points on every element."""
    vals = shape_values(rule.points)
    return coeffs[dofmap.tri_dofs] @ vals.T     # (nt, nq)


def error_norms(coeffs, dofmap, exact_hessian, geom, cache, eta):
    """Energy error of the P2 function with coefficients ``coeffs`` over
    ``dofmap`` against one smooth exact field.

    ``exact_hessian`` is the field's Hessian (w_xx, w_xy, w_yy) at the
    points of the degree-ERROR_DEGREE rule (``ElementGeometry.quad_points``),
    each (nt, nq). The exact field has no normal-derivative jumps, so the
    penalty part of the energy error is that of the P2 function alone.
    """
    rule = quadrature("triangle", ERROR_DEGREE)
    hxx, hxy, hyy = exact_hessian
    vh = broken_hessians(geom, dofmap, coeffs)
    dxx = hxx - vh[:, None, 0, 0]
    dxy = hxy - vh[:, None, 0, 1]
    dyy = hyy - vh[:, None, 1, 1]
    misfit = np.einsum("q,tq->t", rule.weights,
                       dxx ** 2 + 2.0 * dxy ** 2 + dyy ** 2) * geom.det
    jumps = _apply_rows(cache.dofs, cache.traces[:, 1:3], coeffs)
    pen = float(eta * (jumps ** 2 @ _EDGE_RULE.weights).sum())
    return np.sqrt(float(misfit.sum()) + pen)
