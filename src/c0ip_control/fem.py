"""Quadratic Lagrange elements: dofs, reference basis, quadrature, interpolation.

Local dof numbering on the reference triangle with barycentrics
``lambda = (1 - x - y, x, y)``: dofs 0..2 are the vertex functions
``lambda_i (2 lambda_i - 1)`` and dofs 3..5 are the edge-midpoint bubbles
``4 lambda_j lambda_k`` on the edge opposite vertex ``i`` (so dof 3+k sits
on the edge opposite local vertex k, matching ``Mesh.tri_edges``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = [
    "DofMap",
    "QuadratureRule",
    "build_dofmap",
    "shape_values",
    "shape_gradients",
    "REFERENCE_HESSIANS",
    "quadrature",
    "interpolate",
]

_DL = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # barycentric gradients

# constant reference Hessians, one 2x2 block per local basis function
REFERENCE_HESSIANS = np.empty((6, 2, 2))
for _i in range(3):
    REFERENCE_HESSIANS[_i] = 4.0 * np.outer(_DL[_i], _DL[_i])
for _k, (_j, _l) in enumerate([(1, 2), (2, 0), (0, 1)]):
    REFERENCE_HESSIANS[3 + _k] = 4.0 * (
        np.outer(_DL[_j], _DL[_l]) + np.outer(_DL[_l], _DL[_j]))
REFERENCE_HESSIANS.setflags(write=False)


def shape_values(points):
    """P2 basis values at reference points, shape (npts, 6)."""
    points = np.atleast_2d(points)
    lam = np.column_stack([1.0 - points[:, 0] - points[:, 1],
                           points[:, 0], points[:, 1]])
    vals = np.empty((len(points), 6))
    vals[:, :3] = lam * (2.0 * lam - 1.0)
    vals[:, 3] = 4.0 * lam[:, 1] * lam[:, 2]
    vals[:, 4] = 4.0 * lam[:, 2] * lam[:, 0]
    vals[:, 5] = 4.0 * lam[:, 0] * lam[:, 1]
    return vals


def shape_gradients(points):
    """P2 basis gradients at reference points, shape (npts, 6, 2)."""
    points = np.atleast_2d(points)
    lam = np.column_stack([1.0 - points[:, 0] - points[:, 1],
                           points[:, 0], points[:, 1]])
    grads = np.empty((len(points), 6, 2))
    for i in range(3):
        grads[:, i] = (4.0 * lam[:, i, None] - 1.0) * _DL[i]
    for k, (j, l) in enumerate([(1, 2), (2, 0), (0, 1)]):
        grads[:, 3 + k] = 4.0 * (lam[:, l, None] * _DL[j]
                                 + lam[:, j, None] * _DL[l])
    return grads


@dataclass(frozen=True)
class DofMap:
    """Global P2 dof layout: vertex dofs first, then edge-midpoint dofs.

    A P2 function is its (ndof,) coefficient array over this layout.
    ``free`` lists the unconstrained dofs in factor order, not ascending:
    the vertices in reverse Cuthill-McKee order of the mesh's vertex graph,
    each edge right after the earlier of its two end vertices. Every
    operator on the free dofs has its rows and columns in this order.
    """

    ndof: int
    tri_dofs: np.ndarray      # (nt, 6) local-to-global
    free: np.ndarray          # unconstrained dofs, in factor order
    # (ndof,) int32: free[k] -> k, every constrained dof -> nfree
    free_cols: np.ndarray

    @property
    def nfree(self):
        return len(self.free)


def _vertex_ranks(mesh):
    """Position of each vertex in the reverse Cuthill-McKee order of the
    vertex graph (Cuthill and McKee, 1969; George, 1971)."""
    nv = mesh.num_vertices
    lo, hi = mesh.edges.T
    # one key row * nv + column per direction of each edge; sorted, they
    # list the rows in turn, each row's neighbours ascending
    pairs = np.concatenate([lo * nv + hi, hi * nv + lo])
    pairs.sort()
    rows, cols = np.divmod(pairs, nv)
    indptr = np.zeros(nv + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=nv), out=indptr[1:])
    graph = sp.csr_matrix((np.ones(len(cols), dtype=np.int8),
                           cols.astype(np.int32), indptr), shape=(nv, nv))
    order = reverse_cuthill_mckee(graph, symmetric_mode=True)
    rank = np.empty(nv, dtype=np.int64)
    rank[order] = np.arange(nv)
    return rank


def build_dofmap(mesh):
    nv = mesh.num_vertices
    ne = mesh.num_edges
    ndof = nv + ne
    tri_dofs = np.empty((mesh.num_triangles, 6), dtype=int)
    tri_dofs[:, :3] = mesh.triangles
    tri_dofs[:, 3:] = nv + mesh.tri_edges
    dirichlet = np.zeros(ndof, dtype=bool)
    dirichlet[mesh.boundary_vertices] = True
    dirichlet[nv + mesh.boundary_edges] = True
    # SuperLU's minimum-degree ordering breaks its ties by the column
    # order, and this banded start gives it less fill than vertices, then
    # edges. Each vertex comes in rank order, followed by the edges whose
    # lower-ranked end it is, in edge order: one distinct key per dof.
    rank = _vertex_ranks(mesh)
    lo, hi = mesh.edges.T
    key = np.concatenate([rank * (ne + 1),
                          np.minimum(rank[lo], rank[hi]) * (ne + 1) + 1
                          + np.arange(ne)])
    order = np.argsort(key)
    free = order[~dirichlet[order]]
    free_cols = np.full(ndof, len(free), dtype=np.int32)
    free_cols[free] = np.arange(len(free), dtype=np.int32)
    return DofMap(ndof, tri_dofs, free, free_cols)


def interpolate(mesh, dofmap, field):
    """Coefficients of the nodal interpolant of ``field(x, y)`` (vectorized
    callable) at the vertices and edge midpoints of ``mesh``, shape
    (ndof,)."""
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                  + mesh.vertices[mesh.edges[:, 1]])
    coords = np.vstack([mesh.vertices, mids])
    coeffs = np.asarray(field(coords[:, 0], coords[:, 1]), dtype=float)
    return np.broadcast_to(coeffs, (dofmap.ndof,)).copy()


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (n, 2) for triangles, (n,) for edges, reference coords
    weights: np.ndarray
    degree: int


# Gauss-Jacobi nodes and weights on [-1, 1] for the weight 1 - x
# (alpha = 1, beta = 0) with n = 1..5 points, bitwise equal to
# scipy.special.roots_jacobi(n, 1, 0); stored so that importing the package
# does not load scipy.special
_GAUSS_JACOBI = {
    1: ((-0.3333333333333333,),
        (2.0,)),
    2: ((-0.6898979485566357, 0.2898979485566358),
        (1.2721655269759087, 0.7278344730240913)),
    3: ((-0.8228240809745921, -0.1810662711185305, 0.5753189235216941),
        (0.8037276549558384, 0.9169644254383448, 0.2793079196058167)),
    4: ((-0.8857916077709646, -0.44631397272375245, 0.16718086473783364,
         0.7204802713124389),
        (0.5420276537259541, 0.8138582720410844, 0.5193901904329293,
         0.12472388380003234)),
    5: ((-0.9203802858970626, -0.6039731642527836, -0.1240503795052277,
         0.39092854670727223, 0.8029298284023472),
        (0.3871263609066059, 0.6686985523774788, 0.5855479483386794,
         0.2956354802904667, 0.0629916580867692)),
}

_TRIANGLE_DEGREES = (1, 2, 4, 6, 8)


@lru_cache(maxsize=None)
def quadrature(kind, degree):
    """Quadrature on the reference triangle or the reference edge [0, 1].

    Triangle rules use the conical (Duffy) product of Gauss-Jacobi and
    Gauss-Legendre points, exact for total degree <= ``degree``. Each rule
    is computed once and shared, so its arrays are read-only.
    """
    if kind == "triangle":
        if degree not in _TRIANGLE_DEGREES:
            raise ValueError("unsupported triangle degree %r" % (degree,))
        n = (degree + 2) // 2
        xj, wj = (np.array(v) for v in _GAUSS_JACOBI[n])
        r = 0.5 * (xj + 1.0)
        wr = 0.25 * wj          # integrates (1 - r) f(r) on [0, 1]
        xl, wl = np.polynomial.legendre.leggauss(n)
        s = 0.5 * (xl + 1.0)
        ws = 0.5 * wl
        pts = np.column_stack([np.repeat(r, n),
                               np.tile(s, n) * np.repeat(1.0 - r, n)])
        wts = np.repeat(wr, n) * np.tile(ws, n)
    elif kind == "edge":
        if not 1 <= degree <= 9:
            raise ValueError("unsupported edge degree %r" % (degree,))
        n = (degree + 2) // 2
        xl, wl = np.polynomial.legendre.leggauss(n)
        pts, wts = 0.5 * (xl + 1.0), 0.5 * wl
    else:
        raise ValueError("kind must be 'triangle' or 'edge'")
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(pts, wts, degree)
