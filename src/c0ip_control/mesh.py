"""Conforming triangulations with newest-vertex bisection and Doerfler marking.

Triangles are stored counterclockwise as vertex triples ``(a, b, c)`` where
the refinement edge is always the edge ``(b, c)`` opposite the local vertex 0
(the "peak"). Bisection inserts the midpoint of the refinement edge and the
two children get the new vertex as their peak, which is the classical
newest-vertex rule.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Mesh",
    "MeshTopologyError",
    "make_unit_square",
    "make_lshape",
    "bisect",
    "dorfler_mark",
]


class MeshTopologyError(RuntimeError):
    """Raised when refinement closure cannot terminate (broken topology)."""


class Mesh:
    """Immutable conforming triangulation with edge topology.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise; refinement edge is the
        edge opposite local vertex 0.
    level : (nt,) int array, refinement generation per triangle.
    parent : (nt,) int array, ancestor triangle index in the mesh this one
        was refined from (-1 for an initial mesh).
    edges : (ne, 2) int array of sorted vertex pairs.
    edge_tris : (ne, 2) int array of adjacent triangles (-1 if boundary).
    tri_edges : (nt, 3) int array; entry k is the edge opposite local vertex k.

    An edge lies on the boundary when it has one adjacent triangle.
    """

    def __init__(self, vertices, triangles, level=None, parent=None):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=int)
        nt = len(triangles)
        self.vertices = vertices
        self.triangles = triangles
        self.level = (np.zeros(nt, dtype=int) if level is None
                      else np.asarray(level, dtype=int))
        self.parent = (np.full(nt, -1, dtype=int) if parent is None
                       else np.asarray(parent, dtype=int))
        self._check_orientation()
        self._build_topology()
        for arr in (self.vertices, self.triangles, self.level, self.parent,
                    self.edges, self.edge_tris, self.tri_edges):
            arr.setflags(write=False)

    # -- construction helpers -------------------------------------------

    def _check_orientation(self):
        if np.any(self.signed_areas() <= 0.0):
            raise ValueError("all triangles must be counterclockwise")

    def _build_topology(self):
        tris = self.triangles
        # edge opposite local vertex k: (v_{k+1}, v_{k+2})
        raw = np.concatenate([tris[:, [1, 2]], tris[:, [2, 0]],
                              tris[:, [0, 1]]])
        raw_sorted = np.sort(raw, axis=1)
        # one int64 key per sorted pair orders the edges lexicographically
        nv = np.int64(len(self.vertices))
        keys, inverse = np.unique(raw_sorted[:, 0] * nv + raw_sorted[:, 1],
                                  return_inverse=True)
        edges = np.column_stack([keys // nv, keys % nv])
        ne = len(edges)
        tri_edges = inverse.reshape(3, -1).T.copy()
        counts = np.bincount(inverse, minlength=ne)
        if np.any(counts > 2):
            raise MeshTopologyError("edge shared by more than two triangles")
        # the triangles of edge e are tri_idx[order[start[e]:][:counts[e]]]
        # in the order of ``raw``; that order fixes which one is tri1 and so
        # the direction of the edge normal
        edge_tris = np.full((ne, 2), -1, dtype=int)
        tri_idx = np.tile(np.arange(len(tris)), 3)
        order = np.argsort(inverse, kind="stable")
        start = np.cumsum(counts) - counts
        edge_tris[:, 0] = tri_idx[order[start]]
        shared = counts == 2
        edge_tris[shared, 1] = tri_idx[order[start[shared] + 1]]
        self.edges = edges
        self.edge_tris = edge_tris
        self.tri_edges = tri_edges

    # -- queries ----------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def interior_edges(self):
        return np.flatnonzero(self.edge_tris[:, 1] >= 0)

    @property
    def boundary_edges(self):
        return np.flatnonzero(self.edge_tris[:, 1] < 0)

    @property
    def boundary_vertices(self):
        return np.unique(self.edges[self.boundary_edges])

    def signed_areas(self):
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def diameters(self):
        """Longest side of every triangle."""
        p = self.vertices[self.triangles]
        return np.stack([
            np.linalg.norm(p[:, 1] - p[:, 2], axis=1),
            np.linalg.norm(p[:, 2] - p[:, 0], axis=1),
            np.linalg.norm(p[:, 0] - p[:, 1], axis=1),
        ], axis=1).max(axis=1)

    def min_angle(self):
        p = self.vertices[self.triangles]
        angles = []
        for k in range(3):
            a = p[:, (k + 1) % 3] - p[:, k]
            b = p[:, (k + 2) % 3] - p[:, k]
            cosang = np.sum(a * b, axis=1) / (
                np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
            angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
        return float(np.min(angles))


def _split_cells(p00, p10, p01, p11, diagonal):
    """Two counterclockwise triangles per cell, cell by cell, from the
    vertex ids of the cells' corners (p10 is the corner right of p00).

    Each triangle starts at the corner opposite the cell diagonal, so its
    longest edge, the refinement edge, is opposite local vertex 0."""
    if diagonal == "ne":
        pair = [(p10, p11, p00), (p01, p00, p11)]
    else:
        pair = [(p00, p10, p01), (p11, p01, p10)]
    return np.stack([np.column_stack(t) for t in pair], axis=1).reshape(-1, 3)


def _cell_grid(n):
    """Cell indices (i, j) of an n x n grid, j running fastest."""
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return i.ravel(), j.ravel()


def make_unit_square(n, diagonal="ne"):
    """Uniform mesh of (0,1)^2: n x n cells, two triangles each.

    ``diagonal`` selects the splitting diagonal: "ne" connects the
    lower-left and upper-right cell corners, "nw" the other two. The
    refinement edge of every triangle is the diagonal (its longest edge).
    """
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    if diagonal not in ("ne", "nw"):
        raise ValueError("diagonal must be 'ne' or 'nw'")
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])
    i, j = _cell_grid(n)
    p00 = i * (n + 1) + j
    triangles = _split_cells(p00, p00 + n + 1, p00 + 1, p00 + n + 2, diagonal)
    return Mesh(vertices, triangles)


def make_lshape(n, diagonal="ne"):
    """L-shaped domain (-1,1)^2 minus [0,1]x[-1,0], re-entrant corner at 0.

    Built from three unit squares, each meshed like ``make_unit_square(n)``;
    vertices are numbered by first appearance as cell corners.
    """
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    if diagonal not in ("ne", "nw"):
        raise ValueError("diagonal must be 'ne' or 'nw'")
    h = 1.0 / n
    i, j = _cell_grid(n)
    corners = []
    for x0, y0 in [(-1.0, -1.0), (-1.0, 0.0), (0.0, 0.0)]:
        xa, ya = x0 + i * h, y0 + j * h
        corners.append(np.stack([(xa, ya), (xa + h, ya), (xa, ya + h),
                                 (xa + h, ya + h)], axis=1).T)
    corners = np.concatenate(corners).reshape(-1, 2)    # p00, p10, p01, p11
    # corners that agree to 12 decimals are one vertex
    _, first, inverse = np.unique(np.round(corners, 12), axis=0,
                                  return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    vertices = corners[np.sort(first)]
    triangles = _split_cells(*rank[inverse.ravel()].reshape(-1, 4).T, diagonal)
    return Mesh(vertices, triangles)


def bisect(mesh, marked):
    """Newest-vertex bisection of the marked triangles with conforming closure.

    Every marked triangle is bisected at least once; neighbors are bisected
    recursively until the mesh is conforming. Returns a new mesh whose
    ``parent`` array points into ``mesh``.

    The result is that of refining the marked triangles one at a time in
    ascending order, each by walking across refinement edges to the first
    triangle that can be split together with its neighbour, and numbering
    vertices and triangles as they are created. That order is computed in
    closed form. Let N(t) be the triangle across the refinement edge of t; t
    and N(t) are a compatible pair when N(N(t)) = t. A triangle is *claimed*
    by the smallest marked triangle whose walk t -> N(t) -> ... reaches it;
    the walk stops at a compatible pair, at the boundary, or at a triangle
    claimed earlier. Each claimed triangle is split once as a *primary*,
    except the side of a compatible pair with the larger claim, which is
    split right after the other side as its partner. The primaries are split
    in the order of (claim, decreasing distance from the claim along the
    walk). The partner of a primary t is N(t) for a compatible pair and
    otherwise the child of the already split N(t) whose refinement edge is
    that of t. Split number s creates the midpoint vertex of its primary and
    triangles ``nt + 2s`` and ``nt + 2s + 1``; the new mesh keeps the
    unsplit triangles in the order of their ids.
    """
    marked = np.asarray(list(marked))
    if marked.size and not np.issubdtype(marked.dtype, np.integer):
        raise ValueError("marked must hold integer triangle indices")
    marked = np.unique(marked.astype(int))
    if marked.size and (marked.min() < 0 or marked.max() >= mesh.num_triangles):
        raise ValueError("marked set contains invalid triangle indices")
    if marked.size == 0:
        return mesh
    nt, nv = mesh.num_triangles, mesh.num_vertices
    tris = mesh.triangles
    idx = np.arange(nt)
    # N(t), -1 on the boundary
    pair = mesh.edge_tris[mesh.tri_edges[:, 0]]
    nb = np.where(pair[:, 0] == idx, pair[:, 1], pair[:, 0])
    inner = nb >= 0
    nb_or_0 = np.where(inner, nb, 0)
    compatible = inner & (nb[nb_or_0] == idx)
    link = inner & ~compatible

    # claim: smallest marked triangle whose walk reaches the triangle
    claim = np.full(nt, nt)
    claim[marked] = marked
    front = marked
    while front.size:
        front = front[link[front]]
        dst = nb[front]
        before = claim[dst]
        np.minimum.at(claim, dst, claim[front])
        front = np.unique(dst[claim[dst] < before])

    # depth: distance from the claim along its walk; a walk that comes back
    # to a triangle it passed runs round a cycle of refinement edges
    depth = np.full(nt, -1)
    front = np.flatnonzero(claim == idx)
    depth[front] = 0
    step = 0
    while front.size:
        front = front[link[front]]
        dst = nb[front]
        front = dst[claim[dst] == claim[front]]
        step += 1
        if np.any(depth[front] >= 0):
            raise MeshTopologyError("refinement edges form a cycle")
        depth[front] = step

    # a compatible pair's side with the larger claim is split as a partner
    follower = compatible & (claim[nb_or_0] < claim)
    prim = np.flatnonzero((claim < nt) & ~follower)
    prim = prim[np.lexsort((-depth[prim], claim[prim]))]

    # split events: each primary, then its partner if it has a neighbour
    paired = inner[prim]
    first = np.cumsum(1 + paired) - (1 + paired)
    nev = len(prim) + int(paired.sum())
    event_of = np.full(nt, -1)
    event_of[prim] = first
    pc = paired & compatible[prim]
    event_of[nb[prim[pc]]] = first[pc] + 1

    ev_tri = np.empty((nev, 3), dtype=int)
    ev_level = np.empty(nev, dtype=int)
    ev_root = np.empty(nev, dtype=int)
    ev_mid = np.empty(nev, dtype=int)
    mids = nv + np.arange(len(prim))
    split = tris[prim]
    ev_tri[first] = split
    ev_level[first] = mesh.level[prim]
    ev_root[first] = prim
    ev_mid[first] = mids
    ev_mid[first[paired] + 1] = mids[paired]
    partner = nb[prim[pc]]
    ev_tri[first[pc] + 1] = tris[partner]
    ev_level[first[pc] + 1] = mesh.level[partner]
    ev_root[first[pc] + 1] = partner

    # the partner child of N(t) made by split s: (m, a, b) if it holds the
    # vertex b of N(t) = (a, b, c), else (m, c, a)
    pl = paired & ~compatible[prim]
    x, y = prim[pl], nb[prim[pl]]
    s = event_of[y]
    ya, yb, yc = tris[y].T
    holds_b = (tris[x, 1] == yb) | (tris[x, 2] == yb)
    k = np.where(holds_b, 0, 1)
    ev_tri[first[pl] + 1] = np.where(
        holds_b[:, None],
        np.column_stack([ev_mid[s], ya, yb]),
        np.column_stack([ev_mid[s], yc, ya]))
    ev_level[first[pl] + 1] = mesh.level[y] + 1
    ev_root[first[pl] + 1] = y

    a, b, c = ev_tri.T
    created = np.stack([np.column_stack([ev_mid, a, b]),
                        np.column_stack([ev_mid, c, a])], axis=1)
    keep_old = event_of < 0
    keep_new = np.ones(2 * nev, dtype=bool)
    keep_new[2 * s + k] = False
    midpoints = 0.5 * (mesh.vertices[split[:, 1]] + mesh.vertices[split[:, 2]])
    return Mesh(
        np.concatenate([mesh.vertices, midpoints]),
        np.concatenate([tris[keep_old], created.reshape(-1, 3)[keep_new]]),
        np.concatenate([mesh.level[keep_old],
                        np.repeat(ev_level + 1, 2)[keep_new]]),
        np.concatenate([idx[keep_old], np.repeat(ev_root, 2)[keep_new]]))


def dorfler_mark(indicators, theta):
    """Minimal greedy Doerfler marking on squared indicator contributions.

    Rounds the indicators to 10 decimal places of the largest one, sorts
    them descending and takes the smallest prefix whose sum reaches
    ``theta`` times the total; ties, also between values closer than the
    grid, go to the lower index. Mirror-image triangles get indicators that
    agree only to round-off: unrounded, a last-bit change would mark the
    other triangle of a pair and move the run onto the mirror-image mesh.
    The grid is relative to the maximum, not to each value, because the
    criterion weighs each value by its share of the total; values below
    5e-11 of the maximum become 0 and are never marked.
    """
    indicators = np.asarray(indicators, dtype=float)
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    if not np.all(np.isfinite(indicators)):
        raise ValueError("indicators must be finite")
    if np.any(indicators < 0.0):
        raise ValueError("indicators must be nonnegative")
    top = indicators.max(initial=0.0)
    if top <= 0.0:
        raise ValueError("all indicators are zero")
    indicators = np.round(indicators / top, 10) * top
    total = indicators.sum()
    order = np.lexsort((np.arange(len(indicators)), -indicators))
    target = theta * total
    cumulative = np.cumsum(indicators[order])
    k = int(np.searchsorted(cumulative, target - 1e-12 * total)) + 1
    k = min(k, int(np.count_nonzero(indicators)))
    return np.sort(order[:k])
