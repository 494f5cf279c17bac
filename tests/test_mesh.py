"""Mesh construction, newest-vertex bisection, and marking."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c0ip_control import (Mesh, MeshTopologyError, bisect, dorfler_mark,
                          make_lshape, make_unit_square)

MESH_ARRAYS = ("vertices", "triangles", "level", "parent", "edges",
               "edge_tris", "tri_edges")

# the boundary lines of the domain each initial mesh covers, as (axis,
# value, low, high): the points p with p[axis] = value and the other
# coordinate in [low, high]
BOUNDARY_LINES = {
    make_unit_square: [(1, 0.0, 0.0, 1.0), (0, 1.0, 0.0, 1.0),
                       (1, 1.0, 0.0, 1.0), (0, 0.0, 0.0, 1.0)],
    make_lshape: [(1, -1.0, -1.0, 0.0), (0, 0.0, -1.0, 0.0),
                  (1, 0.0, 0.0, 1.0), (0, 1.0, 0.0, 1.0),
                  (1, 1.0, -1.0, 1.0), (0, -1.0, -1.0, 1.0)],
}


def euler_characteristic(mesh):
    return mesh.num_vertices - mesh.num_edges + mesh.num_triangles


def boundary_edges_on_lines(mesh, maker):
    """Whether each boundary edge of ``mesh`` has both ends on one boundary
    line of the domain that ``maker`` meshes."""
    ends = mesh.vertices[mesh.edges[mesh.boundary_edges]]   # (nb, 2, 2)
    tol = 1e-12
    hit = np.zeros(len(ends), dtype=bool)
    for axis, value, low, high in BOUNDARY_LINES[maker]:
        along = ends[:, :, 1 - axis]
        hit |= np.all((np.abs(ends[:, :, axis] - value) < tol)
                      & (along >= low - tol) & (along <= high + tol), axis=1)
    return hit


def split_cells_loop(cells, diagonal):
    """Two triangles per cell (p00, p10, p01, p11), one cell at a time."""
    tris = []
    for p00, p10, p01, p11 in cells:
        if diagonal == "ne":
            tris.append((p10, p11, p00))
            tris.append((p01, p00, p11))
        else:
            tris.append((p00, p10, p01))
            tris.append((p11, p01, p10))
    return np.array(tris)


def make_unit_square_loop(n, diagonal="ne"):
    """``make_unit_square`` cell by cell: the oracle of the array version."""
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    cells = [(vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1))
             for i in range(n) for j in range(n)]
    tris = split_cells_loop(cells, diagonal)
    return Mesh(vertices, orient_refinement_edges_loop(vertices, tris))


def make_lshape_loop(n, diagonal="ne"):
    """``make_lshape`` with a dict of rounded coordinates that numbers the
    vertices as they first appear: the oracle of the array version."""
    vert_index = {}
    vertices = []

    def vid(x, y):
        key = (round(x, 12), round(y, 12))
        if key not in vert_index:
            vert_index[key] = len(vertices)
            vertices.append((x, y))
        return vert_index[key]

    h = 1.0 / n
    cells = []
    for x0, y0 in [(-1.0, -1.0), (-1.0, 0.0), (0.0, 0.0)]:
        for i in range(n):
            for j in range(n):
                xa, ya = x0 + i * h, y0 + j * h
                cells.append((vid(xa, ya), vid(xa + h, ya), vid(xa, ya + h),
                              vid(xa + h, ya + h)))
    tris = split_cells_loop(cells, diagonal)
    vertices = np.array(vertices)
    return Mesh(vertices, orient_refinement_edges_loop(vertices, tris))


def edge_tris_loop(mesh):
    """Adjacent triangles per edge, filled one (edge, triangle) pair at a
    time in the order of the stably sorted edge list: the oracle of the
    vectorized fill in ``Mesh``."""
    tris = mesh.triangles
    raw = np.sort(np.concatenate([tris[:, [1, 2]], tris[:, [2, 0]],
                                  tris[:, [0, 1]]]), axis=1)
    _, inverse = np.unique(raw, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    edge_tris = np.full((mesh.num_edges, 2), -1, dtype=int)
    tri_idx = np.tile(np.arange(len(tris)), 3)
    order = np.argsort(inverse, kind="stable")
    pos = np.zeros(mesh.num_edges, dtype=int)
    for e, t in zip(inverse[order], tri_idx[order]):
        edge_tris[e, pos[e]] = t
        pos[e] += 1
    return edge_tris


def edge_table_rows(mesh):
    """Edges and the per-triangle edge ids from a row-wise ``np.unique`` of
    the sorted vertex pairs: the oracle of the int64 keys in ``Mesh``."""
    tris = mesh.triangles
    raw = np.sort(np.concatenate([tris[:, [1, 2]], tris[:, [2, 0]],
                                  tris[:, [0, 1]]]), axis=1)
    edges, inverse = np.unique(raw, axis=0, return_inverse=True)
    return edges, inverse.ravel().reshape(3, -1).T


def orient_refinement_edges_loop(vertices, triangles):
    """Triangle-by-triangle rotation of the longest edge (ties within 1e-9:
    smallest opposite vertex) to local edge 0: the oracle of the makers'
    cell split, which must leave their triangles unchanged."""
    triangles = np.asarray(triangles, dtype=int)
    p = vertices[triangles]
    lens = np.stack([
        np.linalg.norm(p[:, 1] - p[:, 2], axis=1),
        np.linalg.norm(p[:, 2] - p[:, 0], axis=1),
        np.linalg.norm(p[:, 0] - p[:, 1], axis=1),
    ], axis=1)
    out = triangles.copy()
    for t in range(len(triangles)):
        lmax = lens[t].max()
        cand = np.flatnonzero(lens[t] >= lmax - 1e-9)
        k = cand[np.argmin(triangles[t, cand])]
        out[t] = np.roll(triangles[t], -k)
    return out


def bisect_loop(mesh, marked):
    """Newest-vertex bisection with dicts, one marked triangle at a time:
    the oracle of the array ``bisect``, whose meshes must be the same array
    for array.

    Each marked triangle still present is refined by a stack walk across
    refinement edges to a triangle that can be split with its neighbour;
    vertices and triangles are numbered as they are created, and the
    unsplit triangles are returned in id order. The walk gives up after
    ``2 * num_triangles`` steps, which is how this version detects a cycle
    of refinement edges.
    """
    marked = np.unique(np.asarray(list(marked), dtype=int))
    if marked.size and (marked.min() < 0 or marked.max() >= mesh.num_triangles):
        raise ValueError("marked set contains invalid triangle indices")
    if marked.size == 0:
        return mesh
    closure_limit = 2 * mesh.num_triangles

    verts = [tuple(v) for v in mesh.vertices]
    tris = {t: tuple(mesh.triangles[t]) for t in range(mesh.num_triangles)}
    level = {t: int(mesh.level[t]) for t in tris}
    root = {t: t for t in tris}
    next_id = mesh.num_triangles

    edge2tris = {}
    for t, (a, b, c) in tris.items():
        for e in ((a, b), (b, c), (c, a)):
            edge2tris.setdefault(frozenset(e), set()).add(t)
    midpoint = {}

    def get_midpoint(u, v):
        key = frozenset((u, v))
        if key not in midpoint:
            pu, pv = verts[u], verts[v]
            verts.append((0.5 * (pu[0] + pv[0]), 0.5 * (pu[1] + pv[1])))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    def split(t, m):
        nonlocal next_id
        a, b, c = tris.pop(t)
        for e in ((a, b), (b, c), (c, a)):
            edge2tris[frozenset(e)].discard(t)
        for child in ((m, a, b), (m, c, a)):
            cid = next_id
            next_id += 1
            tris[cid] = child
            level[cid] = level[t] + 1
            root[cid] = root[t]
            for e in ((child[0], child[1]), (child[1], child[2]),
                      (child[2], child[0])):
                edge2tris.setdefault(frozenset(e), set()).add(cid)

    def refine(t0):
        stack = [t0]
        steps = 0
        while stack:
            steps += 1
            if steps > closure_limit:
                raise MeshTopologyError(
                    "refinement closure exceeded %d steps" % closure_limit)
            t = stack[-1]
            if t not in tris:
                stack.pop()
                continue
            a, b, c = tris[t]
            ekey = frozenset((b, c))
            others = edge2tris[ekey] - {t}
            nb = min(others) if others else None
            if nb is not None:
                na, nb_b, nb_c = tris[nb]
                if frozenset((nb_b, nb_c)) != ekey:
                    stack.append(nb)
                    continue
            m = get_midpoint(b, c)
            split(t, m)
            if nb is not None:
                split(nb, m)
            stack.pop()

    for t in marked:
        if t in tris:  # may already be split by closure
            refine(int(t))

    order = sorted(tris)
    new_tris = np.array([tris[t] for t in order], dtype=int)
    new_level = np.array([level[t] for t in order], dtype=int)
    new_parent = np.array([root[t] for t in order], dtype=int)
    return Mesh(np.array(verts), new_tris, new_level, new_parent)


def assert_same_mesh(mesh, reference):
    for name in MESH_ARRAYS:
        np.testing.assert_array_equal(getattr(mesh, name),
                                      getattr(reference, name), err_msg=name)


def hexagon_fan(extra=False):
    """Six triangles (p_i, p_{i+1}, centre) around (0, 0): each refinement
    edge (p_{i+1}, centre) is a non-refinement edge of the next triangle,
    so the refinement edges form a 6-cycle. ``extra`` adds a seventh
    triangle outside the edge (p_0, p_1) whose refinement edge is that
    edge, so its walk runs into the cycle."""
    ang = np.arange(6) * np.pi / 3.0
    ring = np.column_stack([np.cos(ang), np.sin(ang)])
    vertices = np.vstack([ring, [[0.0, 0.0]]])
    triangles = [(i, (i + 1) % 6, 6) for i in range(6)]
    if extra:
        vertices = np.vstack([vertices, [ring[0] + ring[1]]])
        triangles.append((7, 1, 0))
    return Mesh(vertices, triangles)


class TestMakeUnitSquare:
    def test_smallest_grid_counts(self):
        mesh = make_unit_square(1)
        assert mesh.num_vertices == 4
        assert mesh.num_triangles == 2
        assert mesh.num_edges == 5
        assert len(mesh.interior_edges) == 1

    def test_n2_counts(self):
        mesh = make_unit_square(2)
        assert mesh.num_vertices == 9
        assert mesh.num_triangles == 8
        assert mesh.num_edges == 16
        assert len(mesh.interior_edges) == 8
        assert euler_characteristic(mesh) == 1

    def test_n4_counts(self):
        mesh = make_unit_square(4)
        assert mesh.num_vertices == 25
        assert mesh.num_triangles == 32
        assert mesh.num_edges == 56
        assert euler_characteristic(mesh) == 1

    def test_orientation_positive(self):
        for diag in ("ne", "nw"):
            mesh = make_unit_square(3, diagonal=diag)
            assert np.all(mesh.signed_areas() > 0.0)

    def test_total_area(self):
        mesh = make_unit_square(5)
        assert abs(mesh.signed_areas().sum() - 1.0) < 1e-14

    def test_refinement_edge_is_longest(self):
        mesh = make_unit_square(3)
        p = mesh.vertices[mesh.triangles]
        opp0 = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
        assert np.allclose(opp0, mesh.diameters())

    def test_diameters_are_longest_side(self):
        # the longest of the three sides, bitwise
        mesh = bisect(make_lshape(2), [0, 5, 9])
        p = mesh.vertices[mesh.triangles]
        sides = [np.linalg.norm(p[:, (k + 1) % 3] - p[:, (k + 2) % 3],
                                axis=1) for k in range(3)]
        expected = np.maximum(np.maximum(sides[0], sides[1]), sides[2])
        assert np.array_equal(mesh.diameters(), expected)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_unit_square(0)
        with pytest.raises(ValueError):
            make_unit_square(2, diagonal="sw")


class TestMakeLshape:
    def test_n1_counts(self):
        mesh = make_lshape(1)
        assert mesh.num_vertices == 8
        assert mesh.num_triangles == 6
        assert mesh.num_edges == 13
        assert euler_characteristic(mesh) == 1

    def test_reentrant_corner_vertex(self):
        mesh = make_lshape(1)
        dist = np.linalg.norm(mesh.vertices, axis=1)
        corner = int(np.argmin(dist))
        assert dist[corner] < 1e-14
        assert corner in mesh.boundary_vertices

    def test_n2_counts(self):
        mesh = make_lshape(2)
        assert mesh.num_triangles == 24

    def test_total_area(self):
        mesh = make_lshape(3)
        assert abs(mesh.signed_areas().sum() - 3.0) < 1e-13

    def test_no_triangle_in_removed_quadrant(self):
        mesh = make_lshape(2)
        cent = mesh.vertices[mesh.triangles].mean(axis=1)
        assert not np.any((cent[:, 0] > 0.0) & (cent[:, 1] < 0.0))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_lshape(0)
        for diagonal in ("xx", "sw", "NE", ""):
            with pytest.raises(ValueError):
                make_lshape(2, diagonal)


class TestInitialMeshesMatchLoops:
    """The array builders against their cell-by-cell oracles."""

    @pytest.mark.parametrize("diagonal", ["ne", "nw"])
    @pytest.mark.parametrize("maker,loop", [
        (make_unit_square, make_unit_square_loop),
        (make_lshape, make_lshape_loop)])
    def test_same_arrays(self, maker, loop, diagonal):
        for n in range(1, 17):
            assert_same_mesh(maker(n, diagonal), loop(n, diagonal))

    @pytest.mark.parametrize("maker", [make_unit_square, make_lshape])
    def test_boundary_edges_on_boundary_lines(self, maker):
        for n in (1, 3):
            mesh = maker(n)
            assert boundary_edges_on_lines(mesh, maker).all()
            assert not boundary_edges_on_lines(
                mesh, make_lshape if maker is make_unit_square
                else make_unit_square).all()


class TestBisect:
    def test_empty_marking_is_identity(self):
        mesh = make_unit_square(2)
        assert bisect(mesh, []) is mesh

    def test_single_mark_with_closure(self):
        mesh = make_unit_square(1)
        fine = bisect(mesh, [0])
        # bisecting across the shared diagonal splits the neighbor too
        assert fine.num_triangles == 4
        assert fine.num_vertices == 5
        assert abs(fine.signed_areas().sum() - 1.0) < 1e-14

    def test_mark_all(self):
        mesh = make_unit_square(2)
        fine = bisect(mesh, range(mesh.num_triangles))
        assert fine.num_triangles == 2 * mesh.num_triangles
        assert euler_characteristic(fine) == 1
        assert np.all(np.bincount(fine.parent,
                                  minlength=mesh.num_triangles) >= 2)

    def test_invalid_marks(self):
        mesh = make_unit_square(2)
        with pytest.raises(ValueError):
            bisect(mesh, [99])
        with pytest.raises(ValueError):
            bisect(mesh, [-1])

    def test_non_integer_marks_rejected(self):
        # cast to ints, a boolean mask or a float would name triangles the
        # caller did not mean
        mesh = make_unit_square(2)
        mask = np.zeros(mesh.num_triangles, dtype=bool)
        mask[5] = True
        for marked in (mask, [0.7]):
            with pytest.raises(ValueError, match="integer"):
                bisect(mesh, marked)

    def test_levels_increase(self):
        mesh = make_unit_square(1)
        fine = bisect(mesh, range(mesh.num_triangles))
        assert np.all(fine.level == 1)

    def test_parent_points_into_coarse_mesh(self):
        mesh = make_unit_square(2)
        fine = bisect(mesh, [3])
        assert fine.parent.min() >= 0
        assert fine.parent.max() < mesh.num_triangles
        # children stay inside their parent triangle
        for t in range(fine.num_triangles):
            ppts = mesh.vertices[mesh.triangles[fine.parent[t]]]
            cent = fine.vertices[fine.triangles[t]].mean(axis=0)
            # barycentric coordinates of the child's centroid
            mat = np.column_stack([ppts[1] - ppts[0], ppts[2] - ppts[0]])
            lam = np.linalg.solve(mat, cent - ppts[0])
            assert lam.min() > -1e-12 and lam.sum() < 1.0 + 1e-12


class TestDorflerMark:
    def test_single_dominant_indicator(self):
        marked = dorfler_mark([4.0, 1.0, 1.0, 1.0, 1.0], 0.3)
        assert list(marked) == [0]

    def test_theta_one_marks_full_support(self):
        ind = [0.0, 2.0, 0.5, 0.0, 1.0]
        marked = dorfler_mark(ind, 1.0)
        assert list(marked) == [1, 2, 4]

    def test_tie_break_lowest_indices(self):
        marked = dorfler_mark([1.0, 1.0, 1.0, 1.0], 0.5)
        assert list(marked) == [0, 1]

    def test_minimality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ind = rng.uniform(0.0, 1.0, size=30)
            theta = rng.uniform(0.1, 0.9)
            marked = dorfler_mark(ind, theta)
            assert ind[marked].sum() >= theta * ind.sum() - 1e-12
            # dropping the weakest marked element breaks the bound
            weakest = marked[np.argmin(ind[marked])]
            rest = ind[marked].sum() - ind[weakest]
            assert rest < theta * ind.sum() + 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            dorfler_mark([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            dorfler_mark([1.0, -2.0], 0.5)
        with pytest.raises(ValueError):
            dorfler_mark([0.0, 0.0], 0.5)

    @pytest.mark.parametrize("ind", [[1.0, np.nan, 2.0], [np.inf, 1.0]])
    def test_non_finite_indicators_rejected(self, ind):
        # NaN slips past the sign check and inf past the rounding; both are
        # rejected before any arithmetic can warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                dorfler_mark(ind, 0.5)


class TestMeshMetrics:
    def test_unit_square_diameter(self):
        mesh = make_unit_square(1)
        assert abs(mesh.diameters().max() - np.sqrt(2.0)) < 1e-14
        assert abs(mesh.min_angle() - np.pi / 4.0) < 1e-12

    def test_diameter_scaling(self):
        h_max = make_unit_square(4).diameters().max()
        assert abs(h_max - np.sqrt(2.0) / 4.0) < 1e-14


class TestRandomRefinementChains:
    """Structural invariants along random bisection chains."""

    @pytest.mark.parametrize("maker,area", [(make_unit_square, 1.0),
                                            (make_lshape, 3.0)])
    def test_invariants_preserved(self, maker, area):
        rng = np.random.default_rng(42)
        for chain in range(4):
            mesh = maker(1)
            angle0 = mesh.min_angle()
            for _ in range(6):
                k = rng.integers(1, max(2, mesh.num_triangles // 3))
                marked = rng.choice(mesh.num_triangles, size=k, replace=False)
                mesh = bisect(mesh, marked)
                assert euler_characteristic(mesh) == 1
                assert abs(mesh.signed_areas().sum() - area) < 1e-12
                assert mesh.min_angle() >= angle0 - 1e-12
                # conforming: an edge with a single cell lies on the
                # domain's boundary
                assert boundary_edges_on_lines(mesh, maker).all()

    @pytest.mark.parametrize("maker", [make_unit_square, make_lshape])
    def test_edge_tris_match_loop(self, maker):
        rng = np.random.default_rng(42)
        for chain in range(4):
            mesh = maker(1)
            for _ in range(6):
                k = rng.integers(1, max(2, mesh.num_triangles // 3))
                marked = rng.choice(mesh.num_triangles, size=k, replace=False)
                mesh = bisect(mesh, marked)
                np.testing.assert_array_equal(mesh.edge_tris,
                                              edge_tris_loop(mesh))


class TestArrayBisection:
    """The array ``bisect`` against the dict oracle, array for array."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data(),
           maker=st.sampled_from([make_unit_square, make_lshape]),
           diagonal=st.sampled_from(["ne", "nw"]),
           n=st.integers(1, 2),
           steps=st.integers(1, 6))
    def test_random_chains_match_dict_oracle(self, data, maker, diagonal, n,
                                             steps):
        mesh = maker(n, diagonal)
        for _ in range(steps):
            nt = mesh.num_triangles
            marked = data.draw(st.lists(st.integers(0, nt - 1), min_size=1,
                                        max_size=max(1, nt // 2)))
            fine = bisect(mesh, marked)
            assert_same_mesh(fine, bisect_loop(mesh, marked))
            edges, tri_edges = edge_table_rows(fine)
            np.testing.assert_array_equal(fine.edges, edges)
            np.testing.assert_array_equal(fine.tri_edges, tri_edges)
            mesh = fine

    @pytest.mark.parametrize("diagonal", ["ne", "nw"])
    def test_point_localized_chain_matches_dict_oracle(self, diagonal):
        # refine the triangles nearest a point off every grid line until
        # the chain is twenty levels deep
        point = np.array([0.3137, 0.6911])
        mesh = make_unit_square(1, diagonal)
        while mesh.level.max() < 20:
            cent = mesh.vertices[mesh.triangles].mean(axis=1)
            dist = np.linalg.norm(cent - point, axis=1)
            marked = np.flatnonzero(dist <= 1.5 * dist.min())
            fine = bisect(mesh, marked)
            assert_same_mesh(fine, bisect_loop(mesh, marked))
            mesh = fine
        assert mesh.level.max() >= 20

    def test_uniform_refinement_matches_dict_oracle(self):
        mesh = make_lshape(2, "nw")
        for _ in range(4):
            fine = bisect(mesh, range(mesh.num_triangles))
            assert_same_mesh(fine, bisect_loop(mesh,
                                               range(mesh.num_triangles)))
            mesh = fine

    @pytest.mark.parametrize("marked", [[0], [3], [0, 2, 5]])
    def test_refinement_edge_cycle_raises(self, marked):
        fan = hexagon_fan()
        with pytest.raises(MeshTopologyError):
            bisect(fan, marked)
        with pytest.raises(MeshTopologyError):
            bisect_loop(fan, marked)

    def test_walk_into_refinement_edge_cycle_raises(self):
        fan = hexagon_fan(extra=True)
        with pytest.raises(MeshTopologyError):
            bisect(fan, [6])
        with pytest.raises(MeshTopologyError):
            bisect_loop(fan, [6])

    def test_closure_limit_keyword_is_gone(self):
        with pytest.raises(TypeError):
            bisect(make_unit_square(1), [0], closure_limit=10)


class TestOrientRefinementEdges:
    @pytest.mark.parametrize("maker", [make_unit_square, make_lshape])
    @pytest.mark.parametrize("diagonal", ["ne", "nw"])
    def test_rotated_initial_meshes_match_loop(self, maker, diagonal):
        # the cell split already puts each longest edge opposite local
        # vertex 0, so the loop leaves the makers' triangles as they are,
        # and it turns any rotation of them back
        for n in range(1, 13):
            mesh = maker(n, diagonal)
            np.testing.assert_array_equal(
                orient_refinement_edges_loop(mesh.vertices, mesh.triangles),
                mesh.triangles)
            shift = np.random.default_rng(11).integers(0, 3,
                                                       mesh.num_triangles)
            rotated = mesh.triangles[np.arange(mesh.num_triangles)[:, None],
                                     (shift[:, None] + np.arange(3)) % 3]
            np.testing.assert_array_equal(
                orient_refinement_edges_loop(mesh.vertices, rotated),
                mesh.triangles)
