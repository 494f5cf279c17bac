"""Mesh construction, newest-vertex bisection, and marking."""

import numpy as np
import pytest

from c0ip_control import (bisect, dorfler_mark, make_lshape, make_unit_square,
                          mesh_metrics)


def euler_characteristic(mesh):
    return mesh.num_vertices - mesh.num_edges + mesh.num_triangles


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


class TestMeshMetrics:
    def test_unit_square_diameter(self):
        h_max, min_angle, counts = mesh_metrics(make_unit_square(1))
        assert abs(h_max - np.sqrt(2.0)) < 1e-14
        assert abs(min_angle - np.pi / 4.0) < 1e-12
        assert counts == {"vertices": 4, "edges": 5, "triangles": 2}

    def test_diameter_scaling(self):
        h_max, _, _ = mesh_metrics(make_unit_square(4))
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
                # conforming: every interior edge shared by exactly two cells
                interior = mesh.boundary_segment < 0
                assert np.all(mesh.edge_tris[interior] >= 0)
                assert np.all(mesh.edge_tris[~interior, 1] == -1)

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
