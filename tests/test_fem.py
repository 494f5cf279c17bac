"""Quadratic Lagrange basis, dof maps, quadrature, interpolation."""

import math

import numpy as np
import pytest

from c0ip_control import (build_dofmap, interpolate, make_lshape,
                          make_unit_square, quadrature)
from c0ip_control.assembly import element_geometry
from c0ip_control.fem import (REFERENCE_HESSIANS, _GAUSS_JACOBI,
                              _TRIANGLE_DEGREES, shape_gradients,
                              shape_values)
from c0ip_control.solver import evaluate_p2


def dof_coordinates(mesh, dm):
    """(x, y) of every dof: the interpolants of x and of y."""
    return (interpolate(mesh, dm, lambda x, y: x),
            interpolate(mesh, dm, lambda x, y: y))


class TestDofMap:
    def test_unit_square_n1(self):
        mesh = make_unit_square(1)
        dm = build_dofmap(mesh)
        assert dm.ndof == 9
        assert dm.nfree == 1
        # the only free dof is the midpoint of the diagonal
        x, y = dof_coordinates(mesh, dm)
        assert np.allclose([x[dm.free[0]], y[dm.free[0]]], [0.5, 0.5])

    def test_unit_square_n2(self):
        dm = build_dofmap(make_unit_square(2))
        assert dm.ndof == 25
        assert dm.nfree == 9

    def test_lshape_n1(self):
        mesh = make_lshape(1)
        dm = build_dofmap(mesh)
        assert dm.ndof == 21
        # every vertex lies on the boundary; free dofs are the interior
        # edge midpoints only
        assert dm.nfree == len(mesh.interior_edges) == 5

    def test_tri_dofs_consistent_with_topology(self):
        mesh = make_unit_square(3)
        dm = build_dofmap(mesh)
        assert np.array_equal(dm.tri_dofs[:, :3], mesh.triangles)
        assert np.array_equal(dm.tri_dofs[:, 3:],
                              mesh.num_vertices + mesh.tri_edges)


class TestReferenceBasis:
    def test_vertex_hessian(self):
        # vertex function of lambda = 1 - x - y
        assert np.allclose(REFERENCE_HESSIANS[0], [[4.0, 4.0], [4.0, 4.0]])

    def test_edge_bubble_hessian(self):
        # 4 * (1 - x - y) * x is the bubble on the edge opposite vertex 2
        assert np.allclose(REFERENCE_HESSIANS[5], [[-8.0, -4.0], [-4.0, 0.0]])

    def test_partition_of_unity(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 0.5, size=(50, 2))
        vals = shape_values(pts)
        assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-14)
        grads = shape_gradients(pts)
        assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-13)
        assert np.allclose(REFERENCE_HESSIANS.sum(axis=0), 0.0)

    def test_kronecker_property(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                          [0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])
        assert np.allclose(shape_values(nodes), np.eye(6), atol=1e-14)


class TestInterpolation:
    def test_constant(self):
        mesh = make_unit_square(2)
        v = interpolate(mesh, build_dofmap(mesh), lambda x, y: 1.0 + 0.0 * x)
        assert np.allclose(v, 1.0)

    def test_bilinear_node_value(self):
        mesh = make_unit_square(1)
        dm = build_dofmap(mesh)
        v = interpolate(mesh, dm, lambda x, y: x * y)
        x, y = dof_coordinates(mesh, dm)
        mid = np.flatnonzero(np.isclose(x, 0.5) & np.isclose(y, 0.5))
        assert np.isclose(v[mid[0]], 0.25)

    def test_quadratic_reproduction(self):
        mesh = make_unit_square(3)
        dm = build_dofmap(mesh)

        def quad(x, y):
            return 1.0 + 2.0 * x - y + 0.5 * x * x - x * y + 3.0 * y * y

        v = interpolate(mesh, dm, quad)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.01, 0.99, size=(100, 2))
        vals = evaluate_p2(element_geometry(mesh), dm, v, pts[:, 0],
                           pts[:, 1])
        assert np.max(np.abs(vals - quad(pts[:, 0], pts[:, 1]))) < 1e-12

    def test_constrained_dofs_are_boundary_dofs(self):
        mesh = make_unit_square(2)
        dm = build_dofmap(mesh)
        v = interpolate(mesh, dm, lambda x, y: 1.0 + x)
        x, y = dof_coordinates(mesh, dm)
        on_boundary = (np.isclose(x, 0.0) | np.isclose(x, 1.0)
                       | np.isclose(y, 0.0) | np.isclose(y, 1.0))
        np.testing.assert_array_equal(on_boundary,
                                      dm.free_cols == dm.nfree)
        np.testing.assert_array_equal(v, 1.0 + x)


class TestQuadrature:
    def test_triangle_degree1_is_centroid(self):
        rule = quadrature("triangle", 1)
        assert rule.points.shape == (1, 2)
        assert np.allclose(rule.points[0], [1.0 / 3.0, 1.0 / 3.0])
        assert np.isclose(rule.weights[0], 0.5)

    def test_edge_degree3_two_point_gauss(self):
        rule = quadrature("edge", 3)
        assert len(rule.points) == 2
        assert np.allclose(np.sort(rule.points),
                           0.5 + np.array([-1.0, 1.0]) / (2 * np.sqrt(3.0)))
        assert np.allclose(rule.weights, 0.5)

    def test_triangle_monomial_exactness(self):
        # int over the reference triangle of x^a y^b = a! b! / (a+b+2)!
        for degree in (2, 4, 6, 8):
            rule = quadrature("triangle", degree)
            assert np.isclose(rule.weights.sum(), 0.5, atol=1e-14)
            for a in range(degree + 1):
                for b in range(degree + 1 - a):
                    exact = (math.factorial(a) * math.factorial(b)
                             / math.factorial(a + b + 2))
                    val = np.sum(rule.weights * rule.points[:, 0] ** a
                                 * rule.points[:, 1] ** b)
                    assert abs(val - exact) < 1e-14

    def test_degree6_x4y2(self):
        rule = quadrature("triangle", 6)
        val = np.sum(rule.weights * rule.points[:, 0] ** 4
                     * rule.points[:, 1] ** 2)
        assert abs(val - 1.0 / 840.0) < 1e-14

    def test_edge_exactness(self):
        for degree in range(1, 10):
            rule = quadrature("edge", degree)
            for a in range(degree + 1):
                val = np.sum(rule.weights * rule.points ** a)
                assert abs(val - 1.0 / (a + 1)) < 1e-14

    def test_invalid_requests(self):
        with pytest.raises(ValueError):
            quadrature("triangle", 3)
        with pytest.raises(ValueError):
            quadrature("edge", 0)
        with pytest.raises(ValueError):
            quadrature("tetrahedron", 2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_stored_gauss_jacobi_equals_roots_jacobi(self, n):
        from scipy.special import roots_jacobi
        nodes, weights = roots_jacobi(n, 1.0, 0.0)
        assert np.array_equal(np.array(_GAUSS_JACOBI[n][0]), nodes)
        assert np.array_equal(np.array(_GAUSS_JACOBI[n][1]), weights)

    def test_triangle_degrees_cover_the_stored_rules(self):
        assert {(d + 2) // 2 for d in _TRIANGLE_DEGREES} == set(_GAUSS_JACOBI)

    @pytest.mark.parametrize("kind, degree", [("triangle", 8), ("edge", 3)])
    def test_rules_are_shared_and_read_only(self, kind, degree):
        rule = quadrature(kind, degree)
        assert quadrature(kind, degree) is rule
        with pytest.raises(ValueError):
            rule.points[0] = 0.5
        with pytest.raises(ValueError):
            rule.weights[0] = 0.5
