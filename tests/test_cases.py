"""Manufactured problem data and its self-consistency."""

import numpy as np
import pytest

from c0ip_control import (biharmonic_sin3, boundary_demo_spec, example1_case,
                          example1_spec, example2_spec, g_sin3,
                          make_unit_square)
from c0ip_control.assembly import element_geometry
from c0ip_control.cases import _sin3_derivatives
from c0ip_control.controls import ControlField, clamp


def biharmonic_fd(f, x, y, h=0.04):
    """Finite-difference biharmonic with two Richardson levels, O(h^6)."""
    def lap(g, x, y, s):
        return (g(x + s, y) + g(x - s, y) + g(x, y + s) + g(x, y - s)
                - 4.0 * g(x, y)) / s ** 2

    def bi(s):
        return lap(lambda a, b: lap(f, a, b, s), x, y, s)

    r1 = (4.0 * bi(h / 2) - bi(h)) / 3.0
    r2 = (4.0 * bi(h / 4) - bi(h / 2)) / 3.0
    return (16.0 * r2 - r1) / 15.0


class TestSin3Derivatives:
    def test_center_values(self):
        # g(1/2) = 1, g''(1/2) = -3 pi^2, g''''(1/2) = 21 pi^4
        assert np.isclose(g_sin3(0.5), 1.0)
        assert np.isclose(g_sin3(0.5, 2), -3.0 * np.pi ** 2)
        assert np.isclose(g_sin3(0.5, 4), 21.0 * np.pi ** 4)

    def test_derivative_orders_against_finite_differences(self):
        rng = np.random.default_rng(17)
        t = rng.uniform(0.1, 0.9, size=30)
        h = 1e-5
        fd1 = (g_sin3(t + h) - g_sin3(t - h)) / (2 * h)
        assert np.allclose(g_sin3(t, 1), fd1, rtol=1e-8, atol=1e-6)
        fd2 = (g_sin3(t + h, 1) - g_sin3(t - h, 1)) / (2 * h)
        assert np.allclose(g_sin3(t, 2), fd2, rtol=1e-7, atol=1e-4)
        fd3 = (g_sin3(t + h, 2) - g_sin3(t - h, 2)) / (2 * h)
        assert np.allclose(g_sin3(t, 3), fd3, rtol=1e-7, atol=1e-3)
        fd4 = (g_sin3(t + h, 3) - g_sin3(t - h, 3)) / (2 * h)
        assert np.allclose(g_sin3(t, 4), fd4, rtol=1e-6, atol=1e-2)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            g_sin3(0.5, 5)


def g_sin3_per_order(t, order):
    """The per-order formulas, one sine and cosine per call (oracle)."""
    s, c = np.sin(np.pi * t), np.cos(np.pi * t)
    return [s ** 3,
            3.0 * np.pi * s ** 2 * c,
            3.0 * np.pi ** 2 * (2.0 * s * c ** 2 - s ** 3),
            3.0 * np.pi ** 3 * (2.0 * c ** 3 - 7.0 * s ** 2 * c),
            3.0 * np.pi ** 4 * (7.0 * s ** 3 - 20.0 * s * c ** 2)][order]


class TestSharedSineCosine:
    t = np.random.default_rng(11).random((50, 25))

    @pytest.mark.parametrize("orders", [(0,), (4,), (0, 1, 2), (0, 2, 4),
                                        (4, 3, 2, 1, 0)])
    def test_matches_per_order_formulas(self, orders):
        got = _sin3_derivatives(self.t, orders)
        assert len(got) == len(orders)
        for order, values in zip(orders, got):
            assert np.array_equal(values, g_sin3_per_order(self.t, order))
            assert np.array_equal(values, g_sin3(self.t, order))

    def test_biharmonic_and_hessian(self):
        x, y = self.t, self.t[::-1]
        g = g_sin3_per_order
        assert np.array_equal(biharmonic_sin3(x, y),
                              g(x, 4) * g(y, 0) + 2.0 * g(x, 2) * g(y, 2)
                              + g(x, 0) * g(y, 4))
        hess = example1_case().u_hess(x, y)
        expected = (g(x, 2) * g(y, 0), g(x, 1) * g(y, 1), g(x, 0) * g(y, 2))
        for got, want in zip(hess, expected):
            assert np.array_equal(got, want)


class TestBiharmonic:
    def test_center_value(self):
        assert np.isclose(biharmonic_sin3(0.5, 0.5), 60.0 * np.pi ** 4)

    def test_vanishes_on_boundary_lines(self):
        y = np.linspace(0.0, 1.0, 11)
        assert np.allclose(biharmonic_sin3(0.0 * y, y), 0.0, atol=1e-10)
        assert np.allclose(biharmonic_sin3(np.ones_like(y), y), 0.0,
                           atol=1e-9)

    def test_against_finite_difference_oracle(self):
        case = example1_case()
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.15, 0.85, size=(100, 2))
        exact = biharmonic_sin3(pts[:, 0], pts[:, 1])
        for (x, y), ex in zip(pts, exact):
            fd = biharmonic_fd(case.u, x, y)
            assert abs(fd - ex) <= 1e-5 * max(abs(ex), 1.0)


class TestManufacturedCase:
    def test_self_consistency_identities(self):
        case = example1_case()
        rng = np.random.default_rng(23)
        x = rng.uniform(0.0, 1.0, size=10000)
        y = rng.uniform(0.0, 1.0, size=10000)
        lhs = case.f(x, y) + case.q(x, y)
        rhs = biharmonic_sin3(x, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(np.max(np.abs(rhs)),
                                                       1.0)
        expected_q = clamp(-case.phi(x, y) / case.alpha, case.lower,
                           case.upper)
        assert np.array_equal(case.q(x, y), expected_q)
        ud = case.u(x, y) - biharmonic_sin3(x, y)
        assert np.allclose(case.u_d(x, y), ud, rtol=1e-12)

    def test_gradient_and_hessian_consistency(self):
        case = example1_case()
        rng = np.random.default_rng(29)
        x = rng.uniform(0.1, 0.9, size=50)
        y = rng.uniform(0.1, 0.9, size=50)
        h = 1e-6
        gx, gy = case.u_grad(x, y)
        fdx = (case.u(x + h, y) - case.u(x - h, y)) / (2 * h)
        fdy = (case.u(x, y + h) - case.u(x, y - h)) / (2 * h)
        assert np.allclose(gx, fdx, atol=1e-7)
        assert np.allclose(gy, fdy, atol=1e-7)
        hxx, hxy, hyy = case.u_hess(x, y)
        fdxx = (case.u(x + h, y) - 2 * case.u(x, y) + case.u(x - h, y)) / h**2
        assert np.allclose(hxx, fdxx, rtol=1e-3, atol=1e-3)

    def test_control_error_of_zero_control(self):
        # ||q - 0||_0 computed by the quadrature-based error routine must
        # match a dense midpoint-sampling estimate of ||q||_0
        case = example1_case()
        mesh = make_unit_square(8)
        zero = ControlField("distributed", np.zeros(mesh.num_triangles),
                            case.lower, case.upper, mesh.signed_areas())
        val = case.control_error(element_geometry(mesh), zero)
        n = 1500
        t = (np.arange(n) + 0.5) / n
        xg, yg = np.meshgrid(t, t, indexing="ij")
        dense = np.sqrt(np.mean(case.q(xg, yg) ** 2))
        assert abs(val - dense) < 1e-4 * dense


class TestSpecFactories:
    def test_example1_spec_defaults(self):
        spec = example1_spec()
        assert spec.kind == "distributed"
        assert spec.alpha == 1e-3
        assert (spec.lower, spec.upper) == (-750.0, -50.0)
        assert spec.eta == 10.0
        assert spec.exact is not None

    def test_example2_spec_constant_data(self):
        spec = example2_spec()
        x = np.linspace(0.0, 1.0, 5)
        assert np.allclose(spec.f(x, x), 1.0)
        assert np.allclose(spec.u_d(x, x), 1.0)
        assert spec.exact is None

    def test_boundary_demo_spec(self):
        spec = boundary_demo_spec()
        assert spec.kind == "boundary"
        assert np.allclose(spec.u_d(np.array([0.3]), np.array([0.7])), 0.0)
