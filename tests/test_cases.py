"""Manufactured problem data and its self-consistency."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from c0ip_control import (assemble_load, biharmonic_sin3, bisect,
                          boundary_demo_spec, error_norms, estimate,
                          example1_case, example1_spec, example2_spec,
                          g_sin3, make_lshape, make_unit_square)
from c0ip_control import cases, cli
from c0ip_control.assembly import element_geometry
from c0ip_control.cases import _sin3_derivatives
from c0ip_control.cli import RunConfig, run_example1, run_vd_compare
from c0ip_control.controls import ControlField, clamp
from c0ip_control.fem import quadrature
from c0ip_control.solver import discretize, solve_pdas, solve_variational


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


def _writable(func):
    """``func`` evaluated at writable copies of its coordinates, which the
    sin/cos memo never serves."""
    def wrapped(x, y):
        return func(np.array(x), np.array(y))
    return wrapped


def _random_nvb_lshape(seed=3, steps=5):
    """L-shape refined by newest-vertex bisection of random markings."""
    rng = np.random.default_rng(seed)
    mesh = make_lshape(2)
    for _ in range(steps):
        k = rng.integers(1, max(2, mesh.num_triangles // 3))
        mesh = bisect(mesh, rng.choice(mesh.num_triangles, size=k,
                                       replace=False))
    return mesh


class TestTrigMemo:
    """Values read through the sin/cos memo equal those computed at
    writable copies of the same points, bit for bit."""

    @pytest.fixture(scope="class", params=["square16", "nvb_lshape"])
    def solved(self, request):
        mesh = (make_unit_square(16) if request.param == "square16"
                else _random_nvb_lshape())
        spec = example1_spec()
        ws = discretize(spec, mesh)
        sol = solve_pdas(ws)
        plain = dataclasses.replace(spec, f=_writable(spec.f),
                                    u_d=_writable(spec.u_d))
        return ws, sol, plain

    def test_loads_and_ud_norm2(self, solved):
        ws, _, plain = solved
        spec, dm, geom = ws.spec, ws.dofmap, ws.geom
        x, _ = geom.quad_points(quadrature("triangle", spec.load_degree))
        for data, load in ((spec.f, ws.load_f), (spec.u_d, ws.load_ud)):
            want = assemble_load(dm, geom, _writable(data), spec.load_degree)
            # the discretization's loads and a second pass through the memo
            assert np.array_equal(load, want)
            assert np.array_equal(
                assemble_load(dm, geom, data, spec.load_degree), want)
            assert cases._TRIG_MEMO["base"] is x.base
        assert ws.ud_norm2 == discretize(plain, ws.mesh).ud_norm2

    def test_error_norms(self, solved):
        ws, sol, _ = solved
        case = ws.spec.exact
        for v, hess in ((sol.u, case.u_hess), (sol.phi, case.phi_hess)):
            want = error_norms(v, ws.dofmap, _writable(hess), ws.geom,
                               ws.cache, ws.spec.eta)
            for _ in range(2):
                assert error_norms(v, ws.dofmap, hess, ws.geom, ws.cache,
                                   ws.spec.eta) == want

    def test_control_error(self, solved):
        ws, sol, _ = solved
        case = ws.spec.exact
        plain = dataclasses.replace(case, q=_writable(case.q))
        want = plain.control_error(ws.geom, sol.q)
        for _ in range(2):
            assert case.control_error(ws.geom, sol.q) == want

    def test_estimator_volume_terms(self, solved):
        ws, sol, plain = solved
        want = estimate(dataclasses.replace(ws, spec=plain), sol)
        for _ in range(2):
            got = estimate(ws, sol)
            assert np.array_equal(got.volume_u, want.volume_u)
            assert np.array_equal(got.volume_phi, want.volume_phi)

    def test_point_arrays_reject_writes(self, solved):
        ws, _, _ = solved
        for arr in ws.geom.quad_points(quadrature("triangle", 8)):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.5
            with pytest.raises(ValueError):
                arr.base[0, 0, 0] = 0.5

    def test_writable_arrays_changed_in_place(self):
        t = np.random.default_rng(5).random((40, 6))
        before = g_sin3(t, 2)
        t += 0.25
        assert np.array_equal(g_sin3(t, 2), g_sin3_per_order(t, 2))
        assert not np.array_equal(g_sin3(t, 2), before)
        # a read-only view of a writable array is not memoized either
        view = t.view()
        view.setflags(write=False)
        g_sin3(view, 1)
        t -= 0.5
        assert np.array_equal(g_sin3(view, 1), g_sin3_per_order(t, 1))

    def test_only_the_latest_point_set_is_kept(self):
        geom = element_geometry(make_unit_square(4))
        x6, y6 = geom.quad_points(quadrature("triangle", 6))
        biharmonic_sin3(x6, y6)
        old = weakref.ref(x6.base)
        x8, y8 = element_geometry(make_unit_square(4)).quad_points(
            quadrature("triangle", 8))
        biharmonic_sin3(x8, y8)
        assert cases._TRIG_MEMO["base"] is x8.base
        assert set(cases._TRIG_MEMO["trig"]) == {id(x8), id(y8)}
        del geom, x6, y6
        gc.collect()
        assert old() is None

    @pytest.mark.parametrize("study", [run_example1, run_vd_compare])
    def test_four_sines_and_cosines_per_level(self, tmp_path, monkeypatch,
                                              study):
        calls = {"sin": 0, "cos": 0}

        def counted(name, func):
            def wrapper(x, *args, **kwargs):
                if np.ndim(x):
                    calls[name] += 1
                return func(x, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "sin", counted("sin", np.sin))
        monkeypatch.setattr(np, "cos", counted("cos", np.cos))
        study(RunConfig(levels=3, out=str(tmp_path)))
        # x and y of the degree-6 points of the loads and of the degree-8
        # points of the error norms and the control error, on each of the
        # 3 levels
        assert calls == {"sin": 12, "cos": 12}


def _counted(func, calls, key):
    def wrapper(x, y):
        calls[key] += 1
        return func(x, y)
    return wrapper


class TestOneHessianEvaluation:
    """Each distinct exact Hessian is evaluated once per level, and every
    error equals that of a one-array ``error_norms`` call, bit for bit."""

    @pytest.fixture(scope="class")
    def solved(self):
        ws = discretize(example1_spec(), make_unit_square(8))
        sol = solve_pdas(ws)
        return ws, sol, solve_variational(ws, sol)

    @pytest.mark.parametrize("study", [run_example1, run_vd_compare])
    def test_once_per_level(self, tmp_path, monkeypatch, study):
        calls = {"hess": 0}

        def counting_spec(*args):
            spec = example1_spec(*args)
            hess = _counted(spec.exact.u_hess, calls, "hess")
            spec.exact = dataclasses.replace(spec.exact, u_hess=hess,
                                             phi_hess=hess)
            return spec

        monkeypatch.setattr(cli, "example1_spec", counting_spec)
        study(RunConfig(levels=3, out=str(tmp_path)))
        assert calls == {"hess": 3}

    def test_errors_equal_one_array_calls(self, solved):
        ws, sol, vd = solved
        case = ws.spec.exact
        fields = [sol.u, sol.phi, vd.u, vd.phi]
        want = [error_norms(v, ws.dofmap, case.u_hess, ws.geom, ws.cache,
                            ws.spec.eta) for v in fields]
        assert error_norms(fields, ws.dofmap, case.u_hess, ws.geom,
                           ws.cache, ws.spec.eta) == want
        assert case.energy_errors(ws, sol, vd) == tuple(want)
        assert case.energy_errors(ws, vd) == tuple(want[2:])

    def test_distinct_hessians_once_each(self, solved):
        ws, sol, vd = solved
        case = ws.spec.exact
        calls = {"u": 0, "phi": 0}
        # phi_hess is a second callable with the same values
        split = dataclasses.replace(
            case, u_hess=_counted(case.u_hess, calls, "u"),
            phi_hess=_counted(_writable(case.u_hess), calls, "phi"))
        assert split.energy_errors(ws, sol, vd) == case.energy_errors(
            ws, sol, vd)
        assert calls == {"u": 1, "phi": 1}


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

    def test_hessian_consistency(self):
        case = example1_case()
        rng = np.random.default_rng(29)
        x = rng.uniform(0.1, 0.9, size=50)
        y = rng.uniform(0.1, 0.9, size=50)
        h = 1e-6
        hxx, hxy, hyy = case.u_hess(x, y)
        fdxx = (case.u(x + h, y) - 2 * case.u(x, y) + case.u(x - h, y)) / h**2
        assert np.allclose(hxx, fdxx, rtol=1e-3, atol=1e-3)

    def test_control_error_of_zero_control(self):
        # ||q - 0||_0 computed by the quadrature-based error routine must
        # match a dense midpoint-sampling estimate of ||q||_0
        case = example1_case()
        mesh = make_unit_square(8)
        zero = ControlField(np.zeros(mesh.num_triangles), case.lower,
                            case.upper, mesh.signed_areas())
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
