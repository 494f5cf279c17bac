"""Manufactured problem data and its self-consistency."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from c0ip_control import (assemble_load, biharmonic_sin3, bisect,
                          boundary_demo_spec, error_norms, estimate,
                          example1_case, example1_spec, example2_spec,
                          g_sin3, make_lshape, make_unit_square, sin3_jet)
from c0ip_control import cli
from c0ip_control.assembly import ERROR_DEGREE, element_geometry
from c0ip_control.cases import _sin3_derivatives
from c0ip_control.cli import RunConfig, run_example1, run_vd_compare
from c0ip_control.controls import ControlField, clamp
from c0ip_control.estimator import VOLUME_DEGREE
from c0ip_control.fem import quadrature
from c0ip_control.solver import (PROJECTION_DEGREE, discretize,
                                 projection_ph, solve_pdas,
                                 solve_variational)


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
        u, hess = sin3_jet(x, y, hessian=True)
        assert np.array_equal(u, g(x, 0) * g(y, 0))
        expected = (g(x, 2) * g(y, 0), g(x, 1) * g(y, 1), g(x, 0) * g(y, 2))
        for got, want in zip(hess, expected):
            assert np.array_equal(got, want)


def _random_nvb_lshape(seed=3, steps=5):
    """L-shape refined by newest-vertex bisection of random markings."""
    rng = np.random.default_rng(seed)
    mesh = make_lshape(2)
    for _ in range(steps):
        k = rng.integers(1, max(2, mesh.num_triangles // 3))
        mesh = bisect(mesh, rng.choice(mesh.num_triangles, size=k,
                                       replace=False))
    return mesh


def per_field(x, y, alpha=1e-3, lower=-750.0, upper=-50.0):
    """u, its Hessian, lap^2 u, q, f and u_d of Example 1 at the points,
    each field from the per-order formulas on its own (oracle)."""
    g = g_sin3_per_order
    u = g(x, 0) * g(y, 0)
    hess = (g(x, 2) * g(y, 0), g(x, 1) * g(y, 1), g(x, 0) * g(y, 2))
    bilap = g(x, 4) * g(y, 0) + 2.0 * g(x, 2) * g(y, 2) + g(x, 0) * g(y, 4)
    q = clamp(-u / alpha, lower, upper)
    return {"u": u, "hess": hess, "bilap": bilap, "q": q, "f": bilap - q,
            "u_d": u - bilap}


class TestTrigMemo:
    """Each point set of a level takes one sine and one cosine of each
    coordinate, and everything computed from the jets equals the per-field
    formulas (``per_field``), bit for bit."""

    @pytest.fixture(scope="class", params=["square16", "nvb_lshape"])
    def solved(self, request):
        mesh = (make_unit_square(16) if request.param == "square16"
                else _random_nvb_lshape())
        ws = discretize(example1_spec(), mesh)
        return ws, solve_pdas(ws)

    @staticmethod
    def points(ws, degree):
        rule = quadrature("triangle", degree)
        return (rule,) + ws.geom.quad_points(rule)

    def test_loads_and_ud_norm2(self, solved):
        ws, _ = solved
        rule, x, y = self.points(ws, ws.spec.load_degree)
        want = per_field(x, y)
        f, u_d = ws.spec.data(x, y)
        assert np.array_equal(f, want["f"])
        assert np.array_equal(u_d, want["u_d"])
        assert np.array_equal(sin3_jet(x, y)[0], want["u"])
        assert np.array_equal(sin3_jet(x, y)[1], want["bilap"])
        for values, load in ((want["f"], ws.load_f),
                             (want["u_d"], ws.load_ud)):
            assert np.array_equal(load, assemble_load(
                ws.dofmap, ws.geom, values, ws.spec.load_degree))
        assert ws.ud_norm2 == float(np.einsum(
            "q,tq->", rule.weights, want["u_d"] ** 2 * ws.geom.det[:, None]))

    def test_error_norms(self, solved):
        ws, sol = solved
        _, x, y = self.points(ws, ERROR_DEGREE)
        want = per_field(x, y)
        u, hess = sin3_jet(x, y, hessian=True)
        assert np.array_equal(u, want["u"])
        for got, values in zip(hess, want["hess"]):
            assert np.array_equal(got, values)
        e_u, e_phi, _ = ws.spec.exact.errors(ws, sol)[0]
        for v, e in ((sol.u, e_u), (sol.phi, e_phi)):
            assert e == error_norms(v, ws.dofmap, want["hess"], ws.geom,
                                    ws.cache, ws.spec.eta)

    def test_control_error(self, solved):
        ws, sol = solved
        rule, x, y = self.points(ws, ERROR_DEGREE)
        diff = per_field(x, y)["q"] - sol.q.values[:, None]
        want = float(np.sqrt(np.einsum("q,tq->", rule.weights,
                                       diff ** 2 * ws.geom.det[:, None])))
        assert ws.spec.exact.errors(ws, sol)[0][2] == want

    def test_estimator_volume_terms(self, solved):
        ws, sol = solved
        _, x, y = self.points(ws, VOLUME_DEGREE)
        want = per_field(x, y)
        plain = dataclasses.replace(
            ws.spec, data=lambda *_: (want["f"], want["u_d"]))
        expected = estimate(dataclasses.replace(ws, spec=plain), sol)
        got = estimate(ws, sol)
        assert np.array_equal(got.volume_u, expected.volume_u)
        assert np.array_equal(got.volume_phi, expected.volume_phi)

    def test_point_arrays_reject_writes(self, solved):
        ws, _ = solved
        for arr in ws.geom.quad_points(quadrature("triangle", 8)):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.5
            with pytest.raises(ValueError):
                arr.base[0, 0, 0] = 0.5

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


def _counted(jet, calls, key):
    """``jet`` counting its evaluations in ``calls[key]`` by derivative:
    Hessians (the error rule) and bilaplacians (the load rule)."""
    def wrapper(x, y, hessian=False):
        calls[key, "hessian" if hessian else "bilap"] += 1
        return jet(x, y, hessian)
    return wrapper


class TestOneHessianEvaluation:
    """Each distinct jet is evaluated once per point set of a level, and
    every error equals that of a one-solution call, bit for bit."""

    @pytest.fixture(scope="class")
    def solved(self):
        ws = discretize(example1_spec(), make_unit_square(8))
        sol = solve_pdas(ws)
        return ws, sol, solve_variational(ws, sol)

    @pytest.mark.parametrize("study", [run_example1, run_vd_compare])
    def test_once_per_level(self, tmp_path, monkeypatch, study):
        calls = Counter()

        def counting_spec(*args):
            spec = example1_spec(*args)
            jet = _counted(spec.exact.u_jet, calls, "u")
            case = dataclasses.replace(spec.exact, u_jet=jet, phi_jet=jet)
            return dataclasses.replace(spec, data=case.data, exact=case)

        monkeypatch.setattr(cli, "example1_spec", counting_spec)
        study(RunConfig(levels=3, out=str(tmp_path)))
        assert calls == {("u", "hessian"): 3, ("u", "bilap"): 3}

    def test_errors_equal_one_array_calls(self, solved):
        ws, sol, vd = solved
        case = ws.spec.exact
        x, y = ws.geom.quad_points(quadrature("triangle", ERROR_DEGREE))
        hess = per_field(x, y)["hess"]
        want = [error_norms(v, ws.dofmap, hess, ws.geom, ws.cache,
                            ws.spec.eta) for v in (sol.u, sol.phi, vd.u,
                                                   vd.phi)]
        both = case.errors(ws, sol, vd)
        assert [e for errs in both for e in errs[:2]] == want
        assert both == case.errors(ws, sol) + case.errors(ws, vd)

    def test_distinct_hessians_once_each(self, solved):
        ws, sol, vd = solved
        case = ws.spec.exact
        calls = Counter()
        # phi_jet is a second callable with the same values
        split = dataclasses.replace(
            case, u_jet=_counted(case.u_jet, calls, "u"),
            phi_jet=_counted(case.u_jet, calls, "phi"))
        assert split.errors(ws, sol, vd) == case.errors(ws, sol, vd)
        assert calls == {("u", "hessian"): 1, ("phi", "hessian"): 1}


class TestOneJetEvaluationPerProjection:
    """``projection_ph`` evaluates the manufactured jet once per call, and
    its adjoint misfit u - u_d has the bits of u minus the spec's u_d."""

    @pytest.fixture(scope="class")
    def ws(self):
        return discretize(example1_spec(), make_unit_square(8))

    @pytest.mark.parametrize("which", ["state", "adjoint"])
    def test_once_per_call(self, ws, which):
        calls = Counter()
        jet = _counted(ws.spec.exact.u_jet, calls, "u")
        case = dataclasses.replace(ws.spec.exact, u_jet=jet, phi_jet=jet)
        spec = dataclasses.replace(ws.spec, data=case.data, exact=case)
        counted = projection_ph(dataclasses.replace(ws, spec=spec), which)
        assert calls == {("u", "bilap"): 1}
        assert np.array_equal(counted, projection_ph(ws, which))

    def test_adjoint_misfit_bits(self, ws):
        spec = ws.spec
        x, y = ws.geom.quad_points(quadrature("triangle",
                                              PROJECTION_DEGREE))
        misfit = spec.exact.jets(x, y)[0][0] - spec.data_at(x, y)[1]
        rhs = assemble_load(ws.dofmap, ws.geom, misfit, PROJECTION_DEGREE)
        assert np.array_equal(projection_ph(ws, "adjoint"),
                              ws.full_coeffs(ws.lu.solve(rhs)))


class TestBiharmonic:
    def test_center_value(self):
        assert np.isclose(biharmonic_sin3(0.5, 0.5), 60.0 * np.pi ** 4)

    def test_vanishes_on_boundary_lines(self):
        y = np.linspace(0.0, 1.0, 11)
        assert np.allclose(biharmonic_sin3(0.0 * y, y), 0.0, atol=1e-10)
        assert np.allclose(biharmonic_sin3(np.ones_like(y), y), 0.0,
                           atol=1e-9)

    def test_against_finite_difference_oracle(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.15, 0.85, size=(100, 2))
        exact = biharmonic_sin3(pts[:, 0], pts[:, 1])
        for (x, y), ex in zip(pts, exact):
            fd = biharmonic_fd(lambda a, b: sin3_jet(a, b)[0], x, y)
            assert abs(fd - ex) <= 1e-5 * max(abs(ex), 1.0)


class TestManufacturedCase:
    def test_self_consistency_identities(self):
        case = example1_case()
        rng = np.random.default_rng(23)
        x = rng.uniform(0.0, 1.0, size=10000)
        y = rng.uniform(0.0, 1.0, size=10000)
        (u, bilap_u), (phi, bilap_phi) = case.jets(x, y)
        q = case.control(phi)
        f, u_d = case.data(x, y)
        lhs = f + q
        rhs = biharmonic_sin3(x, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(np.max(np.abs(rhs)),
                                                       1.0)
        expected_q = clamp(-g_sin3(x) * g_sin3(y) / case.alpha, case.lower,
                           case.upper)
        assert np.array_equal(q, expected_q)
        ud = u - biharmonic_sin3(x, y)
        assert np.allclose(u_d, ud, rtol=1e-12)
        assert np.array_equal(bilap_u, bilap_phi)

    def test_hessian_consistency(self):
        case = example1_case()
        rng = np.random.default_rng(29)
        x = rng.uniform(0.1, 0.9, size=50)
        y = rng.uniform(0.1, 0.9, size=50)
        h = 1e-6

        def u(x, y):
            return case.jets(x, y)[0][0]

        hxx, hxy, hyy = case.jets(x, y, hessian=True)[0][1]
        fdxx = (u(x + h, y) - 2 * u(x, y) + u(x - h, y)) / h**2
        assert np.allclose(hxx, fdxx, rtol=1e-3, atol=1e-3)

    def test_control_error_of_zero_control(self):
        # ||q - 0||_0 computed by the quadrature-based error routine must
        # match a dense midpoint-sampling estimate of ||q||_0
        case = example1_case()
        mesh = make_unit_square(8)
        zero = ControlField(np.zeros(mesh.num_triangles), case.lower,
                            case.upper, mesh.signed_areas())
        geom = element_geometry(mesh)

        def q(x, y):
            return case.control(case.jets(x, y)[1][0])

        x, y = geom.quad_points(quadrature("triangle", ERROR_DEGREE))
        val = case.control_error(geom, q(x, y), zero)
        n = 1500
        t = (np.arange(n) + 0.5) / n
        xg, yg = np.meshgrid(t, t, indexing="ij")
        dense = np.sqrt(np.mean(q(xg, yg) ** 2))
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
        f, u_d = spec.data(x, x)
        assert np.allclose(f, 1.0)
        assert np.allclose(u_d, 1.0)
        assert spec.exact is None

    def test_boundary_demo_spec(self):
        spec = boundary_demo_spec()
        assert spec.kind == "boundary"
        x, y = np.array([0.3]), np.array([0.7])
        f, u_d = spec.data(x, y)
        assert np.array_equal(f, biharmonic_sin3(x, y))
        assert np.allclose(u_d, 0.0)
