"""Active-set solver, variational discretization, auxiliary projections."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from c0ip_control import (boundary_demo_spec, clamp, error_norms,
                          example1_case, example1_spec, make_unit_square,
                          pi_h, bh_apply, vi_residual)
from c0ip_control.assembly import (element_geometry, eval_on_elements,
                                   _quad_points)
from c0ip_control import solver
from c0ip_control.fem import quadrature
from c0ip_control.solver import (PdasError, ProblemSpec, _objective,
                                 discretize, evaluate_p2, projection_ph,
                                 solve_linear_block, solve_pdas,
                                 solve_variational, variational_control)


@pytest.fixture(scope="module")
def solved_n8():
    spec = example1_spec()
    mesh = make_unit_square(8)
    ws = discretize(spec, mesh)
    sol = solve_pdas(spec, mesh, ws=ws)
    return spec, mesh, ws, sol


class TestLinearBlock:
    def test_zero_rhs(self):
        spec = example1_spec()
        ws = discretize(spec, make_unit_square(4))
        n = ws.dofmap.nfree
        u, phi, res = solve_linear_block(ws.stiffness.free, ws.mass.free,
                                         ws.mass.free, np.zeros(n),
                                         np.zeros(n))
        assert np.allclose(u, 0.0) and np.allclose(phi, 0.0)
        assert res < 1e-14

    def test_decoupled_case_residual(self):
        # zero coupling block: two consecutive solves with the same operator
        spec = example1_spec()
        ws = discretize(spec, make_unit_square(4))
        free = ws.dofmap.free
        import scipy.sparse as sp
        n = ws.dofmap.nfree
        zero = sp.csc_matrix((n, n))
        u, phi, res = solve_linear_block(ws.stiffness.free, ws.mass.free,
                                         zero, ws.load_f[free],
                                         -ws.load_ud[free])
        assert res < 1e-12
        r1 = ws.stiffness.free @ u - ws.load_f[free]
        assert np.linalg.norm(r1) < 1e-10 * max(
            np.linalg.norm(ws.load_f[free]), 1.0)


class TestPdas:
    def test_residuals_and_clamp_identity(self, solved_n8):
        spec, mesh, ws, sol = solved_n8
        assert sol.state_residual <= 1e-10
        assert sol.adjoint_residual <= 1e-10
        # terminal control is exactly the clamped projected adjoint trace
        # (recomputed with the solver's own coupling pairing so the clamp
        # identity holds bitwise)
        free = ws.dofmap.free
        b_f = ws.coupling[free].tocsc()
        raw = -(b_f.T @ sol.phi.coeffs[free]) / (spec.alpha * sol.q.measures)
        expected = clamp(raw, spec.lower, spec.upper)
        assert np.array_equal(sol.q.values, expected)
        # the projection-based recomputation agrees to rounding
        trace = bh_apply("distributed", sol.phi)
        raw2 = -pi_h(trace) / spec.alpha
        assert np.allclose(sol.q.values, clamp(raw2, spec.lower, spec.upper),
                           rtol=1e-10, atol=1e-8)

    def test_vi_report_clean(self, solved_n8):
        spec, mesh, ws, sol = solved_n8
        trace = bh_apply("distributed", sol.phi)
        report = vi_residual(sol.q, trace, spec.alpha)
        assert report.satisfied
        assert report.vi_lower >= -1e-10
        assert report.vi_upper >= -1e-10

    def test_active_sets_partition(self, solved_n8):
        _, mesh, _, sol = solved_n8
        lower = set(sol.active_lower.tolist())
        upper = set(sol.active_upper.tolist())
        assert not lower & upper
        assert lower and upper   # both bounds are hit for this problem

    def test_large_alpha_pins_upper_bound(self):
        spec = example1_spec(alpha=1e9)
        sol = solve_pdas(spec, make_unit_square(4))
        assert np.allclose(sol.q.values, -50.0)
        # every control active: no reduced solve at all
        assert sol.cg_residual == 0.0
        assert all(step.cg_steps == 0 and step.inactive == 0
                   for step in sol.trace)

    def test_objective_monotone(self, solved_n8):
        _, _, _, sol = solved_n8
        hist = np.asarray(sol.objective_history)
        assert np.all(np.diff(hist) <= 1e-12 * np.abs(hist[:-1]))

    def test_nontermination_raises(self):
        spec = example1_spec()
        with pytest.raises(PdasError):
            solve_pdas(spec, make_unit_square(4), max_iter=1)

    def test_iteration_count_small(self, solved_n8):
        _, _, _, sol = solved_n8
        assert sol.iterations <= 15

    def test_trace_per_iteration(self, solved_n8):
        _, mesh, _, sol = solved_n8
        assert len(sol.trace) == sol.iterations
        last = sol.trace[-1]
        assert last.inactive == mesh.num_triangles - len(
            sol.active_lower) - len(sol.active_upper)
        assert last.cg_residual == sol.cg_residual <= 1e-13
        # the first active sets come from the raw estimate 0 >= upper = -50
        assert sol.trace[0].flipped == mesh.num_triangles
        assert all(step.flipped > 0 for step in sol.trace)

    def test_objective_matches_quadrature(self, solved_n8):
        spec, mesh, ws, sol = solved_n8
        geom = element_geometry(mesh)
        rule = quadrature("triangle", spec.load_degree)
        pts = _quad_points(mesh, geom, rule)
        misfit = (eval_on_elements(geom, ws.dofmap, sol.u.coeffs, rule)
                  - spec.u_d(pts[..., 0], pts[..., 1]))
        track = np.einsum("q,tq->", rule.weights,
                          misfit ** 2 * geom.det[:, None])
        expected = 0.5 * track + 0.5 * spec.alpha * np.sum(
            sol.q.measures * sol.q.values ** 2)
        got = _objective(ws, sol.u.coeffs[ws.dofmap.free], sol.q.values)
        assert abs(got - expected) <= 1e-12 * expected

    def test_active_set_cycle_raises_at_once(self, monkeypatch):
        # a reduced solve that returns a huge negative control drives the
        # next estimate above the upper bound everywhere, back to the
        # all-upper active set of the first iteration: A, B, A, B, ...
        calls = []

        def fake_pcg(apply, rhs, x, inv_diag):
            calls.append(len(x))
            return np.full_like(x, -1e8), 1, 0.0

        monkeypatch.setattr(solver, "_pcg", fake_pcg)
        with pytest.raises(PdasError, match="cycle") as info:
            solve_pdas(example1_spec(), make_unit_square(4))
        assert len(calls) == 1 and calls[0] > 0
        first, second = info.value.signatures
        assert first != second
        up, lo = (np.frombuffer(part, dtype=bool) for part in first)
        assert up.all() and not lo.any()

    def test_cg_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "CG_MAX_ITER", 1)
        spec = example1_spec(alpha=1e-7, lower=-np.inf, upper=np.inf)
        with pytest.raises(PdasError, match="CG"):
            solve_pdas(spec, make_unit_square(8))


def _block_pdas(spec, ws, max_iter=50):
    """Reference PDAS whose linear step is the 2n x 2n block LU."""
    free = ws.dofmap.free
    b_f = ws.coupling[free].tocsc()
    d_meas = ws.measures
    raw = np.zeros(len(d_meas))
    prev = None
    for _ in range(max_iter):
        up = raw >= spec.upper
        lo = (raw <= spec.lower) & ~up
        if prev is not None and np.array_equal(up, prev[0]) \
                and np.array_equal(lo, prev[1]):
            return u, phi, q, up, lo
        prev = (up, lo)
        inactive = ~(up | lo)
        b_in = b_f[:, inactive]
        coupling = (b_in @ sp.diags(1.0 / (spec.alpha * d_meas[inactive]))
                    @ b_in.T).tocsc()
        q = np.where(up, spec.upper, np.where(lo, spec.lower, 0.0))
        u, phi, _ = solve_linear_block(
            ws.stiffness.free, ws.mass.free, coupling,
            ws.load_f[free] + b_f @ q, -ws.load_ud[free])
        raw = -(b_f.T @ phi) / (spec.alpha * d_meas)
        q[inactive] = raw[inactive]
    raise AssertionError("reference PDAS did not terminate")


class TestReducedSolveEquivalence:
    @pytest.mark.parametrize("alpha", [1e-3, 1e-5, 1e-7])
    @pytest.mark.parametrize("bounds", [(-750.0, -50.0), (-np.inf, np.inf)])
    def test_matches_block_lu(self, alpha, bounds):
        self._compare(example1_spec(alpha, *bounds), make_unit_square(16))

    def test_matches_block_lu_boundary_control(self):
        self._compare(boundary_demo_spec(), make_unit_square(8))

    @pytest.mark.parametrize("alpha, bounds", [
        (alpha, bounds) for bounds in [(-750.0, -50.0), (-np.inf, np.inf)]
        for alpha in [1e-3, 1e-5, 1e-7]] + [(None, None)])
    def test_objective_rises_follow_infeasible_iterates(self, alpha, bounds):
        # PDAS is monotone only between feasible iterates: the objective
        # may rise right after an iterate with inactive controls outside
        # the box, and nowhere else (alpha None: the boundary-control case)
        if alpha is None:
            spec, mesh = boundary_demo_spec(), make_unit_square(8)
        else:
            spec, mesh = example1_spec(alpha, *bounds), make_unit_square(16)
        sol = solve_pdas(spec, mesh)
        hist = np.asarray(sol.objective_history)
        for it in np.flatnonzero(np.diff(hist) > 1e-12 * hist[:-1]) + 1:
            assert sol.trace[it - 1].infeasible > 0
        if not (np.isfinite(spec.lower) or np.isfinite(spec.upper)):
            assert all(step.infeasible == 0 for step in sol.trace)

    @staticmethod
    def _compare(spec, mesh):
        ws = discretize(spec, mesh)
        sol = solve_pdas(spec, mesh, ws=ws)
        u, phi, q, up, lo = _block_pdas(spec, ws)
        assert np.array_equal(sol.active_upper, np.flatnonzero(up))
        assert np.array_equal(sol.active_lower, np.flatnonzero(lo))
        free = ws.dofmap.free
        for got, ref in ((sol.u.coeffs[free], u), (sol.phi.coeffs[free], phi),
                         (sol.q.values, q)):
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_one_factorization_per_discretization(self, monkeypatch):
        shapes = []
        original = spla.splu

        def counting_splu(matrix, *args, **kwargs):
            shapes.append(matrix.shape)
            return original(matrix, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting_splu)
        spec = example1_spec()
        mesh = make_unit_square(8)
        ws = discretize(spec, mesh)
        solve_pdas(spec, mesh, ws=ws)
        solve_variational(spec, mesh, ws=ws)
        projection_ph(spec, mesh, "state", ws=ws)
        projection_ph(spec, mesh, "adjoint", ws=ws)
        n = ws.dofmap.nfree
        assert shapes == [(n, n)]


class TestVariational:
    def test_clamp_identity_at_random_points(self):
        spec = example1_spec()
        mesh = make_unit_square(8)
        ws = discretize(spec, mesh)
        u, phi, q = solve_variational(spec, mesh, ws=ws)
        rng = np.random.default_rng(13)
        pts = rng.uniform(0.01, 0.99, size=(1000, 2))
        qv = q(pts[:, 0], pts[:, 1])
        phiv = evaluate_p2(phi, pts[:, 0], pts[:, 1])
        expected = clamp(-phiv / spec.alpha, spec.lower, spec.upper)
        assert np.array_equal(qv, expected)

    def test_variational_control_matches_point_evaluation(self):
        spec = example1_spec()
        mesh = make_unit_square(8)
        ws = discretize(spec, mesh)
        _, phi, q = solve_variational(spec, mesh, ws=ws)
        geom = element_geometry(mesh)
        rule = quadrature("triangle", 8)
        pts = _quad_points(mesh, geom, rule)
        got = variational_control(ws, phi.coeffs, geom, rule)
        expected = q(pts[..., 0], pts[..., 1])
        assert got.shape == (mesh.num_triangles, len(rule.weights))
        # the clamp is active somewhere and inactive somewhere
        assert np.any(got == spec.upper) and np.any(
            (got > spec.lower) & (got < spec.upper))
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(
            np.abs(expected))

    def test_unconstrained_matches_direct_solve(self):
        case = example1_case()
        spec = ProblemSpec(kind="distributed", f=case.f, u_d=case.u_d,
                           alpha=1e-3, lower=-np.inf, upper=np.inf, eta=10.0)
        mesh = make_unit_square(8)
        ws = discretize(spec, mesh)
        u_vd, phi_vd, _ = solve_variational(spec, mesh, ws=ws)
        free = ws.dofmap.free
        m_f = ws.mass.free
        u_dir, phi_dir, _ = solve_linear_block(
            ws.stiffness.free, m_f, (m_f / spec.alpha).tocsc(),
            ws.load_f[free], -ws.load_ud[free])
        scale = max(np.max(np.abs(u_dir)), 1.0)
        assert np.max(np.abs(u_vd.coeffs[free] - u_dir)) < 1e-8 * scale
        assert np.max(np.abs(phi_vd.coeffs[free] - phi_dir)) < 1e-8 * scale

    def test_boundary_kind_rejected(self):
        case = example1_case()
        spec = ProblemSpec(kind="boundary", f=case.f, u_d=case.u_d)
        with pytest.raises(ValueError):
            solve_variational(spec, make_unit_square(2))


class TestProjections:
    def test_state_projection_residual(self):
        spec = example1_spec()
        mesh = make_unit_square(4)
        ws = discretize(spec, mesh)
        ph_u = projection_ph(spec, mesh, "state", ws=ws)
        from c0ip_control.assembly import assemble_load
        rhs = (assemble_load(mesh, ws.dofmap, spec.f, spec.load_degree)
               + assemble_load(mesh, ws.dofmap, spec.exact.q, 8))
        free = ws.dofmap.free
        r = ws.stiffness.free @ ph_u.coeffs[free] - rhs[free]
        assert np.linalg.norm(r) <= 1e-10 * max(np.linalg.norm(rhs[free]), 1.0)

    def test_state_projection_first_order(self):
        spec = example1_spec()
        case = spec.exact
        errs = []
        for n in (8, 16, 32):
            mesh = make_unit_square(n)
            ph_u = projection_ph(spec, mesh, "state")
            e, _ = error_norms(ph_u, case.u, case.u_hess, eta=spec.eta)
            errs.append(e)
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 0.8) and np.all(orders < 1.3)

    def test_requires_exact_solution(self):
        spec = example1_spec()
        spec.exact = None
        with pytest.raises(ValueError):
            projection_ph(spec, make_unit_square(2), "state")


class TestDualityIdentity:
    def test_identity_between_projections_and_solution(self):
        # <q - q_h, P_h phi - phi_h> equals (u - u_h, P_h u - u_h) when all
        # loads are integrated with the same quadrature rule
        spec = example1_spec()
        spec.load_degree = 8
        case = spec.exact
        mesh = make_unit_square(8)
        ws = discretize(spec, mesh)
        sol = solve_pdas(spec, mesh, ws=ws)
        ph_u = projection_ph(spec, mesh, "state", ws=ws)
        ph_phi = projection_ph(spec, mesh, "adjoint", ws=ws)

        geom = element_geometry(mesh)
        rule = quadrature("triangle", 8)
        pts = _quad_points(mesh, geom, rule)
        x, y = pts[..., 0], pts[..., 1]

        def integral(values):
            return float(np.einsum("q,tq->", rule.weights,
                                   values * geom.det[:, None]))

        v = eval_on_elements(geom, ws.dofmap,
                             ph_phi.coeffs - sol.phi.coeffs, rule)
        q_exact = np.broadcast_to(case.q(x, y), x.shape)
        lhs = integral((q_exact - sol.q.values[:, None]) * v)

        w = eval_on_elements(geom, ws.dofmap,
                             ph_u.coeffs - sol.u.coeffs, rule)
        u_exact = np.broadcast_to(case.u(x, y), x.shape)
        u_h = eval_on_elements(geom, ws.dofmap, sol.u.coeffs, rule)
        rhs = integral((u_exact - u_h) * w)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1.0)


class TestEvaluateP2:
    def test_nodal_values(self):
        spec = example1_spec()
        mesh = make_unit_square(2)
        ws = discretize(spec, mesh)
        sol = solve_pdas(spec, mesh, ws=ws)
        vals = evaluate_p2(sol.u, mesh.vertices[:, 0], mesh.vertices[:, 1])
        assert np.allclose(vals, sol.u.coeffs[:mesh.num_vertices],
                           atol=1e-12)

    def test_outside_point_rejected(self):
        mesh = make_unit_square(2)
        spec = example1_spec()
        ws = discretize(spec, mesh)
        sol = solve_pdas(spec, mesh, ws=ws)
        with pytest.raises(ValueError):
            evaluate_p2(sol.u, 2.0, 2.0)


class TestProblemSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind="surface", f=None, u_d=None)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind="distributed", f=None, u_d=None, alpha=0.0)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind="distributed", f=None, u_d=None,
                        lower=1.0, upper=-1.0)
