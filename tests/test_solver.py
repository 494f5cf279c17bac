"""Active-set solver, variational discretization, auxiliary projections."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from c0ip_control import (boundary_demo_spec, build_dofmap, clamp,
                          error_norms, example1_case, example1_spec,
                          interpolate, make_lshape, make_unit_square,
                          vi_residual)
from c0ip_control.assembly import (ERROR_DEGREE, element_geometry,
                                   eval_on_elements)
from c0ip_control import solver
from c0ip_control.cli import RunConfig, _uniform_square_meshes
from c0ip_control.controls import ControlField
from c0ip_control.fem import quadrature, shape_values
from c0ip_control.solver import (PdasError, ProblemSpec, _objective,
                                 discretize, evaluate_p2, projection_ph,
                                 solve_linear_block, solve_pdas,
                                 solve_variational)

ROOT = Path(__file__).resolve().parents[1]


def quadrature_means(ws, coeffs):
    """Pi_h(B_h v) by quadrature, apart from the coupling B: triangle means
    of v, or boundary-edge means of dv/dn from its two Gauss-point values."""
    if ws.spec.kind == "boundary":
        return (ws.cache.boundary_traces(coeffs)[:, :2]
                @ quadrature("edge", 3).weights)
    rule = quadrature("triangle", 4)
    vals = eval_on_elements(ws.dofmap, coeffs, rule)
    return vals @ rule.weights * ws.geom.det / ws.geom.area


@pytest.fixture(scope="module")
def solved_n8():
    spec = example1_spec()
    mesh = make_unit_square(8)
    ws = discretize(spec, mesh)
    sol = solve_pdas(ws)
    return spec, mesh, ws, sol


class TestLinearBlock:
    def test_zero_rhs(self):
        spec = example1_spec()
        ws = discretize(spec, make_unit_square(4))
        n = ws.dofmap.nfree
        u, phi, res = solve_linear_block(ws.stiffness, ws.mass, ws.mass,
                                         np.zeros(n), np.zeros(n))
        assert np.allclose(u, 0.0) and np.allclose(phi, 0.0)
        assert res < 1e-14

    def test_decoupled_case_residual(self):
        # zero coupling block: two consecutive solves with the same operator
        spec = example1_spec()
        ws = discretize(spec, make_unit_square(4))
        import scipy.sparse as sp
        n = ws.dofmap.nfree
        zero = sp.csc_matrix((n, n))
        u, phi, res = solve_linear_block(ws.stiffness, ws.mass,
                                         zero, ws.load_f,
                                         -ws.load_ud)
        assert res < 1e-12
        r1 = ws.stiffness @ u - ws.load_f
        assert np.linalg.norm(r1) < 1e-10 * max(
            np.linalg.norm(ws.load_f), 1.0)


class TestPdas:
    def test_residuals_and_clamp_identity(self, solved_n8):
        spec, mesh, ws, sol = solved_n8
        assert sol.state_residual <= 1e-10
        assert sol.adjoint_residual <= 1e-10
        # terminal control is exactly the clamped projected adjoint trace
        # (recomputed with the solver's own coupling pairing so the clamp
        # identity holds bitwise)
        free = ws.dofmap.free
        raw = -(ws.coupling.T @ sol.phi[free]) / (spec.alpha * sol.q.measures)
        expected = clamp(raw, spec.lower, spec.upper)
        assert np.array_equal(sol.q.values, expected)
        # the projection-based recomputation agrees to rounding
        raw2 = -quadrature_means(ws, sol.phi) / spec.alpha
        assert np.allclose(sol.q.values, clamp(raw2, spec.lower, spec.upper),
                           rtol=1e-10, atol=1e-8)

    def test_vi_report_clean(self, solved_n8):
        spec, mesh, ws, sol = solved_n8
        report = vi_residual(sol.q, quadrature_means(ws, sol.phi),
                             spec.alpha)
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
        sol = solve_pdas(discretize(spec, make_unit_square(4)))
        assert np.allclose(sol.q.values, -50.0)
        # every control active: no reduced solve at all
        assert sol.trace[-1].cg_residual == 0.0
        assert all(step.cg_steps == 0 and step.inactive == 0
                   for step in sol.trace)

    def test_objective_monotone(self, solved_n8):
        _, _, _, sol = solved_n8
        assert all(step.objective - prev.objective
                   <= 1e-12 * abs(prev.objective)
                   for prev, step in zip(sol.trace, sol.trace[1:]))

    def test_nontermination_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "PDAS_MAX_ITER", 1)
        spec = example1_spec()
        with pytest.raises(PdasError):
            solve_pdas(discretize(spec, make_unit_square(4)))
        assert issubclass(PdasError, RuntimeError)

    def test_iteration_count_small(self, solved_n8):
        _, _, _, sol = solved_n8
        assert sol.iterations <= 15

    def test_trace_per_iteration(self, solved_n8):
        _, mesh, _, sol = solved_n8
        last = sol.trace[-1]
        assert last.inactive == mesh.num_triangles - len(
            sol.active_lower) - len(sol.active_upper)
        assert last.cg_residual <= 1e-13
        # the first active sets come from the raw estimate 0 >= upper = -50
        assert sol.trace[0].flipped == mesh.num_triangles
        assert all(step.flipped > 0 for step in sol.trace)

    def test_objective_matches_quadrature(self, solved_n8):
        spec, mesh, ws, sol = solved_n8
        geom = element_geometry(mesh)
        rule = quadrature("triangle", spec.load_degree)
        x, y = geom.quad_points(rule)
        misfit = (eval_on_elements(ws.dofmap, sol.u, rule)
                  - spec.data(x, y)[1])
        track = np.einsum("q,tq->", rule.weights,
                          misfit ** 2 * geom.det[:, None])
        expected = 0.5 * track + 0.5 * spec.alpha * np.sum(
            sol.q.measures * sol.q.values ** 2)
        got = _objective(ws, sol.u[ws.dofmap.free], sol.q.values,
                         sol.q.measures)
        assert abs(got - expected) <= 1e-12 * expected

    def test_active_set_cycle_raises_at_once(self, monkeypatch):
        # a reduced solve that returns a huge negative control drives the
        # next estimate above the upper bound everywhere, back to the
        # all-upper active set of the first iteration: A, B, A, B, ...
        calls = []

        def fake_pcg(apply, rhs, inv_diag, scale):
            calls.append(len(rhs))
            return np.full_like(rhs, -1e8), 1, 0.0

        monkeypatch.setattr(solver, "_pcg", fake_pcg)
        with pytest.raises(PdasError, match="cycle") as info:
            solve_pdas(discretize(example1_spec(), make_unit_square(4)))
        assert len(calls) == 1 and calls[0] > 0
        first, second = info.value.signatures
        assert first != second
        up, lo = (np.frombuffer(part, dtype=bool) for part in first)
        assert up.all() and not lo.any()

    def test_cg_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "CG_MAX_ITER", 1)
        spec = example1_spec(alpha=1e-7, lower=-np.inf, upper=np.inf)
        with pytest.raises(PdasError, match="CG"):
            solve_pdas(discretize(spec, make_unit_square(8)))


class TestCarriedStateAdjoint:
    """Every PDAS iteration back-solves the state and adjoint of its CG
    control q_s + dq."""

    @pytest.mark.parametrize("alpha", [1e-3, 1e-7])
    @pytest.mark.parametrize("bounds", [(-750.0, -50.0), (-np.inf, np.inf)])
    def test_equal_fresh_back_solves(self, monkeypatch, alpha, bounds):
        # the state and adjoint belong to the CG control q_s + dq, where
        # q_s is the control B was last applied to before CG (its state and
        # adjoint start the iteration); the returned inactive controls are
        # then reset to the raw estimate
        ws = discretize(example1_spec(alpha, *bounds), make_unit_square(8))
        controls, iterates = [], []
        original = solver._pcg

        def apply_b(x):
            controls.append(x.copy())
            return ws.coupling @ x

        def recording_pcg(*args):
            q_s = controls[-1]
            dq, steps, rel = original(*args)
            iterates.append((q_s, dq))
            return dq, steps, rel

        monkeypatch.setattr(solver, "_pcg", recording_pcg)
        sol = solver._pdas(ws, apply_b, ws.coupling.T.__matmul__,
                           ws.measures, np.zeros(len(ws.measures)))
        q = sol.q.values.copy()
        if sol.trace[-1].inactive:
            assert sol.trace[-1].cg_steps > 0
            inactive = np.ones(len(q), dtype=bool)
            inactive[sol.active_lower] = inactive[sol.active_upper] = False
            q, dq = iterates[-1]
            q[inactive] += dq
        free = ws.dofmap.free
        u = ws.lu.solve(ws.load_f + ws.coupling @ q)
        phi = ws.lu.solve(ws.mass @ u - ws.load_ud)
        assert np.array_equal(sol.u[free], u)
        assert np.array_equal(sol.phi[free], phi)

    @pytest.mark.parametrize("case", ["bounded", "unbounded", "variational"])
    def test_back_solves_per_iteration(self, monkeypatch, case):
        solves = []
        original = spla.splu

        class CountingFactor:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, rhs):
                solves.append(len(rhs))
                return self._lu.solve(rhs)

        monkeypatch.setattr(spla, "splu", lambda *args, **kwargs:
                            CountingFactor(original(*args, **kwargs)))
        bounds = (-np.inf, np.inf) if case == "unbounded" else ()
        ws = discretize(example1_spec(1e-3, *bounds), make_unit_square(8))
        sol = solve_pdas(ws)
        if case == "variational":
            del solves[:]
            sol = solve_variational(ws, sol)
        # two solves for the state and adjoint of the start control q_s;
        # with inactive controls two per CG step and two for the state and
        # adjoint of the corrected control q_s + dq
        inactive = [step for step in sol.trace if step.inactive]
        assert inactive and all(step.cg_steps for step in inactive)
        assert len(solves) == 2 * len(sol.trace) + sum(
            2 + 2 * step.cg_steps for step in inactive)

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("alpha", [1e-5, 1e-7, 1e-9])
    def test_unbounded_backward_errors_at_rounding(self, n, alpha):
        # without bounds u_0 = A^-1 f is much larger than u for small
        # alpha, so a state formed as u_0 + A^-1 B_I q_I loses digits to
        # cancellation; a back-solved one does not. At alpha = 1e-9 the
        # state is solved for the CG control, but q_I is then reset to the
        # raw estimate, which moves its residual to 1.5e-13 to 2.7e-13
        spec = example1_spec(alpha, -np.inf, np.inf)
        sol = solve_pdas(discretize(spec, make_unit_square(n)))
        assert sol.adjoint_residual <= 1e-15
        if alpha > 1e-9:
            assert sol.state_residual <= 1e-15


def _dense_product(h):
    """``_pcg``'s product: H v written into ``out``."""
    def apply(v, out):
        np.matmul(h, v, out=out)
    return apply


class TestPcg:
    """``_pcg`` on a dense SPD system."""

    @staticmethod
    def _system():
        rng = np.random.default_rng(7)
        g = rng.standard_normal((20, 20))
        h = g @ g.T + np.diag(rng.uniform(1.0, 100.0, 20))
        return h, rng.standard_normal(20), 1.0 / np.diag(h)

    def test_matches_dense_solve(self):
        h, rhs, inv_diag = self._system()
        rhs_in, inv_diag_in = rhs.copy(), inv_diag.copy()
        x, steps, rel = solver._pcg(_dense_product(h), rhs, inv_diag,
                                    np.linalg.norm(rhs))
        assert steps > 0 and rel <= solver.CG_RTOL
        ref = np.linalg.solve(h, rhs)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert np.array_equal(rhs, rhs_in)
        assert np.array_equal(inv_diag, inv_diag_in)

    def test_matches_allocating_oracle(self):
        h, rhs, inv_diag = self._system()
        got = solver._pcg(_dense_product(h), rhs, inv_diag,
                          np.linalg.norm(rhs))
        ref = pcg_allocating(h.__matmul__, rhs, inv_diag,
                             np.linalg.norm(rhs))
        assert np.array_equal(got[0], ref[0]) and got[1:] == ref[1:]

    @pytest.mark.parametrize("factor", [1.0, 1e6])
    def test_stops_at_first_step_within_scale(self, monkeypatch, factor):
        # the residual is read relative to ``scale``: a larger scale stops
        # CG earlier, and one step fewer than it took raises
        h, rhs, inv_diag = self._system()
        apply = _dense_product(h)
        scale = factor * np.linalg.norm(rhs)
        x, steps, rel = solver._pcg(apply, rhs, inv_diag, scale)
        assert rel <= solver.CG_RTOL
        assert np.linalg.norm(rhs - h @ x) <= 2.0 * solver.CG_RTOL * scale
        if factor > 1.0:
            assert steps < solver._pcg(apply, rhs, inv_diag,
                                       np.linalg.norm(rhs))[1]
        monkeypatch.setattr(solver, "CG_MAX_ITER", steps - 1)
        with pytest.raises(PdasError, match="%d steps" % (steps - 1)):
            solver._pcg(apply, rhs, inv_diag, scale)

    def test_zero_scale_returns_zero(self):
        def apply(v, out):
            raise AssertionError("no product for a zero scale")

        _, rhs, inv_diag = self._system()
        x, steps, rel = solver._pcg(apply, rhs, inv_diag, 0.0)
        assert np.array_equal(x, np.zeros(20)) and steps == 0 and rel == 0.0


# The point-control PDAS as it was before it reused its buffers, kept as
# the oracle of ``_pcg``, ``_pdas`` and ``_point_kernel``: each product and
# CG step allocates fresh arrays, with the operands and the order of
# operations that the buffered solver must keep, so that both return the
# same arrays bit for bit.
def pcg_allocating(apply, rhs, inv_diag, scale):
    """``_pcg`` with ``apply(v)`` returning H v, in fresh arrays."""
    x = np.zeros_like(rhs)
    if scale == 0.0:
        return x, 0, 0.0
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for steps in range(solver.CG_MAX_ITER + 1):
        rel = float(np.linalg.norm(r) / scale)
        if rel <= solver.CG_RTOL:
            return x, steps, rel
        if steps == solver.CG_MAX_ITER:
            break
        hp = apply(p)
        step = rz / (p @ hp)
        x += step * p
        r -= step * hp
        z = inv_diag * r
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    raise PdasError("CG did not converge in %d steps" % solver.CG_MAX_ITER)


def pdas_allocating(ws, apply_b, apply_bt, d_meas, raw):
    """``_pdas`` with a raw estimate and a control per iteration."""
    spec = ws.spec
    m_f = ws.mass
    alpha = spec.alpha
    nent = len(d_meas)
    lu = ws.lu

    def back_solve(qvals):
        u = lu.solve(ws.load_f + apply_b(qvals))
        return u, lu.solve(m_f @ u - ws.load_ud)

    prev_status = np.zeros(nent, dtype=np.int8)
    seen = []
    trace = []
    for _ in range(solver.PDAS_MAX_ITER):
        act_up = raw >= spec.upper
        act_lo = (raw <= spec.lower) & ~act_up
        sig = (act_up.tobytes(), act_lo.tobytes())
        if seen and sig == seen[-1]:
            break
        assert sig not in seen
        seen.append(sig)
        inactive = ~(act_up | act_lo)
        qvals = np.where(act_up, spec.upper, np.where(act_lo, spec.lower,
                                                      raw))
        u_free, phi_free = back_solve(qvals)
        cg_steps, cg_res = 0, 0.0
        if inactive.any():
            alpha_d = alpha * d_meas[inactive]
            x_full = np.zeros(nent)

            def reduced_hessian(x):
                x_full[inactive] = x
                du = lu.solve(apply_b(x_full))
                return alpha_d * x + apply_bt(lu.solve(m_f @ du))[inactive]

            bt_phi = apply_bt(phi_free)[inactive]
            dq, cg_steps, cg_res = pcg_allocating(
                reduced_hessian, -(alpha_d * qvals[inactive] + bt_phi),
                1.0 / alpha_d, np.linalg.norm(bt_phi))
            qvals[inactive] += dq
            u_free, phi_free = back_solve(qvals)
        raw = -apply_bt(phi_free) / (alpha * d_meas)
        q_in = raw[inactive]
        qvals[inactive] = q_in
        status = act_up.astype(np.int8) - act_lo.astype(np.int8)
        trace.append(solver.PdasStep(
            int(inactive.sum()), int(np.count_nonzero(status != prev_status)),
            cg_steps, cg_res,
            int(np.count_nonzero((q_in < spec.lower) | (q_in > spec.upper))),
            _objective(ws, u_free, qvals, d_meas)))
        prev_status = status
    else:
        raise PdasError("active sets did not stabilize")
    r_state, r_adj = solver._residuals(ws, u_free, phi_free, apply_b(qvals))
    return solver.KktSolution(
        u=ws.full_coeffs(u_free), phi=ws.full_coeffs(phi_free),
        q=ControlField(qvals, spec.lower, spec.upper, d_meas),
        active_lower=np.flatnonzero(act_lo),
        active_upper=np.flatnonzero(act_up),
        state_residual=r_state, adjoint_residual=r_adj, trace=trace)


def point_kernel_allocating(ws, rule):
    """``_point_kernel`` with fresh (nt, nq) arrays in every product."""
    dofmap = ws.dofmap
    nt, nq = len(dofmap.tri_dofs), len(rule.weights)
    measures = ws.geom.det[:, None] * rule.weights
    vals = shape_values(rule.points)
    rows = dofmap.free_cols[dofmap.tri_dofs]
    y_ext = np.zeros(dofmap.nfree + 1)

    def apply_n(x):
        local = (measures * x.reshape(nt, nq)) @ vals
        return np.bincount(rows.ravel(), local.ravel(),
                           minlength=dofmap.nfree + 1)[:-1]

    def apply_nt(y):
        y_ext[:-1] = y
        return (measures * (y_ext[rows] @ vals.T)).ravel()

    return apply_n, apply_nt, measures.ravel()


def solves_allocating(ws):
    """``solve_pdas`` and, for distributed control, ``solve_variational``
    of ``ws`` through the oracles above."""
    b_f = ws.coupling
    full = pdas_allocating(ws, b_f.__matmul__, b_f.T.__matmul__,
                           ws.measures, np.zeros(len(ws.measures)))
    if ws.spec.kind != "distributed":
        return full, None
    rule = quadrature("triangle", ERROR_DEGREE)
    apply_n, apply_nt, measures = point_kernel_allocating(ws, rule)
    phi_at_points = eval_on_elements(ws.dofmap, full.phi, rule)
    return full, pdas_allocating(ws, apply_n, apply_nt, measures,
                                 -phi_at_points.ravel() / ws.spec.alpha)


def assert_same_solution(got, ref):
    """The two ``KktSolution``s hold the same arrays, bit for bit, and the
    same iteration trace."""
    for name, a, b in (("u", got.u, ref.u), ("phi", got.phi, ref.phi),
                       ("q.values", got.q.values, ref.q.values),
                       ("q.measures", got.q.measures, ref.q.measures),
                       ("active_lower", got.active_lower, ref.active_lower),
                       ("active_upper", got.active_upper, ref.active_upper)):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.trace == ref.trace
    assert (got.state_residual, got.adjoint_residual) == (
        ref.state_residual, ref.adjoint_residual)


@pytest.fixture(scope="module")
def vd_mesh_32():
    """The h = 1/32 mesh of the vd study (``--levels 4``)."""
    return list(_uniform_square_meshes(RunConfig(levels=4)))[-1][1]


def _block_pdas(spec, ws, max_iter=50):
    """Reference PDAS whose linear step is the 2n x 2n block LU."""
    b_f = ws.coupling
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
            ws.stiffness, ws.mass, coupling,
            ws.load_f + b_f @ q, -ws.load_ud)
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
        sol = solve_pdas(discretize(spec, mesh))
        for prev, step in zip(sol.trace, sol.trace[1:]):
            if step.objective - prev.objective > 1e-12 * prev.objective:
                assert prev.infeasible > 0
        if not (np.isfinite(spec.lower) or np.isfinite(spec.upper)):
            assert all(step.infeasible == 0 for step in sol.trace)

    @staticmethod
    def _compare(spec, mesh):
        ws = discretize(spec, mesh)
        sol = solve_pdas(ws)
        u, phi, q, up, lo = _block_pdas(spec, ws)
        assert np.array_equal(sol.active_upper, np.flatnonzero(up))
        assert np.array_equal(sol.active_lower, np.flatnonzero(lo))
        free = ws.dofmap.free
        for got, ref in ((sol.u[free], u), (sol.phi[free], phi),
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
        solve_variational(ws, solve_pdas(ws))
        projection_ph(ws, "state")
        projection_ph(ws, "adjoint")
        n = ws.dofmap.nfree
        assert shapes == [(n, n)]


class TestBuffersAreBitwise:
    """``solve_pdas`` and ``solve_variational`` return the same arrays and
    traces as the allocating oracles, on the cases of
    ``TestReducedSolveEquivalence`` and on the finest mesh of the vd
    study."""

    @pytest.mark.parametrize("alpha", [1e-3, 1e-5, 1e-7])
    @pytest.mark.parametrize("bounds", [(-750.0, -50.0), (-np.inf, np.inf)])
    def test_square16(self, alpha, bounds):
        self._compare(discretize(example1_spec(alpha, *bounds),
                                 make_unit_square(16)))

    def test_boundary_control(self):
        self._compare(discretize(boundary_demo_spec(), make_unit_square(8)))

    def test_vd_study_finest_mesh(self, vd_mesh_32):
        self._compare(discretize(example1_spec(), vd_mesh_32))

    @staticmethod
    def _compare(ws):
        full = solve_pdas(ws)
        ref_full, ref_vd = solves_allocating(ws)
        assert_same_solution(full, ref_full)
        if ref_vd is not None:
            assert_same_solution(solve_variational(ws, full), ref_vd)


class TestDegenerateInputs:
    """Inputs at the edges of the problem class: each converges with a
    checked certificate (admissible control, backward errors <= 1e-10)."""

    @staticmethod
    def _certified(ws):
        sol = solve_pdas(ws)
        assert sol.q.admissible
        assert sol.state_residual <= 1e-10
        assert sol.adjoint_residual <= 1e-10
        return sol

    def test_all_active(self):
        sol = self._certified(discretize(example1_spec(1e-3, -51.0, -50.0),
                                         make_unit_square(8)))
        assert sol.iterations == 2
        assert len(sol.active_lower) == len(sol.active_upper) == 64
        assert all(step.inactive == 0 for step in sol.trace)

    def test_all_inactive(self):
        sol = self._certified(discretize(example1_spec(1e-3, -1e9, 1e9),
                                         make_unit_square(8)))
        assert sol.iterations == 1
        assert len(sol.active_lower) == len(sol.active_upper) == 0

    def test_tiny_alpha_unbounded(self):
        # the state backward error is 6.3e-12 here, the largest of these
        sol = self._certified(discretize(
            example1_spec(1e-9, -np.inf, np.inf), make_unit_square(8)))
        assert sol.iterations == 1

    def test_one_sided_bound(self):
        sol = self._certified(discretize(
            example1_spec(1e-7, -750.0, np.inf), make_unit_square(8)))
        assert sol.iterations == 6
        assert len(sol.active_upper) == 0 and len(sol.active_lower) > 0

    def test_boundary_control_on_lshape(self):
        ws = discretize(boundary_demo_spec(), make_lshape(4))
        sol = self._certified(ws)
        means = quadrature_means(ws, sol.phi)
        assert vi_residual(sol.q, means, ws.spec.alpha).satisfied


# The damped fixed point on phi that solved the variational discretization
# before it became point-control PDAS, kept as an independent oracle. It
# stops once no adjoint coefficient moves by more than FIXED_POINT_TOL.
FIXED_POINT_TOL = 1e-10


def _variational_control(ws, phi_coeffs, rule):
    """clamp(-phi_h/alpha) at ``rule``'s points on every element, (nt, nq)."""
    phivals = eval_on_elements(ws.dofmap, phi_coeffs, rule)
    return clamp(-phivals / ws.spec.alpha, ws.spec.lower, ws.spec.upper)


def _fixed_point(ws, max_iter=200):
    """(u, phi) on the free dofs, or None if the iteration does not settle."""
    free = ws.dofmap.free
    rule = quadrature("triangle", ERROR_DEGREE)
    vals = shape_values(rule.points)
    phi = np.zeros(len(free))
    omega, prev_res = 1.0, np.inf
    for _ in range(max_iter):
        qvals = _variational_control(ws, ws.full_coeffs(phi), rule)
        local = np.einsum("q,tq,qi->ti", rule.weights, qvals, vals)
        local *= ws.geom.det[:, None]
        load_q = np.zeros(ws.dofmap.ndof)
        np.add.at(load_q, ws.dofmap.tri_dofs, local)
        u = ws.lu.solve(ws.load_f + load_q[free])
        phi_new = ws.lu.solve(ws.mass @ u - ws.load_ud)
        res = float(np.max(np.abs(phi_new - phi)))
        if res <= FIXED_POINT_TOL:
            return u, phi_new
        if res > prev_res:
            omega = max(0.25, 0.5 * omega)
        prev_res = res
        phi = phi + omega * (phi_new - phi)
    return None


def _assert_point_clamp_identity(ws, sol, rtol=1e-12):
    """sol.q at the rule points equals clamp(-phi_h(x_k)/alpha), with phi_h
    evaluated by point location."""
    rule = quadrature("triangle", ERROR_DEGREE)
    x, y = ws.geom.quad_points(rule)
    phiv = evaluate_p2(ws.geom, ws.dofmap, sol.phi, x.ravel(), y.ravel())
    expected = clamp(-phiv / ws.spec.alpha, ws.spec.lower, ws.spec.upper)
    assert sol.q.values.shape == expected.shape
    assert np.max(np.abs(sol.q.values - expected)) <= rtol * np.max(
        np.abs(expected))


def _point_coupling_oracle(ws, rule):
    """Free rows of the point coupling N[i, (t, k)] = w_k det_t v_i(x_k) in
    CSC, column t * nq + k, built on its own dof->free-row map with -1 on
    the constrained dofs; and the point measures w_k det_t."""
    dofmap = ws.dofmap
    nt, nq = len(dofmap.tri_dofs), len(rule.weights)
    measures = (ws.geom.det[:, None] * rule.weights).ravel()
    free_index = np.full(dofmap.ndof, -1, dtype=np.int32)
    free_index[dofmap.free] = np.arange(dofmap.nfree, dtype=np.int32)
    rows = free_index[dofmap.tri_dofs]
    is_free = rows >= 0
    keep = np.repeat(is_free[:, None, :], nq, axis=1)
    values = measures.reshape(nt, nq, 1) * shape_values(rule.points)
    indptr = np.zeros(nt * nq + 1, dtype=np.int32)
    np.cumsum(np.repeat(np.count_nonzero(is_free, axis=1), nq),
              out=indptr[1:])
    indices = np.broadcast_to(rows[:, None, :], keep.shape)[keep]
    n_f = sp.csc_matrix((values[keep], indices, indptr),
                        shape=(dofmap.nfree, nt * nq))
    return n_f, measures


class TestVariational:
    @pytest.mark.parametrize("mesh", [make_unit_square(8), make_lshape(2)],
                             ids=["square8", "lshape2"])
    def test_point_kernel_matches_its_oracle(self, mesh):
        ws = discretize(example1_spec(), mesh)
        rule = quadrature("triangle", ERROR_DEGREE)
        apply_n, apply_nt, got_measures = solver._point_kernel(ws, rule)
        want, want_measures = _point_coupling_oracle(ws, rule)
        np.testing.assert_array_equal(got_measures, want_measures)
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = rng.standard_normal(want.shape[1])
            y = rng.standard_normal(want.shape[0])
            for got, ref in ((apply_n(x), want @ x),
                             (apply_nt(y), want.T @ y)):
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(
                    np.abs(ref))

    def test_point_kernel_forms_no_local_table(self):
        # building the kernel and applying N and N^T once allocate less
        # than one (nt, nq, 6) table of the local values w_k det_t v_i(x_k)
        ws = discretize(example1_spec(), make_unit_square(32))
        rule = quadrature("triangle", ERROR_DEGREE)
        nt, nq = len(ws.dofmap.tri_dofs), len(rule.weights)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(nt * nq)
        y = rng.standard_normal(ws.dofmap.nfree)
        tracemalloc.start()
        try:
            apply_n, apply_nt, _ = solver._point_kernel(ws, rule)
            apply_n(x)
            apply_nt(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nt * nq * 6 * 8

    def test_point_pdas_holds_bounded_buffers(self, vd_mesh_32):
        # The bound k counts the arrays the point-control PDAS must hold at
        # once, in units of one point-sized float array (nt nq 8 bytes):
        # - 4 point-sized: the measures w_k det_t and the control buffer
        #   (both returned), the (nt, nq) work array of N and N^T, and the
        #   inactive-supported argument of the reduced Hessian;
        # - 9 on the inactive set during a CG step: alpha D_I, its inverse,
        #   the right-hand side, x, r, z, p, H p and the gathered
        #   (N^T y)_I of H p; 22 352 of the 51 200 points are inactive on
        #   this mesh, so these weigh 3.93;
        # - 1.5 for all that is smaller: four one-byte masks and
        #   signatures of 1/8 each, the piecewise-constant solution passed
        #   in (0.3), the kernel's (nt, 6) index table (0.12) and about six
        #   dof-sized vectors (0.08 each).
        # That is k = 9.43 here; the allocating oracle reads 12.2.
        ws = discretize(example1_spec(), vd_mesh_32)
        rule = quadrature("triangle", ERROR_DEGREE)
        nent = len(ws.dofmap.tri_dofs) * len(rule.weights)
        tracemalloc.start()
        try:
            vd = solve_variational(ws, solve_pdas(ws))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        inactive = max(step.inactive for step in vd.trace)
        k = 4 + 9 * inactive / nent + 1.5
        assert peak < k * nent * 8

    def test_variational_control_matches_point_evaluation(self):
        spec = example1_spec()
        ws = discretize(spec, make_unit_square(8))
        sol = solve_variational(ws, solve_pdas(ws))
        _assert_point_clamp_identity(ws, sol)
        # the clamp is active somewhere and inactive somewhere
        got = sol.q.values
        assert np.any(got == spec.upper) and np.any(
            (got > spec.lower) & (got < spec.upper))
        # point controls, triangle by triangle, with measures w_k det_t
        rule = quadrature("triangle", ERROR_DEGREE)
        assert np.allclose(sol.q.measures.reshape(-1, len(rule.weights)),
                           ws.geom.det[:, None] * rule.weights, rtol=1e-15)
        assert np.isclose(sol.q.measures.sum(), 1.0, rtol=1e-14)

    # The oracle stops at a phi step of FIXED_POINT_TOL. A phi error d
    # moves the inactive point controls by d/alpha and the state by at most
    # ||A^-1 M|| d/alpha, where ||A^-1 M|| is about 1/(4 pi^4) < 3e-3 (the
    # first eigenvalue of the simply supported unit-square plate). With a
    # factor 30 for the error left after the oracle's last step, u agrees
    # with it to 0.1 FIXED_POINT_TOL / alpha in the max norm, plus round-off.
    @pytest.mark.parametrize("alpha", [1e-3, 1e-5, 1e-7])
    @pytest.mark.parametrize("bounds", [(-750.0, -50.0), (-np.inf, np.inf)])
    def test_point_pdas_converges_from_full_and_from_zero(self, alpha,
                                                          bounds):
        ws = discretize(example1_spec(alpha, *bounds), make_unit_square(8))
        full = solve_pdas(ws)
        warm = solve_variational(ws, full)
        apply_n, apply_nt, measures = solver._point_kernel(
            ws, quadrature("triangle", ERROR_DEGREE))
        cold = solver._pdas(ws, apply_n, apply_nt, measures,
                            np.zeros(len(measures)))
        free = ws.dofmap.free
        for sol in (warm, cold):
            assert sol.q.admissible
            assert sol.state_residual <= 1e-10
            assert sol.adjoint_residual <= 1e-10
            assert sol.trace[-1].cg_residual <= solver.CG_RTOL
            _assert_point_clamp_identity(ws, sol)
        # from the full solution's raw control the sets need at most one
        # correction; from raw = 0 >= upper every control starts there
        assert warm.iterations <= 2
        if np.isfinite(bounds[1]):
            assert cold.trace[0].inactive == 0 < cold.trace[-1].inactive
        scale = np.max(np.abs(warm.u))
        assert np.max(np.abs(cold.u - warm.u)) <= 1e-10 * scale
        oracle = _fixed_point(ws)
        if oracle is None:
            # the fixed point does not settle at alpha = 1e-7 unbounded
            assert (alpha, bounds) == (1e-7, (-np.inf, np.inf))
            return
        u_fp, _ = oracle
        assert np.max(np.abs(warm.u[free] - u_fp)) <= (
            0.1 * FIXED_POINT_TOL / alpha + 1e-12 * scale)

    def test_unconstrained_matches_direct_solve(self):
        case = example1_case()
        spec = ProblemSpec(kind="distributed", data=case.data,
                           alpha=1e-3, lower=-np.inf, upper=np.inf, eta=10.0)
        mesh = make_unit_square(8)
        ws = discretize(spec, mesh)
        sol = solve_variational(ws, solve_pdas(ws))
        free = ws.dofmap.free
        m_f = ws.mass
        u_dir, phi_dir, _ = solve_linear_block(
            ws.stiffness, m_f, (m_f / spec.alpha).tocsc(),
            ws.load_f, -ws.load_ud)
        scale = max(np.max(np.abs(u_dir)), 1.0)
        assert np.max(np.abs(sol.u[free] - u_dir)) < 1e-8 * scale
        assert np.max(np.abs(sol.phi[free] - phi_dir)) < 1e-8 * scale

    def test_boundary_kind_rejected(self):
        case = example1_case()
        spec = ProblemSpec(kind="boundary", data=case.data)
        ws = discretize(spec, make_unit_square(2))
        with pytest.raises(ValueError):
            solve_variational(ws, solve_pdas(ws))

    def test_small_alpha_unbounded_converges(self):
        # alpha = 1e-7 without bounds, where the damped fixed point that
        # solved this discretization before does not settle in 200 steps
        spec = example1_spec(alpha=1e-7, lower=-np.inf, upper=np.inf)
        ws = discretize(spec, make_unit_square(8))
        assert _fixed_point(ws) is None
        sol = solve_variational(ws, solve_pdas(ws))
        assert sol.iterations == 1
        assert sol.state_residual <= 1e-10 and sol.adjoint_residual <= 1e-10
        _assert_point_clamp_identity(ws, sol)


class TestProjections:
    def test_state_projection_residual(self):
        spec = example1_spec()
        mesh = make_unit_square(4)
        ws = discretize(spec, mesh)
        ph_u = projection_ph(ws, "state")
        from c0ip_control.assembly import assemble_load
        x, y = ws.geom.quad_points(quadrature("triangle", 8))
        q = spec.exact.control(spec.exact.jets(x, y)[1][0])
        rhs = ws.load_f + assemble_load(ws.dofmap, ws.geom, q, 8)
        r = ws.stiffness @ ph_u[ws.dofmap.free] - rhs
        assert np.linalg.norm(r) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)

    def test_state_projection_first_order(self):
        spec = example1_spec()
        case = spec.exact
        errs = []
        for n in (8, 16, 32):
            ws = discretize(spec, make_unit_square(n))
            ph_u = projection_ph(ws, "state")
            x, y = ws.geom.quad_points(quadrature("triangle", ERROR_DEGREE))
            hess = case.jets(x, y, hessian=True)[0][1]
            e = error_norms(ph_u, ws.dofmap, hess, ws.geom, ws.cache,
                            spec.eta)
            errs.append(e)
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 0.8) and np.all(orders < 1.3)

    def test_requires_exact_solution(self):
        spec = example1_spec()
        spec.exact = None
        with pytest.raises(ValueError):
            projection_ph(discretize(spec, make_unit_square(2)), "state")


class TestDualityIdentity:
    def test_identity_between_projections_and_solution(self):
        # <q - q_h, P_h phi - phi_h> equals (u - u_h, P_h u - u_h) when all
        # loads are integrated with the same quadrature rule
        spec = example1_spec()
        spec.load_degree = 8
        case = spec.exact
        mesh = make_unit_square(8)
        ws = discretize(spec, mesh)
        sol = solve_pdas(ws)
        ph_u = projection_ph(ws, "state")
        ph_phi = projection_ph(ws, "adjoint")

        geom = element_geometry(mesh)
        rule = quadrature("triangle", 8)
        (u_exact, _), (phi, _) = case.jets(*geom.quad_points(rule))

        def integral(values):
            return float(np.einsum("q,tq->", rule.weights,
                                   values * geom.det[:, None]))

        v = eval_on_elements(ws.dofmap, ph_phi - sol.phi, rule)
        q_exact = case.control(phi)
        lhs = integral((q_exact - sol.q.values[:, None]) * v)

        w = eval_on_elements(ws.dofmap, ph_u - sol.u, rule)
        u_h = eval_on_elements(ws.dofmap, sol.u, rule)
        rhs = integral((u_exact - u_h) * w)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1.0)


class TestEvaluateP2:
    def test_nodal_values(self):
        spec = example1_spec()
        mesh = make_unit_square(2)
        ws = discretize(spec, mesh)
        sol = solve_pdas(ws)
        vals = evaluate_p2(ws.geom, ws.dofmap, sol.u, mesh.vertices[:, 0],
                           mesh.vertices[:, 1])
        assert np.allclose(vals, sol.u[:mesh.num_vertices],
                           atol=1e-12)

    def test_outside_point_rejected(self):
        mesh = make_unit_square(2)
        spec = example1_spec()
        ws = discretize(spec, mesh)
        sol = solve_pdas(ws)
        with pytest.raises(ValueError):
            evaluate_p2(ws.geom, ws.dofmap, sol.u, 2.0, 2.0)

    @pytest.fixture()
    def field(self):
        """A quadratic's interpolant on ``make_unit_square(4)``, its
        geometry and dofmap, and five points with the exact values."""
        mesh = make_unit_square(4)
        dm = build_dofmap(mesh)

        def quad(x, y):
            return 1.0 - x + 2.0 * x * y + 0.5 * y * y

        x = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        y = np.array([0.9, 0.2, 0.5, 0.35, 0.05])
        return (element_geometry(mesh), dm, interpolate(mesh, dm, quad),
                x, y, quad(x, y))

    def test_builds_no_element_geometry(self, field, monkeypatch):
        geom, dm, coeffs, x, y, want = field
        built = []

        def counting(mesh):
            built.append(mesh)
            return element_geometry(mesh)

        monkeypatch.setattr(solver, "element_geometry", counting)
        for k in range(len(x)):
            got = solver.evaluate_p2(geom, dm, coeffs, x[k], y[k])
            assert abs(got - want[k]) < 1e-13
        assert built == []

    def test_traced_call_counts_its_points(self, field, monkeypatch):
        geom, dm, coeffs, x, y, want = field
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        from tracer import Tracer, layer_metrics

        tracer = Tracer().install()
        try:
            got = solver.evaluate_p2(geom, dm, coeffs, x=x, y=y)
        finally:
            tracer.uninstall()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        metrics = layer_metrics(tracer.dump())
        assert metrics["solver.evaluate_p2_calls"] == 1
        assert metrics["solver.evaluate_p2_points"] == 5


class TestProblemSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind="surface", data=None)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind="distributed", data=None, alpha=0.0)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind="distributed", data=None,
                        lower=1.0, upper=-1.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -1.0])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            ProblemSpec(kind="distributed", data=None, alpha=alpha)

    @pytest.mark.parametrize("eta", [np.nan, np.inf, 0.0, -1.0])
    def test_eta_must_be_finite_and_positive(self, eta):
        with pytest.raises(ValueError, match="eta"):
            ProblemSpec(kind="distributed", data=None, eta=eta)

    @pytest.mark.parametrize("lower, upper", [
        (np.nan, -50.0), (-750.0, np.nan), (np.nan, np.nan),
        (np.inf, -np.inf), (-50.0, -50.0), (-np.inf, -np.inf)])
    def test_nan_and_empty_boxes_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="lower < upper"):
            ProblemSpec(kind="distributed", data=None,
                        lower=lower, upper=upper)

    @pytest.mark.parametrize("lower, upper", [
        (-np.inf, np.inf), (-750.0, np.inf), (-np.inf, -50.0)])
    def test_infinite_bounds_accepted(self, lower, upper):
        spec = ProblemSpec(kind="distributed", data=None,
                           lower=lower, upper=upper)
        assert (spec.lower, spec.upper) == (lower, upper)
