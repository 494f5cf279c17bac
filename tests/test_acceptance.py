"""End-to-end acceptance gate for the benchmark suite.

Covers the quantitative reproduction of the manufactured convergence
study, the adaptive L-shape run, estimator efficiency, the first-order
optimality checks, the numerical oracles, the variational-discretization
variant, and the structural mesh-refinement properties.
"""

import time

import numpy as np
import pytest

from c0ip_control import (assemble_a_h, bisect, build_dofmap,
                          build_edge_cache, clamp, control_coupling,
                          dorfler_mark, error_norms,
                          estimate, example1_case, example1_spec,
                          example2_spec, interpolate, make_lshape,
                          make_unit_square, vi_residual)
from c0ip_control.assembly import element_geometry, eval_on_elements
from c0ip_control.cases import biharmonic_sin3
from c0ip_control.cli import RunConfig, _uniform_square_meshes
from c0ip_control.fem import QuadratureRule, quadrature
from c0ip_control.solver import (ProblemSpec, discretize, evaluate_p2,
                                 projection_ph, solve_linear_block,
                                 solve_pdas, solve_variational)

# Reference energy errors of the state and adjoint and the L2 control error
# for the benchmark configuration (eta = 10, alpha = 1e-3, bounds
# [-750, -50]) on uniformly refined meshes, keyed by mesh size h.
#
# The state and adjoint columns are frozen values whose origin is not
# recorded; the program reproduces them within 3 % at h = 1/8 ... 1/32.
# The control column is the best-approximation error ||q - Pi_0 q||_0 of the
# exact control by piecewise constants on the meshes of
# ``_uniform_square_meshes``. It depends on the mesh and the exact q only,
# not on the solver, and ``test_control_best_approximation_oracle``
# recomputes it with a composite quadrature rule. Since q_h is
# piecewise constant, ||q - q_h||^2 = ||q - Pi_0 q||^2 + ||Pi_0 q - q_h||^2,
# so the paper's best-approximation estimate puts err_q just above this
# column.
REFERENCE_ERRORS = {
    1 / 4: (11.7524, 18.0932, 98.2595),
    1 / 8: (6.5598, 6.5644, 49.1522),
    1 / 16: (3.3721, 3.3808, 25.3437),
    1 / 32: (1.6701, 1.6719, 12.7661),
    1 / 64: (0.8286, 0.8289, 6.3857),
}


@pytest.fixture(scope="module")
def uniform_study():
    """Solve the manufactured problem on h = 1/4 ... 1/64 with estimators."""
    spec = example1_spec()
    case = spec.exact
    levels = []
    t0 = time.perf_counter()
    for h, mesh in _uniform_square_meshes(RunConfig(levels=5)):
        ws = discretize(spec, mesh)
        sol = solve_pdas(ws)
        report = estimate(ws, sol)
        err_u, _ = error_norms(sol.u, case.u, case.u_hess, ws.geom,
                               ws.cache, spec.eta)
        err_phi, _ = error_norms(sol.phi, case.phi, case.phi_hess, ws.geom,
                                 ws.cache, spec.eta)
        err_q = case.control_error(ws.geom, sol.q)
        levels.append({"h": h, "mesh": mesh, "ws": ws, "sol": sol,
                       "report": report, "err_u": err_u,
                       "err_phi": err_phi, "err_q": err_q})
    runtime = time.perf_counter() - t0
    return {"spec": spec, "levels": levels, "runtime": runtime}


def _discrete_parts(mesh):
    """Dofmap, element geometry and edge cache of ``mesh``."""
    dm = build_dofmap(mesh)
    geom = element_geometry(mesh)
    return dm, geom, build_edge_cache(mesh, dm, geom)


def _subtriangle_rules(k):
    """Degree-8 rules on the 4^k congruent subtriangles of the reference
    triangle; together they form one composite rule."""
    base = quadrature("triangle", 8)
    n = 2 ** k
    corners = []
    for i in range(n):
        for j in range(n - i):
            corners.append(((i, j), (i + 1, j), (i, j + 1)))
            if i + j < n - 1:
                corners.append(((i + 1, j + 1), (i, j + 1), (i + 1, j)))
    return [QuadratureRule(a + base.points @ np.array([b - a, c - a]),
                           base.weights / n ** 2, base.degree)
            for a, b, c in np.asarray(corners, dtype=float) / n]


def _cell_moments(q, mesh):
    """Areas and the integrals of q and q^2 over each triangle.

    The exact control is clamped, so it has kinks inside triangles that a
    single Gauss rule does not resolve; the 64-subtriangle composite rule
    does, to about 2e-5 relative in the control errors.
    """
    geom = element_geometry(mesh)
    m1 = np.zeros(mesh.num_triangles)
    m2 = np.zeros(mesh.num_triangles)
    for rule in _subtriangle_rules(3):
        x, y = geom.quad_points(rule)
        vals = np.broadcast_to(q(x, y), x.shape)
        m1 += vals @ rule.weights * geom.det
        m2 += vals ** 2 @ rule.weights * geom.det
    return geom.area, m1, m2


def _distance_to_origin(verts):
    """Distance from the origin to each closed triangle; verts (k, 3, 2)."""
    out = np.empty(len(verts))
    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    for i, (a, b, c) in enumerate(verts):
        s1 = cross(b - a, -a)
        s2 = cross(c - b, -b)
        s3 = cross(a - c, -c)
        if min(s1, s2, s3) >= 0.0 or max(s1, s2, s3) <= 0.0:
            out[i] = 0.0
            continue
        dmin = np.inf
        for p, q in ((a, b), (b, c), (c, a)):
            d = q - p
            t = min(max(-(p @ d) / (d @ d), 0.0), 1.0)
            dmin = min(dmin, np.hypot(*(p + t * d)))
        out[i] = dmin
    return out


def _near_corner(mesh, tris=slice(None)):
    """Whether triangles ``tris`` meet the disk of radius 0.2 around the
    re-entrant corner of the L-shape, which sits at the origin."""
    return _distance_to_origin(mesh.vertices[mesh.triangles[tris]]) < 0.2


@pytest.fixture(scope="module")
def adaptive_study():
    """Adaptive L-shape run (f = u_d = 1, theta = 0.3) up to 50k dofs."""
    spec = example2_spec()
    mesh = make_lshape(2)
    theta, max_dofs = 0.3, 50000
    records = []
    t0 = time.perf_counter()
    for level in range(80):
        ws = discretize(spec, mesh)
        sol = solve_pdas(ws)
        report = estimate(ws, sol)
        ndof = ws.dofmap.nfree
        if ndof >= max_dofs:
            records.append({"ndof": ndof, "eta_total": report.eta_total,
                            "marked_corner_fraction": None})
            break
        marked = dorfler_mark(report.marking, theta)
        near = int(np.sum(_near_corner(mesh, marked)))
        records.append({"ndof": ndof, "eta_total": report.eta_total,
                        "marked_corner_fraction": near / len(marked),
                        "num_marked": len(marked),
                        "marked_near_corner": near})
        mesh = bisect(mesh, marked)
    runtime = time.perf_counter() - t0
    return {"records": records, "mesh": mesh, "runtime": runtime}


class TestCriterion1TableReproduction:
    def test_state_and_adjoint_errors_match_reference(self, uniform_study):
        for level in uniform_study["levels"]:
            h = level["h"]
            if h not in (1 / 8, 1 / 16, 1 / 32):
                continue
            ref_u, ref_phi, _ = REFERENCE_ERRORS[h]
            assert abs(level["err_u"] - ref_u) <= 0.05 * ref_u, \
                "state energy error %.4f vs reference %.4f at h=%g" \
                % (level["err_u"], ref_u, h)
            assert abs(level["err_phi"] - ref_phi) <= 0.05 * ref_phi, \
                "adjoint energy error %.4f vs reference %.4f at h=%g" \
                % (level["err_phi"], ref_phi, h)

    def test_control_errors_match_reference(self, uniform_study):
        for level in uniform_study["levels"]:
            h = level["h"]
            if h not in (1 / 8, 1 / 16, 1 / 32):
                continue
            ref_q = REFERENCE_ERRORS[h][2]
            assert abs(level["err_q"] - ref_q) <= 0.05 * ref_q, \
                "control L2 error %.4f vs reference %.4f at h=%g " \
                "(deviation %.1f%%)" \
                % (level["err_q"], ref_q, h,
                   100.0 * (level["err_q"] / ref_q - 1.0))

    def test_control_best_approximation_oracle(self, uniform_study):
        # solver-free recomputation of the control column, and the split
        # err_q^2 = ||q - Pi_0 q||^2 + ||Pi_0 q - q_h||^2 on every solved level
        q = uniform_study["spec"].exact.q
        gaps = []
        for level in uniform_study["levels"]:
            area, m1, m2 = _cell_moments(q, level["mesh"])
            q_h = level["sol"].q.values
            best = np.sqrt(np.sum(m2 - m1 ** 2 / area))
            gap = np.sqrt(np.sum(area * (m1 / area - q_h) ** 2))
            err = np.sqrt(np.sum(m2 - 2.0 * q_h * m1 + q_h ** 2 * area))
            ref_q = REFERENCE_ERRORS[level["h"]][2]
            assert abs(best - ref_q) <= 1e-4 * ref_q, \
                "best approximation %.6f vs reference %.4f at h=%g" \
                % (best, ref_q, level["h"])
            assert abs(level["err_q"] - err) <= 0.005 * err, \
                "control_error %.6f vs composite rule %.6f at h=%g" \
                % (level["err_q"], err, level["h"])
            # an identity: it holds to round-off on the scale of int q^2
            assert abs(err ** 2 - best ** 2 - gap ** 2) <= 1e-10 * m2.sum()
            gaps.append(gap)
        # superconvergence of the projection of q onto the discrete control
        for coarse, fine in ((gaps[-3], gaps[-2]), (gaps[-2], gaps[-1])):
            order = np.log2(coarse / fine)
            assert order > 1.25, \
                "||Pi_0 q - q_h|| order %.4f not above 1.25 (%s)" \
                % (order, ["%.4f" % g for g in gaps])

    def test_orders_at_two_finest_pairs(self, uniform_study):
        levels = uniform_study["levels"]
        for key in ("err_u", "err_phi", "err_q"):
            errs = [lv[key] for lv in levels]
            for coarse, fine in ((errs[-3], errs[-2]), (errs[-2], errs[-1])):
                order = np.log2(coarse / fine)
                assert 0.9 <= order <= 1.1, \
                    "%s order %.4f outside 1.0 +/- 0.1" % (key, order)

    def test_runtime_budget(self, uniform_study):
        assert uniform_study["runtime"] <= 300.0


class TestCriterion2AdaptiveRate:
    def test_estimator_decay_rate(self, adaptive_study):
        records = adaptive_study["records"]
        n = np.array([r["ndof"] for r in records], dtype=float)
        eta = np.array([r["eta_total"] for r in records], dtype=float)
        slope = np.polyfit(np.log(n[-5:]), np.log(eta[-5:]), 1)[0]
        assert -0.65 <= slope <= -0.40, "decay slope %.4f" % slope

    def test_refinement_concentrates_at_corner(self, adaptive_study):
        # Dorfler marking promises the optimal rate, not where the few
        # triangles marked on one level fall, so the share of marked
        # triangles near the corner swings from level to level, between 0
        # and a third. The claim is checked over all levels from the
        # third on together, and on the final mesh, each time against
        # uniform (bisect-all) refinement of the same initial mesh to at
        # least the same size, which gives equality in both.
        records = [rec for rec in adaptive_study["records"][2:]
                   if rec["marked_corner_fraction"] is not None]
        marked_share = (sum(rec["marked_near_corner"] for rec in records)
                        / sum(rec["num_marked"] for rec in records))
        final = adaptive_study["mesh"]
        uniform = make_lshape(2)
        counts = []
        while uniform.num_triangles < final.num_triangles:
            counts.append((np.sum(_near_corner(uniform)),
                           uniform.num_triangles))
            uniform = bisect(uniform, range(uniform.num_triangles))
        near_uniform, marked_uniform = np.sum(counts[2:], axis=0)
        uniform_share = near_uniform / marked_uniform
        assert marked_share > uniform_share, \
            "share of marked triangles near the corner %.4f not above " \
            "its value %.4f under uniform refinement" \
            % (marked_share, uniform_share)
        # bisect-all keeps every triangle the same size, a ratio of exactly 1
        near = _near_corner(final)
        area = final.signed_areas()
        ratio = area[~near].mean() / area[near].mean()
        assert ratio > 1.0, \
            "triangles away from the corner not larger on average " \
            "(area ratio %.4f)" % ratio

    def test_runtime_budget(self, adaptive_study):
        assert adaptive_study["records"][-1]["ndof"] >= 50000
        assert adaptive_study["runtime"] <= 300.0


class TestCriterion3EfficiencyStability:
    def test_index_band(self, uniform_study):
        indices = []
        for level in uniform_study["levels"]:
            if level["h"] > 1 / 8:
                continue
            total_err = level["err_u"] + level["err_phi"] + level["err_q"]
            indices.append(level["report"].eta_total / total_err)
        assert len(indices) >= 4
        band = max(indices) / min(indices)
        assert band <= 3.0, "efficiency band %.3f (indices %s)" \
            % (band, ["%.3f" % i for i in indices])


class TestCriterion4OptimalityConditions:
    def test_every_solved_instance(self, uniform_study):
        from test_solver import quadrature_means
        spec = uniform_study["spec"]
        for level in uniform_study["levels"]:
            sol, ws = level["sol"], level["ws"]
            assert sol.state_residual <= 1e-10
            assert sol.adjoint_residual <= 1e-10
            # clamp identity, recomputed with the solver's coupling pairing
            free = ws.dofmap.free
            b_f = ws.coupling[free].tocsc()
            raw = -(b_f.T @ sol.phi.coeffs[free]) \
                / (spec.alpha * sol.q.measures)
            assert np.array_equal(sol.q.values,
                                  clamp(raw, spec.lower, spec.upper))
            report = vi_residual(
                sol.q, quadrature_means(ws, sol.phi.coeffs), spec.alpha)
            assert report.satisfied
            assert report.vi_lower >= -1e-10
            assert report.vi_upper >= -1e-10

    def test_objective_rises_follow_infeasible_iterates(self, uniform_study):
        # the objective of PDAS rises only right after an iterate whose
        # inactive controls leave the box (h = 1/32 and 1/64 have one each)
        infeasible = 0
        for level in uniform_study["levels"]:
            sol = level["sol"]
            for prev, step in zip(sol.trace, sol.trace[1:]):
                if step.objective - prev.objective > 1e-12 * prev.objective:
                    assert prev.infeasible > 0
            infeasible += sum(step.infeasible for step in sol.trace)
        assert infeasible > 0


class TestCriterion5Oracles:
    def test_projection_orthogonality(self):
        mesh = make_unit_square(4)
        dm, geom, cache = _discrete_parts(mesh)
        rng = np.random.default_rng(31)
        v = interpolate(mesh, dm, lambda x, y: 0.0 * x)
        v.coeffs[:] = rng.standard_normal(dm.ndof)
        coupling, measures = control_coupling(dm, geom, cache, "distributed")
        means = coupling.T @ v.coeffs / measures
        rule = quadrature("triangle", 2)
        vals = eval_on_elements(dm, v.coeffs, rule)
        defect = np.einsum("q,tq->t", rule.weights,
                           vals - means[:, None]) * geom.det
        assert np.max(np.abs(defect)) < 1e-12

    def test_bilinear_form_symmetric_and_positive(self):
        op = assemble_a_h(*_discrete_parts(make_unit_square(4)), 10.0)
        a = op.full.toarray()
        assert np.max(np.abs(a - a.T)) <= 1e-12 * np.max(np.abs(a))
        eigs = np.linalg.eigvalsh(op.free.toarray())
        assert eigs.min() > 0.0

    def test_penalty_vanishes_on_quadratics(self):
        mesh = make_unit_square(2)
        dm, _, cache = _discrete_parts(mesh)
        for coeffs in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, -1.0, 2.0)):
            a, b, c = coeffs
            v = interpolate(mesh, dm,
                            lambda x, y: a * x * x + b * x * y + c * y * y)
            assert 10.0 * cache.jump_energy(v.coeffs).sum() < 1e-12

    def test_single_free_dof_brute_force(self):
        # hand-computed entry for the two-triangle square (see
        # test_assembly.py for the derivation): 32*eta - 32
        op = assemble_a_h(*_discrete_parts(make_unit_square(1)), 10.0)
        assert abs(op.free[0, 0] - 288.0) < 1e-10

    def test_biharmonic_finite_difference_oracle(self):
        from test_cases import biharmonic_fd
        case = example1_case()
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.15, 0.85, size=(100, 2))
        for x, y in pts:
            ex = biharmonic_sin3(x, y)
            fd = biharmonic_fd(case.u, x, y)
            assert abs(fd - ex) <= 1e-5 * max(abs(ex), 1.0)

    def test_duality_identity(self):
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
        x, y = geom.quad_points(rule)

        def integral(values):
            return float(np.einsum("q,tq->", rule.weights,
                                   values * geom.det[:, None]))

        v = eval_on_elements(ws.dofmap,
                             ph_phi.coeffs - sol.phi.coeffs, rule)
        lhs = integral((np.broadcast_to(case.q(x, y), x.shape)
                        - sol.q.values[:, None]) * v)
        w = eval_on_elements(ws.dofmap,
                             ph_u.coeffs - sol.u.coeffs, rule)
        u_h = eval_on_elements(ws.dofmap, sol.u.coeffs, rule)
        rhs = integral((np.broadcast_to(case.u(x, y), x.shape) - u_h) * w)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1.0)


class TestCriterion6VariationalDiscretization:
    def test_energy_errors_within_factor_two(self, uniform_study):
        spec = uniform_study["spec"]
        case = spec.exact
        level = next(lv for lv in uniform_study["levels"]
                     if lv["h"] == 1 / 16)
        ws = level["ws"]
        vd = solve_variational(ws, level["sol"])
        e_u, _ = error_norms(vd.u, case.u, case.u_hess, ws.geom, ws.cache,
                             spec.eta)
        e_phi, _ = error_norms(vd.phi, case.phi, case.phi_hess, ws.geom,
                               ws.cache, spec.eta)
        assert e_u <= 2.0 * level["err_u"]
        assert e_phi <= 2.0 * level["err_phi"]
        assert level["err_u"] <= 2.0 * e_u
        assert level["err_phi"] <= 2.0 * e_phi

    def test_pointwise_clamp_identity(self, uniform_study):
        spec = uniform_study["spec"]
        level = uniform_study["levels"][1]
        ws = level["ws"]
        vd = solve_variational(ws, level["sol"])
        # the control at each point of the degree-8 rule against the clamp
        # of phi_h evaluated there by point location
        x, y = ws.geom.quad_points(quadrature("triangle", 8))
        phiv = evaluate_p2(vd.phi, x.ravel(), y.ravel())
        expected = clamp(-phiv / spec.alpha, spec.lower, spec.upper)
        assert np.max(np.abs(vd.q.values - expected)) <= 1e-12 * np.max(
            np.abs(expected))

    def test_unconstrained_matches_linear_solve(self):
        case = example1_case()
        spec = ProblemSpec(kind="distributed", f=case.f, u_d=case.u_d,
                           alpha=1e-3, lower=-np.inf, upper=np.inf)
        mesh = make_unit_square(8)
        ws = discretize(spec, mesh)
        vd = solve_variational(ws, solve_pdas(ws))
        free = ws.dofmap.free
        m_f = ws.mass.free
        u_dir, phi_dir, _ = solve_linear_block(
            ws.stiffness.free, m_f, (m_f / spec.alpha).tocsc(),
            ws.load_f[free], -ws.load_ud[free])
        scale = max(np.max(np.abs(u_dir)), 1.0)
        assert np.max(np.abs(vd.u.coeffs[free] - u_dir)) < 1e-8 * scale
        assert np.max(np.abs(vd.phi.coeffs[free] - phi_dir)) < 1e-8 * scale


class TestCriterion7MeshProperties:
    @pytest.mark.parametrize("maker,area", [(make_unit_square, 1.0),
                                            (make_lshape, 3.0)])
    def test_random_marking_chains(self, maker, area):
        perimeter = {1.0: 4.0, 3.0: 8.0}[area]
        rng = np.random.default_rng(101)
        markings = 0
        for chain in range(10):
            mesh = maker(1)
            angle0 = mesh.min_angle()
            for _ in range(6):
                k = int(rng.integers(1, max(2, mesh.num_triangles // 2)))
                marked = rng.choice(mesh.num_triangles, size=k,
                                    replace=False)
                mesh = bisect(mesh, marked)
                markings += 1
                # conformity: an edge with one neighbour lies on the
                # boundary, so those edges add up to the perimeter
                ends = mesh.vertices[mesh.edges[mesh.boundary_edges]]
                assert abs(np.linalg.norm(ends[:, 0] - ends[:, 1], axis=1)
                           .sum() - perimeter) < 1e-12
                # Euler relation for a simply connected triangulated domain
                assert (mesh.num_vertices - mesh.num_edges
                        + mesh.num_triangles) == 1
                assert abs(mesh.signed_areas().sum() - area) < 1e-12
                assert mesh.min_angle() >= angle0 - 1e-12
        assert markings >= 50     # 50 per domain, > 100 in total
