"""Residual error estimator terms and the efficiency index."""

import dataclasses

import numpy as np
import pytest

from c0ip_control import (error_norms, estimate, example1_spec, interpolate,
                          make_unit_square)
from c0ip_control.assembly import (broken_hessians, element_geometry,
                                   eval_on_elements)
from c0ip_control.estimator import _control_consistency
from c0ip_control.fem import quadrature
from c0ip_control.solver import discretize, solve_pdas


@pytest.fixture(scope="module")
def solved_instance():
    spec = example1_spec()
    mesh = make_unit_square(8)
    ws = discretize(spec, mesh)
    sol = solve_pdas(ws)
    return spec, ws, sol


class TestReportStructure:
    def test_all_contributions_nonnegative(self, solved_instance):
        spec, ws, sol = solved_instance
        report = estimate(ws, sol)
        for arr in (report.volume_u, report.volume_phi, report.hess_jump_u,
                    report.grad_jump_u, report.hess_jump_phi,
                    report.grad_jump_phi, report.boundary_u,
                    report.boundary_phi, report.marking):
            assert np.all(np.asarray(arr) >= 0.0)
        assert report.control_term >= 0.0

    def test_totals_are_root_sum_of_parts(self, solved_instance):
        spec, ws, sol = solved_instance
        report = estimate(ws, sol)
        eta_u_sq = (report.volume_u.sum() + report.hess_jump_u.sum()
                    + report.grad_jump_u.sum() + report.boundary_u.sum())
        assert abs(report.eta_u ** 2 - eta_u_sq) < 1e-12 * max(eta_u_sq, 1.0)
        total_sq = (report.eta_u ** 2 + report.eta_phi ** 2
                    + report.control_term ** 2)
        assert abs(report.eta_total ** 2 - total_sq) \
            < 1e-12 * max(total_sq, 1.0)

    def test_marking_covers_all_triangles(self, solved_instance):
        spec, ws, sol = solved_instance
        report = estimate(ws, sol)
        assert len(report.marking) == ws.mesh.num_triangles
        # aggregates contain the volume terms plus half of each edge term
        total_edges = (report.hess_jump_u.sum() + report.grad_jump_u.sum()
                       + report.hess_jump_phi.sum()
                       + report.grad_jump_phi.sum())
        expected = (report.volume_u.sum() + report.volume_phi.sum()
                    + total_edges + report.boundary_u.sum()
                    + report.boundary_phi.sum())
        assert abs(report.marking.sum() - expected) \
            < 1e-12 * max(expected, 1.0)


class TestEdgeJumpOracle:
    def test_hessian_jump_matches_elementwise_hessians(self, solved_instance):
        # h_e^2 (n^T (H1 - H2) n)^2 recomputed from the broken Hessians
        spec, ws, sol = solved_instance
        report = estimate(ws, sol)
        mesh, cache = ws.mesh, ws.cache
        geom = element_geometry(mesh)
        hess = broken_hessians(geom, ws.dofmap, sol.u.coeffs)
        diff = hess[cache.tri1] - hess[cache.tri2]
        njump = np.einsum("ea,eab,eb->e", cache.normal, diff, cache.normal)
        expected = cache.length ** 2 * njump ** 2
        assert np.allclose(report.hess_jump_u, expected,
                           rtol=1e-12, atol=1e-12)


class TestControlTerm:
    def test_algebraic_identity_with_and_without_control(self,
                                                         solved_instance):
        # the piecewise-constant control drops out of the projection defect,
        # so the fluctuation of phi_h + alpha*q_h equals that of phi_h alone
        spec, ws, sol = solved_instance
        implemented = _control_consistency(ws, sol)

        geom = element_geometry(ws.mesh)
        rule = quadrature("triangle", 4)
        phivals = eval_on_elements(ws.dofmap, sol.phi.coeffs, rule)
        combined = phivals + spec.alpha * sol.q.values[:, None]
        integral = np.einsum("q,tq->t", rule.weights, combined) * geom.det
        mean = integral / geom.area
        defect = np.einsum("q,tq->t", rule.weights,
                           (combined - mean[:, None]) ** 2) * geom.det
        direct = float(np.sqrt(max(defect.sum(), 0.0)))
        assert abs(implemented - direct) < 1e-12 * max(direct, 1.0)


class TestConstructedZeroResidual:
    def test_quadratic_state_with_matching_source(self):
        # a C^1 quadratic state with f = -q on every element kills the
        # volume and gradient-jump components of the state estimator
        spec = example1_spec()
        mesh = make_unit_square(2)
        ws = discretize(spec, mesh)
        sol = solve_pdas(ws)

        quad = interpolate(mesh, ws.dofmap, lambda x, y: x * x + y * y)
        sol.u.coeffs[:] = quad.coeffs
        c = -4.0
        sol.q.values[:] = c
        spec2 = example1_spec()
        spec2.f = lambda x, y: -c + 0.0 * x
        report = estimate(dataclasses.replace(ws, spec=spec2), sol)
        assert np.max(report.volume_u) < 1e-20
        assert np.max(report.grad_jump_u) < 1e-20
        assert np.max(report.hess_jump_u) < 1e-20


class TestEfficiencyIndex:
    def test_index_is_order_one(self, solved_instance):
        spec, ws, sol = solved_instance
        case = spec.exact
        report = estimate(ws, sol)
        eu, _ = error_norms(sol.u, case.u, case.u_hess, ws.geom, ws.cache,
                            spec.eta)
        ephi, _ = error_norms(sol.phi, case.phi, case.phi_hess, ws.geom,
                              ws.cache, spec.eta)
        eq = case.control_error(ws.geom, sol.q)
        index = report.eta_total / (eu + ephi + eq)
        assert 1.0 < index < 50.0
