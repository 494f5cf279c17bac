"""Control means, control measures, clamping, KKT checks."""

import numpy as np
import pytest

from c0ip_control import (build_dofmap, build_edge_cache, clamp,
                          control_coupling, interpolate, make_unit_square,
                          vi_residual)
from c0ip_control import controls
from c0ip_control.assembly import element_geometry, eval_on_elements
from c0ip_control.controls import ControlField
from c0ip_control.fem import quadrature
from c0ip_control.mesh import Mesh
from test_assembly import unconstrained


def discrete_parts(mesh):
    """Dofmap, element geometry and edge cache of ``mesh``."""
    dm = build_dofmap(mesh)
    geom = element_geometry(mesh)
    return dm, geom, build_edge_cache(mesh, dm, geom)


def entity_means(mesh, v, kind):
    """Pi_h(B_h v) as B^T v / measures, from ``control_coupling`` over all
    dofs."""
    dm, geom, cache = discrete_parts(mesh)
    coupling, measures = control_coupling(unconstrained(dm), geom, cache,
                                          kind)
    return coupling.T @ v / measures


class TestClamp:
    def test_below_lower(self):
        assert clamp(-1.0 / 1e-3, -750.0, -50.0) == -750.0

    def test_above_upper(self):
        assert clamp(-1e-4 / 1e-3, -750.0, -50.0) == -50.0

    def test_interior(self):
        assert clamp(-0.2 / 1e-3, -750.0, -50.0) == -200.0

    def test_infinite_bounds(self):
        vals = clamp(np.array([-1e9, 0.0, 1e9]), -np.inf, np.inf)
        assert np.array_equal(vals, [-1e9, 0.0, 1e9])


class TestProjection:
    def test_constant_reproduced(self):
        mesh = make_unit_square(2)
        dm = build_dofmap(mesh)
        v = interpolate(mesh, dm, lambda x, y: 3.5 + 0.0 * x)
        means = entity_means(mesh, v, "distributed")
        assert np.allclose(means, 3.5, atol=1e-13)

    def test_linear_mean_on_reference_triangle(self):
        mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 1, 2]]))
        dm = build_dofmap(mesh)
        v = interpolate(mesh, dm, lambda x, y: x)
        means = entity_means(mesh, v, "distributed")
        assert np.allclose(means, 1.0 / 3.0)

    def test_orthogonality(self):
        # <v - Pi_h v, p> = 0 for every piecewise-constant p
        mesh = make_unit_square(3)
        dm, geom, _ = discrete_parts(mesh)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(dm.ndof)
        means = entity_means(mesh, v, "distributed")
        rule = quadrature("triangle", 2)
        vals = eval_on_elements(dm, v, rule)
        defect = np.einsum("q,tq->t", rule.weights,
                           vals - means[:, None]) * geom.det
        assert np.max(np.abs(defect)) < 1e-12

    def test_boundary_trace_projection(self):
        # v = x^2 has dv/dn = 2 on x = 1 and 0 elsewhere
        mesh = make_unit_square(2)
        dm = build_dofmap(mesh)
        v = interpolate(mesh, dm, lambda x, y: x * x)
        means = entity_means(mesh, v, "boundary")
        mids = 0.5 * (mesh.vertices[mesh.edges[mesh.boundary_edges, 0]]
                      + mesh.vertices[mesh.edges[mesh.boundary_edges, 1]])
        on_right = np.isclose(mids[:, 0], 1.0)
        assert np.allclose(means[on_right], 2.0)
        assert np.allclose(means[~on_right], 0.0, atol=1e-13)


class TestControlMeasures:
    """The entity measures that ``control_coupling`` returns."""

    def test_distributed_measures(self):
        mesh = make_unit_square(3)
        _, measures = control_coupling(*discrete_parts(mesh), "distributed")
        assert np.allclose(measures, mesh.signed_areas())

    def test_boundary_measures(self):
        mesh = make_unit_square(2)
        _, measures = control_coupling(*discrete_parts(mesh), "boundary")
        assert len(measures) == len(mesh.boundary_edges)
        assert abs(measures.sum() - 4.0) < 1e-14


class TestViResidual:
    def _optimal_pair(self):
        """A control that exactly satisfies the clamp relation."""
        mesh = make_unit_square(2)
        dm, geom, _ = discrete_parts(mesh)
        rng = np.random.default_rng(9)
        phi = rng.standard_normal(dm.ndof)
        means = entity_means(mesh, phi, "distributed")
        alpha, lo, hi = 1e-3, -1.0, 1.0
        q = ControlField(clamp(-means / alpha, lo, hi), lo, hi, geom.area)
        return q, means, alpha

    def test_clamped_control_satisfies_kkt(self, monkeypatch):
        monkeypatch.setattr(controls, "VI_TOL", 1e-12)
        q, means, alpha = self._optimal_pair()
        report = vi_residual(q, means, alpha)
        assert report.satisfied
        if report.vi_lower is not None:
            assert report.vi_lower >= -1e-10
        if report.vi_upper is not None:
            assert report.vi_upper >= -1e-10

    def test_constructed_violation_flagged(self):
        q, means, alpha = self._optimal_pair()
        bad_values = np.full_like(q.values, q.upper)
        bad = ControlField(bad_values, q.lower, q.upper, q.measures)
        report = vi_residual(bad, means, alpha)
        # at least one entity has a raw value that should sit elsewhere
        assert not report.satisfied

    def test_inadmissible_rejected(self):
        q, means, alpha = self._optimal_pair()
        worse = ControlField(q.values + 10.0, q.lower, q.upper, q.measures)
        with pytest.raises(ValueError):
            vi_residual(worse, means, alpha)
