"""Adaptive solve-estimate-mark-refine loop."""

import importlib
import pkgutil

import numpy as np
import pytest

import c0ip_control
from c0ip_control import (bisect, dorfler_mark, estimate, example2_spec,
                          make_lshape, make_unit_square, run_adaptive)
from c0ip_control import assembly
from c0ip_control.adaptive import AdaptiveHistory
from c0ip_control.solver import ProblemSpec, discretize, solve_pdas


class TestValidation:
    def test_theta_range(self):
        spec = example2_spec()
        with pytest.raises(ValueError):
            run_adaptive(spec, make_lshape(1), theta=0.0)
        with pytest.raises(ValueError):
            run_adaptive(spec, make_lshape(1), theta=1.5)

    def test_stop_criterion_positive(self):
        spec = example2_spec()
        with pytest.raises(ValueError):
            run_adaptive(spec, make_lshape(1), max_dofs=0)


class TestLoop:
    def test_history_grows_and_refines(self):
        spec = example2_spec()
        history = run_adaptive(spec, make_lshape(1), theta=0.3, max_levels=5)
        assert len(history.records) == 5
        dofs = [r.ndof for r in history.records]
        assert all(b > a for a, b in zip(dofs, dofs[1:]))
        tris = [r.ntriangles for r in history.records]
        assert all(b > a for a, b in zip(tris, tris[1:]))

    def test_min_angle_preserved(self):
        spec = example2_spec()
        history = run_adaptive(spec, make_lshape(1), theta=0.3, max_levels=6)
        angles = [r.min_angle for r in history.records]
        assert min(angles) >= np.pi / 4.0 - 1e-12

    def test_max_dofs_stop(self):
        spec = example2_spec()
        history = run_adaptive(spec, make_lshape(1), theta=0.5,
                               max_dofs=400, max_levels=50)
        assert history.records[-1].ndof >= 400
        assert history.records[-2].ndof < 400

    def test_theta_one_marks_everything(self):
        spec = example2_spec()
        mesh = make_lshape(1)
        ws = discretize(spec, mesh)
        sol = solve_pdas(ws)
        report = estimate(ws, sol)
        marked = dorfler_mark(report.marking, 1.0)
        positive = np.flatnonzero(report.marking > 0.0)
        assert np.array_equal(marked, positive)

    def test_marking_ignores_round_off_in_the_indicators(self):
        # mirror-image triangles of the L-shape get indicators that agree
        # only to round-off; a relative change of 1e-14 in every indicator
        # leaves the marked set of every level as it is
        spec = example2_spec()
        mesh = make_lshape(2)
        for level in range(14):
            ws = discretize(spec, mesh)
            indicators = estimate(ws, solve_pdas(ws)).marking
            marked = dorfler_mark(indicators, 0.3)
            for seed in range(4):
                noise = np.random.default_rng([level, seed]).standard_normal(
                    len(indicators))
                assert np.array_equal(
                    dorfler_mark(indicators * (1.0 + 1e-14 * noise), 0.3),
                    marked)
            mesh = bisect(mesh, marked)

    def test_exact_solution_stops_after_recording_its_level(self):
        # zero data inside the bounds: u = phi = q = 0 is the discrete
        # solution, every indicator is 0 and there is nothing to mark
        def zero(x, y):
            return np.zeros_like(x)

        spec = ProblemSpec("distributed", zero, zero, lower=-1.0, upper=1.0)
        history = run_adaptive(spec, make_unit_square(2))
        assert len(history.records) == len(history.meshes) == 1
        assert history.records[0].eta_total == 0.0
        assert history.records[0].ntriangles == 8

    def test_exact_errors_recorded_when_available(self):
        from c0ip_control import example1_spec
        spec = example1_spec()
        history = run_adaptive(spec, make_unit_square(2), theta=0.5,
                               max_levels=3)
        for r in history.records:
            assert r.err_u is not None and r.err_u > 0.0
            assert r.err_q is not None and r.err_q > 0.0


class TestDeterminism:
    def test_identical_runs_identical_csv(self, tmp_path):
        # the history CSV holds no wall-clock data, so two runs write the
        # same bytes
        assert "seconds" not in AdaptiveHistory.CSV_COLUMNS
        spec = example2_spec()
        paths = []
        for tag in ("a", "b"):
            history = run_adaptive(spec, make_lshape(1), theta=0.3,
                                   max_levels=4)
            path = tmp_path / ("history_%s.csv" % tag)
            history.to_csv(str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestHistorySerialization:
    def test_empty_history_header_only(self, tmp_path):
        history = AdaptiveHistory()
        path = tmp_path / "empty.csv"
        history.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].split(",") == AdaptiveHistory.CSV_COLUMNS


class TestGeometryReuse:
    def test_one_element_geometry_per_level(self, monkeypatch):
        # count calls through every binding of the function in the package
        calls = []
        original = assembly.element_geometry

        def counting(mesh):
            calls.append(mesh.num_triangles)
            return original(mesh)

        modules = [c0ip_control] + [
            importlib.import_module("c0ip_control." + info.name)
            for info in pkgutil.iter_modules(c0ip_control.__path__)]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
        history = run_adaptive(example2_spec(), make_lshape(2), theta=0.3,
                               max_dofs=500)
        assert len(history.records) > 3
        assert calls == [m.num_triangles for m in history.meshes]
