"""File export and the benchmark command line."""

import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import c0ip_control
from c0ip_control import (Mesh, bisect, clamp, example1_spec, example2_spec,
                          make_lshape, make_unit_square)
from c0ip_control import adaptive, cli, solver
from c0ip_control.assembly import element_geometry
from c0ip_control.cli import (RunConfig, main, run_adaptive_study,
                              run_boundary_demo, run_example1,
                              run_vd_compare, _uniform_square_meshes)
from c0ip_control.fem import quadrature
from c0ip_control.io import write_csv, write_mesh_txt, write_vtk


def write_mesh_txt_lines(mesh, node_path, element_path):
    """The line-by-line mesh writer, the oracle of ``write_mesh_txt``."""
    with open(node_path, "w") as fh:
        for x, y in mesh.vertices:
            fh.write("%.16g %.16g\n" % (x, y))
    with open(element_path, "w") as fh:
        for i, j, k in mesh.triangles:
            fh.write("%d %d %d\n" % (i, j, k))


def write_vtk_lines(mesh, path, point_data=None, cell_data=None):
    """The line-by-line VTK writer, the oracle of ``write_vtk``."""
    nv, nt = mesh.num_vertices, mesh.num_triangles
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write("plate control output\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write("POINTS %d double\n" % nv)
        for x, y in mesh.vertices:
            fh.write("%.12g %.12g 0\n" % (x, y))
        fh.write("CELLS %d %d\n" % (nt, 4 * nt))
        for i, j, k in mesh.triangles:
            fh.write("3 %d %d %d\n" % (i, j, k))
        fh.write("CELL_TYPES %d\n" % nt)
        fh.write("5\n" * nt)
        if point_data:
            fh.write("POINT_DATA %d\n" % nv)
            for name, values in point_data.items():
                fh.write("SCALARS %s double 1\n" % name)
                fh.write("LOOKUP_TABLE default\n")
                for v in np.asarray(values)[:nv]:
                    fh.write("%.12g\n" % v)
        if cell_data:
            fh.write("CELL_DATA %d\n" % nt)
            for name, values in cell_data.items():
                fh.write("SCALARS %s double 1\n" % name)
                fh.write("LOOKUP_TABLE default\n")
                for v in np.asarray(values):
                    fh.write("%.12g\n" % v)


class TestMeshFiles:
    @pytest.mark.parametrize("diagonal", ["ne", "nw"])
    def test_files_match_line_writers(self, tmp_path, diagonal):
        # one formatted block per section gives the bytes of one write per
        # line, for the fields of an adaptive level: P2 vertex values
        # (longer than the vertex count), cell values and level numbers
        mesh = bisect(make_lshape(2, diagonal), [0, 3, 7])
        mesh = bisect(mesh, np.arange(0, mesh.num_triangles, 5))
        rng = np.random.default_rng(3)
        u = rng.standard_normal(mesh.num_vertices + mesh.num_edges)
        u[:4] = [0.0, -0.0, 1e-300, -123456789.123456789]
        point_data = {"u_h": u, "phi_h": 1e-7 * u}
        cell_data = {"q_h": rng.uniform(-750.0, -50.0, mesh.num_triangles),
                     "level": mesh.level}
        for name, writer in (("block", write_vtk), ("lines", write_vtk_lines)):
            writer(mesh, str(tmp_path / (name + ".vtk")), point_data,
                   cell_data)
        assert (tmp_path / "block.vtk").read_bytes() == \
            (tmp_path / "lines.vtk").read_bytes()
        for name, writer in (("block", write_mesh_txt),
                             ("lines", write_mesh_txt_lines)):
            writer(mesh, str(tmp_path / (name + ".node")),
                   str(tmp_path / (name + ".ele")))
        for ext in (".node", ".ele"):
            assert (tmp_path / ("block" + ext)).read_bytes() == \
                (tmp_path / ("lines" + ext)).read_bytes()

    def test_round_trip(self, tmp_path):
        mesh = make_lshape(2)
        node, ele = str(tmp_path / "m.node"), str(tmp_path / "m.ele")
        write_mesh_txt(mesh, node, ele)
        back = Mesh(np.loadtxt(node, ndmin=2),
                    np.loadtxt(ele, dtype=int, ndmin=2))
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert back.num_edges == mesh.num_edges

    def test_vtk_structure(self, tmp_path):
        mesh = make_unit_square(2)
        path = tmp_path / "m.vtk"
        write_vtk(mesh, str(path),
                  point_data={"u": np.arange(mesh.num_vertices, dtype=float)},
                  cell_data={"q": np.ones(mesh.num_triangles)})
        text = path.read_text()
        assert text.startswith("# vtk DataFile Version 2.0")
        assert "POINTS %d double" % mesh.num_vertices in text
        assert "CELLS %d %d" % (mesh.num_triangles,
                                4 * mesh.num_triangles) in text
        assert "POINT_DATA %d" % mesh.num_vertices in text
        assert "CELL_DATA %d" % mesh.num_triangles in text
        assert text.count("5\n") >= mesh.num_triangles

    def test_csv_formatting(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ["a", "b"], [(1.0 / 3.0, None), (2.5, "x")])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1].startswith("3.333333e-01")
        assert lines[1].endswith(",")
        assert lines[2] == "2.500000e+00,x"


class TestUniformMeshFamily:
    def test_counts_follow_uniform_bisection(self):
        config = RunConfig(levels=3)
        seq = list(_uniform_square_meshes(config))
        hs = [h for h, _ in seq]
        assert hs == [0.25, 0.125, 0.0625]
        for h, mesh in seq:
            n = round(1.0 / h)
            assert mesh.num_triangles == 2 * n * n
            assert mesh.num_vertices == (n + 1) ** 2
            assert abs(mesh.signed_areas().sum() - 1.0) < 1e-12
            assert abs(mesh.min_angle() - np.pi / 4.0) < 1e-12

    def test_refines_no_further_than_the_last_level(self, monkeypatch):
        # four bisect-all passes reach h = 1/4 and each later level takes
        # two; nothing is refined after the last level is yielded
        calls = []
        original = cli.bisect

        def counting_bisect(mesh, marked):
            calls.append(mesh.num_triangles)
            return original(mesh, marked)

        monkeypatch.setattr(cli, "bisect", counting_bisect)
        seq = list(_uniform_square_meshes(RunConfig(levels=3)))
        assert len(calls) == 4 + 2 * 2
        assert max(calls) < seq[-1][1].num_triangles


class TestDrivers:
    def test_example1_rows_and_csv(self, tmp_path):
        config = RunConfig(levels=2, out=str(tmp_path))
        rows = run_example1(config)
        assert len(rows) == 2
        assert rows[0][1] > rows[1][1] > 0.0       # energy error decreases
        header = (tmp_path / "example1.csv").read_text().splitlines()[0]
        assert header == ("h,err_u,order_u,err_phi,order_phi,"
                          "err_q,order_q")

    @pytest.mark.parametrize("domain", ["lshape", "square"])
    def test_example2_small_run(self, tmp_path, domain):
        prefix = {"lshape": "example2", "square": "adaptive_square"}[domain]
        config = RunConfig(domain=domain, mode="adaptive", max_dofs=300,
                           out=str(tmp_path))
        run_adaptive_study(config)
        assert (tmp_path / (prefix + ".csv")).exists()
        assert (tmp_path / (prefix + "_final.node")).exists()
        vtks = list(tmp_path.glob(prefix + "_level*.vtk"))
        assert vtks

    def test_unknown_domain_rejected(self, tmp_path):
        config = RunConfig(domain="L-shape", mode="adaptive", max_dofs=300,
                           out=str(tmp_path))
        with pytest.raises(ValueError, match="L-shape"):
            run_adaptive_study(config)
        assert not list(tmp_path.iterdir())

    def test_boundary_demo(self, tmp_path):
        config = RunConfig(out=str(tmp_path))
        sol, kkt, report = run_boundary_demo(config)
        assert sol.state_residual <= 1e-10
        assert sol.adjoint_residual <= 1e-10
        assert kkt.satisfied
        assert report.eta_total > 0.0
        assert (tmp_path / "boundary_demo.csv").exists()


class TestOneLevelAlive:
    """Each study frees a level's discretization before it builds the next
    one, and the uniform studies build the finest level first."""

    @pytest.fixture
    def levels(self, monkeypatch):
        # the triangle count of every discretized mesh, in call order; each
        # call asserts that no earlier discretization is still alive
        calls, alive = [], []
        original = solver.discretize

        def tracking(spec, mesh):
            assert all(ref() is None for ref in alive)
            ws = original(spec, mesh)
            alive.append(weakref.ref(ws))
            calls.append(mesh.num_triangles)
            return ws

        monkeypatch.setattr(adaptive, "discretize", tracking)
        monkeypatch.setattr(cli, "discretize", tracking)
        return calls

    def test_adaptive(self, levels):
        history = adaptive.run_adaptive(example2_spec(), make_lshape(2),
                                        theta=0.3, max_dofs=500)
        assert len(history.records) > 3
        assert levels == [m.num_triangles for m in history.meshes]

    @pytest.mark.parametrize("study", [run_example1, run_vd_compare])
    def test_uniform_finest_first(self, tmp_path, levels, study):
        config = RunConfig(levels=3, out=str(tmp_path))
        rows = study(config)
        meshes = list(_uniform_square_meshes(config))
        assert levels == [m.num_triangles for _, m in reversed(meshes)]
        assert [row[0] for row in rows] == [0.25, 0.125, 0.0625]


class TestCommandLine:
    def test_uniform_mode_exit_zero(self, tmp_path):
        rc = main(["--mode", "uniform", "--levels", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "example1.csv").exists()

    def test_uniform_mode_rejects_lshape(self, tmp_path, capsys):
        rc = main(["--mode", "uniform", "--domain", "lshape",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_vd_compare_rejects_lshape(self, tmp_path, capsys):
        rc = main(["--mode", "vd-compare", "--domain", "lshape",
                   "--levels", "1", "--out", str(tmp_path)])
        assert rc == 1
        assert "--domain lshape" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_boundary_problem_rejects_lshape(self, tmp_path, capsys):
        rc = main(["--problem", "boundary", "--domain", "lshape",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "--domain lshape" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [
        ["--qmin", "nan"], ["--qmax", "nan"], ["--qmin=inf", "--qmax=-inf"],
        ["--alpha", "nan"], ["--alpha", "inf"]])
    def test_invalid_problem_data_rejected(self, tmp_path, capsys, flags):
        rc = main(["--mode", "uniform", "--levels", "2", *flags,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_invalid_penalty_rejected(self, tmp_path, eta):
        # in a fresh process, so that a crash in the sparse LU fails this
        # test instead of ending the test run
        src = os.path.dirname(os.path.dirname(c0ip_control.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "c0ip_control.cli", "--mode", "uniform",
             "--levels", "2", "--eta", eta, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "eta" in proc.stderr
        assert not list(tmp_path.iterdir())

    def test_zero_levels_rejected(self, tmp_path, capsys):
        rc = main(["--mode", "uniform", "--levels", "0",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "--levels" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_adaptive_square(self, tmp_path):
        rc = main(["--mode", "adaptive", "--domain", "square",
                   "--max-dofs", "200", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "adaptive_square.csv").exists()

    def test_adaptive_nan_estimator_exits_one(self, tmp_path, capsys,
                                              monkeypatch):
        original = adaptive.estimate

        def nan_estimate(ws, sol):
            report = original(ws, sol)
            report.marking[0] = np.nan
            return report

        monkeypatch.setattr(adaptive, "estimate", nan_estimate)
        rc = main(["--mode", "adaptive", "--max-dofs", "200",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err

    def test_adaptive_square_reaches_max_dofs(self, tmp_path):
        # the square's run stops at --max-dofs, not at a level cap below it:
        # 7 000 dofs take 26 levels
        rc = main(["--mode", "adaptive", "--domain", "square",
                   "--max-dofs", "7000", "--out", str(tmp_path)])
        assert rc == 0
        last = (tmp_path / "adaptive_square.csv").read_text().splitlines()[-1]
        assert int(last.split(",")[1]) >= 7000

    def test_adaptive_square_ignores_levels(self, tmp_path):
        # the square's adaptive run always starts from make_unit_square(4):
        # 49 free P2 dofs on its first level, whatever --levels is
        rows = []
        for levels in ("1", "7"):
            out = tmp_path / levels
            assert main(["--mode", "adaptive", "--domain", "square",
                         "--levels", levels, "--max-dofs", "200",
                         "--out", str(out)]) == 0
            rows.append((out / "adaptive_square.csv").read_text()
                        .splitlines())
        assert rows[0] == rows[1]
        assert rows[0][1].split(",")[1] == "49"
        assert "make_unit_square(4)" in cli._build_parser().format_help()

    def test_vd_compare(self, tmp_path):
        rc = main(["--mode", "vd-compare", "--levels", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "vd_compare.csv").read_text()
        assert text.splitlines()[0] == ("h,err_u_full,err_u_vd,"
                                        "err_phi_full,err_phi_vd,"
                                        "err_q_full,err_q_vd,q_distance")

    def test_vd_compare_locates_no_points(self, tmp_path, monkeypatch):
        def locate(*args, **kwargs):
            raise AssertionError("point location in vd-compare")

        monkeypatch.setattr(solver, "evaluate_p2", locate)
        rc = main(["--mode", "vd-compare", "--levels", "2",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_vd_compare_q_distance_matches_point_evaluation(self, tmp_path):
        config = RunConfig(mode="vd-compare", levels=2, out=str(tmp_path))
        rows = run_vd_compare(config)
        spec = example1_spec()
        rule = quadrature("triangle", 8)
        meshes = list(_uniform_square_meshes(config))
        assert len(rows) == len(meshes) == 2
        for row, (h, mesh) in zip(rows, meshes):
            ws = solver.discretize(spec, mesh)
            sol = solver.solve_pdas(ws)
            vd = solver.solve_variational(ws, sol)
            geom = element_geometry(mesh)
            x, y = geom.quad_points(rule)
            phiv = solver.evaluate_p2(geom, ws.dofmap, vd.phi, x, y)
            q_vd = clamp(-phiv / spec.alpha, spec.lower, spec.upper)
            assert np.max(np.abs(vd.q.values - q_vd.ravel())) <= 1e-12 * \
                np.max(np.abs(q_vd))
            diff = q_vd - sol.q.values[:, None]
            qdist = np.sqrt(np.einsum("q,tq->", rule.weights,
                                      diff ** 2 * geom.det[:, None]))
            assert row[0] == h
            assert abs(row[-1] - qdist) <= 1e-12 * qdist
            # the control errors of both, against q at the same points
            u = (np.sin(np.pi * x) * np.sin(np.pi * y)) ** 3
            q = clamp(-u / spec.alpha, spec.lower, spec.upper)
            for got, q_h in ((row[5], sol.q.values[:, None]), (row[6], q_vd)):
                want = np.sqrt(np.einsum("q,tq->", rule.weights,
                                         (q - q_h) ** 2 * geom.det[:, None]))
                assert abs(got - want) <= 1e-12 * want

    def test_boundary_problem_flag(self, tmp_path):
        rc = main(["--problem", "boundary", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "boundary_demo.csv").exists()


    def test_boundary_demo_mode_implies_boundary_problem(self, tmp_path):
        rc = main(["--mode", "boundary-demo", "--out", str(tmp_path)])
        assert rc == 0
        assert [p.name for p in tmp_path.iterdir()] == ["boundary_demo.csv"]

    def test_distributed_problem_rejects_boundary_demo(self, tmp_path,
                                                       capsys):
        rc = main(["--problem", "distributed", "--mode", "boundary-demo",
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--problem distributed" in err
        assert not list(tmp_path.iterdir())

    def test_boundary_problem_accepts_boundary_demo_mode(self, tmp_path):
        rc = main(["--problem", "boundary", "--mode", "boundary-demo",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "boundary_demo.csv").exists()

    @pytest.mark.parametrize("mode", ["uniform", "adaptive", "vd-compare"])
    def test_boundary_problem_rejects_other_modes(self, tmp_path, capsys,
                                                  mode):
        rc = main(["--problem", "boundary", "--mode", mode,
                   "--levels", "1", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--problem boundary" in err and mode in err
        assert not list(tmp_path.iterdir())


# the CSV that each accepted --problem/--mode/--domain combination writes;
# every other combination is rejected
ACCEPTED_STUDIES = {
    ("distributed", None, "square"): "example1.csv",
    ("distributed", "uniform", "square"): "example1.csv",
    ("distributed", "adaptive", "square"): "adaptive_square.csv",
    ("distributed", "adaptive", "lshape"): "example2.csv",
    ("distributed", "vd-compare", "square"): "vd_compare.csv",
    ("boundary", None, "square"): "boundary_demo.csv",
    ("boundary", "boundary-demo", "square"): "boundary_demo.csv",
}


class TestFlagCombinations:
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    @pytest.mark.parametrize("mode", [None, "uniform", "adaptive",
                                      "vd-compare", "boundary-demo"])
    @pytest.mark.parametrize("problem", ["distributed", "boundary"])
    def test_runs_the_named_study_or_fails(self, tmp_path, capsys, problem,
                                           mode, domain):
        argv = ["--problem", problem, "--domain", domain, "--levels", "1",
                "--max-dofs", "100", "--out", str(tmp_path)]
        if mode is not None:
            argv += ["--mode", mode]
        rc = main(argv)
        err = capsys.readouterr().err
        written = sorted(p.name for p in tmp_path.glob("*.csv"))
        expected = ACCEPTED_STUDIES.get((problem, mode, domain))
        if expected is None:
            assert rc == 1
            assert err.startswith("error:")
            assert written == []
        else:
            assert rc == 0
            assert err == ""
            assert written == [expected]


class TestDeterminism:
    def test_example1_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_example1(RunConfig(levels=2, out=str(out1)))
        run_example1(RunConfig(levels=2, out=str(out2)))
        assert (out1 / "example1.csv").read_bytes() == \
            (out2 / "example1.csv").read_bytes()

    @pytest.mark.parametrize("mode, name, other", [
        ("uniform", "example1.csv", "vd-compare"),
        ("vd-compare", "vd_compare.csv", "uniform")])
    def test_study_after_another_matches_a_fresh_process(self, tmp_path,
                                                         mode, name, other):
        # the sin/cos memo of ``cases`` is module state: a study run after
        # another one in the same process must carry nothing over
        args = ["--mode", mode, "--levels", "3"]
        src = os.path.dirname(os.path.dirname(c0ip_control.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "c0ip_control.cli", *args,
                        "--out", str(tmp_path / "fresh")], check=True,
                       env=env)
        assert main(["--mode", other, "--levels", "3",
                     "--out", str(tmp_path / "other")]) == 0
        assert main([*args, "--out", str(tmp_path / "after")]) == 0
        assert (tmp_path / "after" / name).read_bytes() == \
            (tmp_path / "fresh" / name).read_bytes()
