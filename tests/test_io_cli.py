"""File export and the benchmark command line."""

import os
import subprocess
import sys

import numpy as np
import pytest

import c0ip_control
from c0ip_control import (Mesh, clamp, example1_spec, make_lshape,
                          make_unit_square)
from c0ip_control import cli, solver
from c0ip_control.assembly import element_geometry
from c0ip_control.cli import (RunConfig, main, run_boundary_demo,
                              run_example1, run_example2, run_vd_compare,
                              _uniform_square_meshes)
from c0ip_control.fem import quadrature
from c0ip_control.io import write_csv, write_mesh_txt, write_vtk


class TestMeshFiles:
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

    def test_example2_small_run(self, tmp_path):
        config = RunConfig(max_dofs=300, out=str(tmp_path))
        history = run_example2(config, initial_subdivision=1, max_levels=8)
        assert (tmp_path / "example2.csv").exists()
        assert (tmp_path / "example2_final.node").exists()
        vtks = list(tmp_path.glob("example2_level*.vtk"))
        assert vtks

    def test_boundary_demo(self, tmp_path):
        config = RunConfig(out=str(tmp_path))
        sol, kkt, report = run_boundary_demo(config, subdivision=4)
        assert sol.state_residual <= 1e-10
        assert sol.adjoint_residual <= 1e-10
        assert kkt.satisfied
        assert report.eta_total > 0.0
        assert (tmp_path / "boundary_demo.csv").exists()


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
                                        "err_phi_full,err_phi_vd,q_distance")

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
            phiv = solver.evaluate_p2(vd.phi, x, y)
            q_vd = clamp(-phiv / spec.alpha, spec.lower, spec.upper)
            assert np.max(np.abs(vd.q.values - q_vd.ravel())) <= 1e-12 * \
                np.max(np.abs(q_vd))
            diff = q_vd - sol.q.values[:, None]
            qdist = np.sqrt(np.einsum("q,tq->", rule.weights,
                                      diff ** 2 * geom.det[:, None]))
            assert row[0] == h
            assert abs(row[-1] - qdist) <= 1e-12 * qdist

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
