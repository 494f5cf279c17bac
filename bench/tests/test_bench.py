"""Tests of the benchmark's own parts: span arithmetic, the output checker,
and that tracing leaves the program's outputs unchanged.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import csv
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from check import compare  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402


# --- span arithmetic -------------------------------------------------------

# cli.main [0, 10] -> solver.solve_pdas [1, 6] -> solver.splu [2, 5]
#                  -> mesh.bisect [7, 9] -> mesh.bisect [7.5, 8.5]
SPANS = [
    ["cli.main", 0.0, 10.0, -1],
    ["solver.solve_pdas", 1.0, 6.0, 0],
    ["solver.splu", 2.0, 5.0, 1],
    ["mesh.bisect", 7.0, 9.0, 0],
    ["mesh.bisect", 7.5, 8.5, 3],
]


def test_self_time_is_duration_minus_children():
    assert self_times(SPANS) == pytest.approx([3.0, 2.0, 3.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["a.x", 0.0, 10.0, -1], ["a.y", 1.0, 4.0, 0],
             ["a.z", 3.0, 6.0, 0]]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_layer_metrics_sum_and_attribution():
    trace = {"spans": SPANS, "wrapped": ["cli.main", "solver.solve_pdas",
                                         "solver.splu", "mesh.bisect",
                                         "estimator.estimate"],
             "counters": {"mesh.bisections": 6, "mesh.marked": 4}}
    m = layer_metrics(trace)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["solver.self_s"] == pytest.approx(5.0)
    assert m["mesh.self_s"] == pytest.approx(2.0)
    assert m["trace.self_sum_s"] == pytest.approx(10.0)
    # the nested bisect lies inside the outer one and is not counted twice
    assert m["mesh.bisect_s"] == pytest.approx(2.0)
    assert m["mesh.bisect_calls"] == 2
    assert m["mesh.closure_ratio"] == pytest.approx(1.5)
    # wrapped but never called: zero; never wrapped: absent
    assert m["estimator.estimate_s"] == 0.0
    assert "solver.evaluate_p2_s" not in m
    assert "adaptive.levels" not in m


# --- output checker --------------------------------------------------------

HEADER = ["level", "N", "eta_total", "err_u", "pdas_iters"]
ROWS = [["0", "25", "1.000000e+00", "", "1"],
        ["1", "61", "7.500000e-01", "", "1"],
        ["2", "133", "5.000000e-01", "", "2"]]


def _write(path, header, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    return path


def _check(tmp_path, header, rows):
    ref = _write(tmp_path / "ref.csv", HEADER, ROWS)
    out = _write(tmp_path / "out.csv", header, rows)
    return compare(ref, out, keys=["level", "N"], rtol=1e-5)


def test_checker_accepts_reordered_columns_and_extra_seconds(tmp_path):
    header = ["N", "level", "eta_total", "err_u", "pdas_iters", "seconds"]
    rows = [[r[1], r[0], r[2], r[3], r[4], "0.123"] for r in ROWS]
    rows[1][2] = "7.500001e-01"         # within the relative tolerance
    result = _check(tmp_path, header, rows)
    assert (result.levels, result.failed) == (3, 0)


def test_checker_flags_perturbed_value(tmp_path):
    rows = [list(r) for r in ROWS]
    rows[2][2] = "5.001000e-01"
    result = _check(tmp_path, HEADER, rows)
    assert (result.levels, result.failed) == (3, 1)
    assert "eta_total" in result.messages[0]


def test_checker_requires_exact_keys(tmp_path):
    rows = [list(r) for r in ROWS]
    rows[1][1] = "62"
    assert _check(tmp_path, HEADER, rows).failed == 1


def test_checker_flags_missing_and_extra_levels(tmp_path):
    assert _check(tmp_path, HEADER, ROWS[:2]).failed == 1
    extra = ROWS + [["3", "301", "2.500000e-01", "", "1"]]
    result = _check(tmp_path, HEADER, extra)
    assert (result.levels, result.failed) == (4, 1)


def test_checker_fails_every_level_on_missing_column(tmp_path):
    rows = [r[:-1] for r in ROWS]
    assert _check(tmp_path, HEADER[:-1], rows).failed == 3


# --- tracing leaves outputs unchanged ---------------------------------------

STUDIES = [
    (["--mode", "uniform", "--levels", "2"], "example1.csv"),
    (["--mode", "adaptive", "--domain", "lshape", "--max-dofs", "300"],
     "example2.csv"),
    (["--mode", "vd-compare", "--levels", "2"], "vd_compare.csv"),
]


def _without_seconds(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if "seconds" in rows[0]:
        drop = rows[0].index("seconds")
        rows = [r[:drop] + r[drop + 1:] for r in rows]
    return rows


@pytest.mark.parametrize("argv, csv_name", STUDIES)
def test_traced_run_writes_same_csv(tmp_path, argv, csv_name):
    from c0ip_control import cli
    original_main = cli.main
    assert cli.main(argv + ["--out", str(tmp_path / "plain")]) == 0
    with Tracer() as tracer:
        assert cli.main(argv + ["--out", str(tmp_path / "traced")]) == 0
    assert cli.main is original_main
    assert _without_seconds(tmp_path / "plain" / csv_name) == \
        _without_seconds(tmp_path / "traced" / csv_name)
    m = layer_metrics(tracer.dump())
    root = tracer.spans[0]
    assert root[0] == "cli.main" and root[3] == -1
    assert m["trace.self_sum_s"] == pytest.approx(root[2] - root[1])
    assert m["solver.factorizations"] >= 1
    if csv_name == "example2.csv":
        assert m["estimator.estimate_calls"] == m["adaptive.levels"] > 1
