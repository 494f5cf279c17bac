"""Every benchmark study still reproduces its frozen reference CSV.

Runs the studies of ``bench/workloads.json`` on both initial-mesh diagonals
through ``c0ip_control.cli.main`` and compares each CSV with
``bench/reference/<workload>-<diagonal>.csv`` through ``bench/check.py``, at
the relative tolerance of ``bench/workloads.json``. A change that moves the
last bits of an operator can flip a Doerfler marking and with it a whole
adaptive history; this test sees that without running the benchmark. It
reads the files under ``bench/`` and writes only to a temporary directory.
"""

import json
import sys
from pathlib import Path

import pytest

from c0ip_control import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

with open(BENCH / "workloads.json") as _fh:
    CONFIG = json.load(_fh)


@pytest.fixture(scope="module")
def compare():
    sys.path.insert(0, str(BENCH))
    try:
        from check import compare
    finally:
        sys.path.remove(str(BENCH))
    return compare


@pytest.mark.parametrize("diagonal", ["ne", "nw"])
@pytest.mark.parametrize("workload", sorted(CONFIG["workloads"]))
def test_study_matches_frozen_reference(tmp_path, compare, workload,
                                        diagonal):
    spec = CONFIG["workloads"][workload]
    argv = spec["argv"] + ["--diagonal", diagonal, "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    reference = BENCH / "reference" / ("%s-%s.csv" % (workload, diagonal))
    result = compare(reference, tmp_path / spec["csv"], spec["keys"],
                     CONFIG["rtol"])
    assert result.levels > 0
    assert result.failed == 0, result.messages
