"""Freeze the reference CSVs the checker compares against.

    python3 bench/freeze.py [WORKLOAD ...]

Runs each workload's study once per initial-mesh diagonal, untraced, with
the program in the checkout's ``src``, and writes its CSV without the
wall-clock ``seconds`` column to ``bench/reference/<workload>-<diagonal>.csv``.
Freeze only from a commit whose outputs are known to be right.
"""

import csv
import shutil
import sys
import tempfile
from pathlib import Path

from check import read_table
from run import BENCH, load_config, reference_path, run_child

WALL_CLOCK_COLUMNS = {"seconds"}


def main(names):
    config = load_config()
    for workload in names or sorted(config["workloads"]):
        spec = config["workloads"][workload]
        for diagonal in ("ne", "nw"):
            work = Path(tempfile.mkdtemp(prefix="freeze-", dir=BENCH.parent))
            try:
                out = work / "out"
                sample = run_child(work, "study", spec["argv"] + [
                    "--diagonal", diagonal, "--out", str(out)])
                if sample.get("failed") or sample["exit_code"] != 0:
                    raise SystemExit("%s %s failed:\n%s" % (
                        workload, diagonal,
                        (work / "study.log").read_text()))
                header, rows = read_table(out / spec["csv"])
                keep = [i for i, c in enumerate(header)
                        if c not in WALL_CLOCK_COLUMNS]
                target = reference_path(workload, diagonal)
                target.parent.mkdir(exist_ok=True)
                with open(target, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    for row in [header] + rows:
                        writer.writerow([row[i] for i in keep])
                print("%s: %d levels" % (target, len(rows)))
            finally:
                shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
