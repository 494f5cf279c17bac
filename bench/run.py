"""Benchmark of the plate-control studies, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is one plate-control study (see workloads.json). The studies have
no random input; the seed picks the initial-mesh diagonal (even: ``ne``,
odd: ``nw``), which changes every mesh, active set and adaptive path but not
the problem. The unit of measurement is one run of the study through
``c0ip_control.cli.main`` in a fresh process, one process at a time, with
one BLAS/OpenMP thread. Units run back to back as long as the next one, if
it takes as long as the last, ends within S seconds; the first always runs
(with ``--trace 1``, the first two). Every unit's CSV is checked against the
frozen reference for its diagonal. Set-up is sampled apart, by fresh
processes that only import the program.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json as medians over the units. With ``--trace 1`` untraced and
traced units alternate and the last line reports the per-layer metrics,
medians over the traced units. A record of the run (environment, every
sample, the check results) is written to
``.bench_runs/<workload>-seed<N>-trace<T>/record.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import compare, read_table
from tracer import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def load_config():
    with open(BENCH / "workloads.json") as fh:
        return json.load(fh)


def seed_diagonal(seed):
    return "ne" if seed % 2 == 0 else "nw"


def reference_path(workload, diagonal):
    return BENCH / "reference" / ("%s-%s.csv" % (workload, diagonal))


def child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(work, tag, argv=None, spans=None):
    """Run child.py in a fresh process; return its result dict, or a dict
    with ``failed`` set if it exited with an error or timed out."""
    result = work / ("%s.json" % tag)
    spec = {"result": str(result), "argv": argv,
            "spans": str(spans) if spans else None}
    with open(work / ("%s.log" % tag), "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=child_env(), stdout=log, stderr=log,
                timeout=CHILD_TIMEOUT_S)
            status = proc.returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
    if status != 0 or not result.is_file():
        return {"failed": True, "status": status}
    with open(result) as fh:
        return json.load(fh)


def run_unit(work, tag, workload, diagonal, config, traced):
    """One study in a fresh process, checked against its reference; a traced
    unit keeps its per-layer metrics under ``layers``."""
    spec = config["workloads"][workload]
    out = work / tag
    argv = spec["argv"] + ["--diagonal", diagonal, "--out", str(out)]
    spans = work / ("%s.spans.json" % tag) if traced else None
    unit = run_child(work, tag, argv, spans)
    unit["traced"] = traced
    reference = reference_path(workload, diagonal)
    csv_path = out / spec["csv"]
    if unit.get("failed") or unit["exit_code"] != 0 \
            or not csv_path.is_file():
        unit["failed"] = True
        levels = len(read_table(reference)[1])
        unit["check"] = {"levels": levels, "failed": levels,
                         "messages": ["%s: study failed" % tag]}
    else:
        check = compare(reference, csv_path, spec["keys"], config["rtol"])
        check.messages = ["%s: %s" % (tag, m) for m in check.messages]
        unit["check"] = vars(check)
        shutil.copy(csv_path, work / ("%s.csv" % tag))
        if traced:
            with open(spans) as fh:
                unit["layers"] = layer_metrics(json.load(fh))
            unit["layers"]["io.bytes_written"] = sum(
                p.stat().st_size for p in out.iterdir() if p.is_file())
    if traced and spans.is_file():
        spans.unlink()
    shutil.rmtree(out, ignore_errors=True)
    return unit


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def summarize(setups, units):
    """Every metric the run can report: end-to-end medians over the
    untraced units, per-layer medians over the traced ones."""
    ok = [u for u in units if not u.get("failed")]
    plain = [u for u in ok if not u["traced"]]
    traced = [u for u in ok if u["traced"]]
    imports = [s["import_s"] for s in setups + ok]
    metrics = {"setup_s": statistics.median(imports)}
    if plain:
        for name in ("run_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = statistics.median(u[name] for u in plain)
    if traced:
        names = set().union(*(u["layers"] for u in traced))
        for name in names:
            metrics[name] = statistics.median(
                u["layers"][name] for u in traced if name in u["layers"])
        metrics["trace.run_s"] = statistics.median(u["run_s"] for u in traced)
        if plain:
            metrics["trace.overhead_frac"] = \
                metrics["trace.run_s"] / metrics["run_s"] - 1.0
    return metrics


def main(argv=None):
    # a terminated run raises here, and subprocess.run then kills and reaps
    # the study process it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "c0ip_control" / "cli.py").is_file():
        print("error: no c0ip_control sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    diagonal = seed_diagonal(args.seed)
    work = ROOT / ".bench_runs" / ("%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before = os.getloadavg()

    setups = [run_child(work, "setup%d" % i) for i in range(SETUP_SAMPLES)]
    if any(s.get("failed") for s in setups):
        print("error: the program does not import; see %s" % work,
              file=sys.stderr)
        return 1

    units = []
    kinds = [False, True] if args.trace else [False]
    start = last = time.perf_counter()
    while len(units) < len(kinds) or \
            2 * time.perf_counter() - last - start <= args.seconds:
        last = time.perf_counter()
        units.append(run_unit(work, "unit%d" % len(units), args.workload,
                              diagonal, config,
                              kinds[len(units) % len(kinds)]))
    measured_s = time.perf_counter() - start

    attempted = sum(u["check"]["levels"] for u in units)
    failed = sum(u["check"]["failed"] for u in units)
    metrics = summarize(setups, units)
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in wanted if m["name"] in metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "diagonal": diagonal,
        "argv": config["workloads"][args.workload]["argv"],
        "seconds": args.seconds, "trace": args.trace,
        "measured_s": measured_s, "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "environment": {k: setups[0][k]
                        for k in ("python", "numpy", "scipy", "blas")},
        "thread_env": THREAD_ENV,
        "processes_at_once": 1,
        "max_threads": max(s.get("threads") or 0 for s in setups + units),
        "load_before": load_before, "load_after": os.getloadavg(),
        "setups": setups, "units": units, "metrics": metrics,
    }
    with open(work / "record.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print("workload %s  seed %d  diagonal %s  units %d (%d traced)  "
          "measured %.1f s" % (args.workload, args.seed, diagonal,
                               len(units), sum(u["traced"] for u in units),
                               measured_s))
    for name, entry in reported.items():
        print("  %-34s %14.6g %s" % (name, entry["value"], entry["unit"]))
    print("  %-34s %14.6g %s  (%d of %d levels)" % (
        "failed_level_frac", failed / attempted, "ratio", failed, attempted))
    for u in units:
        for message in u["check"]["messages"]:
            print("  check: %s" % message)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
