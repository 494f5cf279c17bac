"""The program still provides every per-layer metric the benchmark declares.

``bench/tracer.py`` wraps the functions named in each module's ``__all__``
(plus a few extra targets) and derives the metrics from those spans. A
function that leaves ``__all__`` or is renamed is silently not wrapped, and
its declared metrics drop out of a traced run's report. This test runs a
small traced study and checks every declared name.
"""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# added by bench/run.py itself, outside the traced process
ADDED_BY_RUNNER = {"trace.run_s", "trace.overhead_frac", "io.bytes_written"}


def test_traced_run_reports_every_declared_layer_metric(tmp_path,
                                                       monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracer import Tracer, layer_metrics
    from c0ip_control import cli

    tracer = Tracer().install()
    try:
        rc = cli.main(["--mode", "uniform", "--levels", "1",
                       "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc == 0

    metrics = layer_metrics(tracer.dump())
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    missing = [name for name in declared
               if name not in ADDED_BY_RUNNER and name not in metrics]
    assert not missing
    assert all(math.isfinite(metrics[name]) for name in declared
               if name not in ADDED_BY_RUNNER)
