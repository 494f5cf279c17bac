"""One fresh process of the benchmark: import the program, optionally run a
study through ``c0ip_control.cli.main``, and write what it cost as JSON.

    python3 child.py SPEC_JSON

SPEC_JSON holds ``result`` (path of the JSON written here), ``argv`` (the
plate-control arguments, or null to only import the program) and ``spans``
(path for the trace record, or null to run untraced). ``run.py`` starts this
script with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

import json
import resource
import sys
import time


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _thread_count():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}


def main():
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    from c0ip_control import cli
    result = {"import_s": time.perf_counter() - t0}
    if spec["argv"] is None:
        result.update(_environment())
    else:
        tracer = None
        if spec["spans"]:
            from tracer import Tracer
            tracer = Tracer().install()
        cpu0, t1 = _cpu_seconds(), time.perf_counter()
        exit_code = cli.main(spec["argv"])
        result["run_s"] = time.perf_counter() - t1
        result["cpu_s"] = _cpu_seconds() - cpu0
        result["exit_code"] = exit_code
        if tracer is not None:
            tracer.uninstall()
            with open(spec["spans"], "w") as fh:
                json.dump(tracer.dump(), fh)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["threads"] = _thread_count()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
