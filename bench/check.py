"""Compare a study's CSV with its frozen reference, level by level.

Columns are matched by name and only the reference's columns are compared,
so an output column the reference does not carry (``seconds``, which is
wall-clock time and is dropped when a reference is frozen) is ignored. Key
columns (level, N, h) must agree exactly; every other value must agree to a
relative tolerance. A level fails when its row is missing, extra, or
disagrees.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field


@dataclass
class CheckResult:
    levels: int                 # levels compared: max(reference, output)
    failed: int                 # levels missing, extra or disagreeing
    messages: list = field(default_factory=list)


def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _agree(ref, out, exact, rtol):
    if ref == "" or out == "":
        return ref == out
    try:
        a, b = float(ref), float(out)
    except ValueError:
        return ref == out
    if exact:
        return a == b
    return math.isclose(a, b, rel_tol=rtol)


def compare(reference_path, output_path, keys, rtol):
    ref_header, ref_rows = read_table(reference_path)
    out_header, out_rows = read_table(output_path)
    columns = ref_header
    levels = max(len(ref_rows), len(out_rows))
    missing = [c for c in columns if c not in out_header]
    if missing:
        return CheckResult(levels, levels, ["missing columns %s" % missing])
    ref_at = {c: ref_header.index(c) for c in columns}
    out_at = {c: out_header.index(c) for c in columns}
    result = CheckResult(levels, 0)
    for i in range(levels):
        if i >= len(ref_rows) or i >= len(out_rows):
            result.failed += 1
            result.messages.append("level %d: %s row" % (
                i, "extra" if i >= len(ref_rows) else "missing"))
            continue
        bad = [c for c in columns
               if not _agree(ref_rows[i][ref_at[c]], out_rows[i][out_at[c]],
                             c in keys, rtol)]
        if bad:
            result.failed += 1
            result.messages.append("level %d: %s" % (i, ", ".join(
                "%s %s != %s" % (c, out_rows[i][out_at[c]],
                                 ref_rows[i][ref_at[c]]) for c in bad)))
    return result
