"""Correctness checks of one study's outputs against the seed reference.

Every check works per level and returns, for each level, the list of
reasons it failed (empty when it passed), so that failures are counted
rather than aborting the run.  The reference files under ``reference/``
were written by ``record_reference.py`` from the seed code.
"""

import csv
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Largest relative deviation of a reported value from the seed reference.
# It admits reordered floating-point sums and iterative solves; a result
# that moves by more than this is a different result.
REL_TOL = 1e-6
# Acceptance 08: every solve must meet these.
RESIDUAL_LIMIT = 1e-8
DIV_LIMIT = 1e-9


def close(value, ref):
    if math.isnan(ref) or math.isnan(value):
        return math.isnan(ref) and math.isnan(value)
    return abs(value - ref) <= REL_TOL * abs(ref)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def check_rows(header, rows, ref_header, ref_rows, levels):
    """Compare the rows of a study CSV with the reference, per level."""
    fails = [[] for _ in range(levels)]
    if header != ref_header:
        for f in fails:
            f.append("header %s != reference %s" % (header, ref_header))
        return fails
    for k in range(levels):
        if k >= len(rows):
            fails[k].append("row missing")
            continue
        for name, v, r in zip(header, rows[k], ref_rows[k]):
            if not close(v, r):
                fails[k].append("%s = %r, reference %r" % (name, v, r))
    return fails


def check_health(health, levels):
    """Acceptance-08 limits on each solve; health is [(rel_res, max|Bu|)]."""
    fails = [[] for _ in range(levels)]
    for k in range(levels):
        if k >= len(health):
            fails[k].append("no solve recorded")
            continue
        res, div = health[k]
        if not res <= RESIDUAL_LIMIT:
            fails[k].append("relative residual %.3e > %.0e"
                            % (res, RESIDUAL_LIMIT))
        if not div <= DIV_LIMIT:
            fails[k].append("max |B u| %.3e > %.0e" % (div, DIV_LIMIT))
    return fails


def check_solve_output(stdout_text, dump_path, ref):
    """Printed error norms and every solution-dump row of a `solve` study.

    ref is the parsed reference JSON: the printed norms, the row count of
    each field, and the dump values (loaded from the .npy file beside
    it).  Dump values are compared field by field, relative to the
    field's largest reference magnitude.
    """
    import numpy as np

    fails = []
    printed = {}
    for line in stdout_text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            printed[key] = float(value)
    for key, r in ref["norms"].items():
        if key not in printed:
            fails.append("%s not printed" % key)
        elif not close(printed[key], r):
            fails.append("%s = %r, reference %r" % (key, printed[key], r))

    with open(dump_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["field", "dof_index", "value"]:
        return fails + ["dump header %s" % rows[0]]
    rows = rows[1:]
    expected = [(f, i) for f, n in ref["fields"] for i in range(n)]
    if len(rows) != len(expected):
        return fails + ["dump has %d rows, reference %d"
                        % (len(rows), len(expected))]
    if any(row[0] != f or int(row[1]) != i
           for row, (f, i) in zip(rows, expected)):
        return fails + ["dump rows are not in the reference layout"]
    values = np.array([float(row[2]) for row in rows])
    start = 0
    for field, n in ref["fields"]:
        got = values[start:start + n]
        want = ref["values"][start:start + n].astype(float)
        scale = float(np.abs(want).max())
        bad = np.flatnonzero(np.abs(got - want) > REL_TOL * scale)
        if bad.size:
            fails.append("%d %s rows differ, first dof %d: %r vs %r"
                         % (bad.size, field, bad[0], got[bad[0]],
                            want[bad[0]]))
        start += n
    return fails


def load_solve_reference(workload):
    import numpy as np

    ref = json.loads((REFERENCE_DIR / (workload + ".json")).read_text())
    ref["values"] = np.load(REFERENCE_DIR / (workload + ".dump.npy"))
    return ref


def check_study(workload, spec, out_path, stdout_text, health, completed):
    """Per-level failure reasons of one study.

    completed is False when cli_main raised or returned non-zero; every
    level of the study then fails.
    """
    levels = spec["levels"]
    if not completed:
        return [["study did not complete"] for _ in range(levels)]
    if spec["argv"][0] == "solve":
        fails = [check_solve_output(stdout_text, out_path,
                                    load_solve_reference(workload))]
    else:
        header, rows = read_csv(out_path)
        ref_header, ref_rows = read_csv(REFERENCE_DIR / (workload + ".csv"))
        fails = check_rows(header, rows, ref_header, ref_rows, levels)
    if spec["argv"][0] != "quaderr":
        for f, h in zip(fails, check_health(health, levels)):
            f.extend(h)
    return fails
