"""Self-test of the benchmark's correctness checks and span arithmetic.

    python3 perfbench/selftest.py

A deliberately perturbed output row, a solve above the acceptance-08
limits, and a study that did not complete must each count as failed
levels, while the unperturbed reference must pass.  An unclosed,
orphaned or misplaced span must make the span tree unsound.  Needs numpy, not
fdlm; exits non-zero on the first check that does not hold.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import (REFERENCE_DIR, check_health, check_rows,  # noqa: E402
                   check_solve_output, check_study, load_solve_reference,
                   read_csv)
from tracing import Span, check_spans, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = HERE.parent / ".perfbench_out"


def expect(cond, what):
    if not cond:
        raise SystemExit("selftest FAILED: %s" % what)
    print("ok  %s" % what)


def n_failed(fails):
    return sum(1 for f in fails if f)


def test_csv_rows():
    for name, spec in WORKLOADS.items():
        if spec["argv"][0] == "solve":
            continue
        header, rows = read_csv(REFERENCE_DIR / (name + ".csv"))
        levels = spec["levels"]
        expect(n_failed(check_rows(header, rows, header, rows, levels)) == 0,
               "%s: reference rows pass" % name)
        bad = [list(r) for r in rows]
        bad[1][3] *= 1 + 1e-5
        fails = check_rows(header, bad, header, rows, levels)
        expect(n_failed(fails) == 1 and fails[1],
               "%s: one perturbed value fails exactly its level" % name)
        expect(n_failed(check_rows(header, rows[:-1], header, rows,
                                   levels)) == 1,
               "%s: a missing row fails its level" % name)
        expect(n_failed(check_study(name, spec, None, "", [], False))
               == levels, "%s: a study that did not complete fails every "
               "level" % name)


def test_health():
    expect(n_failed(check_health([(1e-12, 1e-13)] * 3, 3)) == 0,
           "healthy solves pass")
    expect(n_failed(check_health([(1e-12, 1e-13), (2e-8, 1e-13),
                                  (1e-12, 2e-9)], 3)) == 2,
           "residual above 1e-8 and max |B u| above 1e-9 each fail")
    expect(n_failed(check_health([(float("nan"), 0.0)], 1)) == 1,
           "a NaN residual fails")


def test_solve_dump():
    name = next(n for n, s in WORKLOADS.items() if s["argv"][0] == "solve")
    ref = load_solve_reference(name)
    printed = "".join("%s = %.17g\n" % kv for kv in ref["norms"].items())
    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / "selftest-dump.csv"

    def write(values):
        with open(dump, "w") as fh:
            fh.write("field,dof_index,value\n")
            k = 0
            for field, n in ref["fields"]:
                for i in range(n):
                    fh.write("%s,%d,%.17g\n" % (field, i, values[k]))
                    k += 1

    values = ref["values"].astype(float)
    try:
        write(values)
        expect(check_solve_output(printed, dump, ref) == [],
               "%s: reference dump and norms pass" % name)
        worse = printed.replace("err_p_l2 = ", "err_p_l2 = 1")
        expect(len(check_solve_output(worse, dump, ref)) == 1,
               "%s: a changed error norm fails" % name)
        values[len(values) // 2] += 1e-4 * abs(values).max()
        write(values)
        expect(len(check_solve_output(printed, dump, ref)) == 1,
               "%s: one perturbed dump row fails" % name)
    finally:
        dump.unlink()


def test_self_times():
    def span(parent, start, end):
        s = Span("x", "l", parent, None)
        s.start, s.end = start, end
        return s

    spans = [span(-1, 0.0, 10.0), span(0, 1.0, 4.0), span(1, 2.0, 3.0),
             span(0, 5.0, 9.0)]
    own = self_times(spans)
    expect(own == [3.0, 2.0, 1.0, 4.0],
           "self time is duration minus the children's")
    expect(check_spans(spans) == [], "a nested span tree is sound")
    spans[2].end = None
    expect(len(check_spans(spans)) == 1, "an unclosed span is unsound")
    spans[2].end, spans[3].parent = 3.0, 7
    expect(len(check_spans(spans)) == 1, "a span without parent is unsound")
    spans[3].parent, spans[3].end = 0, 11.0
    expect(len(check_spans(spans)) == 1,
           "a span outside its parent is unsound")


def main():
    test_csv_rows()
    test_health()
    test_solve_dump()
    test_self_times()
    print("selftest passed")


if __name__ == "__main__":
    main()
