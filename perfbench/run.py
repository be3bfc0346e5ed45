"""fdlm benchmark: runs CLI studies in fresh processes and reports metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S
        --trace 0|1

Run from any directory of a source checkout; fdlm is imported from its
``src/``.  The load is a closed loop with one client: one study at a
time, each in a fresh process started by ``study.py``.  Studies repeat
until the next one would end past S seconds (at least one).  A few
import-only processes add set-up samples.

--trace 0 reports the end-to-end metrics study_s, setup_s and
peak_rss_mb.  With --trace 1 every study is traced, and the run reports
the per-layer metrics of tracing.py, medians over the studies, among
them the tracing overhead.  Every level
of every study is checked against the seed reference (check.py); the
last stdout line is the JSON result.  With --workload all, every
workload runs in turn and the summary covers all of them.  The full
result set, with the environment, goes to .perfbench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [("study_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUP_PROBES = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
STUDY_TIMEOUT_S = 150
# Layer self times plus experiments_cli.self_s must add up to study_s,
# timed apart from the spans, to within this.  The root span opens just
# before study_s starts and closes just after it ends.
SUM_TOL_S = 1e-3


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """The parent's environment with BLAS/OpenMP threads capped at nproc."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        try:
            n = int(env.get(var, ""))
        except ValueError:
            n = nproc()
        env[var] = str(min(max(n, 1), nproc()))
    return env


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(workload, env, traced=False, setup_only=False, spans_file=None):
    cmd = [sys.executable, str(HERE / "study.py"), "--workload", workload,
           "--out-dir", str(OUT_DIR)]
    if traced:
        cmd += ["--trace", "--spans-file", str(spans_file)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(t0)], env=env,
                          stdout=subprocess.PIPE, timeout=STUDY_TIMEOUT_S,
                          text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError("study process for %s exited with %d"
                             % (workload, proc.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def measure(workload, seed, seconds, trace):
    """All processes of one run of one workload; returns the result set."""
    env = child_env()
    probes = [spawn(workload, env, setup_only=True)
              for _ in range(SETUP_PROBES)]
    studies = []
    t0 = time.monotonic()
    while True:
        spans_file = OUT_DIR / ("spans-%s-seed%d-%d.json"
                                % (workload, seed, len(studies)))
        studies.append(spawn(workload, env, traced=trace,
                             spans_file=spans_file))
        elapsed = time.monotonic() - t0
        typical = statistics.median(s["wall_s"] for s in studies)
        if elapsed + typical > seconds:
            break
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace,
            "environment": {
                "nproc": nproc(),
                "versions": probes[0]["versions"],
                "thread_env": {v: env[v] for v in THREAD_VARS},
                "git_commit": git_commit(),
                "seed": seed,
                "argv": WORKLOADS[workload]["argv"],
            },
            "setup_s": [p["setup_s"] for p in probes + studies],
            "studies": studies}


def spread(values):
    """(median, first quartile, third quartile, n)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def summarize(rs):
    """Metrics of one result set, with their spreads, and a check of the
    traced breakdowns."""
    studies = rs["studies"]
    rows = {"study_s": spread([s["study_s"] for s in studies]),
            "setup_s": spread(rs["setup_s"]),
            "peak_rss_mb": spread([s["peak_rss_mb"] for s in studies])}
    if rs["trace"]:
        for s in studies:
            if "trace_problems" in s:
                raise BenchmarkError("unsound spans: %s"
                                     % "; ".join(s["trace_problems"]))
            covered = sum(s["breakdown"]["self_s_by_layer"].values())
            if abs(covered - s["study_s"]) > SUM_TOL_S:
                raise BenchmarkError(
                    "layer self times sum to %.6f s, traced study took "
                    "%.6f s" % (covered, s["study_s"]))
        for name, _ in LAYER_METRICS:
            rows[name] = spread([s["trace"][name] for s in studies])
    attempted = sum(s["levels"] for s in rs["studies"])
    failed = sum(s["failed_levels"] for s in rs["studies"])
    return rows, attempted, failed


UNITS = dict(END_TO_END + LAYER_METRICS)


def print_report(rs, rows, attempted, failed):
    env = rs["environment"]
    print("== %s  seed %d  trace %d  (fdlm %s)" % (
        rs["workload"], rs["seed"], rs["trace"], " ".join(env["argv"])))
    if rs["trace"]:
        print("   every study is traced: study_s and peak_rss_mb include "
              "the tracing")
    print("   environment: %s" % json.dumps(env, sort_keys=True))
    print("   %-36s %-6s %14s %14s %14s %4s"
          % ("metric", "unit", "median", "q1", "q3", "n"))
    for name, (med, q1, q3, n) in rows.items():
        print("   %-36s %-6s %14.6g %14.6g %14.6g %4d"
              % (name, UNITS[name], med, q1, q3, n))
    print("   %-36s %-6s %14.6g %29s %4d" % (
        "fail_ratio", "ratio", failed / attempted, "", attempted))
    if rs["trace"]:
        first = rs["studies"][0]
        b = first["breakdown"]
        layers = sorted(b["self_s_by_layer"].items(), key=lambda kv: -kv[1])
        print("   self time by layer (first study, %.3f s): %s" % (
            first["study_s"], ", ".join("%s %.4f" % kv for kv in layers)))
        print("   level durations: %s" % ", ".join(
            "%.3f" % t for t in b["level_s"]))
        times = [(n, rows[n][0]) for n, u in LAYER_METRICS
                 if u == "s" and n not in ("saddle_solver.solve_s",
                                           "experiments_cli.level_s",
                                           "trace.overhead_s")]
        print("   largest self time: %s" % max(times, key=lambda kv: kv[1])[0])
    for s in rs["studies"]:
        for reasons in s["failures"]:
            print("   FAILED level: %s" % "; ".join(reasons))
        if s["error"]:
            print("   ERROR: %s" % s["error"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fdlm" / "__init__.py").is_file():
        print("run.py: no fdlm sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics = {}
    attempted = failed = 0
    try:
        for name in names:
            rs = measure(name, args.seed, args.seconds, bool(args.trace))
            rows, a, f = summarize(rs)
            rs["summary"] = {k: list(v) for k, v in rows.items()}
            path = OUT_DIR / ("%s-seed%d-trace%d.json"
                              % (name, args.seed, args.trace))
            path.write_text(json.dumps(rs, indent=1))
            print_report(rs, rows, a, f)
            attempted += a
            failed += f
            wanted = LAYER_METRICS if args.trace else END_TO_END
            prefix = name + "." if args.workload == "all" else ""
            for metric, unit in wanted:
                metrics[prefix + metric] = {"value": rows[metric][0],
                                            "unit": unit}
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
