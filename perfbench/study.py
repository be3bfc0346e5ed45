"""Run one fdlm study in this fresh process and print its result as JSON.

    python3 perfbench/study.py --workload NAME --spawned-at T --out-dir DIR
        [--trace] [--spans-file PATH] [--setup-only]

T is the parent's time.monotonic() just before it started this process,
so setup_s covers interpreter start plus the fdlm, numpy and scipy
imports.  The study itself goes through fdlm.experiments_cli.cli_main,
the function behind the fdlm command.  With --trace the pipeline's
functions are wrapped first (see tracing.py).  The last stdout line is
the result.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse.linalg  # noqa: E402,F401

import fdlm  # noqa: E402
import fdlm.experiments_cli as cli  # noqa: E402

READY = time.monotonic()

from check import check_study  # noqa: E402
from tracing import (Tracer, check_spans, layer_metrics,  # noqa: E402
                     wrapper_cost)
from workloads import WORKLOADS  # noqa: E402


def run_study(workload, out_dir, traced, spans_file):
    spec = WORKLOADS[workload]
    out_path = os.path.join(out_dir, "%s-%d.csv" % (workload, os.getpid()))
    argv = spec["argv"] + ["--out", out_path]

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install(fdlm)
    # (relative residual, B, u) of every solve; max |B u| is computed
    # after the study, outside its timer.
    solves = []
    solve = cli.solve

    def solve_with_health(system):
        sol = solve(system)
        solves.append((sol.relative_residual, system.blocks.B,
                       sol.u.coefficients))
        return sol

    cli.solve = solve_with_health
    stdout = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(stdout):
            if tracer:
                tracer.open_root()
            t0 = time.perf_counter()
            try:
                rc = cli.cli_main(argv)
            except Exception:
                rc = None
                error = traceback.format_exc()
            study_s = time.perf_counter() - t0
            if tracer:
                tracer.close_root()
    finally:
        cli.solve = solve
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    health = [(res, float(np.abs(B @ u).max())) for res, B, u in solves]

    completed = rc == 0
    if rc not in (0, None):
        error = "cli_main returned %r" % rc
    fails = check_study(workload, spec, out_path, stdout.getvalue(), health,
                        completed)
    result = {"study_s": study_s, "peak_rss_mb": peak_rss_mb,
              "levels": spec["levels"],
              "failed_levels": sum(1 for f in fails if f),
              "failures": [f for f in fails if f], "error": error,
              "health": health}
    if tracer:
        problems = check_spans(tracer.spans)
        if problems:
            result["trace_problems"] = problems
        else:
            result["trace"], result["breakdown"] = layer_metrics(
                tracer.spans, wrapper_cost())
        spans = [s.as_dict() for s in tracer.spans]
        with open(spans_file, "w") as fh:
            json.dump(spans, fh)
    if os.path.exists(out_path):
        os.remove(out_path)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    result = {"setup_s": READY - args.spawned_at,
              "versions": {"python": sys.version.split()[0],
                           "numpy": np.__version__,
                           "scipy": scipy.__version__}}
    if not args.setup_only:
        result.update(run_study(args.workload, args.out_dir, args.trace,
                                args.spans_file))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
