"""Run one fdlm command in this process under a peak-RSS limit.

Usage: PYTHONPATH=src python .github/scripts/peak_gate.py LIMIT_MB OUT -- ARGV...

Runs experiments_cli.cli_main(ARGV) with its stdout written to the file
OUT, prints OUT and the process's peak RSS (getrusage), and fails if the
command fails or the peak exceeds LIMIT_MB.  For `solve` it also fails
unless OUT holds exactly one relative_residual line, at most 1e-8.
"""

import contextlib
import resource
import sys

from fdlm.experiments_cli import cli_main


def main(args):
    if len(args) < 4 or args[2] != "--":
        sys.exit(__doc__)
    limit, out, argv = args[0], args[1], args[3:]
    with open(out, "w") as fh, contextlib.redirect_stdout(fh):
        code = cli_main(argv)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(out) as fh:
        lines = fh.readlines()
    print("".join(lines), end="")
    print("peak RSS %.0f MB (limit %s MB)" % (peak_mb, limit))
    if code or peak_mb > float(limit):
        return code or 1
    if argv[0] == "solve":
        r = [float(line.split("=")[1]) for line in lines
             if line.startswith("relative_residual")]
        if not (len(r) == 1 and r[0] <= 1e-8):
            print("relative_residual above 1e-8 or not printed once")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
