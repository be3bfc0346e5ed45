"""Run one fdlm command in this process with a given block size.

Usage: PYTHONPATH=src python .github/scripts/blocked_cli.py BLOCK -- ARGV...

Sets fdlm.mesh._BLOCK, the one size every blocked loop takes, to the
integer BLOCK (BLOCK `default` leaves it alone), then exits with
experiments_cli.cli_main(ARGV).
"""

import sys

import fdlm.mesh
from fdlm.experiments_cli import cli_main


def main(args):
    if len(args) < 3 or args[1] != "--":
        sys.exit(__doc__)
    if args[0] != "default":
        fdlm.mesh._BLOCK = int(args[0])
    return cli_main(args[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
