"""Write the reference outputs that check.py compares every study with.

    python3 perfbench/record_reference.py

The committed references were recorded from the seed code.  Re-record
only when a change is meant to alter the results, and say so with the
change: the benchmark's correctness check is only as good as them.
"""

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from fdlm.experiments_cli import cli_main  # noqa: E402
from check import REFERENCE_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main():
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, spec in WORKLOADS.items():
        if spec["argv"][0] != "solve":
            out = REFERENCE_DIR / (name + ".csv")
            if cli_main(spec["argv"] + ["--out", str(out)]) != 0:
                raise SystemExit("%s failed" % name)
            continue
        dump = REFERENCE_DIR / (name + ".dump.csv")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            rc = cli_main(spec["argv"] + ["--out", str(dump)])
        if rc != 0:
            raise SystemExit("%s failed" % name)
        norms = {}
        for line in printed.getvalue().splitlines():
            key, _, value = line.partition(" = ")
            if key.startswith("err_"):
                norms[key] = float(value)
        with open(dump, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        dump.unlink()
        fields = []
        for field, _, _ in rows:
            if fields and fields[-1][0] == field:
                fields[-1][1] += 1
            else:
                fields.append([field, 1])
        values = np.array([float(r[2]) for r in rows], dtype=np.float32)
        np.save(REFERENCE_DIR / (name + ".dump.npy"), values)
        (REFERENCE_DIR / (name + ".json")).write_text(
            json.dumps({"norms": norms, "fields": fields}, indent=1) + "\n")


if __name__ == "__main__":
    main()
