"""The benchmark's workloads: one fdlm CLI study each.

The inputs are fixed: the refinement schedules are part of the CLI and
the placement map 2I*s + (-0.62, -0.62) is part of the manufactured
solution.  The benchmark's seed is recorded with every result but
selects nothing, so every run of a workload does the same work.
BENCHMARK.json and NOTES.md say why each workload exists and what it
should move.
"""

WORKLOADS = {
    "quaderr-t2-h1": {
        "argv": ["quaderr", "--test", "2", "--coupling", "h1",
                 "--levels", "3"],
        "levels": 3,
    },
    "solve-t1-l2-64": {
        "argv": ["solve", "--n-fluid", "64", "--n-solid", "32",
                 "--coupling", "l2", "--assembly", "exact"],
        "levels": 1,
    },
}
