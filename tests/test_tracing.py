"""The benchmark tracer's contract with the pipeline: every name it wraps
(perfbench/tracing.py, _TARGETS) is still bound where it patches it and
still called, so a traced study gives a sound span tree and nonzero
counts, and uninstalling restores every name."""

from pathlib import Path

import pytest

import fdlm
import fdlm.experiments_cli as xcli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def owners(tracing):
    """(owner, attribute) of every wrapped name, as install() finds it."""
    for _, where, attr, _ in tracing._TARGETS:
        modname, _, clsname = where.partition(":")
        owner = getattr(fdlm, modname)
        yield (getattr(owner, clsname) if clsname else owner), attr


@pytest.mark.parametrize("argv,positive", [
    (["solve", "--n-fluid", "16", "--n-solid", "8", "--coupling", "l2",
      "--assembly", "exact"],
     ["assembly.Cf_nnz", "saddle_solver.matrix_nnz",
      "geom_intersect.subcells"]),
    (["quaderr", "--test", "2", "--coupling", "h1", "--levels", "2"],
     ["mesh.located_points"]),
], ids=["solve", "quaderr"])
def test_traced_study_is_sound_and_counted(tracing, tmp_path, capsys, argv,
                                           positive):
    tracer = tracing.Tracer()
    tracer.install(fdlm)
    try:
        tracer.open_root()
        code = xcli.cli_main(argv + ["--out", str(tmp_path / "out.csv")])
        tracer.close_root()
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    assert tracing.check_spans(tracer.spans) == []
    metrics, _ = tracing.layer_metrics(tracer.spans, 0.0)
    for name in positive:
        assert metrics[name] > 0, name
    for owner, attr in owners(tracing):
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr
