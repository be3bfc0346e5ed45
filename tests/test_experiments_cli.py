"""Experiment schedules, rate computation, CSV output, CLI behavior."""

import dataclasses
import math
import os
import weakref

import numpy as np
import pytest

import fdlm.experiments_cli as xcli
from fdlm.experiments_cli import (CONVERGENCE_HEADER, QUADERR_HEADER,
                                  ExperimentPlan, build_level_spaces,
                                  cli_main, compute_rates, fitted_slope,
                                  quadrature_error_study,
                                  write_convergence_csv, write_quaderr_csv,
                                  _fmt)

# the schedule helpers are named like tests, so keep them off the module
# namespace that pytest collects
schedule1 = xcli.test1_schedule
schedule2 = xcli.test2_schedule
from fdlm.manufactured_errors import manufactured_solution
from fdlm.mesh import DomainViolationError, Triangulation
from coupling_geometry import mode_rhs


class TestSchedules:
    def test_matched_ratio_schedule(self):
        assert schedule1(4) == [(16, 8), (32, 16), (64, 32), (128, 64)]

    def test_superlinear_solid_schedule(self):
        pairs = schedule2(7)
        assert [nf for nf, _ in pairs] == [8, 16, 32, 64, 128, 256, 512]
        assert [nb for _, nb in pairs] == [8, 23, 64, 181, 512, 1448, 4096]

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(3, "l2", "exact", 2)
        with pytest.raises(ValueError):
            ExperimentPlan(1, "h2", "exact", 2)
        with pytest.raises(ValueError):
            ExperimentPlan(1, "l2", "fast", 2)
        with pytest.raises(ValueError):
            ExperimentPlan(1, "l2", "exact", 0)

    def test_plan_carries_schedule(self):
        plan = ExperimentPlan(2, "h1", "approx", 3)
        assert plan.schedule == schedule2(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.test_id = 1


class TestLevelSpaces:
    def test_meshes_and_orientations(self):
        V, Q, S, L = build_level_spaces(16, 8)
        assert Q.mesh.n_cells_per_side == 16
        assert V.mesh.n_cells_per_side == 32
        assert S.mesh is L.mesh
        assert S.mesh.n_cells_per_side == 8
        assert Q.mesh.domain == (-2.0, -2.0, 2.0, 2.0)
        assert S.mesh.domain == (0.0, 0.0, 1.0, 1.0)


class TestRates:
    def records(self, errors, hs=None):
        hs = hs or [2.0 ** -k for k in range(len(errors))]
        return [{"level": k, "h_solid": h, "h_omega": h, "err_u_h1": e}
                for k, (h, e) in enumerate(zip(hs, errors))]

    def test_per_level_ratios(self):
        recs = compute_rates(self.records([1.0, 0.5, 0.25]), 1)
        assert math.isnan(recs[0]["rate_u"])
        assert recs[1]["rate_u"] == pytest.approx(1.0)
        assert recs[2]["rate_u"] == pytest.approx(1.0)

    def test_stagnating_errors(self):
        recs = compute_rates(self.records([1.0, 1.0, 1.0]), 1)
        assert recs[1]["rate_u"] == 0.0 and recs[2]["rate_u"] == 0.0

    def test_nonpositive_error_gives_nan(self):
        recs = compute_rates(self.records([1.0, 0.0, 0.5]), 1)
        assert math.isnan(recs[1]["rate_u"])
        assert math.isnan(recs[2]["rate_u"])

    def test_global_slope(self):
        hs = [1.0, 0.5, 0.25, 0.125]
        recs = compute_rates(self.records([h ** 1.5 for h in hs], hs), 2)
        assert math.isnan(recs[0]["rate_u"])
        for rec in recs[1:]:
            assert rec["rate_u"] == pytest.approx(1.5, abs=1e-12)

    def test_fitted_slope(self):
        hs = [0.1, 0.05, 0.025]
        assert fitted_slope(hs, [h ** 2 for h in hs]) == pytest.approx(
            2.0, abs=1e-12)
        assert math.isnan(fitted_slope([0.1], [0.01]))
        assert math.isnan(fitted_slope(hs, [1.0, 0.0, 1.0]))


class TestCsvOutput:
    def test_headers(self):
        assert CONVERGENCE_HEADER == (
            "level,h_omega,h_solid,err_u_h1,err_p_l2,err_x_h1,err_lambda,"
            "cf_diff_1norm,rate_u,rate_p,rate_x,rate_lambda,rate_cf")
        assert QUADERR_HEADER == "level,h_solid,h_omega,cf_diff_1norm,rate"

    def test_float_format_round_trips(self):
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50):
            assert float(_fmt(float(x))) == x
        assert _fmt(3) == "3"
        assert _fmt(math.nan) == "nan"

    def test_convergence_csv(self, tmp_path):
        recs = [{"level": 0, "h_omega": 0.25, "h_solid": 0.125,
                 "err_u_h1": 1.0, "err_p_l2": 2.0, "err_x_h1": 3.0,
                 "err_lambda": 4.0, "cf_diff_1norm": 5.0,
                 "rate_u": math.nan, "rate_p": math.nan, "rate_x": math.nan,
                 "rate_lambda": math.nan, "rate_cf": math.nan}]
        path = tmp_path / "conv.csv"
        write_convergence_csv(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CONVERGENCE_HEADER
        assert lines[1] == ("0,0.25,0.125,1,2,3,4,5,nan,nan,nan,nan,nan")

    def test_quaderr_csv(self, tmp_path):
        recs = [{"level": 0, "h_solid": 0.125, "h_omega": 0.25,
                 "cf_diff_1norm": 1e-3, "rate_cf": math.nan},
                {"level": 1, "h_solid": 0.0625, "h_omega": 0.125,
                 "cf_diff_1norm": 2.5e-4, "rate_cf": 2.0}]
        path = tmp_path / "quad.csv"
        write_quaderr_csv(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == QUADERR_HEADER
        assert lines[1].startswith("0,0.125,0.25,")
        assert lines[1].endswith(",nan")
        assert lines[2].endswith(",2")


class TestSolveLevel:
    @pytest.mark.parametrize("coupling", ["l2", "h1"])
    def test_approx_nodes_located_once(self, coupling, monkeypatch):
        calls = []
        locate = Triangulation.locate_points

        def counting(mesh, pts):
            calls.append(len(pts))
            return locate(mesh, pts)

        monkeypatch.setattr(Triangulation, "locate_points", counting)
        _, _, system = xcli.solve_level(16, 8, coupling, "approx")
        assert len(calls) == 1
        # the shared node set gives the data of assemble_rhs on freshly
        # built groups, which locate the nodes again, bit for bit
        V, S, L, Q = system.spaces
        exact = manufactured_solution()
        want = np.concatenate(mode_rhs(V, S, L, exact, coupling, "approx"))
        want[:V.n_dofs][V.dirichlet_mask] = 0.0
        np.testing.assert_array_equal(system.rhs[:want.size], want)
        assert len(calls) == 2

    @pytest.mark.parametrize("coupling", ["l2", "h1"])
    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_builds_only_its_own_coupling(self, coupling, mode,
                                          monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("built the other mode's coupling")

        if mode == "approx":
            other = ["build_all_schemes", "assemble_Cf_exact"]
        else:
            other = ["approx_nodes", "assemble_Cf_approx",
                     "matrix_1norm_diff"]
            monkeypatch.setattr(Triangulation, "locate_points", boom)
        for name in other:
            monkeypatch.setattr(xcli, name, boom)
        record, sol, _ = xcli.solve_level(16, 8, coupling, mode)
        assert "cf_diff_1norm" not in record
        assert sol.relative_residual <= 1e-8


class TestGapColumn:
    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_run_gap_equals_quaderr_gap(self, mode, monkeypatch):
        # run assembles each mode's matrix once per level and pairs the
        # matrix it solved with the other mode's; quaderr streams the gap
        # once per level and assembles neither matrix
        calls = []
        for name in ("assemble_Cf_exact", "assemble_Cf_approx",
                     "coupling_gap"):
            def counting(*args, _name=name, _fn=getattr(xcli, name),
                         **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(xcli, name, counting)
        plan = ExperimentPlan(2, "h1", mode, 2)
        gaps = []
        for study, want in (
                (xcli.run_convergence, ["assemble_Cf_approx"] * 2
                 + ["assemble_Cf_exact"] * 2),
                (quadrature_error_study, ["coupling_gap"] * 2)):
            del calls[:]
            gaps.append([r["cf_diff_1norm"] for r in study(plan)])
            assert sorted(calls) == want
        assert gaps[0] == gaps[1]
        assert all(gap > 0 for gap in gaps[0])

    def test_run_releases_each_level_before_the_next(self, monkeypatch):
        # Level k's system (its blocks and load) is gone when level k + 1
        # starts to assemble.
        systems, alive = [], []
        solve_level = xcli.solve_level

        def recording(*args, **kwargs):
            alive.append([ref() is not None for ref in systems])
            out = solve_level(*args, **kwargs)
            systems.append(weakref.ref(out[2]))
            return out

        monkeypatch.setattr(xcli, "solve_level", recording)
        xcli.run_convergence(ExperimentPlan(1, "l2", "approx", 3))
        assert alive == [[], [False], [False, False]]


class TestQuadratureErrorStudy:
    def test_gap_shrinks_and_run_is_deterministic(self, tmp_path):
        plan = ExperimentPlan(1, "l2", "approx", 2)
        recs = quadrature_error_study(plan)
        assert recs[0]["cf_diff_1norm"] > recs[1]["cf_diff_1norm"] > 0
        assert recs[1]["rate_cf"] > 1.0
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_quaderr_csv(recs, a)
        write_quaderr_csv(quadrature_error_study(plan), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("test_id,coupling,gaps", [
        (2, "h1", [3.23856513, 2.2574446758297713, 2.1343998600000034,
                   1.0925270492398491]),
        (1, "l2", [0.012082215416666672, 0.0029168330208333517,
                   0.00068346033854166962, 0.00016223753906250262]),
    ], ids=["test2-h1", "test1-l2"])
    def test_four_level_gaps_pinned(self, test_id, coupling, gaps):
        # the gaps behind acceptance 01-03, which check only slopes
        recs = quadrature_error_study(
            ExperimentPlan(test_id, coupling, "approx", 4))
        got = [r["cf_diff_1norm"] for r in recs]
        np.testing.assert_allclose(got, gaps, rtol=1e-12, atol=0)


# One command line of each command, without --out.
OUT_ARGV = [["run", "--test", "1", "--levels", "2"],
            ["quaderr", "--test", "1", "--levels", "2"],
            ["solve", "--n-fluid", "8", "--n-solid", "4"]]


class TestCli:
    def test_unknown_flag(self):
        assert cli_main(["run", "--test", "1", "--frobnicate"]) == 2

    def test_missing_out(self):
        assert cli_main(["quaderr", "--test", "1"]) == 2

    def test_single_level_rejected(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert cli_main(["run", "--test", "1", "--levels", "1",
                         "--out", out]) == 2
        assert cli_main(["quaderr", "--test", "2", "--levels", "1",
                         "--out", out]) == 2

    def test_bad_mesh_sizes(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert cli_main(["solve", "--n-fluid", "0", "--n-solid", "4",
                         "--out", out]) == 2

    def test_geometry_failure_reported(self, tmp_path, monkeypatch, capsys):
        def boom(plan):
            raise DomainViolationError("synthetic")
        monkeypatch.setattr(xcli, "run_convergence", boom)
        out = str(tmp_path / "x.csv")
        assert cli_main(["run", "--test", "1", "--levels", "2",
                         "--out", out]) == 1
        assert "fdlm: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "quaderr"])
    def test_level_named_in_study_errors(self, command, tmp_path,
                                         monkeypatch, capsys):
        # The gap of level 1 fails in both studies: run builds it from
        # the coupling matrices, quaderr streams it.
        name = "coupling_gap" if command == "quaderr" else "coupling_gap_norm"
        gap = getattr(xcli, name)
        calls = []
        message = "mapped structure element leaves the fluid domain"

        def failing_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise DomainViolationError(message)
            return gap(*args)

        monkeypatch.setattr(xcli, name, failing_second)
        assert cli_main([command, "--test", "2", "--coupling", "h1",
                         "--levels", "3",
                         "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert ("fdlm: error: level 1 (n_fluid=16, n_solid=23): %s"
                % message) in err

    @staticmethod
    def assert_out_refused(argv, out, monkeypatch, capsys):
        """argv with --out out exits 2 with one error line, building no
        level."""
        def boom(*args):
            raise AssertionError("a level was built")
        monkeypatch.setattr(xcli, "build_level_spaces", boom)
        assert cli_main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fdlm: error:")

    @pytest.mark.parametrize("argv", OUT_ARGV)
    def test_out_in_missing_directory_refused(self, argv, tmp_path,
                                              monkeypatch, capsys):
        self.assert_out_refused(argv, str(tmp_path / "missing" / "x.csv"),
                                monkeypatch, capsys)

    @pytest.mark.parametrize("argv", OUT_ARGV)
    def test_out_that_is_a_directory_refused(self, argv, tmp_path,
                                             monkeypatch, capsys):
        self.assert_out_refused(argv, str(tmp_path), monkeypatch, capsys)

    @pytest.mark.parametrize("argv", OUT_ARGV)
    def test_empty_out_refused(self, argv, monkeypatch, capsys):
        self.assert_out_refused(argv, "", monkeypatch, capsys)

    def test_unwritable_out_reported(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(xcli, "quadrature_error_study", lambda plan: [])
        # A name too long for the file system passes both checks on the
        # path but cannot be opened.
        assert cli_main(["quaderr", "--test", "1", "--levels", "2",
                         "--out", str(tmp_path / ("x" * 300))]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fdlm: error:")

    def test_quaderr_writes_csv(self, tmp_path):
        out = tmp_path / "q.csv"
        assert cli_main(["quaderr", "--test", "1", "--levels", "2",
                         "--coupling", "h1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == QUADERR_HEADER
        assert len(lines) == 3

    def test_run_writes_csv(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert cli_main(["run", "--test", "1", "--levels", "2",
                         "--assembly", "approx", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CONVERGENCE_HEADER
        assert len(lines) == 3
        row0 = lines[1].split(",")
        row1 = lines[2].split(",")
        assert row0[0] == "0" and row1[0] == "1"
        assert row0[-5:] == ["nan"] * 5
        assert all(v != "nan" for v in row1[3:8])

    def test_solve_dumps_and_reports(self, tmp_path, capsys):
        out = tmp_path / "sol.csv"
        assert cli_main(["solve", "--n-fluid", "8", "--n-solid", "4",
                         "--out", str(out)]) == 0
        text = capsys.readouterr().out
        for key in ("err_u_h1", "err_p_l2", "err_x_h1", "err_lambda",
                    "relative_residual"):
            assert ("%s = " % key) in text
        assert out.read_text().splitlines()[0] == "field,dof_index,value"
