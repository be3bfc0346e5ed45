"""Convergence experiments and the command line driver.

Two mesh schedules are studied.  Test 1 refines the fluid and structure
grids in lockstep (n_fluid = 16 * 2^k pressure cells per side,
n_solid = 8 * 2^k), keeping h_solid / h_fluid = 1/2, which is the regime
where the single-rule h1 coupling stalls.  Test 2 refines the structure
faster, n_solid = round((n_fluid / 2)^{3/2}) with n_fluid = 8 * 2^k, so
the ratio h_solid / h_fluid tends to zero and the h1 coupling error
decays with a fractional rate.

Each level solves the coupled system with the requested coupling and
assembly mode, building that mode's coupling matrix alone, and measures
error norms against the manufactured solution; the two studies record
the matrix 1-norm gap between the exactly and approximately integrated
coupling matrices, which the quadrature error study streams without
building either matrix.  Results are written as CSV with floats at 17
significant digits and no timestamps, so repeated runs are byte-identical.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .assembly import (approx_nodes, assemble_Af, assemble_As, assemble_B,
                       assemble_Cf_approx, assemble_Cf_exact, assemble_Cs,
                       assemble_rhs, coupling_gap, matrix_1norm_diff,
                       pressure_mean_row)
from .fespace import (multiplier_space, pressure_space, solid_space,
                      velocity_space)
from .geom_intersect import build_all_schemes
from .manufactured_errors import (FLUID_BOX, SOLID_BOX, error_norms,
                                  manufactured_solution)
from .mesh import DomainViolationError, midpoint_refine, uniform_mesh
from .saddle_solver import (Blocks, SingularSystemError, build_system,
                            dump_solution, solve)

__all__ = ["ExperimentPlan", "test1_schedule", "test2_schedule",
           "run_convergence", "quadrature_error_study", "compute_rates",
           "coupling_gap_norm", "write_convergence_csv", "write_quaderr_csv",
           "cli_main", "main"]

CONVERGENCE_HEADER = ("level,h_omega,h_solid,err_u_h1,err_p_l2,err_x_h1,"
                      "err_lambda,cf_diff_1norm,rate_u,rate_p,rate_x,"
                      "rate_lambda,rate_cf")
QUADERR_HEADER = "level,h_solid,h_omega,cf_diff_1norm,rate"

_ERR_RATE_PAIRS = [("err_u_h1", "rate_u"), ("err_p_l2", "rate_p"),
                   ("err_x_h1", "rate_x"), ("err_lambda", "rate_lambda"),
                   ("cf_diff_1norm", "rate_cf")]

FLUID_SIDE = FLUID_BOX[2] - FLUID_BOX[0]
SOLID_SIDE = SOLID_BOX[2] - SOLID_BOX[0]


def test1_schedule(levels):
    """(n_fluid, n_solid) pairs with the mesh ratio fixed at 1/2."""
    return [(16 * 2 ** k, 8 * 2 ** k) for k in range(levels)]


def test2_schedule(levels):
    """(n_fluid, n_solid) pairs with h_solid = (h_fluid / 2)^{3/2}."""
    return [(8 * 2 ** k, int(round((8 * 2 ** k / 2.0) ** 1.5)))
            for k in range(levels)]


@dataclass(frozen=True)
class ExperimentPlan:
    """A refinement study: which test, coupling, assembly mode, and levels."""

    test_id: int
    coupling: str
    assembly_mode: str
    levels: int

    def __post_init__(self):
        if self.test_id not in (1, 2):
            raise ValueError("test_id must be 1 or 2")
        if self.coupling not in ("l2", "h1"):
            raise ValueError("coupling must be 'l2' or 'h1'")
        if self.assembly_mode not in ("exact", "approx"):
            raise ValueError("assembly_mode must be 'exact' or 'approx'")
        if self.levels < 1:
            raise ValueError("levels must be at least 1")

    @property
    def schedule(self):
        """(n_fluid, n_solid) per level."""
        sched = test1_schedule if self.test_id == 1 else test2_schedule
        return sched(self.levels)


def build_level_spaces(n_fluid, n_solid):
    """Meshes and spaces for one refinement level.

    The pressure mesh uses right diagonals, the structure mesh left
    diagonals, so that mapped structure edges cut fluid cells
    generically instead of lining up with them.
    """
    coarse = uniform_mesh((FLUID_BOX[0], FLUID_BOX[1]),
                          (FLUID_BOX[2], FLUID_BOX[3]), n_fluid,
                          orientation="right")
    refined = midpoint_refine(coarse)
    solid = uniform_mesh((SOLID_BOX[0], SOLID_BOX[1]),
                         (SOLID_BOX[2], SOLID_BOX[3]), n_solid,
                         orientation="left")
    V = velocity_space(refined)
    Q = pressure_space(coarse)
    S = solid_space(solid)
    L = multiplier_space(solid)
    return V, Q, S, L


def coupling_gap_norm(Cf_ex, Cf_ap):
    """Reported size of the coupling quadrature error.

    Cf_ex and Cf_ap are the coupling matrices, the scalar block of each
    component.  Column sums are taken over multiplier vertices
    (transposed layout): each sum is the total integration error
    committed against one multiplier basis function, which is the
    quantity the single-point rules control through the mesh ratio.
    Column sums over velocity vertices would instead
    aggregate every multiplier hat living on one fluid patch and stay O(1)
    under structure-only refinement.
    """
    return matrix_1norm_diff(Cf_ex.T, Cf_ap.T)


def _coupling(L, V, xbar, coupling, mode):
    """Coupling matrix of one assembly mode and the level's geometry it
    was built from, for assemble_rhs to reuse: the supermesh table
    (exact) or the located approx node groups (approx).  This is the one
    place the mode is chosen; every consumer reads it from the geometry."""
    if mode == "exact":
        nodes = build_all_schemes(L.mesh, xbar, V.mesh)
        return assemble_Cf_exact(L, V, xbar, coupling, nodes), nodes
    nodes = approx_nodes(L, V, xbar, coupling)
    return assemble_Cf_approx(L, V, nodes), nodes


def solve_level(n_fluid, n_solid, coupling, assembly_mode, exact=None):
    """Assemble and solve one level with the coupling matrix of
    assembly_mode alone; returns (record, solution, system)."""
    exact = exact or manufactured_solution()
    V, Q, S, L = build_level_spaces(n_fluid, n_solid)
    Cf, nodes = _coupling(L, V, exact.xbar, coupling, assembly_mode)
    blocks = Blocks(
        Af=assemble_Af(V),
        As=assemble_As(S),
        B=assemble_B(V, Q),
        Cf=Cf,
        Cs=assemble_Cs(L, S, coupling),
        mean_row=pressure_mean_row(Q),
    )
    rhs = assemble_rhs(V, S, L, exact, coupling, nodes)
    del nodes
    system = build_system(blocks, rhs, (V, S, L, Q))
    sol = solve(system)
    record = {
        "level": None,
        "h_omega": FLUID_SIDE / n_fluid,
        "h_solid": SOLID_SIDE / n_solid,
    }
    record.update(error_norms(sol, exact, coupling))
    return record, sol, system


def _convergence_record(n_fluid, n_solid, plan, exact):
    """One level's record: the solve in the plan's assembly mode, then the
    gap against the other mode's matrix.  The solved system is released
    before that matrix is built, and nothing of the level outlives the
    call."""
    record, sol, system = solve_level(n_fluid, n_solid, plan.coupling,
                                      plan.assembly_mode, exact)
    V, _, L, _ = system.spaces
    Cf = {plan.assembly_mode: system.blocks.Cf}
    del sol, system
    other = "approx" if plan.assembly_mode == "exact" else "exact"
    Cf[other] = _coupling(L, V, exact.xbar, plan.coupling, other)[0]
    record["cf_diff_1norm"] = coupling_gap_norm(Cf["exact"], Cf["approx"])
    return record


def _study(plan, level_record):
    """Rate-annotated records of level_record(n_fluid, n_solid), which
    builds a level's spaces and its record, over the plan's levels.  A
    level that leaves the fluid domain or gives a singular system is
    named in the error."""
    records = []
    for level, (n_fluid, n_solid) in enumerate(plan.schedule):
        try:
            record = level_record(n_fluid, n_solid)
        except (DomainViolationError, SingularSystemError) as exc:
            raise type(exc)("level %d (n_fluid=%d, n_solid=%d): %s"
                            % (level, n_fluid, n_solid, exc)) from exc
        record["level"] = level
        records.append(record)
    return compute_rates(records, plan.test_id)


def run_convergence(plan):
    """Solve every level of the plan and return rate-annotated records;
    the gap column builds the other mode's matrix after each solve."""
    exact = manufactured_solution()
    return _study(plan, lambda n_fluid, n_solid: _convergence_record(
        n_fluid, n_solid, plan, exact))


def quadrature_error_study(plan):
    """Coupling-matrix gap per level, without solving the systems or
    building either coupling matrix (assembly.coupling_gap)."""
    xbar = manufactured_solution().xbar

    def record(n_fluid, n_solid):
        V, _, _, L = build_level_spaces(n_fluid, n_solid)
        return {"h_omega": FLUID_SIDE / n_fluid,
                "h_solid": SOLID_SIDE / n_solid,
                "cf_diff_1norm": coupling_gap(L, V, xbar, plan.coupling)}
    return _study(plan, record)


def fitted_slope(hs, errors):
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if hs.size < 2 or np.any(errors <= 0) or np.any(hs <= 0):
        return math.nan
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def compute_rates(records, test_id):
    """Annotate records with observed rates.

    Test 1 reports per-level ratios log2(e_{k-1} / e_k); Test 2 reports
    the global least-squares slope of log(e) against log(h_solid) over
    all levels.  Level 0 has no rate and carries NaN.
    """
    for err_key, rate_key in _ERR_RATE_PAIRS:
        if err_key not in records[0]:
            continue
        errors = [rec[err_key] for rec in records]
        if test_id == 1:
            rates = [math.nan]
            for k in range(1, len(records)):
                prev, cur = errors[k - 1], errors[k]
                if prev > 0 and cur > 0:
                    rates.append(math.log2(prev / cur))
                else:
                    rates.append(math.nan)
        else:
            slope = fitted_slope([rec["h_solid"] for rec in records], errors)
            rates = [math.nan] + [slope] * (len(records) - 1)
        for rec, rate in zip(records, rates):
            rec[rate_key] = rate
    return records


def _fmt(value):
    if isinstance(value, int):
        return "%d" % value
    value = float(value)
    if math.isnan(value):
        return "nan"
    return "%.17g" % value


def _write_csv(records, path, header, keys):
    lines = [header] + [",".join(_fmt(rec[key]) for key in keys)
                        for rec in records]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_convergence_csv(records, path):
    _write_csv(records, path, CONVERGENCE_HEADER,
               CONVERGENCE_HEADER.split(","))


def write_quaderr_csv(records, path):
    _write_csv(records, path, QUADERR_HEADER,
               ("level", "h_solid", "h_omega", "cf_diff_1norm", "rate_cf"))


# -- command line ---------------------------------------------------------


def _add_common(parser, with_assembly=True):
    parser.add_argument("--coupling", choices=["l2", "h1"], default="l2",
                        help="constraint form: duality pairing (l2) or "
                             "full scalar product (h1)")
    if with_assembly:
        parser.add_argument("--assembly", choices=["exact", "approx"],
                            default="approx",
                            help="coupling matrix integration mode")
    parser.add_argument("--out", required=True, help="output CSV path")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fdlm",
        description="Fictitious-domain FSI convergence experiments on "
                    "non-matching grids.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full convergence study")
    p_run.add_argument("--test", type=int, choices=[1, 2], required=True)
    p_run.add_argument("--levels", type=int, default=4)
    _add_common(p_run)

    p_q = sub.add_parser("quaderr", help="coupling-matrix quadrature error "
                                         "study (no solves)")
    p_q.add_argument("--test", type=int, choices=[1, 2], required=True)
    p_q.add_argument("--levels", type=int, default=4)
    _add_common(p_q, with_assembly=False)

    p_s = sub.add_parser("solve", help="single solve with a solution dump")
    p_s.add_argument("--n-fluid", type=int, required=True,
                     help="pressure cells per side of the fluid box")
    p_s.add_argument("--n-solid", type=int, required=True,
                     help="cells per side of the structure square")
    _add_common(p_s)
    return parser


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    # Refused before any level is built, rather than after the study.
    if not args.out:
        print("fdlm: error: --out is empty", file=sys.stderr)
        return 2
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        print("fdlm: error: --out directory %s does not exist" % out_dir,
              file=sys.stderr)
        return 2
    if os.path.isdir(args.out):
        print("fdlm: error: --out %s is a directory" % args.out,
              file=sys.stderr)
        return 2
    if args.command in ("run", "quaderr") and args.levels < 2:
        print("fdlm: error: %s requires --levels >= 2" % args.command,
              file=sys.stderr)
        return 2

    try:
        if args.command == "run":
            plan = ExperimentPlan(args.test, args.coupling, args.assembly,
                                  args.levels)
            records = run_convergence(plan)
            write_convergence_csv(records, args.out)
        elif args.command == "quaderr":
            plan = ExperimentPlan(args.test, args.coupling, "approx",
                                  args.levels)
            records = quadrature_error_study(plan)
            write_quaderr_csv(records, args.out)
        else:
            if args.n_fluid < 1 or args.n_solid < 1:
                print("fdlm: error: mesh sizes must be positive",
                      file=sys.stderr)
                return 2
            record, sol, _ = solve_level(args.n_fluid, args.n_solid,
                                         args.coupling, args.assembly)
            dump_solution(sol, args.out)
            for key in ("err_u_h1", "err_p_l2", "err_x_h1", "err_lambda"):
                print("%s = %.17g" % (key, record[key]))
            print("relative_residual = %.17g" % sol.relative_residual)
    except (DomainViolationError, SingularSystemError,
            np.linalg.LinAlgError, OSError) as exc:
        print("fdlm: error: %s" % exc, file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
