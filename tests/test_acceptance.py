"""End-to-end acceptance checks for the coupled solver and its experiments.

Each test prints one ``ACCEPTANCE NN PASS/FAIL`` line (run with ``-s`` to
see them all) and asserts the same condition, so the suite doubles as a
checklist of the reproduced results:

  01  mass-pairing matrix gap decays at second order on matched meshes
  02  gradient-pairing gap stagnates when the mesh ratio is held fixed
  03  gradient-pairing gap decays (~1/3) when the ratio vanishes
  04  exact assembly: first-order velocity/displacement, pressure >= 3/2
  05  approximate mass pairing keeps the optimal rates
  06  approximate gradient pairing is suboptimal (~1/3) under test 2
  07  exact and approximate assembly coincide on nested elements
  08  every solve converges, small residual, discretely divergence free
  09  matrix pairings and the strong-form load match independent oracles
  10  clipping conserves area; quadrature rules integrate monomials
  11  dual norm of zero and of a unit constant field
  12  inverse-inequality ratio sequence stays bounded under refinement

One more test pins the Test 2 gradient-pairing displacement slopes of
both assemblies.  It records a finding, that exact assembly gives the
lower slope on this schedule, and checks no criterion.

The expensive artifacts (matrix-gap studies, the five solve sweeps) are
module-scoped fixtures shared across criteria; the full file runs at desk
scale in a few minutes.
"""

import math
import time

import numpy as np
import pytest

import fdlm.experiments_cli as xcli
from fdlm.assembly import (approx_nodes, assemble_Cf_approx,
                           assemble_Cf_exact, matrix_1norm_diff)
from fdlm.experiments_cli import (build_level_spaces, compute_rates,
                                  coupling_gap_norm, fitted_slope, solve_level)
from fdlm.fespace import interpolate, multiplier_space, velocity_space
from fdlm.geom_intersect import (build_all_schemes, clip_triangle,
                                 fan_triangulate, polygon_area)
from fdlm.manufactured_errors import (dual_norm, inverse_inequality_check,
                                      manufactured_solution, strong_form_f)
from fdlm.mesh import AffineMap, midpoint_refine, uniform_mesh
from fdlm.quadrature import conical_product_rule, integrate, rule_for_degree
from coupling_geometry import coupling_matrix, mode_rhs
from vector_blocks import vector_block

schedule1 = xcli.test1_schedule
schedule2 = xcli.test2_schedule


def _report(num, ok, detail):
    line = "ACCEPTANCE %02d %s %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line, flush=True)
    assert ok, line


def _worst_area_gap(mesh, schemes):
    totals = np.array([s.total_s_area() for s in schemes])
    return float(np.max(np.abs(totals - mesh.areas) / mesh.areas))


# -- shared studies -------------------------------------------------------


@pytest.fixture(scope="module")
def quaderr_t1():
    """Matrix gaps for both pairings on the matched-ratio schedule, 5 levels."""
    exact = manufactured_solution()
    out = {"hs": [], "gaps": {"l2": [], "h1": []}, "area_gaps": [],
           "mass_seconds": 0.0}
    for n_fluid, n_solid in schedule1(5):
        t0 = time.time()
        V, Q, S, L = build_level_spaces(n_fluid, n_solid)
        schemes = build_all_schemes(L.mesh, exact.xbar, V.mesh)
        ex = assemble_Cf_exact(L, V, exact.xbar, "l2", schemes)
        ap = assemble_Cf_approx(L, V, approx_nodes(L, V, exact.xbar, "l2"))
        out["gaps"]["l2"].append(coupling_gap_norm(ex, ap))
        out["mass_seconds"] += time.time() - t0
        ex = assemble_Cf_exact(L, V, exact.xbar, "h1", schemes)
        ap = assemble_Cf_approx(L, V, approx_nodes(L, V, exact.xbar, "h1"))
        out["gaps"]["h1"].append(coupling_gap_norm(ex, ap))
        out["hs"].append(L.mesh.h)
        out["area_gaps"].append(_worst_area_gap(L.mesh, schemes))
    return out


@pytest.fixture(scope="module")
def quaderr_t2():
    """Gradient-pairing gaps on the vanishing-ratio schedule, 4 levels."""
    exact = manufactured_solution()
    out = {"hs": [], "gaps": [], "area_gaps": []}
    for n_fluid, n_solid in schedule2(4):
        V, Q, S, L = build_level_spaces(n_fluid, n_solid)
        schemes = build_all_schemes(L.mesh, exact.xbar, V.mesh)
        ex = assemble_Cf_exact(L, V, exact.xbar, "h1", schemes)
        ap = assemble_Cf_approx(L, V, approx_nodes(L, V, exact.xbar, "h1"))
        out["gaps"].append(coupling_gap_norm(ex, ap))
        out["hs"].append(L.mesh.h)
        out["area_gaps"].append(_worst_area_gap(L.mesh, schemes))
    return out


@pytest.fixture(scope="module")
def solve_studies():
    """The five convergence sweeps, with per-solve health numbers."""
    studies = {}
    for key, test_id, coupling, mode in (
            ("t1_exact_l2", 1, "l2", "exact"),
            ("t1_exact_h1", 1, "h1", "exact"),
            ("t1_approx_l2", 1, "l2", "approx"),
            ("t2_approx_h1", 2, "h1", "approx"),
            ("t2_exact_h1", 2, "h1", "exact")):
        schedule = schedule1(4) if test_id == 1 else schedule2(4)
        records, health = [], []
        for level, (n_fluid, n_solid) in enumerate(schedule):
            rec, sol, system = solve_level(n_fluid, n_solid, coupling, mode)
            rec["level"] = level
            records.append(rec)
            div = system.blocks.B @ sol.u.coefficients
            health.append((sol.relative_residual, float(np.abs(div).max())))
        studies[key] = {"records": compute_rates(records, test_id),
                        "health": health}
    return studies


# -- quadrature error of the coupling matrix ------------------------------


def test_01_mass_gap_second_order(quaderr_t1):
    slope = fitted_slope(quaderr_t1["hs"], quaderr_t1["gaps"]["l2"])
    secs = quaderr_t1["mass_seconds"]
    ok = 1.7 <= slope <= 2.3 and secs < 300.0
    _report(1, ok, "l2 gap slope=%.3f in [1.7, 2.3]; study %.0fs < 300s"
            % (slope, secs))


def test_02_gradient_gap_stagnates_at_fixed_ratio(quaderr_t1):
    slope = fitted_slope(quaderr_t1["hs"], quaderr_t1["gaps"]["h1"])
    ok = -0.2 <= slope <= 0.2
    _report(2, ok, "h1 gap slope=%.3f in [-0.2, 0.2]" % slope)


def test_03_gradient_gap_decays_at_vanishing_ratio(quaderr_t2):
    slope = fitted_slope(quaderr_t2["hs"], quaderr_t2["gaps"])
    ok = 0.2 <= slope <= 0.45
    _report(3, ok, "h1 gap slope=%.3f in [0.2, 0.45]" % slope)


# -- solution convergence --------------------------------------------------


def _rate_window(rec):
    return (0.85 <= rec["rate_u"] <= 1.2 and 0.85 <= rec["rate_x"] <= 1.2
            and rec["rate_p"] >= 1.3)


def test_04_exact_assembly_optimal_rates(solve_studies):
    parts, ok = [], True
    for coupling in ("l2", "h1"):
        last = solve_studies["t1_exact_" + coupling]["records"][-1]
        ok = ok and _rate_window(last)
        parts.append("%s u=%.2f x=%.2f p=%.2f"
                     % (coupling, last["rate_u"], last["rate_x"],
                        last["rate_p"]))
    _report(4, ok, "; ".join(parts) + " (u,x in [0.85,1.2], p >= 1.3)")


def test_05_approximate_mass_pairing_stays_optimal(solve_studies):
    last = solve_studies["t1_approx_l2"]["records"][-1]
    _report(5, _rate_window(last),
            "u=%.2f x=%.2f p=%.2f (u,x in [0.85,1.2], p >= 1.3)"
            % (last["rate_u"], last["rate_x"], last["rate_p"]))


def test_06_approximate_gradient_pairing_suboptimal(solve_studies):
    last = solve_studies["t2_approx_h1"]["records"][-1]
    ok = 0.2 <= last["rate_x"] <= 0.5
    _report(6, ok, "displacement slope=%.3f in [0.2, 0.5]" % last["rate_x"])


def test_test2_gradient_pairing_slopes_recorded(solve_studies):
    # Over levels 0-3 the exact displacement slope lies below the approx
    # one, inside acceptance 06's window too: the window alone does not
    # tell the quadrature's effect from the schedule's.
    slopes = {mode: solve_studies["t2_%s_h1" % mode]["records"][-1]["rate_x"]
              for mode in ("approx", "exact")}
    assert slopes["approx"] == pytest.approx(0.45994, abs=0.005)
    assert slopes["exact"] == pytest.approx(0.33555, abs=0.005)
    assert slopes["exact"] < slopes["approx"]


def test_07_nested_elements_make_both_assemblies_agree():
    solid = uniform_mesh((0.0, 0.0), (1.0, 1.0), 8, orientation="right")
    fluid = midpoint_refine(uniform_mesh((-2.0, -2.0), (2.0, 2.0), 16,
                                         orientation="right"))
    L = multiplier_space(solid)
    V = velocity_space(fluid)
    xbar = AffineMap(np.eye(2), (-1.0, -1.0))
    worst = 0.0
    for coupling in ("l2", "h1"):
        ex, ap = (coupling_matrix(L, V, xbar, coupling, mode)
                  for mode in ("exact", "approx"))
        worst = max(worst, matrix_1norm_diff(ex, ap),
                    coupling_gap_norm(ex, ap))
    _report(7, worst <= 1e-13, "worst gap %.2e <= 1e-13" % worst)


def test_08_every_solve_well_posed(solve_studies):
    residuals, divs = [], []
    for study in solve_studies.values():
        for res, dinf in study["health"]:
            residuals.append(res)
            divs.append(dinf)
    ok = max(residuals) <= 1e-8 and max(divs) <= 1e-9
    _report(8, ok, "%d solves: max rel residual %.1e <= 1e-8, "
            "max |div u| %.1e <= 1e-9"
            % (len(residuals), max(residuals), max(divs)))


# -- independent oracles ---------------------------------------------------


def _bary(mesh, t, pts):
    verts = mesh.vertices[mesh.triangles[t]]
    mat = np.vstack([np.ones(3), verts.T])
    rhs = np.vstack([np.ones(len(pts)), np.asarray(pts).T])
    return np.linalg.solve(mat, rhs).T


def _pairing_oracle(L, V, xbar, mus, vs, coupling, schemes):
    """mu^T C_f v for stacked coefficient rows, via degree-9 subcell rules."""
    rule = conical_product_rule(5)
    mesh_b, mesh_f = L.mesh, V.mesh
    nb, nf = L.n_vertices, V.n_vertices
    total = np.zeros(len(mus))
    for t in range(mesh_b.n_triangles):
        sch = schemes[t]
        tb = mesh_b.triangles[t]
        mu_vert = np.stack([mus[:, c * nb + tb] for c in range(2)], axis=-1)
        vb = mesh_b.vertices[tb]
        for sub, owner, area in zip(sch.subcells, sch.owners, sch.s_areas):
            pts = rule.points @ np.column_stack([sub[1] - sub[0],
                                                 sub[2] - sub[0]]).T + sub[0]
            tf = mesh_f.triangles[owner]
            v_vert = np.stack([vs[:, c * nf + tf] for c in range(2)], axis=-1)
            mu_q = np.einsum("ki,pic->pkc", _bary(mesh_b, t, pts), mu_vert)
            v_q = np.einsum("ki,pic->pkc",
                            _bary(mesh_f, owner, xbar.apply(pts)), v_vert)
            total += area * np.einsum("k,pkc,pkc->p", rule.weights, mu_q, v_q)
            if coupling == "h1":
                vf = mesh_f.vertices[tf]
                gmu = np.linalg.solve(vb[1:] - vb[0],
                                      (mu_vert[:, 1:] - mu_vert[:, :1])
                                      .transpose(1, 0, 2).reshape(2, -1))
                gv = np.linalg.solve(vf[1:] - vf[0],
                                     (v_vert[:, 1:] - v_vert[:, :1])
                                     .transpose(1, 0, 2).reshape(2, -1))
                dots = np.einsum("dq,dq->q", gmu, xbar.matrix.T @ gv)
                total += area * dots.reshape(len(mus), 2).sum(axis=1)
    return total


def _strong_load(V, exact):
    """Load vector of the strong-form fluid source.

    The source jumps across the mapped-structure boundary, so cut fluid
    elements integrate the smooth part on the whole element and the jump
    term on the clipped intersection; uncut elements evaluate the
    pointwise source directly.
    """
    rule = conical_product_rule(5)
    f_pointwise = strong_form_f(exact)
    det = abs(exact.xbar.det)
    corners = exact.xbar.apply(np.array([[0.0, 0.0], [1.0, 0.0],
                                         [1.0, 1.0], [0.0, 1.0]]))
    fans = fan_triangulate(corners)
    mesh = V.mesh
    nv = V.n_vertices
    F = np.zeros(V.n_dofs)

    def smooth(pts):
        return -exact.lap_u(pts) + exact.grad_p(pts)

    def lam_jump(pts):
        return exact.lam(exact.xbar.apply_inverse(pts)) / det

    def add(tri_idx, tri, cell, g):
        a = cell[0]
        m = np.column_stack([cell[1] - a, cell[2] - a])
        area = 0.5 * abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        if area == 0.0:
            return
        pts = rule.points @ m.T + a
        bary = np.linalg.solve(np.vstack([np.ones(3), tri.T]),
                               np.vstack([np.ones(len(pts)), pts.T])).T
        vals = g(pts)
        for c in range(2):
            F[c * nv + tri_idx] += area * ((rule.weights * vals[:, c]) @ bary)

    for t in range(mesh.n_triangles):
        tri_idx = mesh.triangles[t]
        tri = mesh.vertices[tri_idx]
        subs = [s for fan in fans
                for s in fan_triangulate(clip_triangle(tri, fan))]
        cut = sum(abs(polygon_area(s)) for s in subs)
        if cut <= 1e-12 * mesh.areas[t] or cut >= (1 - 1e-12) * mesh.areas[t]:
            add(tri_idx, tri, tri, f_pointwise)
        else:
            add(tri_idx, tri, tri, smooth)
            for s in subs:
                add(tri_idx, tri, s, lam_jump)
    return F


def test_09_matrix_and_load_match_independent_oracles():
    exact = manufactured_solution()
    rng = np.random.default_rng(42)
    worst_rel = 0.0
    for n_fluid, n_solid in ((16, 8), (32, 16)):
        V, Q, S, L = build_level_spaces(n_fluid, n_solid)
        schemes = build_all_schemes(L.mesh, exact.xbar, V.mesh)
        mus = rng.standard_normal((10, L.n_dofs))
        vs = rng.standard_normal((10, V.n_dofs))
        for coupling in ("l2", "h1"):
            Cf = assemble_Cf_exact(L, V, exact.xbar, coupling, schemes)
            direct = np.einsum("pi,pi->p", mus,
                               (vector_block(Cf) @ vs.T).T)
            oracle = _pairing_oracle(L, V, exact.xbar, mus, vs, coupling,
                                     schemes)
            rel = np.abs(direct - oracle) / np.maximum(np.abs(oracle), 1e-30)
            worst_rel = max(worst_rel, float(rel.max()))
    ok_pairs = worst_rel <= 1e-11

    # the strong-form source must reproduce the weak-form load on
    # wall-vanishing test functions up to quadrature error well under h^2
    worst_c = 0.0
    for n in (8, 16, 32):
        V, Q, S, L = build_level_spaces(n, n // 2)
        F_weak = mode_rhs(V, S, L, exact, "l2", "exact")[0]
        F_strong = _strong_load(V, exact)
        w = interpolate(V, exact.u).coefficients
        delta = abs(float((F_weak - F_strong) @ w))
        worst_c = max(worst_c, delta / Q.mesh.h ** 2)
    ok_load = worst_c <= 5e-7
    _report(9, ok_pairs and ok_load,
            "pairing worst rel=%.1e <= 1e-11; load gap %.1e*h^2 <= 5e-7*h^2"
            % (worst_rel, worst_c))


# -- geometry and norm properties ------------------------------------------


def test_10_area_conservation_and_monomial_exactness(quaderr_t1, quaderr_t2):
    worst_area = max(max(quaderr_t1["area_gaps"]), max(quaderr_t2["area_gaps"]))
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    worst_mono = 0.0
    rules = [rule_for_degree(d) for d in (0, 2, 6)]
    rules += [conical_product_rule(n) for n in (2, 3, 4, 5)]
    for rule in rules:
        for a in range(rule.degree + 1):
            for b in range(rule.degree + 1 - a):
                val = integrate(lambda p: p[:, 0] ** a * p[:, 1] ** b,
                                ref, rule)
                want = (math.factorial(a) * math.factorial(b)
                        / math.factorial(a + b + 2))
                worst_mono = max(worst_mono, abs(val - want))
    ok = worst_area <= 1e-10 and worst_mono <= 1e-13
    _report(10, ok, "area gap %.1e <= 1e-10 on all mesh pairs; "
            "monomial gap %.1e <= 1e-13" % (worst_area, worst_mono))


def test_11_dual_norm_of_zero_and_unit_constant():
    L = multiplier_space(uniform_mesh((0.0, 0.0), (1.0, 1.0), 16,
                                      orientation="left"))

    def zero(pts):
        return np.zeros(np.asarray(pts, dtype=float).shape)

    def unit_x(pts):
        x = np.asarray(pts, dtype=float)[..., 0]
        return np.stack([np.ones_like(x), np.zeros_like(x)], axis=-1)

    dn_zero = dual_norm(L, zero)
    dn_unit = dual_norm(L, unit_x)
    ok = dn_zero == 0.0 and abs(dn_unit - 1.0) <= 1e-10
    _report(11, ok, "|zero|=%.1e (exact 0); |const (1,0)|-1=%.1e <= 1e-10"
            % (dn_zero, abs(dn_unit - 1.0)))


def test_12_inverse_inequality_ratios_stay_bounded():
    spaces = [multiplier_space(uniform_mesh((0.0, 0.0), (1.0, 1.0), n,
                                            orientation="left"))
              for n in (8, 16, 32, 64)]
    ratios = inverse_inequality_check(spaces)
    slope = fitted_slope([sp.mesh.h for sp in spaces], ratios)
    _report(12, slope >= -0.2,
            "log-slope of h*|mu|_0/|mu|_dual = %.3f >= -0.2" % slope)
