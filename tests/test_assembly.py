"""Block matrices and right-hand sides.

The coupling matrices are checked against an independent evaluation
path: basis values come from solving the 3x3 vertex system per point
(instead of the precomputed gradient tables the assembly uses), and the
reference integrals use a degree-9 conical rule on the intersection
subcells.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import fdlm.assembly as assembly
import fdlm.mesh
from fdlm.assembly import (approx_nodes, assemble_Af, assemble_As,
                           assemble_B, assemble_Cf_approx, assemble_Cf_exact,
                           assemble_Cs, assemble_rhs, matrix_1norm_diff,
                           pressure_mean_row)
import fdlm.experiments_cli as xcli
from fdlm.fespace import (FEFunction, interpolate, multiplier_space,
                          pressure_space, solid_space, velocity_space)
from fdlm.geom_intersect import build_all_schemes
from fdlm.manufactured_errors import manufactured_solution, zero_solution
from fdlm.mesh import AffineMap, DomainViolationError, midpoint_refine, \
    uniform_mesh
from fdlm.quadrature import conical_product_rule, rule_for_degree
from coupling_geometry import coupling_matrix, geometry, mode_rhs
from vector_blocks import vector_block


def standard_map():
    return AffineMap(2.0 * np.eye(2), (-0.62, -0.62))


# The sheared placement of test_geom_intersect: its matrix is not
# symmetric, so a transposed Jacobian changes the gradient coupling.
SHEARED = AffineMap(np.array([[1.9, 0.45], [0.0, 2.1]]), (-1.093, -0.971))


def fluid_spaces(n):
    coarse = uniform_mesh((-2, -2), (2, 2), n)
    refined = midpoint_refine(coarse)
    return velocity_space(refined), pressure_space(coarse)


def solid_spaces(n, orientation="left"):
    mesh = uniform_mesh((0, 0), (1, 1), n, orientation=orientation)
    return solid_space(mesh), multiplier_space(mesh)


def bary_eval(mesh, t, pts):
    """P1 basis values at pts via the vertex system, no gradient tables."""
    verts = mesh.vertices[mesh.triangles[t]]
    mat = np.vstack([np.ones(3), verts.T])
    rhs = np.vstack([np.ones(len(pts)), np.asarray(pts).T])
    return np.linalg.solve(mat, rhs).T


def secant_grad(mesh, t, vertex_vals):
    """Gradient of the P1 field with the given vertex values on element t."""
    verts = mesh.vertices[mesh.triangles[t]]
    return np.linalg.solve(verts[1:] - verts[0],
                           vertex_vals[1:] - vertex_vals[0])


def vec_comp(space, coeff, c):
    return coeff[c * space.n_vertices:(c + 1) * space.n_vertices]


def coupling_oracle(L, V, xbar, mu_c, v_c, coupling):
    """mu^T C_f v by degree-9 quadrature on the intersection subcells."""
    rule = conical_product_rule(5)
    schemes = build_all_schemes(L.mesh, xbar, V.mesh)
    mesh_b, mesh_f = L.mesh, V.mesh
    total = 0.0
    for t in range(mesh_b.n_triangles):
        sch = schemes[t]
        mu_vert = np.stack([vec_comp(L, mu_c, c)[mesh_b.triangles[t]]
                            for c in range(2)], axis=-1)
        for sub, owner, area in zip(sch.subcells, sch.owners, sch.s_areas):
            pts = rule.points @ np.column_stack([sub[1] - sub[0],
                                                 sub[2] - sub[0]]).T + sub[0]
            mu = bary_eval(mesh_b, t, pts) @ mu_vert
            v_vert = np.stack([vec_comp(V, v_c, c)[mesh_f.triangles[owner]]
                               for c in range(2)], axis=-1)
            v = bary_eval(mesh_f, owner, xbar.apply(pts)) @ v_vert
            total += area * float(rule.weights @ np.einsum("kc,kc->k", mu, v))
            if coupling == "h1":
                dot = 0.0
                for c in range(2):
                    gmu = secant_grad(mesh_b, t, mu_vert[:, c])
                    gvx = secant_grad(mesh_f, owner, v_vert[:, c])
                    dot += gmu @ (xbar.matrix.T @ gvx)
                total += area * dot
    return total


# -- whole-mesh oracle ---------------------------------------------------
# The scatter the assembly used before it took its rows in blocks: the
# (R, C) blocks of every cell of the whole mesh in one COO matrix, summed
# by one tocsr(); a vector block is that of one component.


def coo_scatter(rows, cols, vals, shape):
    r = np.repeat(rows, cols.shape[1], axis=1)
    c = np.tile(cols, (1, rows.shape[1]))
    A = sp.coo_matrix((vals.ravel(), (r.ravel(), c.ravel())),
                      shape=shape).tocsr()
    A.eliminate_zeros()
    return A


def whole_mass(mesh):
    rule = rule_for_degree(2)
    basis = assembly._basis_table(rule)
    m_unit = np.einsum("k,ki,kj->ij", rule.weights, basis, basis)
    tri, nv = mesh.triangles, mesh.n_vertices
    return coo_scatter(tri, tri, mesh.areas[:, None, None] * m_unit, (nv, nv))


def whole_stiffness(mesh):
    tri, nv = mesh.triangles, mesh.n_vertices
    vals = (mesh.areas[:, None, None]
            * np.einsum("mid,mjd->mij", mesh.grads(), mesh.grads()))
    return coo_scatter(tri, tri, vals, (nv, nv))


def whole_form(mesh, mass=False):
    A = whole_stiffness(mesh)
    if mass:
        A = A + whole_mass(mesh)
    return A.tocsr()


def whole_B(V, Q):
    mesh_v, mesh_q = V.mesh, Q.mesh
    parent = np.arange(mesh_v.n_triangles) // 4
    psi = assembly._hats(mesh_q, parent, mesh_v.centroids()[:, None, :],
                         mesh_q.grads(parent))[:, 0]
    vals = np.einsum("m,mi,mjc->mijc", mesh_v.areas, psi, mesh_v.grads())
    cols = mesh_v.triangles[:, :, None] + V.n_vertices * np.arange(2)
    return coo_scatter(mesh_q.triangles[parent], cols.reshape(-1, 6),
                       vals.reshape(-1, 3, 6), (Q.n_dofs, V.n_dofs))


def whole_Cs(L, S, coupling):
    A = whole_mass(S.mesh)
    if coupling == "h1":
        A = A + whole_stiffness(S.mesh)
    return A.tocsr()


def whole_coupling(L, V, nodes):
    """Cf of node groups, every cell of every stream at once: stream by
    stream, each in cell order."""
    sets = [n for stream in zip(*(sets for sets, _ in nodes)) for n in stream]
    rows = np.concatenate([L.mesh.triangles[n.parent] for n in sets])
    cols = np.concatenate([V.mesh.triangles[n.owner] for n in sets])
    vals = np.concatenate([assembly._cell_entries(L, V, n) for n in sets])
    return coo_scatter(rows, cols, vals, (L.n_vertices, V.n_vertices))


# Levels 0-3 of both schedules, each with the small block size it is
# checked with again: 7 leaves a short last block everywhere, but level
# 3 takes tens of thousands of such blocks, so it is checked with 300,
# the size CI runs the gap study with.
SCATTER_LEVELS = {level: 7 if k < 3 else 300
                  for sched in (xcli.test1_schedule, xcli.test2_schedule)
                  for k, level in enumerate(sched(4))}


def level_matrices(V, Q, S, L, xbar, schemes, approx, whole):
    """Every block matrix of one level, by the assembly or, with whole,
    by the whole-mesh oracle; the coupling geometry is given."""
    out = {}
    for name, space, assemble in (("Af", V, assemble_Af),
                                  ("As", S, assemble_As)):
        # "mass" is the unit K + M: no command assembles it, but the
        # solver's mass-term tests build their fluid blocks from K and M.
        if whole:
            out[name, "default"] = whole_form(space.mesh)
            out[name, "mass"] = whole_form(space.mesh, mass=True)
        else:
            out[name, "default"] = assemble(space)
            out[name, "mass"] = assembly._p1_matrix(space.mesh, mass=True)
    out["B"] = whole_B(V, Q) if whole else assemble_B(V, Q)
    for c in ("l2", "h1"):
        exact_nodes = assembly._subcell_nodes(xbar, c, rule_for_degree(2),
                                              schemes)
        if whole:
            out["Cs", c] = whole_Cs(L, S, c)
            out["Cf exact", c] = whole_coupling(L, V, exact_nodes)
            out["Cf approx", c] = whole_coupling(L, V, approx[c])
        else:
            out["Cs", c] = assemble_Cs(L, S, c)
            out["Cf exact", c] = assemble_Cf_exact(L, V, xbar, c, schemes)
            out["Cf approx", c] = assemble_Cf_approx(L, V, approx[c])
    return out


@pytest.mark.parametrize("n_fluid,n_solid", sorted(SCATTER_LEVELS))
def test_matrices_equal_whole_mesh_scatter(monkeypatch, n_fluid, n_solid):
    # Bit for bit, with the default blocks and with small blocks of rows,
    # cells and elements.
    V, Q, S, L = xcli.build_level_spaces(n_fluid, n_solid)
    xbar = manufactured_solution().xbar
    schemes = build_all_schemes(L.mesh, xbar, V.mesh)
    approx = {c: approx_nodes(L, V, xbar, c) for c in ("l2", "h1")}
    geometry = (V, Q, S, L, xbar, schemes, approx)
    want = level_matrices(*geometry, whole=True)
    for block in (None, SCATTER_LEVELS[n_fluid, n_solid]):
        if block:
            monkeypatch.setattr(fdlm.mesh, "_BLOCK", block)
        assert_same_matrices(level_matrices(*geometry, whole=False), want,
                             block)


def assert_same_matrices(got, want, block):
    assert got.keys() == want.keys()
    for name, A in want.items():
        assert got[name].shape == A.shape
        assert got[name].indices.dtype == A.indices.dtype
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got[name], attr),
                                  getattr(A, attr)), (name, attr, block)


# Fluid boxes whose spacing is not a power of two: there psi_i evaluated
# at the four children of a parent in one _hats call differs from one
# child at a time in the last bit, which power-of-two spacings hide.
ODD_SPACINGS = {"n12": ((-2, -2), (2, 2), 12),
                "offset-n10": ((-1.3, -1.3), (2.1, 2.1), 10)}


@pytest.mark.parametrize("box", sorted(ODD_SPACINGS))
def test_fluid_blocks_equal_whole_mesh_scatter_off_power_of_two(monkeypatch,
                                                                box):
    coarse = uniform_mesh(*ODD_SPACINGS[box])
    V, Q = velocity_space(midpoint_refine(coarse)), pressure_space(coarse)
    want = {"Af": whole_form(V.mesh), "B": whole_B(V, Q)}
    for block in (None, 7):
        if block:
            monkeypatch.setattr(fdlm.mesh, "_BLOCK", block)
        assert_same_matrices({"Af": assemble_Af(V), "B": assemble_B(V, Q)},
                             want, block)


class TestVolumeMatrices:
    def test_fluid_mass_total(self):
        # constants kill the stiffness part; the mass part integrates 1
        # over both components of the fluid box
        V, _ = fluid_spaces(4)
        A = vector_block(assembly._p1_matrix(V.mesh, mass=True))
        ones = np.ones(V.n_dofs)
        assert ones @ A @ ones == pytest.approx(2.0 * 16.0, abs=1e-12)

    def test_fluid_rotation_energy(self):
        # v = (y, -x) is linear, so its interpolant is exact and
        # |grad v|^2 = 2 pointwise: energy = 2 * |fluid box|
        V, _ = fluid_spaces(4)
        v = interpolate(V, lambda p: np.stack([p[..., 1], -p[..., 0]],
                                              axis=-1))
        A = vector_block(assemble_Af(V))
        c = v.coefficients
        assert c @ A @ c == pytest.approx(32.0, rel=1e-13)

    def test_structure_constants(self):
        S, _ = solid_spaces(3)
        A = vector_block(assemble_As(S))
        ones = np.ones(S.n_dofs)
        assert abs(ones @ A @ ones) < 1e-12
        A = vector_block(assembly._p1_matrix(S.mesh, mass=True))
        assert ones @ A @ ones == pytest.approx(2.0, abs=1e-13)

    def test_structure_quadratic_energy(self):
        # energy of the interpolant of (s1^2, 0), checked against the
        # per-element secant gradients
        S, _ = solid_spaces(4)
        f = interpolate(S, lambda p: np.stack(
            [p[..., 0] ** 2, np.zeros_like(p[..., 0])], axis=-1))
        A = vector_block(assemble_As(S))
        mesh = S.mesh
        want = 0.0
        vals = vec_comp(S, f.coefficients, 0)
        for t in range(mesh.n_triangles):
            g = secant_grad(mesh, t, vals[mesh.triangles[t]])
            want += mesh.areas[t] * (g @ g)
        assert f.coefficients @ A @ f.coefficients == pytest.approx(
            want, rel=1e-13)

    def test_symmetry(self):
        V, _ = fluid_spaces(2)
        S, L = solid_spaces(3)
        Af = assembly._p1_matrix(V.mesh, mass=True)
        As = assembly._p1_matrix(S.mesh, mass=True)
        Cs = assemble_Cs(L, S, "h1")
        for M in (Af, As, Cs):
            assert abs(M - M.T).max() < 1e-14


class TestDivergenceMatrix:
    def test_constant_velocity_is_divergence_free(self):
        V, Q = fluid_spaces(4)
        B = assemble_B(V, Q)
        c = np.concatenate([np.full(V.n_vertices, 3.0),
                            np.full(V.n_vertices, -2.0)])
        assert np.abs(B @ c).max() < 1e-13

    def test_linear_velocity_hits_mean_row(self):
        # div (x, y) = 2, so testing against any pressure function
        # integrates 2 * psi_i
        V, Q = fluid_spaces(4)
        B = assemble_B(V, Q)
        v = interpolate(V, lambda p: p)
        m = pressure_mean_row(Q)
        np.testing.assert_allclose(B @ v.coefficients, 2.0 * m, atol=1e-13)

    def test_against_per_child_quadrature(self):
        # mu^T B v recomputed with independent parent lookup and secant
        # gradients on every refined element
        V, Q = fluid_spaces(2)
        B = assemble_B(V, Q)
        rng = np.random.default_rng(7)
        mu = rng.standard_normal(Q.n_dofs)
        vc = rng.standard_normal(V.n_dofs)
        mesh_v, mesh_q = V.mesh, Q.mesh
        want = 0.0
        for t in range(mesh_v.n_triangles):
            cent = mesh_v.centroids(t)
            parent = mesh_q.locate_point(cent)
            div = sum(secant_grad(mesh_v, t,
                                  vec_comp(V, vc, c)[mesh_v.triangles[t]])[c]
                      for c in range(2))
            q_at = bary_eval(mesh_q, parent, cent[None])[0] @ \
                mu[mesh_q.triangles[parent]]
            want += mesh_v.areas[t] * div * q_at
        assert mu @ B @ vc == pytest.approx(want, rel=1e-12)

    def test_mesh_pairing_checked(self):
        coarse = uniform_mesh((-2, -2), (2, 2), 4)
        V = velocity_space(midpoint_refine(coarse))
        with pytest.raises(ValueError):
            assemble_B(V, pressure_space(uniform_mesh((-2, -2), (2, 2), 8)))
        # The same sizes and box as a refinement, but no child keeps its
        # parent's corner and vertex numbering.
        V = velocity_space(uniform_mesh((-2, -2), (2, 2), 16))
        with pytest.raises(ValueError):
            assemble_B(V, pressure_space(uniform_mesh((-2, -2), (2, 2), 8)))


class TestStructureCoupling:
    def test_constants_l2(self):
        S, L = solid_spaces(4)
        C = vector_block(assemble_Cs(L, S, "l2"))
        ones = np.ones(S.n_dofs)
        assert ones @ C @ ones == pytest.approx(2.0, abs=1e-13)

    def test_constants_h1_stiffness_vanishes(self):
        S, L = solid_spaces(4)
        C = vector_block(assemble_Cs(L, S, "h1"))
        ones = np.ones(S.n_dofs)
        assert ones @ C @ ones == pytest.approx(2.0, abs=1e-13)

    def test_linear_fields_h1(self):
        # int s1 * s1 + int grad s1 . grad s1 = 1/3 + 1
        S, L = solid_spaces(4)
        C = vector_block(assemble_Cs(L, S, "h1"))
        f = interpolate(S, lambda p: np.stack(
            [p[..., 0], np.zeros_like(p[..., 0])], axis=-1))
        c = f.coefficients
        assert c @ C @ c == pytest.approx(1.0 / 3.0 + 1.0, rel=1e-13)

    def test_interpolants_against_quadrature(self):
        S, L = solid_spaces(3)
        mu = interpolate(L, lambda p: np.stack(
            [np.exp(p[..., 0]), np.exp(p[..., 1])], axis=-1))
        Y = interpolate(S, lambda p: np.stack(
            [p[..., 1], p[..., 0] * p[..., 1]], axis=-1))
        rule = rule_for_degree(6)
        mesh = S.mesh
        for coupling in ("l2", "h1"):
            C = vector_block(assemble_Cs(L, S, coupling))
            want = 0.0
            for t in range(mesh.n_triangles):
                verts = mesh.vertices[mesh.triangles[t]]
                pts = rule.points @ np.column_stack(
                    [verts[1] - verts[0], verts[2] - verts[0]]).T + verts[0]
                b = bary_eval(mesh, t, pts)
                mv = np.stack([b @ vec_comp(L, mu.coefficients, c)[mesh.triangles[t]]
                               for c in range(2)], axis=-1)
                yv = np.stack([b @ vec_comp(S, Y.coefficients, c)[mesh.triangles[t]]
                               for c in range(2)], axis=-1)
                want += mesh.areas[t] * float(
                    rule.weights @ np.einsum("kc,kc->k", mv, yv))
                if coupling == "h1":
                    dot = sum(secant_grad(mesh, t, vec_comp(L, mu.coefficients, c)[mesh.triangles[t]])
                              @ secant_grad(mesh, t, vec_comp(S, Y.coefficients, c)[mesh.triangles[t]])
                              for c in range(2))
                    want += mesh.areas[t] * dot
            assert mu.coefficients @ C @ Y.coefficients == pytest.approx(
                want, rel=1e-12)

    def test_mesh_mismatch(self):
        # Another size, or S's grid cut along the other diagonal, which
        # has S's vertices and domain but not its triangles, is refused;
        # an equal copy of S's mesh is S's mesh.
        S, L = solid_spaces(3)
        for n, orientation in ((4, "left"), (3, "right")):
            other = multiplier_space(uniform_mesh((0, 0), (1, 1), n,
                                                  orientation))
            with pytest.raises(ValueError, match="share a mesh"):
                assemble_Cs(other, S, "l2")
        copy = multiplier_space(uniform_mesh((0, 0), (1, 1), 3, "left"))
        assert copy.mesh is not S.mesh
        for coupling in ("l2", "h1"):
            A, B = assemble_Cs(copy, S, coupling), assemble_Cs(L, S, coupling)
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(A, attr), getattr(B, attr))


class TestFluidCoupling:
    def setup_method(self):
        self.V, _ = fluid_spaces(4)
        self.S, self.L = solid_spaces(2)
        self.xbar = standard_map()

    def test_constant_velocity_reduces_to_structure_mass(self):
        # v o xbar is the same constant, so C_f v must match the
        # structure l2 coupling applied to that constant
        vc = np.concatenate([np.full(self.V.n_vertices, 1.5),
                             np.full(self.V.n_vertices, -0.5)])
        yc = np.concatenate([np.full(self.S.n_vertices, 1.5),
                             np.full(self.S.n_vertices, -0.5)])
        Cs = vector_block(assemble_Cs(self.L, self.S, "l2"))
        for coupling in ("l2", "h1"):
            for Cf in (coupling_matrix(self.L, self.V, self.xbar, coupling,
                                       mode) for mode in ("exact", "approx")):
                np.testing.assert_allclose(vector_block(Cf) @ vc, Cs @ yc,
                                           atol=1e-12)

    def test_linear_fields_by_hand(self):
        # mu = (s1, 0), v = (x1, 0): the mass part is
        # int s1 (2 s1 - 0.62) = 2/3 - 0.31 and the gradient part adds
        # int (1,0) . J^T (1,0) = 2
        mu = interpolate(self.L, lambda p: np.stack(
            [p[..., 0], np.zeros_like(p[..., 0])], axis=-1))
        v = interpolate(self.V, lambda p: np.stack(
            [p[..., 0], np.zeros_like(p[..., 0])], axis=-1))
        mass = 2.0 / 3.0 - 0.31
        C = vector_block(coupling_matrix(self.L, self.V, self.xbar, "l2",
                                         "exact"))
        assert mu.coefficients @ C @ v.coefficients == pytest.approx(
            mass, rel=1e-13)
        C = vector_block(coupling_matrix(self.L, self.V, self.xbar, "h1",
                                         "exact"))
        assert mu.coefficients @ C @ v.coefficients == pytest.approx(
            mass + 2.0, rel=1e-13)

    @pytest.mark.parametrize("coupling", ["l2", "h1"])
    def test_exact_matrix_against_fine_quadrature(self, coupling):
        for xbar in (self.xbar, SHEARED):
            C = vector_block(coupling_matrix(self.L, self.V, xbar, coupling,
                                             "exact"))
            rng = np.random.default_rng(11)
            for _ in range(3):
                mu = rng.standard_normal(self.L.n_dofs)
                vc = rng.standard_normal(self.V.n_dofs)
                want = coupling_oracle(self.L, self.V, xbar, mu, vc,
                                       coupling)
                assert mu @ C @ vc == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("coupling", ["l2", "h1"])
    def test_approx_matrix_against_pointwise_eval(self, coupling):
        # replays the single-element rules with FEFunction evaluation
        # and scalar point location
        rule = rule_for_degree(2)
        mesh = self.L.mesh
        for xbar in (self.xbar, SHEARED):
            C = vector_block(coupling_matrix(self.L, self.V, xbar, coupling,
                                             "approx"))
            rng = np.random.default_rng(3)
            mu_f = FEFunction(self.L, rng.standard_normal(self.L.n_dofs))
            v_f = FEFunction(self.V, rng.standard_normal(self.V.n_dofs))
            want = 0.0
            for t in range(mesh.n_triangles):
                verts = mesh.vertices[mesh.triangles[t]]
                pts = rule.points @ np.column_stack(
                    [verts[1] - verts[0], verts[2] - verts[0]]).T + verts[0]
                acc = 0.0
                for w, s in zip(rule.weights, pts):
                    x = xbar.apply(s)
                    owner = self.V.mesh.locate_point(x)
                    acc += w * float(mu_f.eval(t, s) @ v_f.eval(owner, x))
                want += mesh.areas[t] * acc
                if coupling == "h1":
                    xc = xbar.apply(mesh.centroids(t))
                    owner = self.V.mesh.locate_point(xc)
                    gs = v_f.eval_grad(owner) @ xbar.matrix
                    want += mesh.areas[t] * np.sum(mu_f.eval_grad(t) * gs)
            got = mu_f.coefficients @ C @ v_f.coefficients
            assert got == pytest.approx(want, rel=1e-12)

    def test_nested_grids_agree(self):
        # solid cells that coincide with fluid cells leave no quadrature
        # error in either coupling
        coarse = uniform_mesh((-2, -2), (2, 2), 8)
        V = velocity_space(midpoint_refine(coarse))
        mesh_b = uniform_mesh((0, 0), (1, 1), 4, orientation="right")
        L = multiplier_space(mesh_b)
        xbar = AffineMap(np.eye(2), (-1.0, -1.0))
        for coupling in ("l2", "h1"):
            Cex, Cap = (coupling_matrix(L, V, xbar, coupling, mode)
                        for mode in ("exact", "approx"))
            assert matrix_1norm_diff(Cex, Cap) < 1e-14

    def test_total_mass(self):
        ones_l = np.ones(self.L.n_dofs)
        ones_v = np.ones(self.V.n_dofs)
        for C in (coupling_matrix(self.L, self.V, self.xbar, "l2", mode)
                  for mode in ("exact", "approx")):
            assert ones_l @ vector_block(C) @ ones_v == pytest.approx(
                2.0, rel=1e-12)

    def test_escaping_map_rejected(self):
        with pytest.raises(DomainViolationError):
            approx_nodes(self.L, self.V,
                         AffineMap(10.0 * np.eye(2), (0.0, 0.0)), "l2")

    def test_bad_coupling_name(self):
        schemes = build_all_schemes(self.L.mesh, self.xbar, self.V.mesh)
        with pytest.raises(ValueError, match="coupling"):
            assemble_Cf_exact(self.L, self.V, self.xbar, "energy", schemes)
        with pytest.raises(ValueError, match="coupling"):
            approx_nodes(self.L, self.V, self.xbar, "energy")


class TestCouplingNodes:
    """A node set carries one weight per node and fixes, when it is
    built, which features that weight weighs."""

    def setup_method(self):
        self.V, self.Q = fluid_spaces(4)
        self.S, self.L = solid_spaces(3)
        self.xbar = standard_map()

    def nodes(self, coupling, mode, rule=rule_for_degree(2)):
        if mode == "approx":
            return approx_nodes(self.L, self.V, self.xbar, coupling)
        schemes = build_all_schemes(self.L.mesh, self.xbar, self.V.mesh)
        return assembly._subcell_nodes(self.xbar, coupling, rule, schemes)

    @staticmethod
    def stream(groups, k, field):
        """Field of the node sets of stream k, joined over the groups."""
        return np.concatenate([getattr(sets[k], field)
                               for sets, _ in groups])

    def test_approx_sets_weigh_one_feature_each(self, monkeypatch):
        monkeypatch.setattr(fdlm.mesh, "_BLOCK", 7)
        l2, h1 = self.nodes("l2", "approx"), self.nodes("h1", "approx")
        assert len(l2) == len(h1) > 1
        for sets, _ in l2:
            assert [(n.value, n.grad) for n in sets] == [(True, False)]
        for sets, _ in h1:
            assert [(n.value, n.grad) for n in sets] == [(True, False),
                                                         (False, True)]
        # three edge midpoints per structure element, then the centroids
        n = self.L.mesh.n_triangles
        assert [self.stream(h1, k, "parent").shape[0]
                for k in (0, 1)] == [3 * n, n]
        np.testing.assert_array_equal(self.stream(h1, 1, "s")[:, 0],
                                      self.L.mesh.centroids())
        np.testing.assert_array_equal(self.stream(h1, 1, "w")[:, 0],
                                      self.L.mesh.areas)
        for (a, _), (b, _) in zip(l2, h1):
            for fa, fb in zip(a[0], b[0]):
                np.testing.assert_array_equal(fa, fb)

    @pytest.mark.parametrize("coupling", ["l2", "h1"])
    def test_exact_stream_weighs_values_and_h1_gradients(self, coupling,
                                                         monkeypatch):
        monkeypatch.setattr(fdlm.mesh, "_BLOCK", 7)
        groups = list(self.nodes(coupling, "exact"))
        assert len(groups) > 1
        assert all(len(sets) == 1 for sets, _ in groups)
        assert all(n.value and n.grad == (coupling == "h1")
                   for sets, _ in groups for n in sets)

    @pytest.mark.parametrize("coupling", ["l2", "h1"])
    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_one_weight_per_node(self, coupling, mode):
        for n in (n for sets, _ in self.nodes(coupling, mode,
                                              rule_for_degree(6))
                  for n in sets):
            assert n.w.shape == n.s.shape[:2] == n.x.shape[:2]
            assert n.owner.shape == n.parent.shape == n.w.shape[:1]

    def test_exact_stream_consumed_twice(self, monkeypatch):
        monkeypatch.setattr(fdlm.mesh, "_BLOCK", 7)
        stream = self.nodes("h1", "exact")
        first, second = list(stream), list(stream)
        assert len(first) == len(second) > 1
        for (a, done_a), (b, done_b) in zip(first, second):
            assert done_a == done_b and len(a) == len(b) == 1
            for fa, fb in zip(a[0], b[0]):
                np.testing.assert_array_equal(fa, fb)

    def test_approx_nodes_checked_against_coupling(self):
        # Groups of the other coupling would add or drop the gradient
        # term of F.
        nodes = {c: self.nodes(c, "approx") for c in ("l2", "h1")}
        for built, asked in (("l2", "h1"), ("h1", "l2")):
            with pytest.raises(ValueError, match="coupling"):
                assemble_rhs(self.V, self.S, self.L,
                             manufactured_solution(), asked, nodes[built])

    def test_exact_matrix_repeats_with_shared_schemes(self):
        schemes = build_all_schemes(self.L.mesh, self.xbar, self.V.mesh)
        C1, C2 = (assemble_Cf_exact(self.L, self.V, self.xbar, "h1",
                                    schemes) for _ in range(2))
        assert C1.nnz > 0
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(C1, attr), getattr(C2, attr))


class TestMatrixDiffNorm:
    def test_identical(self):
        A = sp.random(6, 8, density=0.4, random_state=0, format="csr")
        assert matrix_1norm_diff(A, A.copy()) == 0.0

    def test_single_entry(self):
        A = sp.csr_matrix((4, 4))
        B = sp.csr_matrix(([0.5], ([2], [1])), shape=(4, 4))
        assert matrix_1norm_diff(A, B) == pytest.approx(0.5)

    def test_column_sums(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [2.0, 3.0]]))
        B = sp.csr_matrix(np.array([[0.0, 0.0], [0.0, -1.0]]))
        assert matrix_1norm_diff(A, B) == pytest.approx(4.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matrix_1norm_diff(sp.csr_matrix((2, 2)), sp.csr_matrix((2, 3)))


class TestPressureMeanRow:
    def test_total_area(self):
        _, Q = fluid_spaces(4)
        m = pressure_mean_row(Q)
        assert m.sum() == pytest.approx(16.0, rel=1e-14)

    def test_exact_for_p1(self):
        _, Q = fluid_spaces(4)
        m = pressure_mean_row(Q)
        odd = interpolate(Q, lambda p: p[..., 0])
        assert abs(m @ odd.coefficients) < 1e-12
        shifted = interpolate(Q, lambda p: p[..., 0] + 1.0)
        assert m @ shifted.coefficients == pytest.approx(16.0, rel=1e-13)


def polynomial_solution(xbar):
    """Low-degree polynomial fields, so every volume integrand is a
    polynomial the degree-6 rule integrates exactly, and an affine
    multiplier, whose coupling load is C_f^T times its interpolant."""
    def u(x):
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([x1 * x1 * x2 + 0.3 * x1, x1 * x2 * x2 - x2 + 0.5],
                        axis=-1)

    def grad_u(x):
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([np.stack([2 * x1 * x2 + 0.3, x1 * x1], axis=-1),
                         np.stack([x2 * x2, 2 * x1 * x2 - 1.0], axis=-1)],
                        axis=-2)

    def p(x):
        return x[..., 0] ** 3 - 2.0 * x[..., 0] * x[..., 1] + 1.0

    def X(s):
        s1, s2 = s[..., 0], s[..., 1]
        return np.stack([s1 * s1 * s2, s1 - s2 ** 3], axis=-1)

    def grad_X(s):
        s1, s2 = s[..., 0], s[..., 1]
        return np.stack([np.stack([2 * s1 * s2, s1 * s1], axis=-1),
                         np.stack([np.ones_like(s1), -3 * s2 * s2], axis=-1)],
                        axis=-2)

    lam_mat = np.array([[2.0, -1.0], [-1.0, 3.0]])
    lam_off = np.array([1.0, 0.5])

    def lam(s):
        return s @ lam_mat.T + lam_off

    def grad_lam(s):
        return np.broadcast_to(lam_mat, s.shape[:-1] + (2, 2))

    return SimpleNamespace(u=u, grad_u=grad_u, p=p, X=X, grad_X=grad_X,
                           lam=lam, grad_lam=grad_lam, xbar=xbar,
                           d=lambda s: u(xbar.apply(s)) - X(s),
                           grad_d=lambda s: (grad_u(xbar.apply(s))
                                             @ xbar.matrix - grad_X(s)))


def per_element_load(space, value, grad):
    """Load (value, phi) + (grad, grad phi) per triangle with the
    degree-9 rule, basis values from the vertex system."""
    rule = conical_product_rule(5)
    mesh = space.mesh
    out = np.zeros(space.n_dofs)
    for t in range(mesh.n_triangles):
        tri = mesh.triangles[t]
        verts = mesh.vertices[tri]
        pts = rule.points @ np.column_stack(
            [verts[1] - verts[0], verts[2] - verts[0]]).T + verts[0]
        b = bary_eval(mesh, t, pts)
        g = np.stack([secant_grad(mesh, t, np.eye(3)[i]) for i in range(3)])
        w = mesh.areas[t] * rule.weights
        for c in range(2):
            out[c * space.n_vertices + tri] += (
                (w * value(pts)[:, c]) @ b
                + g @ (w @ grad(pts)[:, c, :]))
    return out


class TestRightHandSides:
    def setup_method(self):
        self.V, self.Q = fluid_spaces(4)
        self.S, self.L = solid_spaces(2)
        self.xbar = standard_map()

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    @pytest.mark.parametrize("coupling", ["l2", "h1"])
    def test_volume_loads_against_per_element_quadrature(self, coupling,
                                                         mode):
        eye = np.eye(2)
        h1 = 1.0 if coupling == "h1" else 0.0
        for xbar in (self.xbar, SHEARED):
            exact = polynomial_solution(xbar)
            F, G, _ = mode_rhs(self.V, self.S, self.L, exact, coupling, mode)
            want_F = per_element_load(
                self.V, np.zeros_like,
                lambda x: exact.grad_u(x) - exact.p(x)[:, None, None] * eye)
            lam_h = interpolate(self.L, exact.lam).coefficients
            want_F += (vector_block(coupling_matrix(self.L, self.V, xbar,
                                                    coupling, mode)).T
                       @ lam_h)
            want_G = per_element_load(
                self.S, lambda s: -exact.lam(s),
                lambda s: exact.grad_X(s) - h1 * exact.grad_lam(s))
            for got, want in ((F, want_F), (G, want_G)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_zero_solution_gives_zero_data(self):
        F, G, D = mode_rhs(self.V, self.S, self.L, zero_solution(), "l2",
                           "exact")
        assert not F.any() and not G.any() and not D.any()

    def test_constraint_data_against_fine_quadrature(self):
        # d is polynomial of degree 7 in s, so both the assembled value
        # and the degree-9 reference integrate it exactly
        exact = manufactured_solution()
        _, _, D = mode_rhs(self.V, self.S, self.L, exact, "l2", "exact")
        rule = conical_product_rule(5)
        mesh = self.L.mesh
        mu_const = np.concatenate([np.ones(self.L.n_vertices),
                                   np.zeros(self.L.n_vertices)])
        want = 0.0
        for t in range(mesh.n_triangles):
            verts = mesh.vertices[mesh.triangles[t]]
            pts = rule.points @ np.column_stack(
                [verts[1] - verts[0], verts[2] - verts[0]]).T + verts[0]
            want += mesh.areas[t] * float(
                rule.weights @ np.asarray(exact.d(pts))[:, 0])
        assert mu_const @ D == pytest.approx(want, rel=1e-12)

    def test_structure_data_for_linear_placement(self):
        # with X = 0 and lambda = 0 only the constraint data survives,
        # and it reduces to integrals of u o xbar
        exact = manufactured_solution()
        _, G, _ = mode_rhs(self.V, self.S, self.L, zero_solution(), "h1",
                           "approx")
        assert not G.any()
        F, G, D = mode_rhs(self.V, self.S, self.L, exact, "h1", "exact")
        assert F.any() and G.any() and D.any()

    def test_mode_checked(self):
        # Either mode's geometry refuses an unknown coupling name.
        for mode in ("exact", "approx"):
            nodes = geometry(self.L, self.V, self.xbar, "l2", mode)
            with pytest.raises(ValueError, match="coupling"):
                assemble_rhs(self.V, self.S, self.L, zero_solution(), "linf",
                             nodes)

    def test_exact_and_approx_agree_to_quadrature_error(self):
        # both integrate the same functional, so on a fixed mesh the
        # difference is small but nonzero
        exact = manufactured_solution()
        F1, _, D1 = mode_rhs(self.V, self.S, self.L, exact, "l2", "exact")
        F2, _, D2 = mode_rhs(self.V, self.S, self.L, exact, "l2", "approx")
        scale = np.abs(F1).max()
        assert 0.0 < np.abs(F1 - F2).max() < 0.05 * scale
        assert 0.0 < np.abs(D1 - D2).max()

