"""Global saddle system: block layout, elimination, block-preconditioned
GMRES solve."""

import copy
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

import fdlm.saddle_solver as saddle
from fdlm.assembly import (FormParams, assemble_Af, assemble_As, assemble_B,
                           assemble_Cf_exact, assemble_Cs, assemble_rhs,
                           pressure_mean_row)
from fdlm.fespace import (multiplier_space, pressure_space, solid_space,
                          velocity_space)
from fdlm.experiments_cli import solve_level
from fdlm.manufactured_errors import manufactured_solution, zero_solution
from fdlm.mesh import (AffineMap, Triangulation, midpoint_refine,
                       uniform_mesh)
from fdlm.saddle_solver import (Blocks, SingularSystemError, build_system,
                                dump_solution, solve)


def level_setup(exact, params=FormParams(), n_fluid=16, n_solid=8):
    """Spaces, blocks and data of a production mesh pair, by default the
    smallest one."""
    coarse = uniform_mesh((-2, -2), (2, 2), n_fluid)
    refined = midpoint_refine(coarse)
    solid = uniform_mesh((0, 0), (1, 1), n_solid, orientation="left")
    V = velocity_space(refined)
    Q = pressure_space(coarse)
    S = solid_space(solid)
    L = multiplier_space(solid)
    blocks = Blocks(
        Af=assemble_Af(V, params),
        As=assemble_As(S, params),
        B=assemble_B(V, Q),
        Cf=assemble_Cf_exact(L, V, exact.xbar),
        Cs=assemble_Cs(L, S, "l2"),
        mean_row=pressure_mean_row(Q),
    )
    rhs = assemble_rhs(V, S, L, exact, "l2", "exact", params=params)
    return build_system(blocks, rhs, (V, S, L, Q))


@pytest.fixture(scope="module")
def manufactured_system():
    return level_setup(manufactured_solution())


@pytest.fixture(scope="module")
def level2_system():
    """Test 1 level 2, (64, 32), l2 exact."""
    return level_setup(manufactured_solution(), n_fluid=64, n_solid=32)


@pytest.fixture(scope="module")
def manufactured_sol(manufactured_system):
    return solve(manufactured_system)


def coo_reference(blocks, dirichlet_mask):
    """The eliminated global matrix, stacked: the whole system in COO,
    every entry in a Dirichlet row or column masked out, a unit diagonal
    appended in those rows, converted to CSR; stored zeros dropped."""
    m = sp.csr_matrix(blocks.mean_row.reshape(1, -1))
    A = sp.bmat([
        [blocks.Af, None, blocks.Cf.T, -blocks.B.T, None],
        [None, blocks.As, -blocks.Cs.T, None, None],
        [blocks.Cf, -blocks.Cs, None, None, None],
        [-blocks.B, None, None, None, m.T],
        [None, None, None, m, None],
    ], format="coo")
    keep = ~(dirichlet_mask[A.row] | dirichlet_mask[A.col])
    fixed = np.flatnonzero(dirichlet_mask)
    rows = np.concatenate([A.row[keep], fixed])
    cols = np.concatenate([A.col[keep], fixed])
    data = np.concatenate([A.data[keep], np.ones(fixed.size)])
    ref = sp.coo_matrix((data, (rows, cols)), shape=A.shape).tocsr()
    ref.eliminate_zeros()
    return ref


class TestBuildSystem:
    @pytest.mark.parametrize("params,offset", [
        (FormParams(), (-0.62, -0.62)),
        (FormParams(alpha=1.0), (-0.62, -0.62)),
        (FormParams(), (-2.0, -2.0))],
        ids=["stiffness", "with_mass", "structure_on_boundary"])
    def test_equals_coo_reference(self, params, offset):
        # The operator applies the stacked matrix, also to vectors whose
        # Dirichlet entries are not zero; its Dirichlet rows are the
        # identity.  A structure placed in the corner of the fluid box
        # couples to Dirichlet velocity dofs, which Cf must not see.
        exact = copy.copy(manufactured_solution())
        exact.xbar = AffineMap(2.0 * np.eye(2), offset)
        sys_ = level_setup(exact, params)
        A = sys_.matrix
        ref = coo_reference(sys_.blocks, sys_.dirichlet_mask)
        assert A.shape == ref.shape
        fixed = sys_.dirichlet_mask
        for x in np.random.default_rng(2).standard_normal((3, A.shape[0])):
            want = ref @ x
            got = A @ x
            assert (np.linalg.norm(got - want)
                    <= 1e-13 * np.linalg.norm(want))
            np.testing.assert_array_equal(got[fixed], x[fixed])
            np.testing.assert_array_equal(A.dot(x), got)

    @pytest.mark.parametrize("system,nnz", [("manufactured_system", 36_938),
                                            ("level2_system", 595_770)])
    def test_nnz_equals_reference(self, request, system, nnz):
        sys_ = request.getfixturevalue(system)
        ref = coo_reference(sys_.blocks, sys_.dirichlet_mask)
        assert sys_.matrix.nnz == ref.nnz == nnz

    def test_no_stored_zeros(self, manufactured_system):
        sys_ = manufactured_system
        b = sys_.blocks
        for M in (b.Af, b.As, b.B, b.Cf, b.Cs):
            assert M.nnz > 0 and np.all(M.data != 0.0)
        # On right-angled cells the P1 stiffness is the 5-point stencil:
        # the couplings across the cell diagonals are exact zeros.
        n = sys_.spaces[0].mesh.n_cells_per_side + 1
        assert b.Af.nnz == 2 * (5 * n * n - 4 * n)

    def test_build_transient_bounded(self, level2_system):
        # The load is 0.33 MB; any stacked copy of the 595,770-entry
        # matrix (7.3 MB in CSR) breaks the bound.
        sys_ = level2_system
        F, G, D, _, _ = sys_.split(sys_.rhs)
        tracemalloc.start()
        try:
            build_system(sys_.blocks, (F, G, D), sys_.spaces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_coarsest_dimension(self, manufactured_system):
        # 2 * 33^2 velocity + 2 * 81 structure + 2 * 81 multiplier
        # + 17^2 pressure + 1 mean multiplier
        assert manufactured_system.n_dofs == 2792

    def test_matrix_symmetric_after_elimination(self, manufactured_system):
        sys_ = manufactured_system
        A = coo_reference(sys_.blocks, sys_.dirichlet_mask)
        assert abs(A - A.T).max() < 1e-12
        x, y = np.random.default_rng(3).standard_normal((2, sys_.n_dofs))
        Ax, Ay = sys_.matrix @ x, sys_.matrix @ y
        assert (abs(y @ Ax - x @ Ay)
                <= 1e-13 * np.linalg.norm(y) * np.linalg.norm(Ax))

    def test_dirichlet_rows(self, manufactured_system):
        sys_ = manufactured_system
        A = coo_reference(sys_.blocks, sys_.dirichlet_mask)
        fixed = np.flatnonzero(sys_.dirichlet_mask)
        assert fixed.size == 2 * 4 * 32
        diag = A.diagonal()
        np.testing.assert_array_equal(diag[fixed], 1.0)
        np.testing.assert_array_equal(sys_.rhs[fixed], 0.0)
        # off-diagonals of a fixed row are gone
        row = A.getrow(fixed[0])
        assert row.nnz == 1

    def test_split_layout(self, manufactured_system):
        sys_ = manufactured_system
        x = np.arange(sys_.n_dofs, dtype=float)
        u, X, lam, p, sigma = sys_.split(x)
        V, S, L, Q = sys_.spaces
        assert len(u) == V.n_dofs
        assert len(X) == S.n_dofs
        assert len(lam) == L.n_dofs
        assert len(p) == Q.n_dofs
        assert sigma == x[-1]
        np.testing.assert_array_equal(
            np.concatenate([u, X, lam, p, [sigma]]), x)

    def test_shape_validation(self, manufactured_system):
        sys_ = manufactured_system
        b = sys_.blocks
        V, S, L, Q = sys_.spaces
        rhs = (np.zeros(V.n_dofs), np.zeros(S.n_dofs), np.zeros(L.n_dofs))
        bad = Blocks(b.As, b.As, b.B, b.Cf, b.Cs, b.mean_row)
        with pytest.raises(ValueError):
            build_system(bad, rhs, sys_.spaces)
        bad = Blocks(b.Af, b.As, b.B.T, b.Cf, b.Cs, b.mean_row)
        with pytest.raises(ValueError):
            build_system(bad, rhs, sys_.spaces)
        bad = Blocks(b.Af, b.As, b.B, b.Cf, b.Cs, b.mean_row[:-1])
        with pytest.raises(ValueError):
            build_system(bad, rhs, sys_.spaces)

    def test_multiplier_on_other_mesh_rejected(self, manufactured_system):
        # Blocks and data sized for L on a 4 x 4 structure mesh, S on the
        # 8 x 8 one: only the shared-mesh check can catch it.
        sys_ = manufactured_system
        b = sys_.blocks
        V, S, _, Q = sys_.spaces
        L = multiplier_space(uniform_mesh((0, 0), (1, 1), 4,
                                          orientation="left"))
        bad = Blocks(b.Af, b.As, b.B, sp.csr_matrix((L.n_dofs, V.n_dofs)),
                     sp.csr_matrix((L.n_dofs, S.n_dofs)), b.mean_row)
        rhs = (np.zeros(V.n_dofs), np.zeros(S.n_dofs), np.zeros(L.n_dofs))
        with pytest.raises(ValueError):
            build_system(bad, rhs, (V, S, L, Q))


class TestSolve:
    def test_zero_data_gives_zero_solution(self):
        system = level_setup(zero_solution())
        sol = solve(system)
        assert sol.iterations == 0 and sol.residual_history == []
        assert not sol.u.coefficients.any()
        assert not sol.X.coefficients.any()
        assert not sol.p.coefficients.any()
        assert sol.sigma == 0.0
        assert sol.relative_residual == 0.0

    def test_residual_small(self, manufactured_sol):
        assert manufactured_sol.relative_residual < 1e-10

    def test_residual_norm_is_that_of_the_solution(self, manufactured_system,
                                                   manufactured_sol):
        # solve() takes it from GMRES's last cycle; it is the norm of
        # A x - b, bit for bit.
        sol = manufactured_sol
        x = np.concatenate([sol.u.coefficients, sol.X.coefficients,
                            sol.lam.coefficients, sol.p.coefficients,
                            [sol.sigma]])
        res = manufactured_system.matrix @ x - manufactured_system.rhs
        assert sol.residual_norm == np.linalg.norm(res)

    def test_gmres_stores_single_precision_directions(self):
        # Every direction A is applied to is a float32 value, and x is
        # combined from those same directions, so the true residual still
        # reaches double precision.
        rng = np.random.default_rng(0)
        n = 40
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        applied = []

        def matvec(x):
            applied.append(x.copy())
            return A @ x

        x, iterations, history, res_norm = saddle._gmres(
            matvec, lambda r: r / np.diag(A), b, 1e-12)
        directions = applied[:iterations]
        assert len(history) == 1 and len(applied) == iterations + 1
        for z in directions:
            assert z.dtype == np.float64
            assert np.array_equal(z, z.astype(np.float32))
        assert not all(np.array_equal(r / np.diag(A),
                                      (r / np.diag(A)).astype(np.float32))
                       for r in directions)
        assert history[-1] <= 1e-12
        assert res_norm == np.linalg.norm(b - A @ x)

    def test_velocity_discretely_divergence_free(self, manufactured_system,
                                                 manufactured_sol):
        B = manufactured_system.blocks.B
        assert np.abs(B @ manufactured_sol.u.coefficients).max() < 1e-9

    def test_pressure_mean_zero(self, manufactured_system, manufactured_sol):
        m = manufactured_system.blocks.mean_row
        assert abs(m @ manufactured_sol.p.coefficients) < 1e-10

    def test_mean_multiplier_vanishes(self, manufactured_sol):
        assert abs(manufactured_sol.sigma) < 1e-9

    def test_dirichlet_values_enforced(self, manufactured_system,
                                       manufactured_sol):
        fixed = manufactured_system.dirichlet_mask[
            :manufactured_system.spaces[0].n_dofs]
        np.testing.assert_array_equal(
            manufactured_sol.u.coefficients[fixed], 0.0)

    def test_zero_structure_coupling_reported(self, manufactured_system):
        # Cs = 0 leaves the multiplier rows without a structure part; the
        # structure solver must refuse it instead of solving wrongly.
        sys_ = manufactured_system
        b = sys_.blocks
        broken = Blocks(b.Af, b.As, b.B, b.Cf, 0.0 * b.Cs, b.mean_row)
        F, G, D, _, _ = sys_.split(sys_.rhs)
        degenerate = build_system(broken, (F, G, D), sys_.spaces)
        with pytest.raises(SingularSystemError):
            solve(degenerate)

    def test_singular_system_reported(self, manufactured_system):
        sys_ = manufactured_system
        b = sys_.blocks
        broken = Blocks(b.Af, b.As, b.B, b.Cf, b.Cs,
                        np.zeros_like(b.mean_row))
        F = np.zeros(sys_.spaces[0].n_dofs)
        G = np.zeros(sys_.spaces[1].n_dofs)
        D = np.zeros(sys_.spaces[2].n_dofs)
        degenerate = build_system(broken, (F, G, D), sys_.spaces)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError):
                solve(degenerate)

    @pytest.mark.parametrize("params", [FormParams(alpha=1.0),
                                        FormParams(alpha=10.0, nu=0.5)])
    def test_mass_term_solved(self, params):
        # With alpha > 0 the sine transforms solve nu K + alpha h^2 I in
        # place of Af; flexible GMRES corrects the difference.
        sol = solve(level_setup(manufactured_solution(), params))
        assert 0 < sol.iterations <= 30
        assert sol.residual_history[-1] <= 1e-12


def off_grid(mesh):
    """mesh with its first interior vertex moved a tenth of a cell in x."""
    v = mesh.vertices.copy()
    v[np.argmin(mesh.boundary_vertex_flags), 0] += 0.1 * mesh.hx
    return Triangulation(v, mesh.triangles)


def velocity_block(n_fluid, params):
    """Velocity space on the refined (-2, 2)^2 mesh of n_fluid cells a
    side, and its fluid block."""
    V = velocity_space(midpoint_refine(uniform_mesh((-2, -2), (2, 2),
                                                    n_fluid)))
    return V, assemble_Af(V, params)


class TestFluidSolve:
    @pytest.mark.parametrize("m", [1, 7, 30])
    def test_sine_transform_is_own_inverse(self, m):
        a = np.random.default_rng(m).standard_normal((2, m, m))
        transform = saddle._transform(a.shape, odd=True)
        t = transform(a).copy()
        assert np.linalg.norm(t) == pytest.approx(np.linalg.norm(a),
                                                  rel=1e-13)
        np.testing.assert_allclose(transform(t), a, rtol=0, atol=1e-13)

    def test_sine_transform_is_type_one(self):
        m = 5
        j = np.arange(1, m + 1)
        S = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(j, j) / (m + 1))
        a = np.random.default_rng(0).standard_normal((m, m))
        np.testing.assert_allclose(saddle._transform(a.shape, True)(a),
                                   S @ a @ S, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n_fluid", [8, 32])
    @pytest.mark.parametrize("nu", [1.0, 0.7])
    def test_velocity_solve_inverts_fluid_block(self, n_fluid, nu):
        V, Af = velocity_block(n_fluid, FormParams(nu=nu))
        fixed = V.dirichlet_mask
        velocity_solve = saddle._velocity_solver(Af, V)
        f = np.random.default_rng(n_fluid).standard_normal(V.n_dofs)
        z = velocity_solve(f)
        np.testing.assert_array_equal(z[fixed], f[fixed])
        inner = np.flatnonzero(~fixed)
        res = Af[inner][:, inner] @ z[inner] - f[inner]
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(f[inner])

    def test_velocity_solve_needs_square_cells(self):
        V = velocity_space(midpoint_refine(uniform_mesh((0, 0), (2, 1), 4)))
        Af = assemble_Af(V, FormParams())
        with pytest.raises(ValueError):
            saddle._velocity_solver(Af, V)

    def test_velocity_solve_needs_ring_dirichlet(self):
        V = velocity_space(midpoint_refine(uniform_mesh((-2, -2), (2, 2), 4)))
        Af = assemble_Af(V, FormParams())
        V.dirichlet_mask = V.dirichlet_mask.copy()
        V.dirichlet_mask[np.argmin(V.dirichlet_mask)] = True
        with pytest.raises(ValueError, match="outer ring"):
            saddle._velocity_solver(Af, V)

    def test_velocity_solve_needs_grid_vertices(self):
        # The velocity solve reads mesh.grid; a mesh with a vertex off
        # its grid point is refused where it is built.
        mesh = midpoint_refine(uniform_mesh((-2, -2), (2, 2), 4))
        with pytest.raises(ValueError, match="not the points"):
            off_grid(mesh)

    def test_tight_inner_solve_equals_spsolve(self, manufactured_system,
                                              monkeypatch):
        # Catches a sign slip in the Bm rows, which the outer GMRES would
        # otherwise absorb at the cost of many more iterations.
        sys_ = manufactured_system
        A = coo_reference(sys_.blocks, sys_.dirichlet_mask)
        o = sys_.offsets
        fluid = np.r_[:o["x"], o["p"]:A.shape[0]]
        r = np.random.default_rng(1).standard_normal(fluid.size)
        want = spsolve(A[fluid][:, fluid].tocsc(), r)
        nu = o["x"]
        monkeypatch.setattr(saddle, "_INNER_TOL", 1e-14)
        stokes_solve = saddle._stokes_solver(sys_)
        u, p, sigma = stokes_solve(r[:nu], r[nu:-1], r[-1])
        got = np.concatenate([u, p, [sigma]])
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


# Iterative refinement steps of the MMD reference solve, and the relative
# size of the quasidefinite diagonal shift it factors with.
MMD_MAX_REFINE = 40
MMD_SHIFT = 1e-8


def mmd_reference(system):
    """Solution vector of the whole shifted system factored in SuperLU's
    MMD_AT_PLUS_A order, the shift removed by iterative refinement."""
    A = coo_reference(system.blocks, system.dirichlet_mask)
    b = system.rhs
    rowmax = abs(A).max(axis=1).toarray().ravel()
    sign = np.ones(A.shape[0])
    sign[system.offsets["lambda"]:] = -1.0
    lu = splu((A + sp.diags(MMD_SHIFT * rowmax * sign)).tocsc(),
              permc_spec="MMD_AT_PLUS_A",
              options=dict(SymmetricMode=True, DiagPivotThresh=0.0))
    x = lu.solve(b)
    prev = np.inf
    for _ in range(MMD_MAX_REFINE):
        res = b - A @ x
        rel = np.linalg.norm(res) / np.linalg.norm(b)
        if rel < 1e-12 or rel > 0.5 * prev:
            break
        prev = rel
        x = x + lu.solve(res)
    return x


# Coarsest Test 1 level, and Test 2 level 2.
ORDERED_LEVELS = {"t1_level0_l2": (16, 8, "l2"), "t2_level2_h1": (32, 64, "h1")}


@pytest.fixture(scope="module")
def ordered_solves():
    """Per level: a solve_level run, and the MMD-ordered reference solve
    of the same system."""
    out = {}
    for name, (nf, ns, coupling) in ORDERED_LEVELS.items():
        _, sol, system = solve_level(nf, ns, coupling, "exact")
        out[name] = (sol, system, mmd_reference(system))
    return out


class TestNestedDissection:
    def test_grid_of_refined_mesh(self):
        # Midpoint refinement numbers its new vertices after the old
        # ones, not row by row.
        mesh = midpoint_refine(uniform_mesh((-2, -1), (2, 3), 8))
        grid = mesh.grid
        assert grid.shape == (17, 17)
        assert not np.array_equal(grid.ravel(), np.arange(mesh.n_vertices))
        j, i = np.meshgrid(np.arange(17), np.arange(17))
        np.testing.assert_allclose(mesh.vertices[grid, 0], -2 + 0.25 * j,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(mesh.vertices[grid, 1], -1 + 0.25 * i,
                                   rtol=0, atol=1e-14)

    def test_off_grid_structure_vertex_rejected(self):
        # One structure vertex a tenth of a cell off its grid point: the
        # mesh is refused where it is built, before any grid solver is
        # set up on it.
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(saddle, "_grid_solver",
                       lambda *a, **k: calls.append(a))
            with pytest.raises(ValueError, match="not the points"):
                off_grid(uniform_mesh((0, 0), (1, 1), 8, orientation="left"))
        assert calls == []

    @pytest.mark.parametrize("level", sorted(ORDERED_LEVELS))
    def test_agrees_with_mmd_reference(self, ordered_solves, level):
        sol, system, x_ref = ordered_solves[level]
        u, X, lam, p, _ = system.split(x_ref)
        for got, want, rel in ((sol.u, u, 1e-10), (sol.X, X, 1e-10),
                               (sol.p, p, 1e-10), (sol.lam, lam, 1e-8)):
            scale = np.abs(want).max()
            assert np.abs(got.coefficients - want).max() <= rel * scale
        assert sol.relative_residual <= 1e-10


def structure_block(n, coupling, orientation="left"):
    """The structure mesh of n x n cells and its scalar block c."""
    mesh = uniform_mesh((0, 0), (1, 1), n, orientation=orientation)
    k = mesh.n_vertices
    c = assemble_Cs(multiplier_space(mesh), solid_space(mesh),
                    coupling)[:k, :k]
    return mesh, c


def grid_preconditioner(mesh, gamma, h2):
    """P = gamma (K1 x D + D x K1) + h2 D x D in the mesh's vertex order,
    K1 the 1-D Neumann stiffness and D = diag(1/2, 1, ..., 1, 1/2)."""
    n = mesh.n_cells_per_side
    e = np.ones(n + 1)
    K1 = sp.diags([-e[1:], np.r_[1.0, 2.0 * e[2:], 1.0], -e[1:]], [-1, 0, 1])
    D = sp.diags(np.r_[0.5, e[2:], 0.5])
    P = (gamma * (sp.kron(K1, D) + sp.kron(D, K1))
         + h2 * sp.kron(D, D)).tocsr()
    at = np.argsort(mesh.grid.ravel())
    return P[at][:, at]


# eig(P^-1 c) of the structure block: measured ranges, rounded outwards.
EIG_BOUNDS = {(8, "l2"): (0.2358, 1.0091), (16, "l2"): (0.2359, 1.0052),
              (8, "h1"): (0.9946, 1.0028), (16, "h1"): (0.9984, 1.0009)}


class TestStructureSolve:
    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_cosine_transform_is_type_one(self, m):
        n = m - 1
        j = np.arange(m)
        C = np.cos(np.pi * np.outer(j, j) / n)
        a = np.random.default_rng(m).standard_normal((2, m, m))
        transform = saddle._transform(a.shape, odd=False)
        t = transform(a).copy()
        np.testing.assert_allclose(t, (2.0 / n) * C @ a @ C, rtol=0,
                                   atol=1e-13 * m)
        w = np.ones(m)
        w[[0, -1]] = 0.5
        w = np.outer(w, w)
        np.testing.assert_allclose(transform(t * w), a / w, rtol=0,
                                   atol=1e-13 * m)

    @pytest.mark.parametrize("orientation", ["left", "right"])
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_preconditioner_equals_spsolve(self, gamma, orientation):
        mesh = uniform_mesh((0, 0), (1, 1), 8, orientation=orientation)
        P = grid_preconditioner(mesh, gamma, mesh.h ** 2)
        k = mesh.n_vertices
        b = np.random.default_rng(3).standard_normal(2 * k)
        dofs = mesh.grid + k * np.arange(2)[:, None, None]
        got = saddle._grid_solver(mesh, dofs, gamma, mesh.h ** 2,
                                  odd=False)(b)
        want = np.concatenate([spsolve(P.tocsc(), b[:k]),
                               spsolve(P.tocsc(), b[k:])])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_stiffness_is_kronecker_sum(self):
        # c - M is exactly K1 x D + D x K1 on either diagonal.
        for orientation in ("left", "right"):
            mesh, c = structure_block(8, "h1", orientation)
            _, m = structure_block(8, "l2", orientation)
            K = grid_preconditioner(mesh, 1.0, 0.0)
            assert abs(c - m - K).max() <= 1e-13

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("coupling", ["l2", "h1"])
    def test_preconditioned_spectrum(self, n, coupling):
        mesh, c = structure_block(n, coupling)
        gamma = 1.0 if coupling == "h1" else 0.0
        P = grid_preconditioner(mesh, gamma, mesh.h ** 2)
        eig = scipy.linalg.eigh(c.toarray(), P.toarray(), eigvals_only=True)
        lo, hi = EIG_BOUNDS[n, coupling]
        assert lo <= eig.min() and eig.max() <= hi

    @pytest.mark.parametrize("coupling", ["l2", "h1"])
    @pytest.mark.parametrize("n", [1, 8, 33])
    def test_solve_equals_spsolve(self, n, coupling):
        mesh, c = structure_block(n, coupling)
        k = mesh.n_vertices
        b = np.random.default_rng(n).standard_normal(2 * k)
        x = saddle._structure_solver(c, mesh, tol=1e-12)(b)
        want = np.concatenate([spsolve(c.tocsc(), b[:k]),
                               spsolve(c.tocsc(), b[k:])])
        assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()
        np.testing.assert_array_equal(
            saddle._structure_solver(c, mesh)(np.zeros(2 * k)), 0.0)

    @pytest.mark.parametrize("coupling,steps", [("l2", 17), ("h1", 3)])
    def test_steps_bounded(self, coupling, steps, monkeypatch):
        # gamma and h^2 are read from c: misread, CG would still
        # converge, but in many more steps.  Measured: 16 and 2.
        calls = []
        real = saddle._grid_solver

        def counting(*args, **kwargs):
            grid_solve = real(*args, **kwargs)
            return lambda f: calls.append(f) or grid_solve(f)
        monkeypatch.setattr(saddle, "_grid_solver", counting)
        mesh, c = structure_block(33, coupling)
        b = np.random.default_rng(0).standard_normal(2 * mesh.n_vertices)
        saddle._structure_solver(c, mesh)(b)
        assert 0 < len(calls) <= steps

    def test_needs_square_cells(self):
        mesh = uniform_mesh((0, 0), (2, 1), 4, orientation="left")
        c = assemble_Cs(multiplier_space(mesh), solid_space(mesh),
                        "l2")[:mesh.n_vertices, :mesh.n_vertices]
        with pytest.raises(ValueError, match="not square"):
            saddle._structure_solver(c, mesh)

    def test_unconverged_solve_reported(self):
        mesh, c = structure_block(8, "l2")
        with pytest.raises(SingularSystemError):
            saddle._structure_solver(c, mesh, tol=0.0)(
                np.ones(2 * mesh.n_vertices))

    def test_solve_factors_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("splu called")
        monkeypatch.setattr(saddle, "splu", refuse)
        _, sol, _ = solve_level(16, 8, "l2", "exact")
        assert sol.relative_residual <= 1e-12


# Two levels of each schedule: Test 1 l2 exact, Test 2 h1 approx.
GMRES_LEVELS = [(16, 8, "l2", "exact"), (32, 16, "l2", "exact"),
                (16, 23, "h1", "approx"), (32, 64, "h1", "approx")]
# GMRES iterations when the directions Z were kept in double precision;
# single-precision directions may take one more.
DOUBLE_Z_ITERATIONS = {(16, 8): 19, (32, 16): 19, (16, 23): 19, (32, 64): 18,
                       (64, 32): 19}


@pytest.mark.parametrize("n_fluid,n_solid,coupling,mode",
                         GMRES_LEVELS + [(64, 32, "l2", "exact")])
def test_gmres_iterations_bounded(n_fluid, n_solid, coupling, mode):
    _, sol, _ = solve_level(n_fluid, n_solid, coupling, mode)
    assert 0 < sol.iterations <= 30
    assert sol.iterations <= DOUBLE_Z_ITERATIONS[n_fluid, n_solid] + 1
    assert sol.residual_history[-1] <= 1e-12
    assert sol.residual_history[-1] == pytest.approx(sol.relative_residual,
                                                     rel=1e-6)


class TestDumpSolution:
    def test_format(self, manufactured_sol, tmp_path):
        path = tmp_path / "sol.csv"
        dump_solution(manufactured_sol, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "field,dof_index,value"
        sol = manufactured_sol
        n_expected = (len(sol.u.coefficients) + len(sol.X.coefficients)
                      + len(sol.lam.coefficients) + len(sol.p.coefficients))
        assert len(lines) == 1 + n_expected
        field, idx, val = lines[1].split(",")
        assert field == "u" and idx == "0"
        float(val)
        fields = [ln.split(",")[0] for ln in lines[1:]]
        assert fields == (["u"] * len(sol.u.coefficients)
                          + ["x"] * len(sol.X.coefficients)
                          + ["lambda"] * len(sol.lam.coefficients)
                          + ["p"] * len(sol.p.coefficients))
