"""P1 spaces: basis evaluation, interpolation, boundary dofs."""

import numpy as np
import pytest

from fdlm.fespace import (FEFunction, FiniteElementSpace, interpolate,
                          multiplier_space, pressure_space, solid_space,
                          velocity_space)
from fdlm.manufactured_errors import h1_error
from fdlm.mesh import midpoint_refine, uniform_mesh


def random_points_in_elements(mesh, rng, per_element=1):
    """Random interior points with their containing element indices."""
    b = rng.dirichlet((1.0, 1.0, 1.0), size=(mesh.n_triangles, per_element))
    verts = mesh.vertices[mesh.triangles]
    pts = np.einsum("mki,mid->mkd", b, verts)
    t = np.repeat(np.arange(mesh.n_triangles), per_element)
    return pts.reshape(-1, 2), t


class TestSpaces:
    def test_dof_count(self):
        mesh = uniform_mesh((0, 0), (1, 1), 4)
        assert pressure_space(mesh).n_dofs == 25
        assert solid_space(mesh).n_dofs == 50
        with pytest.raises(ValueError):
            FiniteElementSpace(mesh, 3)

    def test_blocked_dof_layout(self):
        mesh = uniform_mesh((0, 0), (1, 1), 2)
        S = solid_space(mesh)
        f = interpolate(S, lambda p: np.stack([p[..., 0], 10.0 + p[..., 1]],
                                              axis=-1))
        # dof = comp * n_vertices + vertex
        np.testing.assert_array_equal(f.coefficients[:9], mesh.vertices[:, 0])
        np.testing.assert_array_equal(f.coefficients[9:],
                                      10.0 + mesh.vertices[:, 1])

    def test_velocity_dirichlet_mask(self):
        """The mask marks both components of every wall vertex of the
        refined mesh: 2 * 4 * n_half dofs in total."""
        coarse = uniform_mesh((-2, -2), (2, 2), 8)
        refined = midpoint_refine(coarse)
        V = velocity_space(refined)
        n_half = 16
        assert V.dirichlet_mask.sum() == 2 * 4 * n_half
        nv = V.n_vertices
        on_wall = (np.abs(np.abs(refined.vertices) - 2.0) < 1e-12).any(axis=1)
        np.testing.assert_array_equal(V.dirichlet_mask[:nv], on_wall)
        np.testing.assert_array_equal(V.dirichlet_mask[nv:], on_wall)

    def test_non_velocity_spaces_have_no_dirichlet(self):
        mesh = uniform_mesh((0, 0), (1, 1), 3)
        assert not multiplier_space(mesh).dirichlet_mask.any()
        assert not pressure_space(mesh).dirichlet_mask.any()


class TestEval:
    def test_partition_of_unity(self):
        mesh = uniform_mesh((-2, -2), (2, 2), 5, orientation="left")
        Q = pressure_space(mesh)
        ones = FEFunction(Q, np.ones(Q.n_dofs))
        rng = np.random.default_rng(42)
        pts, ts = random_points_in_elements(mesh, rng)
        for p, t in zip(pts[:100], ts[:100]):
            assert ones.eval(t, p) == pytest.approx(1.0, abs=1e-13)

    def test_linear_reproduction(self):
        mesh = uniform_mesh((0, 0), (1, 1), 4)
        Q = pressure_space(mesh)
        f = interpolate(Q, lambda p: p[..., 0] + p[..., 1])
        rng = np.random.default_rng(1)
        pts, ts = random_points_in_elements(mesh, rng)
        for p, t in zip(pts[:100], ts[:100]):
            assert f.eval(t, p) == pytest.approx(p[0] + p[1], abs=1e-13)

    def test_single_vertex_hat_at_centroid(self):
        mesh = uniform_mesh((0, 0), (1, 1), 1)
        Q = pressure_space(mesh)
        coeff = np.zeros(Q.n_dofs)
        coeff[mesh.triangles[0][0]] = 1.0
        f = FEFunction(Q, coeff)
        assert f.eval(0, mesh.centroids(0)) == pytest.approx(1.0 / 3.0)

    def test_point_outside_element_rejected(self):
        mesh = uniform_mesh((0, 0), (1, 1), 2)
        f = FEFunction(pressure_space(mesh))
        outside = mesh.centroids(3)
        with pytest.raises(ValueError):
            f.eval(0, outside)

    def test_vector_eval(self):
        mesh = uniform_mesh((0, 0), (1, 1), 2)
        S = solid_space(mesh)
        f = interpolate(S, lambda p: np.stack([p[..., 0], -p[..., 1]],
                                              axis=-1))
        val = f.eval(0, mesh.centroids(0))
        np.testing.assert_allclose(val, [mesh.centroids(0)[0],
                                         -mesh.centroids(0)[1]], atol=1e-14)


class TestEvalGrad:
    def test_linear_gradient(self):
        mesh = uniform_mesh((-1, -1), (1, 1), 3, orientation="left")
        Q = pressure_space(mesh)
        f = interpolate(Q, lambda p: p[..., 0] + 2.0 * p[..., 1])
        for t in range(mesh.n_triangles):
            np.testing.assert_allclose(f.eval_grad(t), [1.0, 2.0],
                                       atol=1e-13)

    def test_constant_gradient_zero(self):
        mesh = uniform_mesh((0, 0), (1, 1), 2)
        Q = pressure_space(mesh)
        f = FEFunction(Q, np.full(Q.n_dofs, 7.0))
        np.testing.assert_allclose(f.eval_grad(3), [0.0, 0.0], atol=1e-13)

    def test_quadratic_secant_slopes(self):
        """The P1 gradient of the interpolant of x^2 on h=0.5 equals the
        secant slope through the element's vertex values."""
        mesh = uniform_mesh((0, 0), (1, 1), 2)
        Q = pressure_space(mesh)
        f = interpolate(Q, lambda p: p[..., 0] ** 2)
        for t in range(mesh.n_triangles):
            verts = mesh.vertices[mesh.triangles[t]]
            vals = verts[:, 0] ** 2
            # hand-computed: gradient g solves g . (v_i - v_0) = vals_i - vals_0
            mat = verts[1:] - verts[0]
            want = np.linalg.solve(mat, vals[1:] - vals[0])
            np.testing.assert_allclose(f.eval_grad(t), want, atol=1e-12)

    def test_vector_gradient_layout(self):
        mesh = uniform_mesh((0, 0), (1, 1), 2)
        S = solid_space(mesh)
        f = interpolate(S, lambda p: np.stack(
            [3.0 * p[..., 0], p[..., 0] - p[..., 1]], axis=-1))
        g = f.eval_grad(0)
        np.testing.assert_allclose(g, [[3.0, 0.0], [1.0, -1.0]], atol=1e-13)

    def test_index_out_of_range(self):
        mesh = uniform_mesh((0, 0), (1, 1), 1)
        f = FEFunction(pressure_space(mesh))
        with pytest.raises(IndexError):
            f.eval_grad(2)


class TestInterpolate:
    def test_zero(self):
        mesh = uniform_mesh((0, 0), (1, 1), 3)
        S = solid_space(mesh)
        f = interpolate(S, lambda p: np.zeros(p.shape))
        assert not f.coefficients.any()

    def test_coefficient_length_checked(self):
        mesh = uniform_mesh((0, 0), (1, 1), 2)
        with pytest.raises(ValueError):
            FEFunction(pressure_space(mesh), np.zeros(7))

    def test_sin_h1_interpolation_rate(self):
        """H1 interpolation error of sin(x) decays with rate about 1."""
        errs = []
        hs = []
        for n in (4, 8, 16, 32):
            mesh = uniform_mesh((0, 0), (1, 1), n)
            Q = pressure_space(mesh)
            f = interpolate(Q, lambda p: np.sin(p[..., 0]))
            err = h1_error(Q, f.coefficients, lambda p: np.sin(p[..., 0]),
                           lambda p: np.stack([np.cos(p[..., 0]),
                                               np.zeros_like(p[..., 0])],
                                              axis=-1))
            errs.append(err)
            hs.append(mesh.h)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 0.9 < slope < 1.1

