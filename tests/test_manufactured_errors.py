"""Analytic solution family, error norms, and the dual-norm solve.

The dual-norm reference value for (sin(pi s1), 0) on the unit square
was computed from the one dimensional Neumann problem
-Psi'' + Psi = sin(pi s1): the particular solution sin(pi s1)/(1+pi^2)
violates the zero-slope ends, so a cosh correction enters, and the
resulting H1 norm was evaluated with 40-digit arithmetic:
0.6383844356422991.
"""

import numpy as np
import pytest
from types import SimpleNamespace

from fdlm.fespace import (interpolate, multiplier_space, pressure_space,
                          solid_space, velocity_space)
from fdlm.manufactured_errors import (dual_norm, error_norms, h1_error,
                                      inverse_inequality_check, l2_error,
                                      manufactured_solution, strong_form_f,
                                      zero_solution)
from fdlm.mesh import midpoint_refine, uniform_mesh

SIN_DUAL_NORM = 0.6383844356422991


def fd_gradient(f, pts, h=1e-6):
    """Central-difference gradient of a vector field, (..., 2, 2)."""
    pts = np.asarray(pts, dtype=float)
    cols = []
    for d in range(2):
        e = np.zeros(2)
        e[d] = h
        cols.append((np.asarray(f(pts + e)) - np.asarray(f(pts - e)))
                    / (2 * h))
    return np.stack(cols, axis=-1)


class TestAnalyticFields:
    def setup_method(self):
        self.exact = manufactured_solution()
        self.rng = np.random.default_rng(5)

    def test_curl_of_potential(self):
        """u = (d psi / dy, -d psi / dx) for the bubble potential psi."""
        def psi(p):
            return ((4 - p[..., 0] ** 2) ** 2
                    * (4 - p[..., 1] ** 2) ** 2)[..., None]
        pts = self.rng.uniform(-1.8, 1.8, (20, 2))
        grad_psi = fd_gradient(psi, pts)[:, 0, :]
        np.testing.assert_allclose(
            self.exact.u(pts),
            np.stack([grad_psi[:, 1], -grad_psi[:, 0]], axis=-1),
            rtol=1e-7, atol=1e-6)

    def test_velocity_point_values(self):
        np.testing.assert_allclose(self.exact.u(np.zeros(2)), [0.0, 0.0])
        np.testing.assert_allclose(self.exact.u(np.array([1.0, 0.0])),
                                   [0.0, 192.0])

    def test_velocity_divergence_free(self):
        pts = self.rng.uniform(-2, 2, (1000, 2))
        g = self.exact.grad_u(pts)
        div = g[..., 0, 0] + g[..., 1, 1]
        assert np.abs(div).max() < 1e-10

    def test_velocity_vanishes_on_walls(self):
        t = np.linspace(-2, 2, 41)
        for wall in [np.stack([t, np.full_like(t, -2.0)], axis=-1),
                     np.stack([t, np.full_like(t, 2.0)], axis=-1),
                     np.stack([np.full_like(t, -2.0), t], axis=-1),
                     np.stack([np.full_like(t, 2.0), t], axis=-1)]:
            assert np.abs(self.exact.u(wall)).max() < 1e-12

    def test_gradients_match_finite_differences(self):
        pts = self.rng.uniform(-1.8, 1.8, (30, 2))
        for f, g in ((self.exact.u, self.exact.grad_u),
                     (self.exact.lam, self.exact.grad_lam)):
            fd = fd_gradient(f, pts)
            np.testing.assert_allclose(g(pts), fd, rtol=1e-5, atol=1e-4)
        fd = fd_gradient(lambda p: self.exact.p(p)[..., None], pts)
        np.testing.assert_allclose(self.exact.grad_p(pts), fd[:, 0, :],
                                   rtol=1e-5, atol=1e-6)

    def test_laplacian_matches_finite_differences(self):
        pts = self.rng.uniform(-1.5, 1.5, (10, 2))
        h = 1e-4
        lap = np.zeros((10, 2))
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            lap += (np.asarray(self.exact.u(pts + e))
                    - 2 * np.asarray(self.exact.u(pts))
                    + np.asarray(self.exact.u(pts - e))) / h ** 2
        np.testing.assert_allclose(self.exact.lap_u(pts), lap,
                                   rtol=1e-4, atol=1e-4)

    def test_constraint_data_and_gradient(self):
        s = self.rng.uniform(0.1, 0.9, (20, 2))
        d = self.exact.d(s)
        want = (np.asarray(self.exact.u(self.exact.xbar.apply(s)))
                - np.asarray(self.exact.X(s)))
        np.testing.assert_allclose(d, want, atol=1e-14)
        fd = fd_gradient(self.exact.d, s)
        np.testing.assert_allclose(self.exact.grad_d(s), fd,
                                   rtol=1e-5, atol=1e-4)

    def test_zero_solution_is_zero(self):
        z = zero_solution()
        pts = self.rng.uniform(0, 1, (5, 2))
        assert not np.asarray(z.u(pts)).any()
        assert not np.asarray(z.p(pts)).any()
        assert not np.asarray(z.d(pts)).any()
        assert not np.asarray(z.grad_d(pts)).any()


class TestErrorNorms:
    def test_linear_fields_reproduced(self):
        mesh = uniform_mesh((0, 0), (1, 1), 4)
        Q = pressure_space(mesh)
        f = interpolate(Q, lambda p: 2.0 * p[..., 0] - p[..., 1])
        assert l2_error(Q, f.coefficients,
                        lambda p: 2.0 * p[..., 0] - p[..., 1]) < 1e-13
        assert h1_error(Q, f.coefficients,
                        lambda p: 2.0 * p[..., 0] - p[..., 1],
                        lambda p: np.broadcast_to(
                            [2.0, -1.0], p.shape).copy()) < 1e-12

    def test_zero_everything(self):
        exact = zero_solution()
        coarse = uniform_mesh((-2, -2), (2, 2), 4)
        solid = uniform_mesh((0, 0), (1, 1), 2, orientation="left")
        sol = SimpleNamespace(
            u=interpolate(velocity_space(midpoint_refine(coarse)), exact.u),
            p=interpolate(pressure_space(coarse), exact.p),
            X=interpolate(solid_space(solid), exact.X),
            lam=interpolate(multiplier_space(solid), exact.lam),
        )
        for coupling in ("l2", "h1"):
            rec = error_norms(sol, exact, coupling)
            assert all(v == 0.0 for v in rec.values())

    def test_bad_coupling(self):
        exact = zero_solution()
        solid = uniform_mesh((0, 0), (1, 1), 2, orientation="left")
        coarse = uniform_mesh((-2, -2), (2, 2), 4)
        sol = SimpleNamespace(
            u=interpolate(velocity_space(midpoint_refine(coarse)), exact.u),
            p=interpolate(pressure_space(coarse), exact.p),
            X=interpolate(solid_space(solid), exact.X),
            lam=interpolate(multiplier_space(solid), exact.lam),
        )
        with pytest.raises(ValueError):
            error_norms(sol, exact, "linf")

    def test_interpolant_error_decay(self):
        """Interpolants of the analytic fields: H1 errors halve, L2 and
        dual errors quarter, when h halves."""
        exact = manufactured_solution()
        recs = []
        for n in (8, 16, 32):
            coarse = uniform_mesh((-2, -2), (2, 2), n)
            solid = uniform_mesh((0, 0), (1, 1), n // 2, orientation="left")
            sol = SimpleNamespace(
                u=interpolate(velocity_space(midpoint_refine(coarse)),
                              exact.u),
                p=interpolate(pressure_space(coarse), exact.p),
                X=interpolate(solid_space(solid), exact.X),
                lam=interpolate(multiplier_space(solid), exact.lam),
            )
            rec = error_norms(sol, exact, "l2")
            rec["err_lambda_h1"] = error_norms(sol, exact, "h1")["err_lambda"]
            recs.append(rec)
        for a, b in zip(recs, recs[1:]):
            for key in ("err_u_h1", "err_x_h1", "err_lambda_h1"):
                assert 1.7 < a[key] / b[key] < 2.3
            for key in ("err_p_l2", "err_lambda"):
                assert 3.3 < a[key] / b[key] < 4.7


class TestDualNorm:
    def test_zero_functional(self):
        L = multiplier_space(uniform_mesh((0, 0), (1, 1), 8,
                                          orientation="left"))
        assert dual_norm(L, lambda p: np.zeros(p.shape)) == 0.0

    def test_constant_functional(self):
        # Psi = (1, 0) solves the Riesz problem exactly, so the value is
        # exact in the discrete space too
        L = multiplier_space(uniform_mesh((0, 0), (1, 1), 8,
                                          orientation="left"))
        e = lambda p: np.broadcast_to([1.0, 0.0], p.shape).copy()
        assert dual_norm(L, e) == pytest.approx(1.0, abs=1e-10)

    def test_homogeneity(self):
        L = multiplier_space(uniform_mesh((0, 0), (1, 1), 8,
                                          orientation="left"))
        e = lambda p: np.stack([np.exp(p[..., 0]), p[..., 1] ** 2], axis=-1)
        e3 = lambda p: -3.0 * e(p)
        assert dual_norm(L, e3) == pytest.approx(3.0 * dual_norm(L, e),
                                                 rel=1e-12)

    def test_sine_reference_value(self):
        errs = []
        for n in (16, 32, 64):
            L = multiplier_space(uniform_mesh((0, 0), (1, 1), n,
                                              orientation="left"))
            e = lambda p: np.stack([np.sin(np.pi * p[..., 0]),
                                    np.zeros_like(p[..., 0])], axis=-1)
            errs.append(abs(dual_norm(L, e) - SIN_DUAL_NORM))
        assert errs[-1] < 5e-6
        assert errs[0] > errs[1] > errs[2]
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_discrete_function_subtracted(self):
        # dual_norm(space, e, fe) with fe the interpolant of e is the
        # interpolation error in the dual norm: second order
        exact = manufactured_solution()
        vals = []
        for n in (8, 16, 32):
            L = multiplier_space(uniform_mesh((0, 0), (1, 1), n,
                                              orientation="left"))
            fe = interpolate(L, exact.lam)
            vals.append(dual_norm(L, exact.lam, fe))
        assert 3.3 < vals[0] / vals[1] < 4.7
        assert 3.3 < vals[1] / vals[2] < 4.7


class TestInverseInequality:
    def spaces(self, ns=(4, 8, 16, 32)):
        return [multiplier_space(uniform_mesh((0, 0), (1, 1), n,
                                              orientation="left"))
                for n in ns]

    def test_constant_vectors_give_h(self):
        spaces = self.spaces()
        vectors = [np.ones(sp.n_dofs) for sp in spaces]
        ratios = inverse_inequality_check(spaces, vectors=vectors)
        np.testing.assert_allclose(ratios, [sp.mesh.h for sp in spaces],
                                   rtol=1e-10)

    def test_random_vectors_stay_bounded(self):
        spaces = self.spaces()
        ratios = inverse_inequality_check(spaces, seed=123)
        hs = [sp.mesh.h for sp in spaces]
        slope = np.polyfit(np.log(hs), np.log(ratios), 1)[0]
        assert slope > -0.2

    def test_checkerboard_vectors_stay_bounded(self):
        spaces = self.spaces()
        vectors = []
        for space in spaces:
            ij = np.rint(space.mesh.vertices / space.mesh.h).astype(int)
            mode = np.where((ij.sum(axis=1)) % 2 == 0, 1.0, -1.0)
            vectors.append(np.concatenate([mode, mode]))
        ratios = inverse_inequality_check(spaces, vectors=vectors)
        hs = [sp.mesh.h for sp in spaces]
        slope = np.polyfit(np.log(hs), np.log(ratios), 1)[0]
        assert slope > -0.2

    def test_zero_vector_rejected(self):
        spaces = self.spaces((4,))
        with pytest.raises(ValueError):
            inverse_inequality_check(spaces,
                                     vectors=[np.zeros(spaces[0].n_dofs)])


class TestStrongForm:
    def test_indicator_term(self):
        exact = manufactured_solution()
        f = strong_form_f(exact)
        smooth = lambda p: -np.asarray(exact.lap_u(p)) + exact.grad_p(p)
        inside = np.array([0.5, 0.5])
        s = exact.xbar.apply_inverse(inside)
        want = smooth(inside) + np.asarray(exact.lam(s)) / 4.0
        np.testing.assert_allclose(f(inside), want, rtol=1e-13)
        outside = np.array([1.9, 1.9])
        np.testing.assert_allclose(f(outside), smooth(outside), rtol=1e-13)
