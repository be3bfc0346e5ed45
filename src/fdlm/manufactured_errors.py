"""Manufactured exact solution, error norms, and the multiplier dual norm.

The exact velocity is the curl of the bubble potential
psi(x, y) = (4 - x^2)^2 (4 - y^2)^2 on the fluid box [-2, 2]^2, so it is
divergence free and vanishes together with its gradient on the walls.
The pressure is 150 sin(x) (zero mean by oddness), the structure
displacement is the analogous curl on the unit reference square, the
multiplier is (exp(s1), exp(s2)), and the placement map is
xbar(s) = (-0.62 + 2 s1, -0.62 + 2 s2), which puts the structure over
the square [-0.62, 1.38]^2, cutting the fluid grid generically.
Inserted into the fixed forms of assembly (pure stiffness, no mass
terms), the fields give the loads; strong_form_f is their fluid equation.

All derivatives are hand-coded closed forms; the tests validate them
against central finite differences.  Multiplier errors in the weaker
coupling are measured in the dual norm of H1 on the structure square,
computed by solving -lap(Psi) + Psi = error with natural boundary
conditions and taking the H1 norm of Psi.
"""

import numpy as np

from .assembly import _basis_table, _load, _mesh_nodes, _p1_matrix
from .mesh import AffineMap
from .quadrature import rule_for_degree
from .saddle_solver import _each_component, _structure_solver

__all__ = [
    "ManufacturedSolution",
    "manufactured_solution",
    "zero_solution",
    "error_norms",
    "dual_norm",
    "inverse_inequality_check",
    "strong_form_f",
    "FLUID_BOX",
    "SOLID_BOX",
]

FLUID_BOX = (-2.0, -2.0, 2.0, 2.0)
SOLID_BOX = (0.0, 0.0, 1.0, 1.0)


class ManufacturedSolution:
    """Bundle of analytic fields and their hand-coded derivatives.

    Vector fields map (..., 2) points to (..., 2) values; gradients
    return (..., 2, 2) arrays with entry [c, d] = d field_c / d x_d.
    """

    def __init__(self, u, grad_u, lap_u, p, grad_p, X, grad_X,
                 lam, grad_lam, xbar):
        self.u = u
        self.grad_u = grad_u
        self.lap_u = lap_u
        self.p = p
        self.grad_p = grad_p
        self.X = X
        self.grad_X = grad_X
        self.lam = lam
        self.grad_lam = grad_lam
        self.xbar = xbar

    def d(self, s):
        """Constraint data d(s) = u(xbar(s)) - X(s)."""
        s = np.asarray(s, dtype=float)
        return self.u(self.xbar.apply(s)) - self.X(s)

    def grad_d(self, s):
        s = np.asarray(s, dtype=float)
        gu = self.grad_u(self.xbar.apply(s))
        pulled = np.einsum("...cm,md->...cd", gu, self.xbar.matrix)
        return pulled - self.grad_X(s)


def _curl_bubble(pts):
    x = pts[..., 0]
    y = pts[..., 1]
    return np.stack([-4.0 * y * (4 - x * x) ** 2 * (4 - y * y),
                     4.0 * x * (4 - x * x) * (4 - y * y) ** 2], axis=-1)


def _grad_curl_bubble(pts):
    x = pts[..., 0]
    y = pts[..., 1]
    g = np.empty(pts.shape[:-1] + (2, 2))
    g[..., 0, 0] = 16.0 * x * y * (4 - x * x) * (4 - y * y)
    g[..., 0, 1] = -4.0 * (4 - x * x) ** 2 * (4 - 3 * y * y)
    g[..., 1, 0] = 4.0 * (4 - y * y) ** 2 * (4 - 3 * x * x)
    g[..., 1, 1] = -16.0 * x * y * (4 - x * x) * (4 - y * y)
    return g


def _lap_curl_bubble(pts):
    x = pts[..., 0]
    y = pts[..., 1]
    return np.stack([
        16.0 * y * (4 - y * y) * (4 - 3 * x * x) + 24.0 * y * (4 - x * x) ** 2,
        -16.0 * x * (4 - x * x) * (4 - 3 * y * y) - 24.0 * x * (4 - y * y) ** 2,
    ], axis=-1)


def manufactured_solution():
    """The fixed analytic solution family described in the module docstring."""
    def p(pts):
        return 150.0 * np.sin(np.asarray(pts, dtype=float)[..., 0])

    def grad_p(pts):
        x = np.asarray(pts, dtype=float)[..., 0]
        return np.stack([150.0 * np.cos(x), np.zeros_like(x)], axis=-1)

    def lam(pts):
        s = np.asarray(pts, dtype=float)
        return np.stack([np.exp(s[..., 0]), np.exp(s[..., 1])], axis=-1)

    def grad_lam(pts):
        s = np.asarray(pts, dtype=float)
        g = np.zeros(s.shape[:-1] + (2, 2))
        g[..., 0, 0] = np.exp(s[..., 0])
        g[..., 1, 1] = np.exp(s[..., 1])
        return g

    xbar = AffineMap(2.0 * np.eye(2), (-0.62, -0.62))
    return ManufacturedSolution(
        u=_curl_bubble, grad_u=_grad_curl_bubble, lap_u=_lap_curl_bubble,
        p=p, grad_p=grad_p,
        X=_curl_bubble, grad_X=_grad_curl_bubble,
        lam=lam, grad_lam=grad_lam, xbar=xbar)


def zero_solution():
    """All-zero fields with the standard placement map, for plumbing tests."""
    def vec(pts):
        return np.zeros(np.asarray(pts, dtype=float).shape)

    def mat(pts):
        return np.zeros(np.asarray(pts, dtype=float).shape[:-1] + (2, 2))

    def scal(pts):
        return np.zeros(np.asarray(pts, dtype=float).shape[:-1])

    xbar = AffineMap(2.0 * np.eye(2), (-0.62, -0.62))
    return ManufacturedSolution(vec, mat, vec, scal, vec, vec, mat, vec, mat,
                                xbar)


# -- norms --------------------------------------------------------------


def _vertex_values(space, coeff, tris):
    """Vertex values (M, 3, value_dim) of a P1 function on triangles tris."""
    return coeff.reshape(space.value_dim, -1).T[space.mesh.triangles[tris]]


def _field_sq_errors(space, coeff, exact_val, exact_grad):
    """Per-element squared L2 and H1-seminorm errors of coeff vs an analytic field.

    The degree-6 node groups are built and evaluated in the element
    blocks of mesh._blocks; the per-element errors are returned whole,
    in element order.
    """
    mesh = space.mesh
    rule = rule_for_degree(6)
    basis = _basis_table(rule)
    l2, h1 = [], []
    for (n,), _ in _mesh_nodes(mesh, rule):
        comp = _vertex_values(space, coeff, n.parent)
        vh = basis @ comp
        dv = np.asarray(exact_val(n.s)).reshape(vh.shape) - vh
        l2.append(np.einsum("mkc,mkc,mk->m", dv, dv, n.w))
        if exact_grad is not None:
            gh = comp.swapaxes(1, 2) @ mesh.grads(n.parent)
            dg = (np.asarray(exact_grad(n.s)).reshape(vh.shape + (2,))
                  - gh[:, None])
            h1.append(np.einsum("mkcd,mkcd,mk->m", dg, dg, n.w))
    return np.concatenate(l2), np.concatenate(h1) if h1 else None


def l2_error(space, coeff, exact_val):
    l2, _ = _field_sq_errors(space, coeff, exact_val, None)
    return float(np.sqrt(l2.sum()))


def h1_error(space, coeff, exact_val, exact_grad):
    """Full H1 norm (L2 part plus seminorm) of the difference."""
    l2, h1 = _field_sq_errors(space, coeff, exact_val, exact_grad)
    return float(np.sqrt(l2.sum() + h1.sum()))


def _dual_norm_from_load(space, r):
    """Dual H1 norm of the functional with load vector r on a vector P1
    space, sqrt(r . (M + K)^-1 r), solved to a relative residual of 1e-12."""
    c = _p1_matrix(space.mesh, mass=True)
    val = r @ _structure_solver(c, space.mesh, 1e-12)(r)
    return float(np.sqrt(max(val, 0.0)))


def dual_norm(space, e, fe=None):
    """Dual norm of e (optionally minus a discrete function fe) on the structure.

    Solves -lap(Psi) + Psi = e - fe with natural boundary conditions on
    the structure mesh and returns the H1 norm of Psi, which equals the
    norm of the functional in the dual of H1.  The degree-6 node sets of
    the load are built and consumed in the element blocks of
    mesh._blocks.
    """
    rule = rule_for_degree(6)
    basis = _basis_table(rule)

    def field(n):
        vals = np.asarray(e(n.s))
        if fe is not None:
            vals = vals - basis @ _vertex_values(space, fe.coefficients,
                                                 n.parent)
        return vals, None
    return _dual_norm_from_load(space, _load(
        space.mesh, _mesh_nodes(space.mesh, rule, grad=False), field))


def error_norms(sol, exact, coupling):
    """Error record for a discrete solution against the analytic fields.

    Velocity and displacement errors are full H1 norms, the pressure
    error is L2, and the multiplier error is the H1 norm for the h1
    coupling and the dual norm for the l2 coupling.
    """
    rec = {
        "err_u_h1": h1_error(sol.u.space, sol.u.coefficients,
                             exact.u, exact.grad_u),
        "err_p_l2": l2_error(sol.p.space, sol.p.coefficients, exact.p),
        "err_x_h1": h1_error(sol.X.space, sol.X.coefficients,
                             exact.X, exact.grad_X),
    }
    if coupling == "h1":
        rec["err_lambda"] = h1_error(sol.lam.space, sol.lam.coefficients,
                                     exact.lam, exact.grad_lam)
    elif coupling == "l2":
        rec["err_lambda"] = dual_norm(sol.lam.space, exact.lam, sol.lam)
    else:
        raise ValueError("coupling must be 'l2' or 'h1'")
    return rec


def inverse_inequality_check(spaces, vectors=None, seed=0):
    """Ratios h * ||mu||_0 / ||mu||_dual across a refinement sequence.

    Boundedness of the ratios is the computable form of the discrete
    inverse inequality between the L2 and dual H1 norms.  By default a
    seeded random nodal vector is used per level; explicit vectors (one
    per space) can be supplied instead, e.g. checkerboard modes.
    """
    rng = np.random.default_rng(seed)
    ratios = []
    for k, space in enumerate(spaces):
        if vectors is not None:
            mu = np.asarray(vectors[k], dtype=float)
        else:
            mu = rng.standard_normal(space.n_dofs)
        if not np.any(mu):
            raise ValueError("mu must be nonzero")
        M = _p1_matrix(space.mesh, stiffness=False, mass=True)
        r = _each_component(M, mu)
        l2 = float(np.sqrt(mu @ r))
        dual = _dual_norm_from_load(space, r)
        ratios.append(space.mesh.h * l2 / dual)
    return ratios


def strong_form_f(exact):
    """Strong-form fluid load for the L2 coupling, as a cross-check oracle.

    f = -lap(u) + grad p + chi_{structure} lam(xbar^-1 x) / |det J|, for
    the fixed forms of assembly: unit viscosity, no mass term.
    The indicator term makes f discontinuous across the mapped-structure
    boundary, so quadrature against it must resolve that interface.
    """
    det = abs(exact.xbar.det)

    def f(pts):
        pts = np.asarray(pts, dtype=float)
        out = -exact.lap_u(pts) + exact.grad_p(pts)
        s = exact.xbar.apply_inverse(pts)
        inside = np.all((s >= 0.0) & (s <= 1.0), axis=-1)
        out += inside[..., None] * exact.lam(s) / det
        return out
    return f
