"""Continuous P1 finite element spaces on the structured meshes.

The velocity space is vector P1 on the midpoint-refined fluid mesh and
the pressure space scalar P1 on the parent mesh (the classical
P1-iso-P2/P1 pair); the structure displacement and multiplier spaces
are vector P1 on the structure mesh and coincide.

Vector dofs are blocked by component: dof = comp * n_vertices + vertex.
"""

import numpy as np

from .mesh import element_map

__all__ = [
    "FiniteElementSpace",
    "FEFunction",
    "velocity_space",
    "pressure_space",
    "solid_space",
    "multiplier_space",
    "interpolate",
]


class FiniteElementSpace:
    """Continuous P1 space, scalar (value_dim 1) or vector (value_dim 2).

    Attributes
    ----------
    mesh : Triangulation
    value_dim : int
    n_dofs : int, value_dim * n_vertices
    dirichlet_mask : (n_dofs,) bool; all False except for velocity spaces
    """

    def __init__(self, mesh, value_dim, dirichlet_boundary=False):
        if value_dim not in (1, 2):
            raise ValueError("value_dim must be 1 or 2")
        self.mesh = mesh
        self.value_dim = value_dim
        self.n_vertices = mesh.n_vertices
        self.n_dofs = value_dim * mesh.n_vertices
        self.dirichlet_mask = np.zeros(self.n_dofs, dtype=bool)
        if dirichlet_boundary:
            for c in range(value_dim):
                self.dirichlet_mask[c * self.n_vertices:(c + 1) * self.n_vertices] = \
                    mesh.boundary_vertex_flags


def velocity_space(refined_mesh):
    """Vector P1 on the refined fluid mesh with homogeneous Dirichlet walls."""
    return FiniteElementSpace(refined_mesh, 2, dirichlet_boundary=True)


def pressure_space(coarse_mesh):
    """Scalar P1 on the coarse fluid mesh (zero mean imposed by the solver)."""
    return FiniteElementSpace(coarse_mesh, 1)


def solid_space(mesh):
    """Vector P1 displacement space on the structure mesh."""
    return FiniteElementSpace(mesh, 2)


def multiplier_space(mesh):
    """Multiplier space; identical to the displacement space."""
    return FiniteElementSpace(mesh, 2)


class FEFunction:
    """Coefficient vector bound to a space."""

    __slots__ = ("space", "coefficients")

    def __init__(self, space, coefficients=None):
        self.space = space
        if coefficients is None:
            coefficients = np.zeros(space.n_dofs)
        coefficients = np.asarray(coefficients, dtype=float).reshape(-1)
        if coefficients.shape[0] != space.n_dofs:
            raise ValueError("coefficient length does not match the space")
        self.coefficients = coefficients

    def _bary(self, t, x):
        amap = element_map(self.space.mesh, t)
        xi = amap.apply_inverse(np.asarray(x, dtype=float))
        lam = np.array([1.0 - xi[0] - xi[1], xi[0], xi[1]])
        if lam.min() < -1e-10:
            raise ValueError("point lies outside triangle %d" % t)
        return lam

    def eval(self, t, x):
        """Value at point x inside triangle t (scalar or length-2 vector)."""
        lam = self._bary(t, x)
        verts = self.space.mesh.triangles[t]
        if self.space.value_dim == 1:
            return float(lam @ self.coefficients[verts])
        nv = self.space.n_vertices
        return np.array([lam @ self.coefficients[c * nv + verts]
                         for c in range(2)])

    def eval_grad(self, t):
        """Constant gradient on triangle t.

        Scalar spaces return shape (2,); vector spaces return (2, 2)
        with entry [c, d] = d value_c / d x_d.
        """
        if not 0 <= t < self.space.mesh.n_triangles:
            raise IndexError("triangle index out of range")
        g = self.space.mesh.grads(t)
        verts = self.space.mesh.triangles[t]
        if self.space.value_dim == 1:
            return self.coefficients[verts] @ g
        nv = self.space.n_vertices
        return np.stack([self.coefficients[c * nv + verts] @ g
                         for c in range(2)])


def interpolate(space, g):
    """Nodal interpolant of an analytic function.

    g takes points of shape (m, 2) and returns (m,) for scalar spaces
    or (m, 2) for vector spaces.
    """
    vals = np.asarray(g(space.mesh.vertices), dtype=float)
    if space.value_dim == 1:
        coeff = vals.reshape(-1)
    else:
        coeff = vals.reshape(-1, 2).T.reshape(-1)
    return FEFunction(space, coeff)
