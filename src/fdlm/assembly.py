"""Assembly of the block matrices and right-hand sides.

Vector dofs are blocked by component (dof = comp * n_vertices + vertex),
so vector mass and stiffness matrices are block diagonal copies of
scalar ones, and the fluid-structure coupling matrix couples equal
components only.

The coupling matrix between the multiplier space on the structure mesh
and the velocity space on the refined fluid mesh, and the coupling
loads, all run through one quadrature core over node sets: M cells of
K nodes, cell m lying in structure element parent[m] and fluid triangle
owner[m], with nodes s (M, K, 2) in structure and x (M, K, 2) in fluid
coordinates, the Jacobian jac (M, 2, 2) of the placement map, and a
weight w (M, K, F) per node and integrand feature.  The l2 integrand
has the one feature mu * v, the h1 integrand adds the two components
of grad mu . grad(v o xbar).  Exact mode takes the supermesh subcells
under one rule (for the matrix the degree-2 rule, exact on every
subcell); approx mode takes whole structure elements, with the
edge-midpoint nodes weighing the mass feature and the centroids the
gradient features, and locates every node in the fluid mesh.

Right-hand sides are produced by inserting the analytic solution into
the left-hand side forms, so the discrete problem is consistent by
construction; smooth volume terms use the degree-6 rule.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geom_intersect import _xbar_parts, build_all_schemes
from .mesh import DomainViolationError
from .quadrature import rule_for_degree

__all__ = [
    "FormParams",
    "assemble_Af",
    "assemble_As",
    "assemble_B",
    "assemble_Cs",
    "assemble_Cf_exact",
    "assemble_Cf_approx",
    "assemble_rhs",
    "matrix_1norm_diff",
    "pressure_mean_row",
    "dump_matrix",
]

@dataclass(frozen=True)
class FormParams:
    """Coefficients of the fluid and structure bilinear forms.

    a_f(u, v) = alpha (u, v) + nu (grad u, grad v) on the fluid box and
    a_s(X, Y) = beta (X, Y) + kappa (grad X, grad Y) on the structure;
    gamma scales the kinematic constraint and is fixed to one.
    """

    alpha: float = 0.0
    nu: float = 1.0
    beta: float = 0.0
    kappa: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("mass coefficients must be nonnegative")
        if self.nu <= 0 or self.kappa <= 0:
            raise ValueError("gradient coefficients must be positive")
        if self.gamma != 1.0:
            raise ValueError("gamma is fixed to one")


def _check_coupling(coupling):
    if coupling not in ("l2", "h1"):
        raise ValueError("coupling must be 'l2' or 'h1'")


def _basis_table(rule):
    q = rule.points
    return np.column_stack([1.0 - q[:, 0] - q[:, 1], q[:, 0], q[:, 1]])


def _csr(rows, cols, vals, shape):
    A = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def _scalar_mass(mesh):
    rule = rule_for_degree(2)
    basis = _basis_table(rule)
    m_unit = np.einsum("k,ki,kj->ij", rule.weights, basis, basis)
    tri = mesh.triangles
    vals = (mesh.areas[:, None, None] * m_unit).ravel()
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    nv = mesh.n_vertices
    return _csr(rows, cols, vals, (nv, nv))


def _scalar_stiffness(mesh):
    tri = mesh.triangles
    vals = (mesh.areas[:, None, None]
            * np.einsum("mid,mjd->mij", mesh.grads, mesh.grads)).ravel()
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    nv = mesh.n_vertices
    return _csr(rows, cols, vals, (nv, nv))


def _vector_block(A):
    return sp.block_diag((A, A), format="csr")


def assemble_Af(V, params):
    """Fluid matrix alpha * mass + nu * full-gradient stiffness on V."""
    A = params.nu * _scalar_stiffness(V.mesh)
    if params.alpha != 0.0:
        A = A + params.alpha * _scalar_mass(V.mesh)
    return _vector_block(A.tocsr())


def assemble_As(S, params):
    """Structure matrix beta * mass + kappa * stiffness on S.

    With beta = 0 the matrix alone is singular (constants); the full
    saddle system remains solvable through the coupling blocks.
    """
    A = params.kappa * _scalar_stiffness(S.mesh)
    if params.beta != 0.0:
        A = A + params.beta * _scalar_mass(S.mesh)
    return _vector_block(A.tocsr())


def assemble_B(V, Q):
    """Divergence matrix, entry (q_i, v_j) = int div(phi_j) psi_i.

    Assembled over refined elements with the centroid rule, which is
    exact because the integrand is linear (constant divergence times a
    linear pressure function).  Q must live on the parent mesh of V.
    """
    mesh_v = V.mesh
    mesh_q = Q.mesh
    if (mesh_v.n_cells_per_side != 2 * mesh_q.n_cells_per_side
            or mesh_v.domain != mesh_q.domain
            or mesh_v.n_triangles != 4 * mesh_q.n_triangles):
        raise ValueError("velocity mesh is not the midpoint refinement "
                         "of the pressure mesh")
    ntv = mesh_v.n_triangles
    parent = np.arange(ntv) // 4
    cent = mesh_v.centroids
    # Pressure basis values at child centroids, via the parent P1 data.
    psi = (1.0 / 3.0
           + np.einsum("mid,md->mi", mesh_q.grads[parent],
                       cent - mesh_q.centroids[parent]))
    vals = np.einsum("m,mi,mjc->mijc", mesh_v.areas, psi, mesh_v.grads)
    rows = np.broadcast_to(mesh_q.triangles[parent][:, :, None, None],
                           vals.shape)
    nvv = V.n_vertices
    cols = np.broadcast_to(
        mesh_v.triangles[:, None, :, None]
        + nvv * np.arange(2)[None, None, None, :], vals.shape)
    return _csr(rows.ravel(), cols.ravel(), vals.ravel(),
                (Q.n_dofs, V.n_dofs))


def assemble_Cs(L, S, coupling):
    """Structure coupling matrix: vector mass (l2) or mass + stiffness (h1)."""
    _check_coupling(coupling)
    if L.mesh is not S.mesh and (L.mesh.n_vertices != S.mesh.n_vertices
                                 or L.mesh.domain != S.mesh.domain):
        raise ValueError("multiplier and structure spaces must share a mesh")
    A = _scalar_mass(S.mesh)
    if coupling == "h1":
        A = A + _scalar_stiffness(S.mesh)
    return _vector_block(A.tocsr())


# -- fluid-structure coupling --------------------------------------------

_Nodes = namedtuple("_Nodes", "parent owner s x w jac")


def _features(mesh, tris, pts, coupling, jac=None):
    """P1 features on triangles tris (M,) at pts (M, K, 2), as (M, K, 3, F).

    Feature 0 holds the three hat values; for h1, features 1-2 hold
    their gradients, pulled back through the Jacobians jac (M, 2, 2)
    when given.
    """
    g = mesh.grads[tris]
    d = pts - mesh.centroids[tris][:, None, :]
    val = 1.0 / 3.0 + d @ g.swapaxes(1, 2)
    if coupling == "l2":
        return val[..., None]
    if jac is not None:
        g = g @ jac
    grad = np.broadcast_to(g[:, None], val.shape + (2,))
    return np.concatenate([val[..., None], grad], axis=-1)


def _field_features(field, grad, s, coupling):
    """Values (M, K, 2, F) of a vector field and, for h1, its gradient."""
    v = np.asarray(field(s))[..., None]
    if coupling == "l2":
        return v
    return np.concatenate([v, np.asarray(grad(s))], axis=-1)


def _load(mesh, tris, pts, w, values, coupling, jac=None):
    """sum_nodes w * values . features of the P1 hats of mesh, per dof."""
    feat = _features(mesh, tris, pts, coupling, jac)
    vals = np.einsum("mkf,mkcf,mkjf->mcj", w, values, feat, optimize=True)
    dofs = (np.arange(2)[:, None] * mesh.n_vertices
            + mesh.triangles[tris][:, None, :])
    return np.bincount(dofs.ravel(), weights=vals.ravel(),
                       minlength=2 * mesh.n_vertices)


def _rule_nodes(tris, areas, rule, coupling):
    """Nodes (M, K, 2) of rule on triangles (M, 3, 2), weighing all features."""
    s = _basis_table(rule) @ tris
    w = areas[:, None] * rule.weights
    return s, np.repeat(w[..., None], 1 if coupling == "l2" else 3, axis=-1)


def _single_rule_nodes(mesh, coupling):
    """(parent, s, w) of the single-element rules, one node per cell.

    Edge midpoints (degree-2 rule) weigh the mass feature, centroids
    (h1 only) the gradient features.
    """
    n = mesh.n_triangles
    rule = rule_for_degree(2)
    s, w = _rule_nodes(mesh.vertices[mesh.triangles], mesh.areas, rule, "l2")
    parent = np.repeat(np.arange(n), len(rule))
    s, w = s.reshape(-1, 1, 2), w.reshape(-1, 1, 1)
    if coupling == "h1":
        s = np.concatenate([s, mesh.centroids[:, None, :]])
        parent = np.concatenate([parent, np.arange(n)])
        w = np.concatenate([w * (1.0, 0.0, 0.0),
                            mesh.areas[:, None, None] * (0.0, 1.0, 1.0)])
    return parent, s, w


def _coupling_nodes(L, V, xbar, coupling, mode, rule=None, schemes=None):
    """Node set of the exact (supermesh subcells under rule) or approx
    (single-element rules, nodes located in the fluid mesh) coupling."""
    mats, offs = _xbar_parts(xbar, L.mesh.n_triangles)
    if mode == "exact":
        if schemes is None:
            schemes = build_all_schemes(L.mesh, xbar, V.mesh)
        parent, owner = schemes.parent, schemes.owner
        s, w = _rule_nodes(schemes.subcells, schemes.s_areas, rule, coupling)
    else:
        parent, s, w = _single_rule_nodes(L.mesh, coupling)
    jac = mats[parent]
    x = s @ jac.swapaxes(1, 2) + offs[parent][:, None, :]
    if mode == "approx":
        owner = V.mesh.locate_points(x.reshape(-1, 2))
        if np.any(owner < 0):
            raise DomainViolationError(
                "mapped quadrature node leaves the fluid domain")
    return _Nodes(parent, owner, s, x, w, jac)


def _coupling_matrix(L, V, coupling, nodes):
    """Coupling matrix of a node set: rows multiplier, columns velocity
    dofs, equal components only."""
    vals = np.einsum("mkf,mkif,mkjf->mij", nodes.w,
                     _features(L.mesh, nodes.parent, nodes.s, coupling),
                     _features(V.mesh, nodes.owner, nodes.x, coupling,
                               nodes.jac), optimize=True)
    r = np.broadcast_to(L.mesh.triangles[nodes.parent][:, :, None],
                        vals.shape).ravel()
    c = np.broadcast_to(V.mesh.triangles[nodes.owner][:, None, :],
                        vals.shape).ravel()
    v = vals.ravel()
    return _csr(np.concatenate([r, r + L.n_vertices]),
                np.concatenate([c, c + V.n_vertices]),
                np.concatenate([v, v]), (L.n_dofs, V.n_dofs))


def assemble_Cf_exact(L, V, xbar, coupling="l2", schemes=None):
    """Coupling matrix integrated exactly on the supermesh subcells.

    The integrand is a degree-2 polynomial on every subcell, where the
    degree-2 rule is exact.  A precomputed IntersectionTable
    (build_all_schemes) can be passed to amortize the clipping cost.
    """
    _check_coupling(coupling)
    nodes = _coupling_nodes(L, V, xbar, coupling, "exact",
                            rule_for_degree(2), schemes)
    return _coupling_matrix(L, V, coupling, nodes)


def assemble_Cf_approx(L, V, xbar, coupling="l2"):
    """Coupling matrix with a single quadrature rule per structure element.

    Mass part: degree-2 edge-midpoint rule; gradient part (h1 only):
    one-point centroid rule.  Each quadrature node is located in the
    fluid mesh independently.
    """
    _check_coupling(coupling)
    return _coupling_matrix(L, V, coupling,
                            _coupling_nodes(L, V, xbar, coupling, "approx"))


def matrix_1norm_diff(Aex, Aap):
    """Matrix 1-norm (max column sum of absolute values) of Aex - Aap."""
    if Aex.shape != Aap.shape:
        raise ValueError("matrix dimensions differ")
    d = abs(Aex - Aap)
    col = np.asarray(d.sum(axis=0)).ravel()
    return float(col.max()) if col.size else 0.0


def pressure_mean_row(Q):
    """Vector m with m_i = int psi_i, the pressure mean constraint row."""
    mesh = Q.mesh
    m = np.zeros(Q.n_dofs)
    np.add.at(m, mesh.triangles, (mesh.areas / 3.0)[:, None])
    return m


# -- right-hand sides ----------------------------------------------------


def _volume_rhs_fluid(V, exact, params, rule):
    """alpha (u, phi) + nu (grad u, grad phi) - (p, div phi) on the fluid mesh."""
    mesh = V.mesh
    basis = _basis_table(rule)
    pts = np.einsum("ki,mid->mkd", basis, mesh.vertices[mesh.triangles])
    w = rule.weights
    gu = np.asarray(exact.grad_u(pts))
    pv = np.asarray(exact.p(pts))
    contrib = params.nu * np.einsum("m,k,mkcd,mid->mic",
                                    mesh.areas, w, gu, mesh.grads)
    if params.alpha != 0.0:
        uv = np.asarray(exact.u(pts))
        contrib += params.alpha * np.einsum("m,k,mkc,ki->mic",
                                            mesh.areas, w, uv, basis)
    contrib -= np.einsum("m,k,mk,mic->mic", mesh.areas, w, pv, mesh.grads)
    F = np.zeros(V.n_dofs)
    nv = V.n_vertices
    for c in range(2):
        np.add.at(F, c * nv + mesh.triangles, contrib[..., c])
    return F


def _structure_rhs(S, exact, params, coupling):
    """a_s(X, Y) - c(lambda, Y) on the structure mesh with the degree-6 rule."""
    mesh = S.mesh
    rule = rule_for_degree(6)
    basis = _basis_table(rule)
    pts = np.einsum("ki,mid->mkd", basis, mesh.vertices[mesh.triangles])
    w = rule.weights
    gx = np.asarray(exact.grad_X(pts))
    lv = np.asarray(exact.lam(pts))
    contrib = params.kappa * np.einsum("m,k,mkcd,mid->mic",
                                       mesh.areas, w, gx, mesh.grads)
    if params.beta != 0.0:
        xv = np.asarray(exact.X(pts))
        contrib += params.beta * np.einsum("m,k,mkc,ki->mic",
                                           mesh.areas, w, xv, basis)
    contrib -= np.einsum("m,k,mkc,ki->mic", mesh.areas, w, lv, basis)
    if coupling == "h1":
        gl = np.asarray(exact.grad_lam(pts))
        contrib -= np.einsum("m,k,mkcd,mid->mic", mesh.areas, w, gl, mesh.grads)
    G = np.zeros(S.n_dofs)
    nv = S.n_vertices
    for c in range(2):
        np.add.at(G, c * nv + mesh.triangles, contrib[..., c])
    return G


def _constraint_rhs(L, exact, coupling, mode):
    """c(mu, d) with d = u(xbar(s)) - X(s), which is smooth on the structure.

    Exact mode integrates with the degree-6 rule; approx mode mirrors
    the single-element coupling rules (degree-2 mass part, centroid
    gradient part).
    """
    mesh = L.mesh
    if mode == "exact":
        parent = np.arange(mesh.n_triangles)
        s, w = _rule_nodes(mesh.vertices[mesh.triangles], mesh.areas,
                           rule_for_degree(6), coupling)
    else:
        parent, s, w = _single_rule_nodes(mesh, coupling)
    return _load(mesh, parent, s, w,
                 _field_features(exact.d, exact.grad_d, s, coupling), coupling)


def assemble_rhs(V, Q, S, L, exact, xbar, coupling, mode, params=None,
                 schemes=None):
    """Right-hand side vectors (F, G, D) for the block system.

    F(v) = a_f(u, v) - (div v, p) + c(lambda, v o xbar),
    G(Y) = a_s(X, Y) - c(lambda, Y),
    D(mu) = c(mu, d) with d = u(xbar) - X.

    mode selects how the velocity coupling term (and the constraint
    data) are integrated: "exact" uses the supermesh subcells (passed
    as schemes, or built) under the degree-6 rule, "approx" the
    single-element rules.
    """
    _check_coupling(coupling)
    if mode not in ("exact", "approx"):
        raise ValueError("mode must be 'exact' or 'approx'")
    params = params or FormParams()
    F = _volume_rhs_fluid(V, exact, params, rule_for_degree(6))
    nodes = _coupling_nodes(L, V, xbar, coupling, mode, rule_for_degree(6),
                            schemes)
    F += _load(V.mesh, nodes.owner, nodes.x, nodes.w,
               _field_features(exact.lam, exact.grad_lam, nodes.s, coupling),
               coupling, nodes.jac)
    G = _structure_rhs(S, exact, params, coupling)
    D = _constraint_rhs(L, exact, coupling, mode)
    return F, G, D


def dump_matrix(A, path):
    """Coordinate text dump ``row col value``, deterministic order."""
    coo = A.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for i in order:
            fh.write("%d %d %.17g\n" % (coo.row[i], coo.col[i], coo.data[i]))
