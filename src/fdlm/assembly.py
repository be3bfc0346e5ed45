"""Assembly of the block matrices and right-hand sides.

Vector dofs are blocked by component (dof = comp * n_vertices + vertex),
so vector mass and stiffness matrices are block diagonal copies of
scalar ones, and the fluid-structure coupling matrix couples equal
components only.

The coupling matrix, the coupling loads and every right-hand side run
through one quadrature core over node sets: M cells of K nodes, cell m
lying in triangle parent[m] of the mesh it is assembled on (and, for
the coupling, in fluid triangle owner[m]), with nodes s (M, K, 2),
their images x under the placement map, its Jacobian jac (M, 2, 2),
and weights w (M, K, 2) for the value feature (mu . v) and the
gradient feature (grad mu : grad(v o xbar)).  Hat gradients are
constant on a cell, so the gradient feature enters through its weight
per cell.  Exact coupling takes the supermesh subcells under one rule
(for the matrix the degree-2 rule, exact on every subcell); approx
coupling takes whole structure elements, with the edge-midpoint nodes
weighing the value feature and the centroids the gradient feature,
and locates every node in the fluid mesh.

Right-hand sides are produced by inserting the analytic solution into
the left-hand side forms, so the discrete problem is consistent by
construction; smooth volume terms use the degree-6 rule on the mesh
triangles, loaded through the same core.  Every degree-6 node set (the
volume loads, the exact constraint load and the exact coupling load)
is built and consumed in blocks of at most _CELL_BLOCK cells, so its
size does not grow with the mesh; the per-cell contributions are
reduced once, in cell order, so the loads do not depend on the block
size.
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
    "coupling_nodes",
    "matrix_1norm_diff",
    "pressure_mean_row",
]

@dataclass(frozen=True)
class FormParams:
    """Coefficients of the fluid and structure bilinear forms.

    a_f(u, v) = alpha (u, v) + nu (grad u, grad v) on the fluid box and
    a_s(X, Y) = beta (X, Y) + kappa (grad X, grad Y) on the structure.
    """

    alpha: float = 0.0
    nu: float = 1.0
    beta: float = 0.0
    kappa: float = 1.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("mass coefficients must be nonnegative")
        if self.nu <= 0 or self.kappa <= 0:
            raise ValueError("gradient coefficients must be positive")


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

# Cells per block of a node set that is built and consumed block by block.
_CELL_BLOCK = 4096


def _cell_blocks(n):
    """Slices of at most _CELL_BLOCK of n cells, in order."""
    return [slice(i, min(i + _CELL_BLOCK, n))
            for i in range(0, n, _CELL_BLOCK)]


def _features(mesh, tris, pts, jac=None):
    """P1 hats of triangles tris (M,): values (M, K, 3) at pts (M, K, 2)
    and gradients (M, 3, 2), pulled back through the Jacobians jac
    (M, 2, 2) when given."""
    g = mesh.grads[tris]
    d = pts - mesh.centroids[tris][:, None, :]
    val = 1.0 / 3.0 + d @ g.swapaxes(1, 2)
    return val, g if jac is None else g @ jac


def _load(mesh, blocks):
    """Load of a vector field against the vector P1 hats phi of mesh:
    sum_nodes w[..., 0] value . phi + w[..., 1] grad : grad phi, per dof.

    blocks yields node blocks (tris, pts, w, value, grad, jac) in cell
    order, as _features takes them; value (M, K, 2) and grad
    (M, K, 2, 2) are the field's value and gradient features at the
    nodes, and either may be None.  The per-cell contributions are
    summed once, in cell order, so the load does not depend on the
    blocking.
    """
    tris, cells = [], []
    for t, pts, w, value, grad, jac in blocks:
        hat, dhat = _features(mesh, t, pts, jac)
        vals = 0.0
        if value is not None:
            vals = (w[..., :1] * value).swapaxes(1, 2) @ hat
        if grad is not None:
            vals = vals + np.einsum("mk,mkcd->mcd", w[..., 1], grad) \
                @ dhat.swapaxes(1, 2)
        tris.append(t)
        cells.append(vals)
    dofs = (np.arange(2)[:, None] * mesh.n_vertices
            + mesh.triangles[np.concatenate(tris)][:, None, :])
    return np.bincount(dofs.ravel(), weights=np.concatenate(cells).ravel(),
                       minlength=2 * mesh.n_vertices)


def _rule_nodes(tris, areas, rule):
    """Nodes (M, K, 2) of rule on triangles (M, 3, 2) and their weights
    (M, K, 2), the same for the value and the gradient feature."""
    s = _basis_table(rule) @ tris
    w = areas[:, None] * rule.weights
    return s, np.repeat(w[..., None], 2, axis=-1)


def _mesh_node_blocks(mesh, rule):
    """(parent, s, w) of rule on the triangles of mesh, yielded in blocks
    of at most _CELL_BLOCK triangles."""
    for b in _cell_blocks(mesh.n_triangles):
        s, w = _rule_nodes(mesh.vertices[mesh.triangles[b]], mesh.areas[b],
                           rule)
        yield np.arange(b.start, b.stop), s, w


def _single_rule_nodes(mesh, coupling):
    """(parent, s, w) of the single-element rules, one node per cell.

    Edge midpoints (degree-2 rule) weigh the value feature, centroids
    (h1 only) the gradient feature.
    """
    n = mesh.n_triangles
    rule = rule_for_degree(2)
    s, w = _rule_nodes(mesh.vertices[mesh.triangles], mesh.areas, rule)
    parent = np.repeat(np.arange(n), len(rule))
    s, w = s.reshape(-1, 1, 2), w.reshape(-1, 1, 2) * (1.0, 0.0)
    if coupling == "h1":
        s = np.concatenate([s, mesh.centroids[:, None, :]])
        parent = np.concatenate([parent, np.arange(n)])
        w = np.concatenate([w, mesh.areas[:, None, None] * (0.0, 1.0)])
    return parent, s, w


def _placed(parent, owner, s, w, parts):
    """Node set of nodes s (M, K, 2) with weights w on the structure cells
    parent, mapped by the placement map's per-element parts
    (_xbar_parts)."""
    mats, offs = parts
    jac = mats[parent]
    x = s @ jac.swapaxes(1, 2) + offs[parent][:, None, :]
    return _Nodes(parent, owner, s, x, w, jac)


def _subcell_nodes(schemes, rule, parts, cells=slice(None)):
    """Node set of rule on the supermesh subcells cells of schemes."""
    s, w = _rule_nodes(schemes.subcells[cells], schemes.s_areas[cells], rule)
    return _placed(schemes.parent[cells], schemes.owner[cells], s, w, parts)


def coupling_nodes(L, V, xbar, coupling, mode, rule=None, schemes=None):
    """Node set of the exact (supermesh subcells under rule) or approx
    (single-element rules, nodes located in the fluid mesh) coupling.

    The approx node set does not depend on rule; build it once and pass
    it to assemble_Cf_approx and assemble_rhs to locate its nodes once.
    The exact node set needs a rule.
    """
    if mode not in ("exact", "approx"):
        raise ValueError("mode must be 'exact' or 'approx'")
    parts = _xbar_parts(xbar, L.mesh.n_triangles)
    if mode == "exact":
        if rule is None:
            raise ValueError("exact coupling nodes need a quadrature rule")
        if schemes is None:
            schemes = build_all_schemes(L.mesh, xbar, V.mesh)
        return _subcell_nodes(schemes, rule, parts)
    parent, s, w = _single_rule_nodes(L.mesh, coupling)
    nodes = _placed(parent, None, s, w, parts)
    owner = V.mesh.locate_points(nodes.x.reshape(-1, 2))
    if np.any(owner < 0):
        raise DomainViolationError(
            "mapped quadrature node leaves the fluid domain")
    return nodes._replace(owner=owner)


def _coupling_matrix(L, V, coupling, nodes):
    """Coupling matrix of a node set: rows multiplier, columns velocity
    dofs, equal components only."""
    hat_l, grad_l = _features(L.mesh, nodes.parent, nodes.s)
    hat_v, grad_v = _features(V.mesh, nodes.owner, nodes.x, nodes.jac)
    vals = (nodes.w[..., :1] * hat_l).swapaxes(1, 2) @ hat_v
    if coupling == "h1":
        vals += (nodes.w[..., 1].sum(axis=1)[:, None, None]
                 * (grad_l @ grad_v.swapaxes(1, 2)))
    r = np.broadcast_to(L.mesh.triangles[nodes.parent][:, :, None],
                        vals.shape)
    c = np.broadcast_to(V.mesh.triangles[nodes.owner][:, None, :],
                        vals.shape)
    return _vector_block(_csr(r.ravel(), c.ravel(), vals.ravel(),
                              (L.n_vertices, V.n_vertices)))


def assemble_Cf_exact(L, V, xbar, coupling="l2", schemes=None):
    """Coupling matrix integrated exactly on the supermesh subcells.

    The integrand is a degree-2 polynomial on every subcell, where the
    degree-2 rule is exact.  A precomputed IntersectionTable
    (build_all_schemes) can be passed to amortize the clipping cost.
    """
    _check_coupling(coupling)
    nodes = coupling_nodes(L, V, xbar, coupling, "exact",
                           rule_for_degree(2), schemes)
    return _coupling_matrix(L, V, coupling, nodes)


def assemble_Cf_approx(L, V, xbar, coupling="l2", nodes=None):
    """Coupling matrix with a single quadrature rule per structure element.

    Mass part: degree-2 edge-midpoint rule; gradient part (h1 only):
    one-point centroid rule.  Each quadrature node is located in the
    fluid mesh independently.  The approx node set (coupling_nodes) can
    be passed to reuse the point location.
    """
    _check_coupling(coupling)
    if nodes is None:
        nodes = coupling_nodes(L, V, xbar, coupling, "approx")
    return _coupling_matrix(L, V, coupling, nodes)


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


def _volume_rhs_fluid(V, exact, params):
    """alpha (u, phi) + nu (grad u, grad phi) - (p, div phi) on the fluid mesh."""
    def blocks():
        for parent, x, w in _mesh_node_blocks(V.mesh, rule_for_degree(6)):
            value = params.alpha * exact.u(x) if params.alpha != 0.0 else None
            grad = (params.nu * exact.grad_u(x)
                    - exact.p(x)[..., None, None] * np.eye(2))
            yield parent, x, w, value, grad, None
    return _load(V.mesh, blocks())


def _structure_rhs(S, exact, params, coupling):
    """a_s(X, Y) - c(lambda, Y) on the structure mesh with the degree-6 rule."""
    def blocks():
        for parent, s, w in _mesh_node_blocks(S.mesh, rule_for_degree(6)):
            value = -exact.lam(s)
            if params.beta != 0.0:
                value += params.beta * exact.X(s)
            grad = params.kappa * exact.grad_X(s)
            if coupling == "h1":
                grad -= exact.grad_lam(s)
            yield parent, s, w, value, grad, None
    return _load(S.mesh, blocks())


def _constraint_rhs(L, exact, coupling, mode):
    """c(mu, d) with d = u(xbar(s)) - X(s), which is smooth on the structure.

    Exact mode integrates with the degree-6 rule, block by block; approx
    mode mirrors the single-element coupling rules (degree-2 mass part,
    centroid gradient part).
    """
    if mode == "exact":
        node_blocks = _mesh_node_blocks(L.mesh, rule_for_degree(6))
    else:
        node_blocks = [_single_rule_nodes(L.mesh, coupling)]
    return _load(L.mesh, (
        (parent, s, w, exact.d(s),
         exact.grad_d(s) if coupling == "h1" else None, None)
        for parent, s, w in node_blocks))


def assemble_rhs(V, Q, S, L, exact, xbar, coupling, mode, params=None,
                 schemes=None, approx_nodes=None):
    """Right-hand side vectors (F, G, D) for the block system.

    F(v) = a_f(u, v) - (div v, p) + c(lambda, v o xbar),
    G(Y) = a_s(X, Y) - c(lambda, Y),
    D(mu) = c(mu, d) with d = u(xbar) - X.

    mode selects how the velocity coupling term (and the constraint
    data) are integrated: "exact" uses the supermesh subcells (passed
    as schemes, or built) under the degree-6 rule, in blocks of at most
    _CELL_BLOCK subcells, "approx" the single-element rules (their
    located node set passed as approx_nodes, or built).
    """
    _check_coupling(coupling)
    if mode not in ("exact", "approx"):
        raise ValueError("mode must be 'exact' or 'approx'")
    params = params or FormParams()
    if mode == "exact":
        if schemes is None:
            schemes = build_all_schemes(L.mesh, xbar, V.mesh)
        rule = rule_for_degree(6)
        parts = _xbar_parts(xbar, L.mesh.n_triangles)
        node_blocks = (_subcell_nodes(schemes, rule, parts, b)
                       for b in _cell_blocks(schemes.parent.shape[0]))
    elif approx_nodes is None:
        node_blocks = [coupling_nodes(L, V, xbar, coupling, "approx")]
    else:
        node_blocks = [approx_nodes]
    F = _volume_rhs_fluid(V, exact, params) + _load(V.mesh, (
        (n.owner, n.x, n.w, exact.lam(n.s),
         exact.grad_lam(n.s) if coupling == "h1" else None, n.jac)
        for n in node_blocks))
    G = _structure_rhs(S, exact, params, coupling)
    D = _constraint_rhs(L, exact, coupling, mode)
    return F, G, D
