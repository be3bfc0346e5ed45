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
and one weight per node, w (M, K).  A set weighs the value feature
(mu . v), the gradient feature (grad mu : grad(v o xbar)) or both,
fixed when it is built, and each feature is computed only on the sets
that weigh it.  Hat gradients are constant on a cell, so the gradient
feature enters through the sum of its weights per cell.  Exact
coupling is one stream of supermesh subcells under one rule (for the
matrix the degree-2 rule, exact on every subcell), weighing values
and, for h1, gradients; approx coupling is two sets on whole structure
elements, the edge midpoints weighing values and (h1 only) the
centroids weighing gradients, every node located in the fluid mesh.

Right-hand sides are produced by inserting the analytic solution into
the left-hand side forms, so the discrete problem is consistent by
construction; smooth volume terms use the degree-6 rule on the mesh
triangles, loaded through the same core.  Every degree-6 node set (the
volume loads, the exact constraint load and the exact coupling load)
and the subcells of the exact coupling matrix are built and consumed
in blocks of at most _CELL_BLOCK cells, so their size does not grow
with the mesh; the per-cell contributions are kept and reduced once,
in cell order, so the loads and matrices do not depend on the block
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

_Nodes = namedtuple("_Nodes", "parent owner s x w jac value grad")

# Cells per block of a node set that is built and consumed block by block.
_CELL_BLOCK = 4096


def _cell_blocks(n):
    """Slices of at most _CELL_BLOCK of n cells, in order."""
    return [slice(i, min(i + _CELL_BLOCK, n))
            for i in range(0, n, _CELL_BLOCK)]


class _Blocks:
    """Node sets make(b) over the cell blocks b of n cells, built anew on
    every pass, so a stream can be consumed more than once."""

    def __init__(self, make, n):
        self._make, self._n = make, n

    def __iter__(self):
        return map(self._make, _cell_blocks(self._n))


def _hats(mesh, tris, pts):
    """Values (M, K, 3) of the P1 hats of triangles tris (M,) at pts
    (M, K, 2); their gradients are mesh.grads[tris]."""
    d = pts - mesh.centroids[tris][:, None, :]
    return 1.0 / 3.0 + d @ mesh.grads[tris].swapaxes(1, 2)


def _load(mesh, blocks):
    """Load of a vector field against the vector P1 hats phi of mesh:
    sum_nodes w (value . phi + grad : grad phi), per dof.

    blocks yields node blocks (tris, pts, w, value, grad, jac) in cell
    order, the hat gradients pulled back through jac when it is given;
    value (M, K, 2) and grad (M, K, 2, 2) are the field's value and
    gradient features at the nodes, None where the block does not weigh
    them.  The per-cell contributions are summed once, in cell order, so
    the load does not depend on the blocking.
    """
    tris, cells = [], []
    for t, pts, w, value, grad, jac in blocks:
        vals = 0.0
        if value is not None:
            vals = (w[..., None] * value).swapaxes(1, 2) @ _hats(mesh, t, pts)
        if grad is not None:
            g = mesh.grads[t] if jac is None else mesh.grads[t] @ jac
            vals = vals + np.einsum("mk,mkcd->mcd", w, grad) \
                @ g.swapaxes(1, 2)
        tris.append(t)
        cells.append(vals)
    dofs = (np.arange(2)[:, None] * mesh.n_vertices
            + mesh.triangles[np.concatenate(tris)][:, None, :])
    return np.bincount(dofs.ravel(), weights=np.concatenate(cells).ravel(),
                       minlength=2 * mesh.n_vertices)


def _rule_nodes(tris, areas, rule):
    """Nodes (M, K, 2) of rule on triangles (M, 3, 2) and their weights
    (M, K)."""
    return _basis_table(rule) @ tris, areas[:, None] * rule.weights


def _mesh_node_blocks(mesh, rule):
    """(parent, s, w) of rule on the triangles of mesh, yielded in blocks
    of at most _CELL_BLOCK triangles."""
    for b in _cell_blocks(mesh.n_triangles):
        s, w = _rule_nodes(mesh.vertices[mesh.triangles[b]], mesh.areas[b],
                           rule)
        yield np.arange(b.start, b.stop), s, w


def _placed(parent, owner, s, w, parts, value, grad):
    """Node set of nodes s (M, K, 2) with weights w on the structure cells
    parent, mapped by the placement map's per-element parts
    (_xbar_parts)."""
    mats, offs = parts
    jac = mats[parent]
    x = s @ jac.swapaxes(1, 2) + offs[parent][:, None, :]
    return _Nodes(parent, owner, s, x, w, jac, value, grad)


def coupling_nodes(L, V, xbar, coupling, mode, rule=None, schemes=None):
    """Node sets of the exact or approx coupling, in cell order.

    Exact: the supermesh subcells under rule, built anew in blocks of
    at most _CELL_BLOCK subcells on every pass.  Approx: one node per
    cell, the edge midpoints (degree-2 rule) and, for h1, the centroids,
    located in the fluid mesh; they do not depend on rule, so build them
    once and pass them to assemble_Cf_approx and assemble_rhs to locate
    their nodes once.
    """
    _check_coupling(coupling)
    if mode not in ("exact", "approx"):
        raise ValueError("mode must be 'exact' or 'approx'")
    parts = _xbar_parts(xbar, L.mesh.n_triangles)
    grad = coupling == "h1"
    if mode == "exact":
        if rule is None:
            raise ValueError("exact coupling nodes need a quadrature rule")
        if schemes is None:
            schemes = build_all_schemes(L.mesh, xbar, V.mesh)

        def block(b):
            s, w = _rule_nodes(schemes.subcells[b], schemes.s_areas[b], rule)
            return _placed(schemes.parent[b], schemes.owner[b], s, w, parts,
                           True, grad)
        return _Blocks(block, schemes.parent.shape[0])
    mesh = L.mesh
    cells = np.arange(mesh.n_triangles)
    s, w = _rule_nodes(mesh.vertices[mesh.triangles], mesh.areas,
                       rule_for_degree(2))
    sets = [_placed(np.repeat(cells, 3), None, s.reshape(-1, 1, 2),
                    w.reshape(-1, 1), parts, True, False)]
    if grad:
        sets.append(_placed(cells, None, mesh.centroids[:, None, :],
                            mesh.areas[:, None], parts, False, True))
    owner = V.mesh.locate_points(
        np.concatenate([n.x.reshape(-1, 2) for n in sets]))
    if np.any(owner < 0):
        raise DomainViolationError(
            "mapped quadrature node leaves the fluid domain")
    cuts = np.cumsum([n.parent.shape[0] for n in sets[:-1]])
    return [n._replace(owner=o) for n, o in zip(sets, np.split(owner, cuts))]


def _coupling_matrix(L, V, nodes):
    """Coupling matrix of node sets: rows multiplier, columns velocity
    dofs, equal components only.  Each cell's (3, 3) entry is kept and
    the entries are concatenated in cell order before one CSR build, so
    the matrix does not depend on the blocking."""
    cells = []
    for n in nodes:
        vals = 0.0
        if n.value:
            vals = ((n.w[..., None] * _hats(L.mesh, n.parent, n.s))
                    .swapaxes(1, 2) @ _hats(V.mesh, n.owner, n.x))
        if n.grad:
            vals = vals + n.w.sum(axis=1)[:, None, None] * (
                L.mesh.grads[n.parent]
                @ (V.mesh.grads[n.owner] @ n.jac).swapaxes(1, 2))
        cells.append((n.parent, n.owner, vals))
    parent, owner, vals = map(np.concatenate, zip(*cells))
    del cells
    r = np.broadcast_to(L.mesh.triangles[parent][:, :, None], vals.shape)
    c = np.broadcast_to(V.mesh.triangles[owner][:, None, :], vals.shape)
    return _vector_block(_csr(r.ravel(), c.ravel(), vals.ravel(),
                              (L.n_vertices, V.n_vertices)))


def assemble_Cf_exact(L, V, xbar, coupling="l2", schemes=None):
    """Coupling matrix integrated exactly on the supermesh subcells.

    The integrand is a degree-2 polynomial on every subcell, where the
    degree-2 rule is exact.  A precomputed IntersectionTable
    (build_all_schemes) can be passed to amortize the clipping cost.
    """
    return _coupling_matrix(L, V, coupling_nodes(
        L, V, xbar, coupling, "exact", rule_for_degree(2), schemes))


def _approx_nodes(L, V, xbar, coupling, nodes):
    """The approx node sets nodes, checked against coupling, or built."""
    _check_coupling(coupling)
    if nodes is None:
        return coupling_nodes(L, V, xbar, coupling, "approx")
    if any(n.grad for n in nodes) != (coupling == "h1"):
        raise ValueError("approx nodes were built for the other coupling")
    return nodes


def assemble_Cf_approx(L, V, xbar, coupling="l2", nodes=None):
    """Coupling matrix with a single quadrature rule per structure element.

    Mass part: degree-2 edge-midpoint rule; gradient part (h1 only):
    one-point centroid rule.  Each quadrature node is located in the
    fluid mesh independently.  The approx node sets (coupling_nodes)
    can be passed to reuse the point location.
    """
    return _coupling_matrix(L, V, _approx_nodes(L, V, xbar, coupling, nodes))


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


def _constraint_rhs(L, exact, nodes):
    """c(mu, d) with d = u(xbar(s)) - X(s), which is smooth on the
    structure, over node sets of the structure mesh."""
    return _load(L.mesh, (
        (n.parent, n.s, n.w, exact.d(n.s) if n.value else None,
         exact.grad_d(n.s) if n.grad else None, None) for n in nodes))


def assemble_rhs(V, Q, S, L, exact, xbar, coupling, mode, params=None,
                 schemes=None, approx_nodes=None):
    """Right-hand side vectors (F, G, D) for the block system.

    F(v) = a_f(u, v) - (div v, p) + c(lambda, v o xbar),
    G(Y) = a_s(X, Y) - c(lambda, Y),
    D(mu) = c(mu, d) with d = u(xbar) - X.

    mode selects the coupling node sets (coupling_nodes): "exact" the
    supermesh subcells (passed as schemes, or built) under the degree-6
    rule, with D on the degree-6 structure nodes, "approx" the
    single-element rules (passed as approx_nodes, or built) for both.
    """
    _check_coupling(coupling)
    params = params or FormParams()
    if mode == "approx":
        nodes = _approx_nodes(L, V, xbar, coupling, approx_nodes)
    else:
        nodes = coupling_nodes(L, V, xbar, coupling, mode,
                               rule_for_degree(6), schemes)
    F = _volume_rhs_fluid(V, exact, params) + _load(V.mesh, (
        (n.owner, n.x, n.w, exact.lam(n.s) if n.value else None,
         exact.grad_lam(n.s) if n.grad else None, n.jac) for n in nodes))
    G = _structure_rhs(S, exact, params, coupling)
    if mode == "exact":
        nodes = (_Nodes(p, None, s, None, w, None, True, coupling == "h1")
                 for p, s, w in _mesh_node_blocks(L.mesh, rule_for_degree(6)))
    D = _constraint_rhs(L, exact, nodes)
    return F, G, D
