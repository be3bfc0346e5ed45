"""Assembly of the block matrices and right-hand sides.

Vector dofs are blocked by component (dof = comp * n_vertices + vertex).
The components of the stiffness, structure coupling and fluid-structure
coupling matrices do not couple: each is blockdiag(A, A), and each is
returned as its scalar block A alone, which the solver applies to both
components; only the divergence matrix B couples them, and it is
returned whole.  Every matrix is written by one routine (_csr) into one
preallocated CSR matrix, a block of rows at a time, in row order, each
block summed from per-cell dof maps and per-cell entries.  The mesh
matrices take their rows in the blocks of mesh._blocks: one stable sort
of the (cell, local row) pairs by row gives each block its pairs, each
row's in ascending (cell, local row) order, and each pair forms its own
row of entries alone (_gathered); the coupling matrix takes its rows as
they become final in its groups (below).  Either way each row is summed
from the same entries in the same order as a whole-mesh scatter would
sum it, so the matrices are bit for bit those of one whole-mesh COO
matrix, and no whole-mesh array of entries or COO indices is built.
The hat gradients and centroids are computed (mesh.grads,
mesh.centroids) for the cells at hand: a row block's cells once per
pair, a node set's cells with the set.

The coupling matrix, the coupling loads and every right-hand side run
through one quadrature core over node sets: M cells of K nodes, cell m
lying in triangle parent[m] of the mesh it is assembled on (and, for
the coupling, in fluid triangle owner[m]), with nodes s (M, K, 2),
their images x under the one affine placement map of the structure,
its Jacobian jac (the map's (2, 2) matrix, shared by every cell), and
one weight per node, w (M, K).  A set weighs the value feature
(mu . v), the gradient feature (grad mu : grad(v o xbar)) or both,
fixed when it is built, and each feature is computed only on the sets
that weigh it.  Hat gradients are constant on a cell, so the gradient
feature enters through the sum of its weights per cell.  Exact
coupling is one stream of supermesh subcells under one rule (for the
matrix the degree-2 rule, exact on every subcell), weighing values
and, for h1, gradients; approx coupling is two streams on whole
structure elements, the edge midpoints weighing values and (h1 only)
the centroids weighing gradients, every node located in the fluid mesh.

The caller builds each level's coupling geometry once and hands it to
every consumer: the supermesh's IntersectionTable (build_all_schemes)
for exact coupling, the located approx node groups (approx_nodes) for
approx coupling.  The geometry is the assembly mode: assemble_rhs reads
the mode from it, and assemble_Cf_approx reads the number of streams
from the groups.

Every node set comes in groups (sets, done), in cell order: sets has
one node set per stream, and every cell or element before done has all
of its cells in this group or an earlier one.  The mesh triangles
(volume loads, the exact constraint load, the error norms), the
supermesh subcells and the approx elements all come in the blocks of
mesh._blocks, so no group grows with the mesh.  Matrices and loads
alike are summed stream by stream, each stream in cell order, as the
node sets come: the coupling matrix and the streamed coupling gap
settle the multiplier rows as they become final (_final_rows), and a
load adds each node set into its vector as the set comes (_load).  So
neither depends on the block size.  The coupling gap takes its
groups from the supermesh, clipping the next block in a worker thread
while it integrates the current one, and holds neither matrix.

The forms are those every experiment poses, with no mass term and no
coefficient: (grad u, grad v) on the fluid, (grad X, grad Y) on the
structure.  Right-hand sides insert the analytic solution into them,
so the discrete problem is consistent by construction; smooth volume
terms use the degree-6 rule on the mesh triangles, loaded through the
same core.
"""

import itertools
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp

from .geom_intersect import IntersectionTable, _supermesh
from .mesh import DomainViolationError, _blocks, _same_mesh
from .quadrature import rule_for_degree

__all__ = [
    "assemble_Af",
    "assemble_As",
    "assemble_B",
    "assemble_Cs",
    "assemble_Cf_exact",
    "assemble_Cf_approx",
    "assemble_rhs",
    "approx_nodes",
    "coupling_gap",
    "matrix_1norm_diff",
    "pressure_mean_row",
]

def _check_coupling(coupling):
    if coupling not in ("l2", "h1"):
        raise ValueError("coupling must be 'l2' or 'h1'")


def _basis_table(rule):
    q = rule.points
    return np.column_stack([1.0 - q[:, 0] - q[:, 1], q[:, 0], q[:, 1]])


def _entries_csr(rows, cols, vals, shape):
    """Canonical CSR matrix (sorted, summed indices) of the entries
    rows (E,), cols (E, C), vals (E, C): value [e, j] is added at
    (rows[e], cols[e, j]).

    tocsr() files every entry under its row in the order given, and each
    row is sorted and summed from that sequence alone, so rows that get
    the same entries in the same order come out bit for bit the same,
    whatever else the matrix holds.  Entries that sum to exactly zero,
    such as the stiffness couplings across the diagonals of right-angled
    cells, are not stored.
    """
    # int32 indices, which coo_matrix keeps without a copy.
    r = np.repeat(rows.astype(np.int32, copy=False), cols.shape[1])
    c = cols.astype(np.int32, copy=False).ravel()
    A = sp.coo_matrix((vals.ravel(), (r, c)), shape=shape).tocsr()
    A.eliminate_zeros()
    return A


def _csr(shape, parts, capacity):
    """CSR matrix of shape from parts, the canonical CSR matrices of its
    consecutive blocks of rows, in row order.

    Each part is written into one output as it comes, so no whole matrix
    of entries, and no part but the current one, is held next to the
    result.  The output's arrays are allocated once for capacity entries,
    the number of entries the parts are scattered from, which bounds
    their nonzeros; memory is only backed where it is written, and the
    arrays are trimmed in place (ndarray.resize, a realloc) when the
    parts are done.
    """
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    indices = np.empty(capacity, dtype=np.int32)
    data = np.empty(capacity)
    row = nnz = 0
    for A in parts:
        stop, end = row + A.shape[0], nnz + A.nnz
        indices[nnz:end] = A.indices
        data[nnz:end] = A.data
        indptr[row + 1:stop + 1] = A.indptr[1:] + nnz
        row, nnz = stop, end
    # Nothing else refers to the arrays, so they are resized in place.
    indices.resize(nnz, refcheck=False)
    data.resize(nnz, refcheck=False)
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def _gathered(shape, rows, entries):
    """Row blocks, over mesh._blocks of the rows, of sum_t A_t, A_t the
    matrix that adds row i of the cell blocks vals_t (M, 3, C) of the
    cells m at (rows[m, i], cols[m]).

    rows (M, 3) gives each cell's rows.  One stable sort of the (cell,
    local row) pairs by row hands each block every pair whose row is in
    it, each row's pairs in ascending (cell, local row) order; entries(c,
    i) gives, per pair, the columns (k, C) of cell c and the list of the
    rows i of its blocks vals_t (k, C).  So each row sees the entries of
    the whole-mesh scatter in the same order, and each A_t and the sum
    are the same bit for bit (_entries_csr).
    """
    flat = rows.ravel()
    # Pair (cell, i) is at flat index 3 * cell + i, as divmod reads it.
    pairs = np.argsort(flat, kind="stable")
    ends = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=shape[0]), out=ends[1:])
    for b in _blocks(shape[0]):
        p = pairs[ends[b.start]:ends[b.stop]]
        cols, terms = entries(*np.divmod(p, 3))
        r = flat[p] - b.start
        A = None
        for vals in terms:
            A_t = _entries_csr(r, cols, vals, (b.stop - b.start, shape[1]))
            A = A_t if A is None else A + A_t
        yield A


def _p1_matrix(mesh, stiffness=True, mass=False):
    """The scalar P1 stiffness matrix K on mesh, the mass matrix M, or
    K + M, as stiffness and mass choose, each term unscaled: the block A
    of the vector P1 space's blockdiag(A, A).  Each (cell, local row)
    pair forms its row of K and M alone."""
    rule = rule_for_degree(2)
    basis = _basis_table(rule)
    m_unit = np.einsum("k,ki,kj->ij", rule.weights, basis, basis)

    def entries(c, i):
        areas = mesh.areas[c][:, None]
        terms = []
        if stiffness:
            # grad phi_i . grad phi_j, summed in the order of
            # einsum("mid,mjd->mij"), which is several times slower.
            g = mesh.grads(c)
            gi = g[np.arange(c.size), i]
            K = gi[:, 0, None] * g[..., 0] + gi[:, 1, None] * g[..., 1]
            K *= areas
            terms.append(K)
        if mass:
            terms.append(areas * m_unit[i])
        return mesh.triangles[c], terms

    nv = mesh.n_vertices
    parts = _gathered((nv, nv), mesh.triangles, entries)
    return _csr((nv, nv), parts, 9 * mesh.n_triangles)


def assemble_Af(V):
    """Fluid matrix: the full-gradient stiffness (grad u, grad v) on V,
    as the scalar block of each velocity component."""
    return _p1_matrix(V.mesh)


def assemble_As(S):
    """Structure matrix: the stiffness (grad X, grad Y) on S, as the
    scalar block of each displacement component.

    The matrix alone is singular (constants); the full saddle system
    remains solvable through the coupling blocks.
    """
    return _p1_matrix(S.mesh)


def assemble_B(V, Q):
    """Divergence matrix, entry (q_i, v_j) = int div(phi_j) psi_i.

    Assembled over refined elements with the centroid rule, which is
    exact because the integrand is linear (constant divergence times a
    linear pressure function).  V must live on the midpoint refinement
    of Q's mesh (midpoint_refine), which is checked: the cells are the
    pressure triangles, and each (triangle, local row) pair forms its row
    of the four children's entries.
    """
    mesh_v, mesh_q = V.mesh, Q.mesh
    # Child k of parent q is 4q + k and keeps the parent's corner k
    # (midpoint_refine), which entries reads.
    if (mesh_v.n_triangles != 4 * mesh_q.n_triangles
            or not np.array_equal(mesh_v.vertices[:mesh_q.n_vertices],
                                  mesh_q.vertices)
            or not np.array_equal(mesh_v.triangles.reshape(-1, 4, 3)[:, :3]
                                  .diagonal(axis1=1, axis2=2),
                                  mesh_q.triangles)):
        raise ValueError("velocity mesh is not the midpoint refinement "
                         "of the pressure mesh")

    def entries(q, i):
        # Per pair, the 24 columns of the children 4q..4q+3, each child's
        # in (vertex, component) order like the last two axes of vals.
        # psi_i at each child's centroid is its own product with the
        # parent's gradients, as the whole-mesh scatter evaluates it.
        c, p = 4 * q[:, None] + np.arange(4), q[:, None]
        psi = _hats(mesh_q, p, mesh_v.centroids(c)[..., None, :],
                    mesh_q.grads(p))[np.arange(q.size), :, 0, i]
        vals = (mesh_v.areas[c] * psi)[..., None, None] * mesh_v.grads(c)
        cols = (np.take(mesh_v.triangles, c, axis=0)[..., None]
                + V.n_vertices * np.arange(2))
        return cols.reshape(-1, 24), [vals.reshape(-1, 24)]

    shape = (Q.n_dofs, V.n_dofs)
    parts = _gathered(shape, mesh_q.triangles, entries)
    return _csr(shape, parts, 18 * mesh_v.n_triangles)


def assemble_Cs(L, S, coupling):
    """Structure coupling matrix: mass (l2) or mass + stiffness (h1), as
    the scalar block of each component.  L and S must share the mesh:
    one object, or equal vertices and triangles."""
    _check_coupling(coupling)
    if not _same_mesh(L.mesh, S.mesh):
        raise ValueError("multiplier and structure spaces must share a mesh")
    return _p1_matrix(S.mesh, stiffness=coupling == "h1", mass=True)


# -- fluid-structure coupling --------------------------------------------

_Nodes = namedtuple("_Nodes", "parent owner s x w jac value grad")


class _Blocks:
    """Groups make(b) over the blocks b (mesh._blocks) of n_cells cells,
    in order, built anew on every pass, so a stream can be consumed more
    than once."""

    def __init__(self, make, n_cells):
        self._make, self.n_cells = make, n_cells

    def __iter__(self):
        return map(self._make, _blocks(self.n_cells))


def _hats(mesh, tris, pts, grads):
    """Values (..., K, 3) of the P1 hats of triangles tris (...) at pts
    (..., K, 2), grads their gradients (mesh.grads(tris))."""
    d = pts - mesh.centroids(tris)[..., None, :]
    return 1.0 / 3.0 + d @ grads.swapaxes(-1, -2)


def _load(mesh, groups, field, fluid=False):
    """Load of a vector field against the vector P1 hats phi of mesh:
    sum_nodes w (value . phi + grad : grad phi), per dof.

    field(n) gives the field's value (M, K, 2) and gradient (M, K, 2, 2)
    features at the nodes of node set n, None for a feature the load
    does not weigh.  The nodes lie at s in the triangles parent of mesh,
    or, with fluid, at x in the fluid triangles owner, where the hat
    gradients are pulled back through jac.  The groups are walked once
    per stream, and each node set's per-cell contributions are added
    into the load as they come (np.add.at, one entry at a time in array
    order), so the load does not depend on the blocking.
    """
    out = np.zeros(2 * mesh.n_vertices)
    # Every group holds one node set per stream.
    for k in range(len(next(iter(groups))[0])):
        for sets, _ in groups:
            n = sets[k]
            t, pts = (n.owner, n.x) if fluid else (n.parent, n.s)
            value, grad = field(n)
            g = mesh.grads(t)
            vals = 0.0
            if value is not None:
                vals = ((n.w[..., None] * value).swapaxes(1, 2)
                        @ _hats(mesh, t, pts, g))
            if grad is not None:
                if fluid:
                    g = g @ n.jac
                vals = vals + np.einsum("mk,mkcd->mcd", n.w, grad) \
                    @ g.swapaxes(1, 2)
            dofs = (np.arange(2)[:, None] * mesh.n_vertices
                    + mesh.triangles[t][:, None, :])
            # Flat, for numpy's fast path.
            np.add.at(out, dofs.ravel(), vals.ravel())
    return out


def _rule_nodes(tris, areas, rule):
    """Nodes (M, K, 2) of rule on triangles (M, 3, 2) and their weights
    (M, K)."""
    return _basis_table(rule) @ tris, areas[:, None] * rule.weights


def _mesh_nodes(mesh, rule, grad=True):
    """Groups of one node set of rule on the triangles of mesh, weighing
    values and, with grad, gradients, in the blocks of triangles of
    mesh._blocks."""
    def block(b):
        s, w = _rule_nodes(mesh.triangle_vertices(b), mesh.areas[b], rule)
        return [_Nodes(np.arange(b.start, b.stop), None, s, None, w, None,
                       True, grad)], b.stop
    return _Blocks(block, mesh.n_triangles)


def _placed(parent, owner, s, w, xbar, value, grad):
    """Node set of nodes s (M, K, 2) with weights w on the structure cells
    parent, placed by the affine map xbar."""
    return _Nodes(parent, owner, s, xbar.apply(s), w, xbar.matrix, value,
                  grad)


def _subcell_set(xbar, grad, rule, parent, owner, subcells, s_areas):
    """Exact node set of the supermesh subcells (M, 3, 2) of structure
    elements parent and fluid triangles owner under rule, weighing
    values and, with grad (h1), gradients."""
    return _placed(parent, owner, *_rule_nodes(subcells, s_areas, rule),
                   xbar, True, grad)


def approx_nodes(L, V, xbar, coupling):
    """Node sets of the approx coupling, as a list of groups (sets, done),
    one per block of structure elements of mesh._blocks: sets holds the
    edge midpoints (degree-2 rule, one node per cell) and, for h1, the
    centroids as a second stream, placed by xbar and located in the fluid
    mesh, and done is the block's end.  Build them once per level and
    pass them to assemble_Cf_approx and assemble_rhs, which locate no
    node themselves.
    """
    _check_coupling(coupling)
    return [(_approx_sets(L, V, xbar, coupling == "h1", b), b.stop)
            for b in _blocks(L.mesh.n_triangles)]


def _subcell_nodes(xbar, coupling, rule, schemes):
    """Node sets of the exact coupling: one stream, the subcells of the
    IntersectionTable schemes under rule, built anew in the blocks of
    subcells of mesh._blocks on every pass, each group's done the parent
    of its block's last subcell."""
    _check_coupling(coupling)
    grad = coupling == "h1"

    def block(b):
        parent = schemes.parent[b]
        cells = _subcell_set(xbar, grad, rule, parent, schemes.owner[b],
                             schemes.subcells[b], schemes.s_areas[b])
        return [cells], parent[-1]
    return _Blocks(block, schemes.parent.shape[0])


def _approx_sets(L, V, xbar, grad, b):
    """Approx node sets of the structure elements b (a slice): the edge
    midpoints and, with grad, the centroids, located in the fluid mesh."""
    mesh = L.mesh
    cells = np.arange(b.start, b.stop)
    s, w = _rule_nodes(mesh.triangle_vertices(b), mesh.areas[b],
                       rule_for_degree(2))
    sets = [_placed(np.repeat(cells, 3), None, s.reshape(-1, 1, 2),
                    w.reshape(-1, 1), xbar, True, False)]
    if grad:
        sets.append(_placed(cells, None, mesh.centroids(b)[:, None, :],
                            mesh.areas[b][:, None], xbar, False, True))
    owner = V.mesh.locate_points(
        np.concatenate([n.x.reshape(-1, 2) for n in sets]))
    if np.any(owner < 0):
        raise DomainViolationError(
            "mapped quadrature node leaves the fluid domain")
    cuts = np.cumsum([n.parent.shape[0] for n in sets[:-1]])
    return [n._replace(owner=o) for n, o in zip(sets, np.split(owner, cuts))]


def _cell_entries(L, V, n):
    """Coupling entries (M, 3, 3) of the cells of node set n: rows the
    multiplier hats of structure triangle parent, columns the velocity
    hats of fluid triangle owner, one component."""
    g_L, g_V = L.mesh.grads(n.parent), V.mesh.grads(n.owner)
    vals = 0.0
    if n.value:
        vals = ((n.w[..., None] * _hats(L.mesh, n.parent, n.s, g_L))
                .swapaxes(1, 2) @ _hats(V.mesh, n.owner, n.x, g_V))
    if n.grad:
        vals = vals + n.w.sum(axis=1)[:, None, None] * (
            g_L @ (g_V @ n.jac).swapaxes(1, 2))
    return vals


def _final_rows(L, V, groups, n_streams):
    """The multiplier rows of the coupling of groups, in prefixes, each
    as soon as it is final: every element touching it or a row before it
    has come.

    Yields (n_rows, streams): the number of rows of the prefix since the
    last, and per stream the entries of the cells of those rows, one per
    cell and local multiplier row, in cell order: the rows counted from
    the prefix's first (E,), the velocity columns (E, 3) and the values
    (E, 3) of _cell_entries.  The other entries are held per stream until
    their rows are final; a closing group settles every row.  So each
    row sees its entries in the order of the whole stream, whatever the
    groups.
    """
    mesh = L.mesh
    n_el = mesh.n_triangles
    # reach[r]: the last element touching a row up to r.
    reach = np.zeros(mesh.n_vertices, dtype=np.int64)
    np.maximum.at(reach, mesh.triangles.ravel(), np.arange(3 * n_el) // 3)
    reach = np.maximum.accumulate(reach)
    pending = [[] for _ in range(n_streams)]
    row = 0
    for sets, done in itertools.chain(groups, [([], n_el)]):
        for entries, n in zip(pending, sets):
            entries.append((mesh.triangles[n.parent].ravel(),
                            np.repeat(V.mesh.triangles[n.owner], 3, axis=0),
                            _cell_entries(L, V, n).reshape(-1, 3)))
        stop = int(np.searchsorted(reach, done))
        if stop == row:
            continue
        streams = []
        for entries in pending:
            r, c, v = (np.concatenate(f) for f in zip(*entries))
            now = r < stop
            streams.append((r[now] - row, c[now], v[now]))
            entries[:] = [(r[~now], c[~now], v[~now])]
        yield stop - row, streams
        row = stop


def _rows_csr(V, n_rows, streams):
    """Canonical CSR rows (n_rows, velocity vertices) of the entries of
    streams, taken stream by stream."""
    r, c, v = (np.concatenate(f) for f in zip(*streams))
    return _entries_csr(r, c, v, (n_rows, V.n_vertices))


def _coupling_matrix(L, V, groups, n_streams, n_cells):
    """Coupling matrix of the groups of n_streams node sets of n_cells
    cells in all: rows multiplier, columns velocity vertices, the scalar
    block of each component.

    The rows final after each group are scattered as one row block
    (_csr), the entries of the streams in stream order.  So each row sees
    the entries of the whole-matrix scatter in the same order (all cells
    of the first stream, then of the next), and the matrix does not
    depend on the blocking.
    """
    parts = (_rows_csr(V, n_rows, streams)
             for n_rows, streams in _final_rows(L, V, groups, n_streams))
    return _csr((L.n_vertices, V.n_vertices), parts, 9 * n_cells)


def assemble_Cf_exact(L, V, xbar, coupling, schemes):
    """Coupling matrix integrated exactly on the subcells of the
    IntersectionTable schemes (build_all_schemes with xbar).

    The integrand is a degree-2 polynomial on every subcell, where the
    degree-2 rule is exact.
    """
    groups = _subcell_nodes(xbar, coupling, rule_for_degree(2), schemes)
    return _coupling_matrix(L, V, groups, 1, groups.n_cells)


def assemble_Cf_approx(L, V, nodes):
    """Coupling matrix with single-element rules on the structure
    elements, on the approx node groups nodes (approx_nodes).

    Mass part: degree-2 edge-midpoint rule; gradient part (h1 only, the
    groups' second stream): one-point centroid rule.
    """
    return _coupling_matrix(L, V, nodes, len(nodes[0][0]),
                            sum(n.parent.size for sets, _ in nodes
                                for n in sets))


def matrix_1norm_diff(Aex, Aap):
    """Matrix 1-norm (max column sum of absolute values) of Aex - Aap."""
    if Aex.shape != Aap.shape:
        raise ValueError("matrix dimensions differ")
    d = abs(Aex - Aap)
    col = np.asarray(d.sum(axis=0)).ravel()
    return float(col.max()) if col.size else 0.0


def coupling_gap(L, V, xbar, coupling):
    """Largest row sum of |C_exact - C_approx| over the multiplier rows,
    C the coupling matrix (the scalar block): the gap of the assembled
    matrices (experiments_cli.coupling_gap_norm), bit for bit, without
    either matrix.

    The structure elements come in the blocks of the supermesh
    (geom_intersect._supermesh), with their subcells, as groups of the
    streams of both matrices: the exact cells (the degree-2 rule on the
    block's subcells) and the approx cells (edge midpoints and, for h1,
    centroids, located in the fluid mesh), every element of the block
    done.  Each prefix of rows that is final (_final_rows) has the rows
    of both whole matrices, so the row sums of their difference are
    those of the whole matrices.

    The clipping runs one block ahead in one worker thread: while this
    thread locates the approx nodes, forms the entries and reduces the
    rows of block k, the worker clips, fans and pulls back block k + 1.
    Both spend most of their time in numpy, which releases the
    interpreter lock, so on two cores they overlap.  The worker calls
    neither point location nor rule_for_degree, an error in a block is
    raised when that block is reached, and the worker is joined before
    the call returns or raises.
    """
    _check_coupling(coupling)
    grad = coupling == "h1"
    rule = rule_for_degree(2)
    blocks = _supermesh(L.mesh, xbar, V.mesh)
    gap = 0.0
    with ThreadPoolExecutor(max_workers=1) as clipper:
        groups = (([_subcell_set(xbar, grad, rule, *cells)]
                   + _approx_sets(L, V, xbar, grad, b), b.stop)
                  for b, *cells in _one_ahead(clipper, blocks))
        for n_rows, streams in _final_rows(L, V, groups, 2 + grad):
            C_ex = _rows_csr(V, n_rows, streams[:1])
            C_ap = _rows_csr(V, n_rows, streams[1:])
            gap = max(gap, float(abs(C_ex - C_ap).sum(axis=1).max()))
    return gap


def _one_ahead(pool, items):
    """The items of the iterator items, each computed by pool while the
    caller works on the one before.

    At most one item is computed ahead, and next(items) is called by one
    thread at a time.  An exception raised computing an item is raised
    here when that item is reached, so errors come in the order of the
    items; the caller shuts the pool down, which waits for the item in
    flight, on every exit.
    """
    ahead = pool.submit(next, items, None)
    while (item := ahead.result()) is not None:
        ahead = pool.submit(next, items, None)
        yield item


def pressure_mean_row(Q):
    """Vector m with m_i = int psi_i, the pressure mean constraint row."""
    mesh = Q.mesh
    m = np.zeros(Q.n_dofs)
    np.add.at(m, mesh.triangles.ravel(), np.repeat(mesh.areas / 3.0, 3))
    return m


# -- right-hand sides ----------------------------------------------------


def _features(value, grad):
    """field of _load for analytic fields: value(s) and grad(s) at the
    nodes s of the sets that weigh them."""
    return lambda n: (value(n.s) if n.value else None,
                      grad(n.s) if n.grad else None)


def _volume_rhs_fluid(V, exact):
    """(grad u, grad phi) - (p, div phi) on the fluid mesh."""
    def field(n):
        x = n.s
        return None, exact.grad_u(x) - exact.p(x)[..., None, None] * np.eye(2)
    return _load(V.mesh, _mesh_nodes(V.mesh, rule_for_degree(6)), field)


def _structure_rhs(S, exact, coupling):
    """(grad X, grad Y) - c(lambda, Y) on the structure, degree-6 rule."""
    def field(n):
        grad = exact.grad_X(n.s)
        if coupling == "h1":
            grad = grad - exact.grad_lam(n.s)
        return -exact.lam(n.s), grad
    return _load(S.mesh, _mesh_nodes(S.mesh, rule_for_degree(6)), field)


def assemble_rhs(V, S, L, exact, coupling, nodes):
    """Right-hand side vectors (F, G, D) for the block system.

    F(v) = (grad u, grad v) - (div v, p) + c(lambda, v o xbar),
    G(Y) = (grad X, grad Y) - c(lambda, Y),
    D(mu) = c(mu, d) with d = u(xbar) - X,

    where xbar is the solution's placement map exact.xbar, with which
    nodes, the level's coupling geometry, was built.  It fixes the
    assembly: an IntersectionTable (build_all_schemes) loads F on its
    subcells under the degree-6 rule and D on the degree-6 structure
    nodes; approx node groups (approx_nodes) load both, and must have
    been built for coupling.
    """
    _check_coupling(coupling)
    xbar = exact.xbar
    if isinstance(nodes, IntersectionTable):
        F_nodes = _subcell_nodes(xbar, coupling, rule_for_degree(6), nodes)
        D_nodes = _mesh_nodes(L.mesh, rule_for_degree(6), coupling == "h1")
    elif len(nodes[0][0]) != 1 + (coupling == "h1"):
        raise ValueError("approx nodes were built for the other coupling")
    else:
        F_nodes = D_nodes = nodes
    F = (_volume_rhs_fluid(V, exact)
         + _load(V.mesh, F_nodes, _features(exact.lam, exact.grad_lam),
                 fluid=True))
    G = _structure_rhs(S, exact, coupling)
    # d = u(xbar(s)) - X(s) is smooth on the structure.
    D = _load(L.mesh, D_nodes, _features(exact.d, exact.grad_d))
    return F, G, D
