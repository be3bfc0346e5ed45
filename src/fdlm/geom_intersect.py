"""Triangle-triangle clipping and the flat supermesh of two meshes.

The coupling matrix between the structure multiplier space and the
fluid velocity space has piecewise-polynomial integrands whose pieces
follow the fluid mesh.  Integrating them exactly needs the supermesh:
each mapped structure element is clipped against the fluid triangles
it overlaps, the convex intersection polygons are fan-triangulated
from their first vertex, and the pieces are pulled back to structure
coordinates where the multiplier basis is native.

``build_all_schemes`` builds the supermesh of a whole structure mesh,
placed by one affine map, as one flat ``IntersectionTable``: subcell k
lies in structure element ``parent[k]`` and fluid triangle
``owner[k]``, and the subcells of element t are the rows
``offsets[t]:offsets[t + 1]``, ordered by cell row, cell column,
triangle within the cell and fan index.  The elements are taken in the
blocks of ``mesh._blocks``: the candidate (element, fluid triangle)
pairs of a block come from the structured-grid bounding box of every
mapped element, and are clipped together by a Sutherland-Hodgman pass
over masked polygon arrays (a triangle clipped by three half-planes
keeps at most six vertices), fanned, pulled back through the map's
inverse and measured before the next block, so only the table grows
with the mesh.  The blocks come from one generator (``_supermesh``),
which yields each block's element slice with its subcells.
``build_all_schemes`` joins the subcells into the table, which the
caller builds once per level and hands to
``assembly.assemble_Cf_exact`` and ``assembly.assemble_rhs``; each
reads it back as a stream of groups of subcells under its own rule.
The streamed coupling gap (``assembly.coupling_gap``) makes each block
one group of its own, every element of the block done, and advances
the generator in a worker thread, one block ahead of the group it
integrates; so ``_supermesh`` calls nothing that the
benchmark tracer wraps (point location, ``rule_for_degree``).

Clipping runs in physical coordinates; tolerance-based predicates are
sufficient because acceptance of the downstream studies is rate-based,
not bit-exact.  ``clip_triangle`` and ``fan_triangulate`` expose the
same clipping and triangulation for a single pair.
"""

import numpy as np

from .mesh import DomainViolationError, _blocks
# Unused here; perfbench/tracing.py wraps it in this module's namespace.
from .quadrature import rule_for_degree

__all__ = [
    "clip_triangle",
    "polygon_area",
    "fan_triangulate",
    "CompositeQuadScheme",
    "IntersectionTable",
    "build_all_schemes",
]

_SLIVER_REL = 1e-14
_COLLINEAR_REL = 1e-12


def polygon_area(pts):
    """Shoelace area of a polygon given as an (m, 2) array (CCW positive)."""
    pts = np.asarray(pts, dtype=float)
    if pts.shape[0] < 3:
        return 0.0
    x = pts[:, 0]
    y = pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clip_triangle(subject, clip):
    """Intersection polygon of two triangles, as an (m, 2) CCW array.

    Returns an empty (0, 2) array when the triangles are disjoint.
    Degenerate (zero-area) inputs raise ValueError.  This is the batched
    clipper of the supermesh applied to one pair.
    """
    s = np.asarray(subject, dtype=float).reshape(3, 2)
    c = np.asarray(clip, dtype=float).reshape(3, 2)
    sa = polygon_area(s)
    ca = polygon_area(c)
    if sa == 0.0 or ca == 0.0:
        raise ValueError("degenerate input triangle")
    s = s[::-1] if sa < 0 else s
    c = c[::-1] if ca < 0 else c
    diam = np.maximum(_diameters(s), _diameters(c)).reshape(1)
    lane, poly, count = _clip_pairs(s[None], c[None], diam)
    poly, count = _cleanup_pairs(poly, count, diam[lane])
    # At most one lane survives, so its vertices lead the flattened array.
    return poly.reshape(-1, 2)[:count.sum()]


def fan_triangulate(poly):
    """Fan triangulation from vertex 0; (k, 3, 2) array, empty for < 3 vertices."""
    poly = np.asarray(poly, dtype=float).reshape(-1, 2)
    m = poly.shape[0]
    if m < 3:
        return np.empty((0, 3, 2))
    tris = np.empty((m - 2, 3, 2))
    tris[:, 0] = poly[0]
    tris[:, 1] = poly[1:m - 1]
    tris[:, 2] = poly[2:m]
    return tris


class CompositeQuadScheme:
    """Subcells of one structure element, a view into an IntersectionTable.

    Attributes
    ----------
    subcells : (m, 3, 2) array of subcell triangles in structure coordinates
    owners : (m,) int array, owning fluid triangle per subcell
    s_areas : (m,) subcell areas in structure coordinates
    """

    __slots__ = ("subcells", "owners", "s_areas")

    def __init__(self, subcells, owners, s_areas):
        self.subcells = subcells
        self.owners = owners
        self.s_areas = s_areas

    def total_s_area(self):
        return float(self.s_areas.sum())

    def __len__(self):
        return self.owners.shape[0]


class IntersectionTable:
    """Flat supermesh of a structure mesh against a fluid mesh.

    Attributes
    ----------
    parent : (M,) int array, structure element of each subcell (sorted)
    owner : (M,) int array, fluid triangle of each subcell
    subcells : (M, 3, 2) subcell triangles in structure coordinates
    s_areas : (M,) subcell areas in structure coordinates
    offsets : (n_elements + 1,) int array; element t owns rows
        offsets[t]:offsets[t + 1]

    len() is the number of structure elements; indexing and iteration
    give per-element CompositeQuadScheme views.
    """

    def __init__(self, parent, owner, subcells, s_areas, n_elements):
        self.parent = parent
        self.owner = owner
        self.subcells = subcells
        self.s_areas = s_areas
        self.offsets = np.searchsorted(parent, np.arange(n_elements + 1))

    def __len__(self):
        return self.offsets.shape[0] - 1

    def __getitem__(self, t):
        t = range(len(self))[t]
        rows = slice(self.offsets[t], self.offsets[t + 1])
        return CompositeQuadScheme(self.subcells[rows], self.owner[rows],
                                   self.s_areas[rows])

    def __iter__(self):
        return (self[t] for t in range(len(self)))


def _signed_areas(tris):
    """Areas of a (..., 3, 2) stack of triangles, counterclockwise positive."""
    u = tris[..., 1, :] - tris[..., 0, :]
    v = tris[..., 2, :] - tris[..., 0, :]
    return 0.5 * (u[..., 0] * v[..., 1] - v[..., 0] * u[..., 1])


def _diameters(tris):
    """Longest edge of each triangle in a (..., 3, 2) stack."""
    d2 = [((tris[..., i, :] - tris[..., j, :]) ** 2).sum(axis=-1)
          for i, j in ((0, 1), (0, 2), (1, 2))]
    return np.sqrt(np.maximum(np.maximum(d2[0], d2[1]), d2[2]))


def _along_rows(a, idx):
    """a[p, idx[p, j]] for every row p of a (P, W, ...) and idx (P, J):
    np.take_along_axis along axis 1, as one gather from the rows of a
    flattened, which is several times faster."""
    flat = a.reshape((-1,) + a.shape[2:])
    return np.take(flat, idx + a.shape[1] * np.arange(a.shape[0])[:, None],
                   axis=0)


def _clip_pairs(subject, clip, diam):
    """Sutherland-Hodgman clipping of subject (P, 3, 2) by CCW triangles
    clip (P, 3, 2), pair by pair; diam (P,) scales the tolerances.

    A vertex counts as inside an edge's half-plane when it lies at most
    _COLLINEAR_REL * diam * edge length outside it.

    Returns (lane, poly, count): the pairs whose polygon survived, their
    vertices (Q, W, 2) padded with zeros, and their vertex counts.
    Intersection points are computed on crossing edges only.
    """
    lane = np.arange(subject.shape[0])
    poly = subject
    count = np.full(lane.shape, 3)
    for k in range(3):
        a = clip[lane, k]
        e = clip[lane, (k + 1) % 3] - a
        tol = -_COLLINEAR_REL * diam[lane] * np.sqrt((e * e).sum(axis=1))
        col = np.arange(poly.shape[1])
        d = (e[:, None, 0] * (poly[..., 1] - a[:, None, 1])
             - e[:, None, 1] * (poly[..., 0] - a[:, None, 0]))
        prev = np.where(col == 0, count[:, None] - 1, col - 1)
        d_prev = _along_rows(d, prev)
        valid = col < count[:, None]
        inside = valid & (d >= tol[:, None])
        crossing = valid & (inside != (d_prev >= tol[:, None]))
        emitted = crossing.astype(np.int64) + inside
        end = np.cumsum(emitted, axis=1)
        new_count = end[:, -1]
        out = np.zeros((lane.size, max(int(new_count.max(initial=0)), 1), 2))
        q, i = np.nonzero(crossing)
        dp, dc = d_prev[q, i], d[q, i]
        p = poly[q, prev[q, i]]
        t = (dp / (dp - dc))[:, None]
        out[q, end[q, i] - emitted[q, i]] = p + t * (poly[q, i] - p)
        q, i = np.nonzero(inside)
        out[q, end[q, i] - 1] = poly[q, i]
        keep = new_count > 0
        lane, poly, count = lane[keep], out[keep], new_count[keep]
    return lane, poly, count


def _cleanup_pairs(poly, count, diam):
    """Drop repeated and collinear vertices (tolerance 1e-12 * diam).

    A vertex within the tolerance of the last kept one is dropped, and
    so is a last vertex that repeats the first; then every vertex whose
    distance to the chord of its two neighbours is within the tolerance.
    Polygons left with fewer than three vertices get count 0.
    """
    tol = _COLLINEAR_REL * diam
    n, width = count.shape[0], poly.shape[1]
    rows = np.arange(n)
    kept = np.zeros_like(poly)
    m = np.zeros(n, dtype=np.int64)
    last = np.zeros((n, 2))
    for i in range(width):
        p = poly[:, i]
        repeat = (m > 0) & (np.abs(p - last) <= tol[:, None]).all(axis=1)
        take = (i < count) & ~repeat
        kept[take, m[take]] = p[take]
        last[take] = p[take]
        m += take
    back = np.abs(kept[rows, np.maximum(m - 1, 0)] - kept[:, 0])
    closing = (m >= 2) & (back <= tol[:, None]).all(axis=1)
    m -= closing
    m[count < 3] = 0

    col = np.arange(width)
    safe = np.maximum(m, 1)[:, None]
    a = _along_rows(kept, (col - 1) % safe)
    c = _along_rows(kept, (col + 1) % safe)
    u = c - a
    ulen = np.sqrt((u * u).sum(axis=-1))
    cross = (u[..., 0] * (kept[..., 1] - a[..., 1])
             - u[..., 1] * (kept[..., 0] - a[..., 0]))
    corner = (col < m[:, None]) & (np.abs(cross) > tol[:, None] * ulen)
    pos = np.cumsum(corner, axis=1) - 1
    out = np.zeros_like(poly)
    q, i = np.nonzero(corner)
    out[q, pos[q, i]] = kept[q, i]
    n_out = corner.sum(axis=1)
    n_out[n_out < 3] = 0
    return out, n_out


def _fan_pairs(poly, count, sliver):
    """Fan triangles from vertex 0 of each polygon, as (q, tris): the
    polygon index (S,) and the triangles (S, 3, 2).

    Polygons and fan triangles with area below their sliver bound are
    dropped; the rest keep polygon and fan order.
    """
    col = np.arange(poly.shape[1])
    nxt = _along_rows(poly, (col + 1) % np.maximum(count, 1)[:, None])
    shoelace = poly[..., 0] * nxt[..., 1] - poly[..., 1] * nxt[..., 0]
    shoelace = np.where(col < count[:, None], shoelace, 0.0)
    area = 0.5 * np.abs(shoelace.sum(axis=1))
    fans = np.stack(np.broadcast_arrays(poly[:, :1], poly[:, 1:-1],
                                        poly[:, 2:]), axis=2)
    keep = (((count >= 3) & (area >= sliver))[:, None]
            & (col[1:-1] <= count[:, None] - 2)
            & (np.abs(_signed_areas(fans)) >= sliver[:, None]))
    q, i = np.nonzero(keep)
    return q, fans[q, i]


def _supermesh(solid_mesh, xbar, fluid_mesh):
    """Supermesh of the elements of solid_mesh placed by the affine map
    xbar against the fluid mesh, in the element blocks of mesh._blocks.

    Yields, per block in order, its element slice and its subcells as
    the IntersectionTable fields (parent, owner, subcells, s_areas),
    with parent counted over all elements.  Each block's elements and
    their candidate fluid triangles are gathered, clipped, fanned and
    pulled back before the next.
    """
    xmin, ymin, xmax, ymax = fluid_mesh.domain
    tol = 1e-12 * max(xmax - xmin, ymax - ymin)
    n = fluid_mesh.n_cells_per_side
    origin, h = (xmin, ymin), (fluid_mesh.hx, fluid_mesh.hy)
    for b in _blocks(solid_mesh.n_triangles):
        mapped = xbar.apply(solid_mesh.triangle_vertices(b))
        lo, hi = mapped.min(axis=1), mapped.max(axis=1)
        if (np.any(lo < (xmin - tol, ymin - tol))
                or np.any(hi > (xmax + tol, ymax + tol))):
            raise DomainViolationError(
                "mapped structure element leaves the fluid domain")

        # Candidate pairs in (element, cell row, cell column, triangle)
        # order.
        i0 = np.clip(np.trunc((lo - origin) / h - 1e-12), 0, n - 1)
        i1 = np.clip(np.trunc((hi - origin) / h + 1e-12), 0, n - 1)
        i0, i1 = i0.astype(int), i1.astype(int)
        nx = i1[:, 0] - i0[:, 0] + 1
        per_el = 2 * nx * (i1[:, 1] - i0[:, 1] + 1)
        el = np.repeat(np.arange(mapped.shape[0]), per_el)
        k = np.arange(el.size) - np.repeat(np.cumsum(per_el) - per_el,
                                           per_el)
        cell = ((i0[el, 1] + k // 2 // nx[el]) * n
                + i0[el, 0] + k // 2 % nx[el])
        tri = fluid_mesh.cell_tris[cell, k % 2]

        signed = _signed_areas(mapped)
        subject = np.where((signed < 0)[:, None, None], mapped[:, ::-1],
                           mapped)
        clip = fluid_mesh.triangle_vertices(tri)
        diam = np.maximum(_diameters(mapped)[el], _diameters(clip))
        lane, poly, count = _clip_pairs(subject[el], clip, diam)
        del clip
        el, tri, diam = el[lane], tri[lane], diam[lane]
        poly, count = _cleanup_pairs(poly, count, diam)
        q, sub = _fan_pairs(poly, count, _SLIVER_REL * np.abs(signed)[el])
        sub = xbar.apply_inverse(sub)
        yield b, b.start + el[q], tri[q], sub, np.abs(_signed_areas(sub))


def _table(blocks, n_el):
    """IntersectionTable of the _supermesh blocks of n_el elements.

    The blocks' fields, without their element slices, are kept in lists
    and joined one field at a time, each list cleared before the next is
    joined, so the table never exists twice.
    """
    fields = tuple(map(list, zip(*blocks)))[1:]
    table = []
    for field in fields:
        table.append(np.concatenate(field))
        field.clear()
    return IntersectionTable(*table, n_el)


def build_all_schemes(solid_mesh, xbar, fluid_mesh):
    """IntersectionTable of every structure element against the fluid mesh.

    xbar is the structure's one placement map (mesh.AffineMap), whose
    (2, 2) matrix is the Jacobian of every element; a sequence of
    per-element maps is not accepted.  The table holds geometry only;
    the quadrature rule is chosen where it is integrated
    (assembly.assemble_Cf_exact, assembly.assemble_rhs).  Raises
    DomainViolationError if any mapped element leaves the fluid
    rectangle.
    """
    return _table(_supermesh(solid_mesh, xbar, fluid_mesh),
                  solid_mesh.n_triangles)
