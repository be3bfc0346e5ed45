"""Structured triangulations of axis-aligned rectangles.

A mesh is a uniform n-by-n split of a rectangle into square cells, each
cell cut into two triangles along one diagonal.  With orientation
"right" the diagonal runs from the lower-left to the upper-right corner
of the cell, with "left" it runs the other way.  uniform_mesh numbers
vertices lexicographically (x fastest, row major), cells row by row, and
the two triangles of cell c are 2c and 2c+1, so matrix sparsity patterns
are reproducible across runs.

The mesh size h is the grid spacing (side length divided by n), not the
element diameter.  Midpoint refinement stores the four children of
parent triangle t consecutively at 4t..4t+3 and appends the midpoints
after the parent vertices, so it numbers neither row by row.

A Triangulation is built from its vertices and triangles alone.  It
reads its grid, diagonal, cell-to-triangle lookup and boundary from the
coordinates once, at construction, checks that the mesh is the uniform
grid of its own vertices, and stores its triangle areas; it is immutable
after it.  Hat gradients and centroids are computed at construction to
check the mesh, and afterwards only for the triangles a caller asks
about (grads, centroids), by the same arithmetic, so no per-triangle
float array but the areas is kept.  Point location, the supermesh, the
velocity solves and the structure solves all rely on that grid and take
it from here.  Every blocked loop of the package, here and in the
supermesh and the node-set streams, takes its blocks from _blocks.
"""

import math

import numpy as np

__all__ = [
    "AffineMap",
    "Triangulation",
    "DomainViolationError",
    "uniform_mesh",
    "midpoint_refine",
    "element_map",
]

# Barycentric containment tolerances for point location (tight, then
# wide) and the band around cell edges that routes a query through the
# careful tie-breaking path.
_BARY_TOL = 1e-12
_BARY_TOL_WIDE = 1e-9
_EDGE_BAND = 1e-9
# Items handled together wherever work is blocked to bound transient
# memory: triangles and tie-broken points here, structure elements in
# the supermesh, cells of a node set in assembly.
_BLOCK = 1024


def _blocks(n):
    """Slices of at most _BLOCK items that cover range(n) in order."""
    for start in range(0, n, _BLOCK):
        yield slice(start, min(start + _BLOCK, n))


def _same_mesh(a, b):
    """Whether meshes a and b are one object or have equal vertices and
    triangles."""
    return a is b or (np.array_equal(a.vertices, b.vertices)
                      and np.array_equal(a.triangles, b.triangles))


def _normals(p):
    """(..., 3, 2): row i is the edge of the triangles p (..., 3, 2)
    opposite corner i turned by a right angle, (dy, -dx); divided by
    twice the area it is the gradient of the hat of corner i."""
    a, b, c = p[..., 0, :], p[..., 1, :], p[..., 2, :]
    g = np.empty(p.shape)
    g[..., 0, 0] = b[..., 1] - c[..., 1]
    g[..., 0, 1] = c[..., 0] - b[..., 0]
    g[..., 1, 0] = c[..., 1] - a[..., 1]
    g[..., 1, 1] = a[..., 0] - c[..., 0]
    g[..., 2, 0] = a[..., 1] - b[..., 1]
    g[..., 2, 1] = b[..., 0] - a[..., 0]
    return g


def _centroids(p):
    """Centroids (..., 2) of the triangles p (..., 3, 2)."""
    return (p[..., 0, :] + p[..., 1, :] + p[..., 2, :]) / 3.0


class DomainViolationError(RuntimeError):
    """Raised when a mapped structure point leaves the fluid rectangle."""


class AffineMap:
    """Affine map x = matrix @ s + offset with cached determinant."""

    __slots__ = ("matrix", "offset", "det", "_inv")

    def __init__(self, matrix, offset):
        self.matrix = np.asarray(matrix, dtype=float).reshape(2, 2)
        self.offset = np.asarray(offset, dtype=float).reshape(2)
        self.det = (self.matrix[0, 0] * self.matrix[1, 1]
                    - self.matrix[0, 1] * self.matrix[1, 0])
        if self.det == 0.0:
            raise ValueError("affine map is singular")
        self._inv = np.array([[self.matrix[1, 1], -self.matrix[0, 1]],
                              [-self.matrix[1, 0], self.matrix[0, 0]]]) / self.det

    def apply(self, p):
        """Map one point (2,) or a stack of points (..., 2)."""
        # One (N, 2) @ (2, 2) BLAS product, not one per leading index.
        p = np.asarray(p, dtype=float)
        return ((p.reshape(-1, 2) @ self.matrix.T).reshape(p.shape)
                + self.offset)

    def apply_inverse(self, p):
        p = np.asarray(p, dtype=float) - self.offset
        return (p.reshape(-1, 2) @ self._inv.T).reshape(p.shape)


class Triangulation:
    """Uniform triangle grid of an axis-aligned rectangle.

    Triangulation(vertices, triangles) reads everything else from the
    coordinates, once, and checks it: the vertices must be the (n + 1)^2
    points of the uniform n x n grid of their bounding box, each within
    1e-6 cell widths of its own point, and the triangles must be the two
    halves of every cell, all cells cut along the same diagonal.  Any
    other input raises ValueError.

    Attributes
    ----------
    vertices : (n_vertices, 2) read-only float array
    triangles : (n_triangles, 3) read-only int array, counterclockwise
    n_cells_per_side : int, isqrt(n_vertices) - 1
    domain : (xmin, ymin, xmax, ymax), the bounding box of the vertices
    orientation : "right" or "left", the diagonal of every cell
    grid : (n_cells_per_side + 1, n_cells_per_side + 1) read-only int
        array; grid[i, j] is the vertex at the grid point in row i (y)
        and column j (x)
    boundary_vertex_flags : (n_vertices,) read-only bool array, True on
        the outer ring of grid
    cell_tris : (n_cells_per_side**2, 2) read-only int array mapping
        each grid cell, row by row, to its two triangles; column 0 holds
        the half with two corners on the cell's lower grid row (below
        the right diagonal, or below-left of the left diagonal).
    areas : (n_triangles,) read-only float array of triangle areas

    grads(t) and centroids(t) compute the hat gradients and centroids of
    the triangles t on every call; they are not stored.

    The grid is read in blocks of vertices and the geometry in blocks of
    triangles, so no (n_triangles, 3, 2) gather is made.  vertices and
    triangles are views of the arrays passed in when those already have
    the dtype (float64, int64), so no copy is made; the caller's arrays
    stay writable, and writing to them after construction leaves the
    checked attributes stale.
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.asarray(vertices, dtype=float).view()
        self.triangles = np.asarray(triangles, dtype=np.int64).view()
        n = self.n_cells_per_side = math.isqrt(self.n_vertices) - 1
        if n < 1 or (n + 1) ** 2 != self.n_vertices:
            raise ValueError("the vertex count is not (n + 1)^2 for an n >= 1")
        self.domain = tuple(float(v) for v in np.concatenate(
            [self.vertices.min(axis=0), self.vertices.max(axis=0)]))
        xmin, ymin, xmax, ymax = self.domain
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("degenerate domain rectangle")
        origin, h = np.array([xmin, ymin]), np.array([self.hx, self.hy])
        self.grid = np.full((n + 1, n + 1), -1, dtype=np.intp)
        for v in _blocks(self.n_vertices):
            ij = (self.vertices[v] - origin) / h
            k = np.rint(ij).astype(np.intp)
            # A block with a vertex off its point is not written, so it
            # leaves a grid point without a vertex, as a duplicate does.
            if np.abs(ij - k).max() <= 1e-6:
                self.grid[k[:, 1], k[:, 0]] = np.arange(v.start, v.stop)
        if self.grid.min() < 0:
            raise ValueError("the mesh vertices are not the points of its "
                             "uniform grid")
        self.boundary_vertex_flags = np.ones(self.n_vertices, dtype=bool)
        self.boundary_vertex_flags[self.grid[1:-1, 1:-1]] = False

        nt = self.n_triangles
        self.areas = np.empty(nt)
        self.cell_tris = np.full((n * n, 2), -1, dtype=np.int64)
        span = 1.5 * h[::-1]
        n_right = 0
        for t in _blocks(nt):
            p = self.triangle_vertices(t)
            g = _normals(p)
            # The area is ((b - a) x (c - a)) / 2, with b - a and c - a
            # read from the normals.
            area = self.areas[t]
            np.multiply(g[:, 2, 1], g[:, 1, 0], out=area)
            area -= g[:, 1, 1] * g[:, 2, 0]
            area *= 0.5
            if np.any(area <= 0):
                raise ValueError("triangle with non-positive signed area")
            # Corners on grid points, at most a cell apart along each axis
            # and not in a line, are three corners of one cell.
            if np.any(np.abs(g) > span):
                raise ValueError("a triangle is not half of one grid cell")
            cent = _centroids(p)
            # A half's centroid is a third or two thirds of the way across
            # its cell along each axis: (2/3, 1/3) or (1/3, 2/3) for the
            # halves along the right diagonal, (1/3, 1/3) or (2/3, 2/3)
            # along the left one; a third up for the half with two
            # corners on the lower row.
            f = (cent - origin) / h
            cell = np.floor(f)
            upper = f - cell > 0.5
            n_right += np.count_nonzero(upper[:, 0] != upper[:, 1])
            self.cell_tris[(cell[:, 1] * n + cell[:, 0]).astype(np.intp),
                           upper[:, 1].astype(np.intp)] = np.arange(t.start,
                                                                    t.stop)
        if 0 < n_right < nt:
            raise ValueError("the mesh mixes both cell diagonals")
        if nt != 2 * n * n or self.cell_tris.min() < 0:
            raise ValueError("a grid cell lacks a half")
        self.orientation = "right" if n_right else "left"
        for arr in (self.vertices, self.triangles, self.grid,
                    self.boundary_vertex_flags, self.cell_tris, self.areas):
            arr.setflags(write=False)

    # -- basic queries ---------------------------------------------------

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def hx(self):
        xmin, _, xmax, _ = self.domain
        return (xmax - xmin) / self.n_cells_per_side

    @property
    def hy(self):
        _, ymin, _, ymax = self.domain
        return (ymax - ymin) / self.n_cells_per_side

    @property
    def h(self):
        """Grid spacing (side / n); equal to hx for the square domains used here."""
        return max(self.hx, self.hy)

    def triangle_vertices(self, t):
        """Corners (..., 3, 2) of the triangles t: an int, a slice or an
        index array."""
        # np.take gathers rows several times faster than indexing.
        tris = (self.triangles[t] if isinstance(t, slice)
                else np.take(self.triangles, t, axis=0))
        return np.take(self.vertices, tris, axis=0)

    def grads(self, t=slice(None)):
        """Hat gradients (..., 3, 2) of the triangles t, all by default:
        row i is the gradient of the hat of local vertex i, constant on
        the triangle.  Computed on every call: the normals of the
        construction's check over twice the stored areas."""
        g = _normals(self.triangle_vertices(t))
        g /= 2.0 * self.areas[t][..., None, None]
        return g

    def centroids(self, t=slice(None)):
        """Centroids (..., 2) of the triangles t, all by default, computed
        on every call."""
        return _centroids(self.triangle_vertices(t))

    # -- point location --------------------------------------------------

    def _candidate_cells(self, ix, iy):
        n = self.n_cells_per_side
        cells = []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                jx, jy = ix + dx, iy + dy
                if 0 <= jx < n and 0 <= jy < n:
                    cells.append(jy * n + jx)
        return cells

    def _worst_barycentric(self, t, x, y):
        """Smallest barycentric coordinate of (x, y) in triangle t."""
        (x0, y0), (x1, y1), (x2, y2) = self.vertices[self.triangles[t]]
        d = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        l1 = ((x - x0) * (y2 - y0) - (x2 - x0) * (y - y0)) / d
        l2 = ((x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)) / d
        return min(1.0 - l1 - l2, l1, l2)

    def locate_point(self, x):
        """Return the index of a triangle containing x, or None if outside.

        Points on shared edges or vertices resolve to the smallest
        containing triangle index, so assembly is deterministic.  This
        scalar scan is the reference for locate_points.
        """
        px, py = float(x[0]), float(x[1])
        xmin, ymin, xmax, ymax = self.domain
        tol_x = _BARY_TOL * max(xmax - xmin, ymax - ymin)
        if (px < xmin - tol_x or px > xmax + tol_x
                or py < ymin - tol_x or py > ymax + tol_x):
            return None
        n = self.n_cells_per_side
        ix = min(max(int((px - xmin) / self.hx), 0), n - 1)
        iy = min(max(int((py - ymin) / self.hy), 0), n - 1)
        cand = np.unique(self.cell_tris[self._candidate_cells(ix, iy)])
        for tol in (_BARY_TOL, _BARY_TOL_WIDE):
            for t in cand:
                if self._worst_barycentric(int(t), px, py) >= -tol:
                    return int(t)
        # The point is inside the rectangle but rounding pushed it just
        # outside every candidate; take the nearest one by barycentric
        # defect so interior queries never fail.
        worst = [self._worst_barycentric(int(t), px, py) for t in cand]
        return int(cand[int(np.argmax(worst))])

    def locate_points(self, pts):
        """Vectorized locate_point; returns -1 for outside points.

        Same ownership policy as locate_point: a point goes to the first
        of the triangles around its grid cell, in ascending index order,
        whose barycentric coordinates are all >= -1e-12, else all
        >= -1e-9, else to the first with the largest smallest one.  So
        points on shared edges and vertices go to the smallest
        containing index.  Points off every cell edge and diagonal by
        1e-9 cell widths or more use the direct structured lookup; points
        within that band of the diagonal alone scan their cell's two
        triangles, and the rest the 18 triangles of the cells around them.
        """
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        xmin, ymin, xmax, ymax = self.domain
        n = self.n_cells_per_side
        out = np.full(pts.shape[0], -1, dtype=np.int64)
        tol_x = _BARY_TOL * max(xmax - xmin, ymax - ymin)
        inside = ((pts[:, 0] >= xmin - tol_x) & (pts[:, 0] <= xmax + tol_x)
                  & (pts[:, 1] >= ymin - tol_x) & (pts[:, 1] <= ymax + tol_x))
        tx = (pts[:, 0] - xmin) / self.hx
        ty = (pts[:, 1] - ymin) / self.hy
        ix = np.clip(np.floor(tx).astype(np.int64), 0, n - 1)
        iy = np.clip(np.floor(ty).astype(np.int64), 0, n - 1)
        fx = tx - ix
        fy = ty - iy
        if self.orientation == "right":
            low = fy <= fx
            near_diag = np.abs(fx - fy) < _EDGE_BAND
        else:
            low = fx + fy <= 1.0
            near_diag = np.abs(fx + fy - 1.0) < _EDGE_BAND
        near_edge = ((fx < _EDGE_BAND) | (fx > 1.0 - _EDGE_BAND)
                     | (fy < _EDGE_BAND) | (fy > 1.0 - _EDGE_BAND))
        cells = iy * n + ix
        fast = inside & ~(near_diag | near_edge)
        out[fast] = self.cell_tris[cells[fast], np.where(low[fast], 0, 1)]
        # Clear of the cell edges by the band, a point near the diagonal
        # lies in one of its cell's two triangles to within rounding and
        # at least the band outside every other triangle, so the scan of
        # the two gives the scan of all 18.
        diag = np.nonzero(inside & near_diag & ~near_edge)[0]
        slow = np.nonzero(inside & near_edge)[0]
        for b in _blocks(max(diag.size, slow.size)):
            i = diag[b]
            out[i] = self._scan(pts[i], np.sort(self.cell_tris[cells[i]],
                                                axis=1))
            i = slow[b]
            out[i] = self._break_ties(pts[i], ix[i], iy[i])
        return out

    def _break_ties(self, pts, ix, iy):
        """locate_point's candidate scan for points (P, 2) in cells (ix, iy):
        the 18 triangles of the cells around them."""
        n = self.n_cells_per_side
        shift = np.arange(-1, 2)
        jx = (ix[:, None] + shift).repeat(3, axis=1)
        jy = np.tile(iy[:, None] + shift, 3)
        ok = (jx >= 0) & (jx < n) & (jy >= 0) & (jy < n)
        cand = self.cell_tris[np.where(ok, jy * n + jx, 0)].reshape(-1, 18)
        cand = np.where(ok.repeat(2, axis=1), cand, self.n_triangles)
        return self._scan(pts, np.sort(cand, axis=1))

    def _scan(self, pts, cand):
        """locate_point's ownership policy for points (P, 2) over their
        candidate triangles cand (P, C), ascending, n_triangles marking
        no candidate."""
        none = self.n_triangles
        v = self.vertices[self.triangles[np.minimum(cand, none - 1)]]
        x0, y0 = v[..., 0, 0], v[..., 0, 1]
        x1, y1 = v[..., 1, 0], v[..., 1, 1]
        x2, y2 = v[..., 2, 0], v[..., 2, 1]
        px, py = pts[:, :1], pts[:, 1:]
        d = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        l1 = ((px - x0) * (y2 - y0) - (x2 - x0) * (py - y0)) / d
        l2 = ((x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)) / d
        worst = np.minimum(np.minimum(1.0 - l1 - l2, l1), l2)
        worst[cand == none] = -np.inf
        pick = np.argmax(worst, axis=1)
        for tol in (_BARY_TOL_WIDE, _BARY_TOL):
            hit = worst >= -tol
            pick = np.where(hit.any(axis=1), np.argmax(hit, axis=1), pick)
        return cand[np.arange(cand.shape[0]), pick]


def uniform_mesh(lo, hi, n, orientation="right"):
    """Uniform structured mesh of the rectangle [lo, hi] with n cells per side.

    lo and hi are the (x, y) corners.  Grid spacing is side/n per axis.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    xmin, ymin = float(lo[0]), float(lo[1])
    xmax, ymax = float(hi[0]), float(hi[1])
    # Triangle corners as offsets from each cell's lower-left vertex.
    if orientation == "right":
        corners = ((0, 1, n + 2), (0, n + 2, n + 1))
    elif orientation == "left":
        corners = ((0, 1, n + 1), (1, n + 2, n + 1))
    else:
        raise ValueError("orientation must be 'right' or 'left'")
    vertices = np.empty((n + 1, n + 1, 2))
    vertices[..., 0] = np.linspace(xmin, xmax, n + 1)
    vertices[..., 1] = np.linspace(ymin, ymax, n + 1)[:, None]
    vertices = vertices.reshape(-1, 2)

    # Written one column at a time, so the only temporary is v00.
    v00 = (np.arange(n) * (n + 1))[:, None] + np.arange(n)
    triangles = np.empty((n, n, 2, 3), dtype=np.int64)
    for j, tri in enumerate(corners):
        for i, offset in enumerate(tri):
            np.add(v00, offset, out=triangles[:, :, j, i])
    return Triangulation(vertices, triangles.reshape(-1, 3))


def midpoint_refine(mesh):
    """Split every triangle into four by connecting edge midpoints.

    Children of parent t are stored at 4t..4t+3 in the order corner(a),
    corner(b), corner(c), middle.  Midpoint vertices are appended after
    the parent vertices in first-encounter order, so the numbering is
    deterministic.
    """
    # _split is a function, so its temporaries are freed before the
    # refined mesh computes its geometry.
    return Triangulation(*_split(mesh))


def _split(mesh):
    """Vertices and child triangles of the midpoint refinement of mesh."""
    nv = mesh.n_vertices
    tris = mesh.triangles
    # Edges (ab, bc, ca) of every triangle in turn, keyed by their ends.
    nxt = tris[:, [1, 2, 0]]
    keys = (np.minimum(tris, nxt) * nv + np.maximum(tris, nxt)).ravel()
    unique, first, inverse = np.unique(keys, return_index=True,
                                       return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    mab, mbc, mca = (nv + rank[inverse]).reshape(-1, 3).T
    a, b, c = tris.T
    children = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c,
                         mab, mbc, mca], axis=1).reshape(-1, 3)
    mid = unique[by_first]
    vertices = np.vstack([mesh.vertices, 0.5 * (mesh.vertices[mid // nv]
                                                + mesh.vertices[mid % nv])])
    return vertices, children


def element_map(mesh, t):
    """Affine map from the reference triangle (0,0),(1,0),(0,1) onto triangle t."""
    if not 0 <= t < mesh.n_triangles:
        raise IndexError("triangle index out of range")
    a, b, c = mesh.triangle_vertices(t)
    return AffineMap(np.column_stack([b - a, c - a]), a)

