"""Structured mesh construction, refinement, and point location."""

import hashlib
import tracemalloc

import numpy as np
import pytest

import fdlm.mesh
from fdlm import experiments_cli
from fdlm.assembly import approx_nodes
from fdlm.manufactured_errors import manufactured_solution
from fdlm.mesh import (_EDGE_BAND, AffineMap, Triangulation, element_map,
                       midpoint_refine, uniform_mesh)
from fdlm.quadrature import rule_for_degree


class TestUniformMesh:
    def test_minimal_mesh(self):
        """One cell gives 4 vertices and 2 triangles."""
        mesh = uniform_mesh((0, 0), (1, 1), 1, orientation="right")
        assert mesh.n_vertices == 4
        assert mesh.n_triangles == 2

    def test_fluid_box_counts(self):
        """16 cells per side on side 4: 289 vertices, 512 triangles, h=0.25."""
        mesh = uniform_mesh((-2, -2), (2, 2), 16, orientation="right")
        assert mesh.n_vertices == 289
        assert mesh.n_triangles == 512
        assert mesh.h == pytest.approx(0.25)

    def test_solid_spacing_ratio(self):
        """8 cells on the unit square gives h=0.125, half the fluid spacing."""
        solid = uniform_mesh((0, 0), (1, 1), 8, orientation="left")
        assert solid.h == pytest.approx(0.125)
        fluid = uniform_mesh((-2, -2), (2, 2), 16)
        assert solid.h / fluid.h == pytest.approx(0.5)

    def test_area_sums_both_orientations(self):
        for n in (1, 2, 3, 7, 16, 64):
            for orientation in ("right", "left"):
                mesh = uniform_mesh((-2, -2), (2, 2), n, orientation=orientation)
                np.testing.assert_allclose(mesh.areas.sum(), 16.0, rtol=1e-12)

    def test_positive_areas(self):
        for orientation in ("right", "left"):
            mesh = uniform_mesh((0, 0), (1, 1), 5, orientation=orientation)
            assert np.all(mesh.areas > 0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            uniform_mesh((0, 0), (1, 1), 0)
        with pytest.raises(ValueError):
            uniform_mesh((0, 0), (0, 1), 4)
        with pytest.raises(ValueError):
            uniform_mesh((0, 0), (1, 1), 4, orientation="diagonal")

    def test_vertices_lexicographic(self):
        """Vertices are numbered row-major, x fastest."""
        mesh = uniform_mesh((0, 0), (1, 1), 2)
        np.testing.assert_allclose(mesh.vertices[0], [0.0, 0.0])
        np.testing.assert_allclose(mesh.vertices[1], [0.5, 0.0])
        np.testing.assert_allclose(mesh.vertices[3], [0.0, 0.5])

    def test_orientation_diagonals(self):
        """Right orientation uses the lower-left to upper-right diagonal."""
        right = uniform_mesh((0, 0), (1, 1), 1, orientation="right")
        left = uniform_mesh((0, 0), (1, 1), 1, orientation="left")
        # the shared diagonal edge appears in both triangles of the cell
        def diagonal(mesh):
            t0 = set(mesh.triangles[0]) & set(mesh.triangles[1])
            return sorted(t0)
        assert diagonal(right) == [0, 3]   # (0,0)-(1,1)
        assert diagonal(left) == [1, 2]    # (1,0)-(0,1)


class TestMidpointRefine:
    def test_counts(self):
        mesh = uniform_mesh((0, 0), (1, 1), 1)
        refined = midpoint_refine(mesh)
        assert refined.n_triangles == 8
        twice = midpoint_refine(refined)
        assert twice.n_triangles == 32

    def test_fluid_mesh_refinement(self):
        mesh = uniform_mesh((-2, -2), (2, 2), 16)
        refined = midpoint_refine(mesh)
        assert refined.n_triangles == 2048
        assert refined.h == pytest.approx(0.125)

    def test_area_preserved(self):
        mesh = uniform_mesh((-2, -2), (2, 2), 7, orientation="left")
        refined = midpoint_refine(mesh)
        np.testing.assert_allclose(refined.areas.sum(), 16.0, rtol=1e-13)

    def test_children_consecutive_in_parent_order(self):
        """Children of parent t occupy slots 4t..4t+3 and tile the parent."""
        mesh = uniform_mesh((0, 0), (1, 1), 2)
        refined = midpoint_refine(mesh)
        for t in range(mesh.n_triangles):
            child_area = refined.areas[4 * t:4 * t + 4].sum()
            np.testing.assert_allclose(child_area, mesh.areas[t], rtol=1e-13)
            # child centroids lie in the parent triangle
            parent = mesh.vertices[mesh.triangles[t]]
            mat = np.column_stack([parent[1] - parent[0], parent[2] - parent[0]])
            for c in range(4):
                cen = refined.centroids(4 * t + c)
                bary = np.linalg.solve(mat, cen - parent[0])
                assert bary.min() > -1e-12 and bary.sum() < 1 + 1e-12

    def test_numbering(self):
        """Midpoints are numbered in first-encounter order over the
        edges (ab, bc, ca) of each parent triangle."""
        refined = midpoint_refine(uniform_mesh((0, 0), (1, 1), 1))
        np.testing.assert_array_equal(
            refined.vertices[4:],
            [[.5, 0], [1, .5], [.5, .5], [.5, 1], [0, .5]])
        np.testing.assert_array_equal(
            refined.triangles,
            [[0, 4, 6], [4, 1, 5], [6, 5, 3], [4, 5, 6],
             [0, 6, 8], [6, 3, 7], [8, 7, 2], [6, 7, 8]])

    def test_refined_mesh_matches_direct(self):
        """Refining n=4 gives the same vertex set as building n=8 directly."""
        refined = midpoint_refine(uniform_mesh((0, 0), (1, 1), 4))
        direct = uniform_mesh((0, 0), (1, 1), 8)
        assert refined.n_vertices == direct.n_vertices
        got = set(map(tuple, np.round(refined.vertices, 12)))
        want = set(map(tuple, np.round(direct.vertices, 12)))
        assert got == want


MESHES = {"right": lambda: uniform_mesh((-2, -2), (2, 2), 5, "right"),
          "left": lambda: uniform_mesh((0, 0), (1, 1), 6, "left"),
          "refined": lambda: midpoint_refine(uniform_mesh((-2, -2), (2, 2),
                                                          3, "right"))}


def per_triangle_geometry(mesh):
    """Areas, hat gradients and centroids of every triangle of mesh, by
    the formulas written out per triangle."""
    p = mesh.vertices[mesh.triangles]
    (ax, ay), (bx, by), (cx, cy) = p[:, 0].T, p[:, 1].T, p[:, 2].T
    area = 0.5 * ((bx - ax) * (cy - ay) - (cx - ax) * (by - ay))
    grads = np.stack([np.stack([by - cy, cx - bx], axis=1),
                      np.stack([cy - ay, ax - cx], axis=1),
                      np.stack([ay - by, bx - ax], axis=1)], axis=1)
    grads /= 2.0 * area[:, None, None]
    centroids = (p[:, 0] + p[:, 1] + p[:, 2]) / 3.0
    return area, grads, centroids


class TestGeometry:
    """Areas are computed once, in blocks, at construction; hat gradients
    and centroids on every call, for the triangles asked about."""

    @pytest.fixture(params=[None, 7], ids=["default-block", "block-7"])
    def blocks(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(fdlm.mesh, "_BLOCK", request.param)

    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_read_only_attributes_set_at_construction(self, blocks, name):
        mesh = MESHES[name]()
        before = dict(vars(mesh))
        assert not mesh.areas.flags.writeable
        with pytest.raises(ValueError):
            mesh.areas.flat[0] = 1.0
        assert "grads" not in before and "centroids" not in before
        # A written result is the caller's: the next call is unchanged.
        grads, centroids = mesh.grads(), mesh.centroids()
        mesh.grads().flat[0] = mesh.centroids().flat[0] = 1e300
        assert np.array_equal(mesh.grads(), grads)
        assert np.array_equal(mesh.centroids(), centroids)
        mesh.locate_points(centroids)
        assert vars(mesh).keys() == before.keys()
        assert all(vars(mesh)[k] is v for k, v in before.items())

    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_bit_equal_to_per_triangle_formulas(self, blocks, name):
        mesh = MESHES[name]()
        area, grads, centroids = per_triangle_geometry(mesh)
        assert mesh.areas.shape == area.shape
        assert np.array_equal(mesh.areas, area)
        nt = mesh.n_triangles
        picks = [slice(None), nt // 2, slice(3, nt - 2, 5),
                 np.random.default_rng(5).integers(0, nt, 40)]
        for t in picks:
            for got, want in ((mesh.grads(t), grads[t]),
                              (mesh.centroids(t), centroids[t])):
                assert got.shape == want.shape
                assert np.array_equal(got, want)

    def test_keeps_no_per_triangle_geometry_but_areas(self):
        """At n = 256 a mesh holds its vertices, triangles, areas, grid,
        cell lookup and boundary flags, 52.6 bytes per triangle, and no
        hat gradients (48 bytes) or centroids (16 bytes)."""
        n = 256
        tracemalloc.start()
        try:
            mesh = uniform_mesh((0, 0), (1, 1), n)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mesh.n_triangles == 2 * n * n
        assert kept / mesh.n_triangles < 60

    def test_zero_area_triangle_raises_before_dividing(self, blocks):
        # The first triangle runs along the bottom row of the 3 x 3 grid.
        mesh = uniform_mesh((0, 0), (1, 1), 2)
        triangles = mesh.triangles.copy()
        triangles[0] = (0, 1, 2)
        with np.errstate(all="raise"), pytest.raises(
                ValueError, match="non-positive signed area"):
            Triangulation(mesh.vertices, triangles)


class TestElementMap:
    def test_reference_corners_map_to_element_vertices(self):
        mesh = uniform_mesh((0, 0), (1, 1), 1)
        amap = element_map(mesh, 0)
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(amap.apply(ref),
                                   mesh.vertices[mesh.triangles[0]],
                                   atol=1e-14)

    def test_determinant_is_twice_area(self):
        mesh = uniform_mesh((-2, -2), (2, 2), 16)
        for t in (0, 5, 100, 511):
            amap = element_map(mesh, t)
            assert abs(amap.det) == pytest.approx(0.0625, rel=1e-13)
            assert abs(amap.det) == pytest.approx(2 * mesh.areas[t], rel=1e-13)

    def test_scaling_map(self):
        h = 0.25
        mesh = uniform_mesh((0, 0), (h, h), 1)
        amap = element_map(mesh, 0)
        assert abs(amap.det) == pytest.approx(h * h, rel=1e-13)

    def test_out_of_range(self):
        mesh = uniform_mesh((0, 0), (1, 1), 2)
        with pytest.raises(IndexError):
            element_map(mesh, mesh.n_triangles)

    def test_apply_inverse_roundtrip(self):
        mesh = uniform_mesh((-1, 0), (3, 2), 3, orientation="left")
        amap = element_map(mesh, 7)
        rng = np.random.default_rng(3)
        pts = rng.random((20, 2)) * 0.5
        np.testing.assert_allclose(amap.apply_inverse(amap.apply(pts)), pts,
                                   atol=1e-13)


class TestLocatePoint:
    def test_centroids_exhaustive(self):
        for n in (1, 4, 32):
            for orientation in ("right", "left"):
                mesh = uniform_mesh((-2, -2), (2, 2), n, orientation=orientation)
                for t in range(mesh.n_triangles):
                    assert mesh.locate_point(mesh.centroids(t)) == t

    def test_outside(self):
        mesh = uniform_mesh((-2, -2), (2, 2), 4)
        assert mesh.locate_point((5.0, 5.0)) is None
        assert mesh.locate_point((0.0, -2.5)) is None

    def test_shared_edge_tie_break(self):
        """A point on the edge shared by triangles 4 and 5 resolves to 4."""
        mesh = uniform_mesh((-2, -2), (2, 2), 16)
        shared = sorted(set(mesh.triangles[4]) & set(mesh.triangles[5]))
        assert len(shared) == 2
        mid = mesh.vertices[shared].mean(axis=0)
        assert mesh.locate_point(mid) == 4

    def test_vertex_tie_break_smallest_index(self):
        mesh = uniform_mesh((0, 0), (1, 1), 4)
        v = mesh.vertices[6]
        candidates = [t for t in range(mesh.n_triangles)
                      if 6 in mesh.triangles[t]]
        assert mesh.locate_point(v) == min(candidates)

    def test_locate_points_matches_scalar(self):
        mesh = uniform_mesh((-2, -2), (2, 2), 8, orientation="left")
        rng = np.random.default_rng(11)
        pts = rng.uniform(-2.2, 2.2, size=(500, 2))
        bulk = mesh.locate_points(pts)
        for p, t in zip(pts, bulk):
            scalar = mesh.locate_point(p)
            assert (scalar is None and t == -1) or scalar == t

    def test_locate_points_on_edges_matches_scalar(self):
        mesh = uniform_mesh((0, 0), (1, 1), 4)
        # edge midpoints of every triangle sit exactly on element borders
        v = mesh.vertices[mesh.triangles]
        mids = np.concatenate([(v[:, 0] + v[:, 1]) / 2,
                               (v[:, 1] + v[:, 2]) / 2,
                               (v[:, 2] + v[:, 0]) / 2])
        bulk = mesh.locate_points(mids)
        for p, t in zip(mids, bulk):
            assert mesh.locate_point(p) == t

    def test_locate_points_matches_scalar_on_manufactured_ties(self):
        """The manufactured map puts the approximate-rule nodes of the
        first two Test 2 levels on refined fluid edges; the batched
        tie-break must pick the scalar owner for every one of them."""
        exact = manufactured_solution()
        rule = rule_for_degree(2)
        basis = np.column_stack([1 - rule.points.sum(axis=1), rule.points])
        on_edge = 0
        for n_fluid, n_solid in experiments_cli.test2_schedule(2):
            V, _, _, L = experiments_cli.build_level_spaces(n_fluid, n_solid)
            solid, fluid = L.mesh, V.mesh
            s = np.concatenate([
                np.einsum("ki,mid->mkd", basis,
                          solid.vertices[solid.triangles]).reshape(-1, 2),
                solid.centroids()])
            x = exact.xbar.apply(s)
            bulk = fluid.locate_points(x)
            for p, t in zip(x, bulk):
                assert fluid.locate_point(p) == t
                on_edge += fluid._worst_barycentric(int(t), *p) < 1e-12
        assert on_edge > 100

    @staticmethod
    def scan_all(mesh, pts):
        """The 18-candidate scan of every point inside the domain."""
        xmin, ymin, _, _ = mesh.domain
        n = mesh.n_cells_per_side
        ix = np.clip(np.floor((pts[:, 0] - xmin) / mesh.hx), 0, n - 1)
        iy = np.clip(np.floor((pts[:, 1] - ymin) / mesh.hy), 0, n - 1)
        return np.concatenate([
            mesh._break_ties(pts[i:i + 4096], ix[i:i + 4096].astype(int),
                             iy[i:i + 4096].astype(int))
            for i in range(0, pts.shape[0], 4096)])

    def test_diagonal_band_owner_matches_full_scan_on_test2_nodes(self):
        # Points near a diagonal alone scan two triangles, not 18.
        exact = manufactured_solution()
        on_diagonal = 0
        for n_fluid, n_solid in experiments_cli.test2_schedule(4):
            V, _, _, L = experiments_cli.build_level_spaces(n_fluid, n_solid)
            x = np.concatenate([n.x.reshape(-1, 2)
                                for sets, _ in approx_nodes(
                                    L, V, exact.xbar, "h1")
                                for n in sets])
            fluid = V.mesh
            np.testing.assert_array_equal(fluid.locate_points(x),
                                          self.scan_all(fluid, x))
            f = (x - fluid.domain[:2]) / fluid.hx % 1.0
            on_diagonal += np.sum(np.abs(f[:, 0] - f[:, 1]) < _EDGE_BAND)
        assert on_diagonal > 1000

    @pytest.mark.parametrize("orientation", ["right", "left"])
    def test_diagonal_band_owner_matches_full_scan_at_band_limits(
            self, orientation):
        mesh = uniform_mesh((-2, -2), (2, 2), 8, orientation=orientation)
        h = mesh.hx
        # Offsets from the cell edges and from the diagonal at and next to
        # the band, in cell widths, in cells inside the mesh.
        near = [_EDGE_BAND * k for k in (0.5, 1 - 1e-6, 1, 1 + 1e-6, 2)]
        along = np.array(near + [0.25, 0.5] + [1 - e for e in near])
        across = np.array([0.0] + near + [-e for e in near])
        fx, fy = np.meshgrid(along, across)
        fx, fy = fx.ravel(), fy.ravel()
        fy = fx + fy if orientation == "right" else 1 - fx + fy
        pts = []
        for cx, cy in ((3, 4), (0, 0), (7, 7), (0, 7)):
            pts.append(np.column_stack([-2 + (cx + fx) * h,
                                        -2 + (cy + fy) * h]))
        pts = np.concatenate(pts)
        pts = pts[(np.abs(pts) <= 2).all(axis=1)]
        bulk = mesh.locate_points(pts)
        np.testing.assert_array_equal(bulk, self.scan_all(mesh, pts))
        assert [mesh.locate_point(p) for p in pts] == list(bulk)


def pin(a):
    """First 16 hex digits of sha256 over a as little-endian int64."""
    return hashlib.sha256(np.asarray(a, dtype="<i8").tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("lo, hi, orientation, cell_tris, boundary", [
    ((-2, -2), (2, 2), "right", "5658787f1125d5b7", "aa97636c83b333c8"),
    ((0, 0), (1, 1), "left", "5f60787fa70bf246", "8657ae985e4e14c6")],
    ids=["right", "left"])
def test_refined_layout_pinned(lo, hi, orientation, cell_tris, boundary):
    mesh = midpoint_refine(uniform_mesh(lo, hi, 8, orientation))
    assert pin(mesh.cell_tris) == cell_tris
    assert pin(mesh.boundary_vertex_flags) == boundary
    assert mesh.orientation == orientation
    assert mesh.domain == (*map(float, lo), *map(float, hi))
    assert mesh.n_cells_per_side == 16


def moved(mesh, i, dx, dy):
    """mesh with vertex i moved by (dx, dy) cell widths, rebuilt."""
    v = mesh.vertices.copy()
    v[i] += (dx * mesh.hx, dy * mesh.hy)
    return Triangulation(v, mesh.triangles)


class TestGridChecks:
    """A Triangulation is the uniform grid of its own vertices, or its
    construction raises ValueError."""

    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_grid_attributes_read_only(self, name):
        mesh = MESHES[name]()
        for field in ("grid", "cell_tris", "boundary_vertex_flags"):
            arr = getattr(mesh, field)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0

    def test_vertices_and_triangles_read_only_views(self):
        # Moving a vertex of a built mesh once went unnoticed, leaving
        # grid, cell_tris and the geometry stale.
        mesh = uniform_mesh((0, 0), (1, 1), 4)
        with pytest.raises(ValueError):
            mesh.vertices[6] += (0.03, 0)
        with pytest.raises(ValueError):
            mesh.triangles[0] = (0, 1, 2)
        # The caller's arrays are viewed, not copied, and stay writable.
        v, t = mesh.vertices.copy(), mesh.triangles.copy()
        rebuilt = Triangulation(v, t)
        assert np.shares_memory(rebuilt.vertices, v)
        assert np.shares_memory(rebuilt.triangles, t)
        v[6] += (0.03, 0)
        t[0] = (0, 1, 2)
        assert v.flags.writeable and t.flags.writeable

    @pytest.mark.parametrize("refine", [0, 1])
    def test_vertex_off_its_grid_point(self, refine):
        mesh = uniform_mesh((-2, -2), (2, 2), 4)
        for _ in range(refine):
            mesh = midpoint_refine(mesh)
        inner = np.flatnonzero(~mesh.boundary_vertex_flags)
        for i in (inner[0], inner[-1]):
            with pytest.raises(ValueError, match="not the points"):
                moved(mesh, i, 0.1, 0.0)
        # Within 1e-6 cell widths a vertex is on its point.
        assert np.array_equal(moved(mesh, inner[0], 1e-7, 0.0).grid,
                              mesh.grid)

    def test_duplicated_vertex(self):
        mesh = uniform_mesh((0, 0), (1, 1), 4)
        v = mesh.vertices.copy()
        v[7] = v[6]
        with pytest.raises(ValueError, match="not the points"):
            Triangulation(v, mesh.triangles)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_vertex_count_not_a_square(self, extra):
        mesh = uniform_mesh((0, 0), (1, 1), 2)
        v = (mesh.vertices[:-1] if extra < 0
             else np.vstack([mesh.vertices, [(0.25, 0.25)]]))
        with pytest.raises(ValueError, match="vertex count"):
            Triangulation(v, mesh.triangles[:-2])

    def test_one_cell_split_by_the_other_diagonal(self):
        mesh = uniform_mesh((0, 0), (1, 1), 4, "right")
        triangles = mesh.triangles.copy()
        v = 6  # lower-left vertex of cell 5, row 1, column 1
        triangles[10:12] = [(v, v + 1, v + 5), (v + 1, v + 6, v + 5)]
        with pytest.raises(ValueError, match="both cell diagonals"):
            Triangulation(mesh.vertices, triangles)

    def test_triangle_spanning_two_cells(self):
        mesh = uniform_mesh((0, 0), (1, 1), 2)
        triangles = mesh.triangles.copy()
        triangles[0] = (0, 2, 4)
        with pytest.raises(ValueError, match="not half of one grid cell"):
            Triangulation(mesh.vertices, triangles)

    @pytest.mark.parametrize("triangles", [
        lambda t: t[1:], lambda t: np.vstack([t[:1], t[:1], t[2:]]),
        lambda t: np.vstack([t, t[:1]])], ids=["dropped", "twice", "extra"])
    def test_cell_lacks_a_half(self, triangles):
        mesh = uniform_mesh((0, 0), (1, 1), 3)
        with pytest.raises(ValueError, match="lacks a half"):
            Triangulation(mesh.vertices, triangles(mesh.triangles))

    def test_moved_fluid_vertex_under_the_structure(self):
        # Moving the refined fluid vertex nearest the mapped structure's
        # centre by 0.3 cells once changed the owners of 11 of the 512 h1
        # approx nodes at (8, 8) and kept the supermesh area defect at
        # 4.4e-16: nothing noticed.
        V, _, _, _ = experiments_cli.build_level_spaces(8, 8)
        fluid = V.mesh
        centre = manufactured_solution().xbar.apply((0.5, 0.5))
        i = np.argmin(np.linalg.norm(fluid.vertices - centre, axis=1))
        with pytest.raises(ValueError, match="not the points"):
            moved(fluid, i, 0.3, 0.3)

    def test_orientation_is_read_from_the_triangles(self):
        # This mesh once declared "left" made locate_points disagree with
        # locate_point on 524 of these 1,000 points; the diagonal is no
        # longer an argument.
        mesh = midpoint_refine(uniform_mesh((-2, -2), (2, 2), 8, "right"))
        with pytest.raises(TypeError):
            Triangulation(mesh.vertices, mesh.triangles, orientation="left")
        rebuilt = Triangulation(mesh.vertices, mesh.triangles)
        assert rebuilt.orientation == "right"
        pts = np.random.default_rng(5).uniform(-2, 2, size=(1000, 2))
        assert [rebuilt.locate_point(p) for p in pts] == list(
            rebuilt.locate_points(pts))


def test_boundary_vertex_flags():
    mesh = uniform_mesh((-2, -2), (2, 2), 8)
    flags = mesh.boundary_vertex_flags
    assert flags.sum() == 4 * 8
    on_boundary = (np.abs(np.abs(mesh.vertices) - 2.0) < 1e-12).any(axis=1)
    np.testing.assert_array_equal(flags, on_boundary)


def test_affine_map_singular_rejected():
    with pytest.raises(ValueError):
        AffineMap(np.zeros((2, 2)), (0.0, 0.0))
