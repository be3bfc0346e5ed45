"""Triangle-triangle clipping and composite quadrature schemes.

Reference values for the clip examples were computed with an
independent half-plane clipping oracle in exact rational arithmetic:
  ((0,0),(1,0),(0,1)) cut by ((0.5,-0.5),(1.5,0.5),(0.5,1.5))
    -> triangle ((1/2,0),(1,0),(1/2,1/2)), area 1/8
  ((0,0),(1,0),(0,1)) cut by ((0.5,-0.5),(1,1),(-0.5,0.5))
    -> pentagon ((0,0),(2/3,0),(3/4,1/4),(1/4,3/4),(0,2/3)), area 5/12
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdlm.assembly import matrix_1norm_diff
from fdlm.experiments_cli import build_level_spaces, coupling_gap_norm
from fdlm.fespace import multiplier_space, velocity_space
from fdlm.geom_intersect import (IntersectionTable, build_all_schemes,
                                 clip_triangle, fan_triangulate,
                                 polygon_area)
from fdlm.mesh import (AffineMap, DomainViolationError, midpoint_refine,
                       uniform_mesh)
from fdlm.quadrature import rule_for_degree
from coupling_geometry import coupling_matrix

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestClipTriangle:
    def test_identity(self):
        poly = clip_triangle(REF, REF)
        np.testing.assert_allclose(polygon_area(poly), 0.5, rtol=1e-14)
        assert poly.shape[0] == 3

    def test_disjoint(self):
        far = REF + 10.0
        poly = clip_triangle(REF, far)
        assert poly.shape[0] == 0

    def test_offset_overlap_area(self):
        clip = np.array([[0.5, -0.5], [1.5, 0.5], [0.5, 1.5]])
        poly = clip_triangle(REF, clip)
        np.testing.assert_allclose(polygon_area(poly), 0.125, rtol=1e-12)
        want = {(0.5, 0.0), (1.0, 0.0), (0.5, 0.5)}
        got = {tuple(np.round(p, 12)) for p in poly}
        assert got == want

    def test_pentagon_case(self):
        clip = np.array([[0.5, -0.5], [1.0, 1.0], [-0.5, 0.5]])
        poly = clip_triangle(REF, clip)
        assert poly.shape[0] == 5
        np.testing.assert_allclose(polygon_area(poly), 5.0 / 12.0, rtol=1e-12)

    def test_counterclockwise_output(self):
        clip = np.array([[0.5, -0.5], [1.0, 1.0], [-0.5, 0.5]])
        poly = clip_triangle(REF, clip)
        assert polygon_area(poly) > 0

    def test_clockwise_inputs_accepted(self):
        cw = REF[::-1]
        poly = clip_triangle(cw, REF)
        np.testing.assert_allclose(polygon_area(poly), 0.5, rtol=1e-14)

    def test_degenerate_raises(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            clip_triangle(flat, REF)
        with pytest.raises(ValueError):
            clip_triangle(REF, flat)

    def test_at_most_six_vertices(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.random((3, 2))
            b = rng.random((3, 2))
            if abs(polygon_area(a)) < 1e-3 or abs(polygon_area(b)) < 1e-3:
                continue
            poly = clip_triangle(a, b)
            assert poly.shape[0] <= 6

    def test_area_never_exceeds_inputs(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = rng.random((3, 2))
            b = rng.random((3, 2))
            if abs(polygon_area(a)) < 1e-3 or abs(polygon_area(b)) < 1e-3:
                continue
            inter = polygon_area(clip_triangle(a, b))
            assert inter <= min(abs(polygon_area(a)),
                                abs(polygon_area(b))) + 1e-12


class TestFanTriangulate:
    def test_triangle_is_itself(self):
        tris = fan_triangulate(REF)
        assert tris.shape == (1, 3, 2)
        np.testing.assert_allclose(tris[0], REF)

    def test_unit_square(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        tris = fan_triangulate(square)
        assert tris.shape[0] == 2
        total = sum(abs(polygon_area(t)) for t in tris)
        np.testing.assert_allclose(total, 1.0, rtol=1e-14)

    def test_pentagon_from_clip(self):
        clip = np.array([[0.5, -0.5], [1.0, 1.0], [-0.5, 0.5]])
        poly = clip_triangle(REF, clip)
        tris = fan_triangulate(poly)
        assert tris.shape[0] == 3
        total = sum(abs(polygon_area(t)) for t in tris)
        np.testing.assert_allclose(total, polygon_area(poly), rtol=1e-12)

    def test_too_few_vertices(self):
        assert fan_triangulate(np.empty((0, 2))).shape[0] == 0
        assert fan_triangulate(np.array([[0.0, 0.0], [1.0, 0.0]])).shape[0] == 0


def standard_map():
    return AffineMap(2.0 * np.eye(2), (-0.62, -0.62))


class TestCompositeScheme:
    def test_element_inside_one_fluid_triangle(self):
        """No subdivision when the mapped element sits inside one element."""
        fluid = midpoint_refine(uniform_mesh((-2, -2), (2, 2), 4))
        solid = uniform_mesh((0, 0), (0.05, 0.05), 1, orientation="left")
        tiny = solid.triangle_vertices(0)
        np.testing.assert_array_equal(
            tiny, [[0.0, 0.0], [0.05, 0.0], [0.0, 0.05]])
        amap = AffineMap(np.eye(2), (0.2, 0.05))
        scheme = build_all_schemes(solid, amap, fluid)[0]
        assert len(scheme) == 1
        np.testing.assert_allclose(scheme.total_s_area(),
                                   abs(polygon_area(tiny)), rtol=1e-12)
        np.testing.assert_allclose(np.sort(scheme.subcells[0], axis=0),
                                   np.sort(tiny, axis=0), atol=1e-12)

    def test_identity_map_matching_grids(self):
        """With the identity placement on a shared grid, every element is
        its own single subcell, owned by the fluid triangle it equals."""
        solid = uniform_mesh((0, 0), (1, 1), 4)
        fluid = midpoint_refine(uniform_mesh((0, 0), (1, 1), 2))
        schemes = build_all_schemes(solid, AffineMap(np.eye(2), (0, 0)),
                                    fluid)
        for t, scheme in enumerate(schemes):
            assert len(scheme) == 1
            tri = solid.triangle_vertices(t)
            owned = fluid.triangle_vertices(scheme.owners[0])
            np.testing.assert_array_equal(
                np.unique(owned, axis=0), np.unique(tri, axis=0))
            np.testing.assert_allclose(scheme.total_s_area(),
                                       solid.areas[t], rtol=1e-12)

    def test_area_conservation_test1_pair(self):
        solid = uniform_mesh((0, 0), (1, 1), 8, orientation="left")
        fluid = midpoint_refine(uniform_mesh((-2, -2), (2, 2), 16))
        schemes = build_all_schemes(solid, standard_map(), fluid)
        for t, scheme in enumerate(schemes):
            np.testing.assert_allclose(scheme.total_s_area(), solid.areas[t],
                                       rtol=1e-10)

    def test_ownership_correctness(self):
        """Subcell centroids, pushed through the map, lie in the closed
        owning fluid triangle."""
        solid = uniform_mesh((0, 0), (1, 1), 5, orientation="left")
        fluid = midpoint_refine(uniform_mesh((-2, -2), (2, 2), 8))
        amap = standard_map()
        schemes = build_all_schemes(solid, amap, fluid)
        for scheme in schemes:
            cents = amap.apply(scheme.subcells.mean(axis=1))
            for c, owner in zip(cents, scheme.owners):
                tv = fluid.vertices[fluid.triangles[owner]]
                mat = np.column_stack([tv[1] - tv[0], tv[2] - tv[0]])
                bary = np.linalg.solve(mat, c - tv[0])
                assert bary.min() >= -1e-10
                assert bary.sum() <= 1 + 1e-10

    def test_composite_linear_integration_matches_single_rule(self):
        """Clipping must not change exact integrals of smooth integrands."""
        solid = uniform_mesh((0, 0), (1, 1), 3, orientation="left")
        fluid = midpoint_refine(uniform_mesh((-2, -2), (2, 2), 8))
        schemes = build_all_schemes(solid, standard_map(), fluid)
        rule = rule_for_degree(2)
        q = rule.points
        basis = np.column_stack([1 - q[:, 0] - q[:, 1], q[:, 0], q[:, 1]])
        f = lambda s: 3.0 * s[..., 0] - 2.0 * s[..., 1] + 0.25
        for t, scheme in enumerate(schemes):
            tri = solid.vertices[solid.triangles[t]]
            single = solid.areas[t] * float(
                rule.weights @ f(basis @ tri))
            pts = np.einsum("ki,mid->mkd", basis, scheme.subcells)
            composite = float(np.einsum("m,k,mk->", scheme.s_areas,
                                        rule.weights, f(pts)))
            np.testing.assert_allclose(composite, single, rtol=1e-12)

    def test_domain_violation(self):
        fluid = midpoint_refine(uniform_mesh((-2, -2), (2, 2), 4))
        solid = uniform_mesh((0, 0), (1, 1), 1)
        escape = AffineMap(np.eye(2), (1.5, 0.0))
        with pytest.raises(DomainViolationError):
            build_all_schemes(solid, escape, fluid)


def test_polygon_area_sign():
    assert polygon_area(REF) == pytest.approx(0.5)
    assert polygon_area(REF[::-1]) == pytest.approx(-0.5)


# -- batched supermesh against a scalar per-pair reference -------------------

SLIVER_REL = 1e-14
COLLINEAR_REL = 1e-12


def reference_clip(subject, clip):
    """Scalar Sutherland-Hodgman on CCW triangles, then removal of
    repeated and collinear vertices; the library's tolerances."""
    d2 = [((t[i] - t[j]) ** 2).sum() for t in (subject, clip)
          for i, j in ((0, 1), (0, 2), (1, 2))]
    diam = max(d2) ** 0.5
    out = [tuple(p) for p in subject]
    for k in range(3):
        (ax, ay), (bx, by) = clip[k], clip[(k + 1) % 3]
        ex, ey = bx - ax, by - ay
        tol = -COLLINEAR_REL * diam * (ex * ex + ey * ey) ** 0.5
        nxt = []
        for i, (cx, cy) in enumerate(out):
            px, py = out[i - 1]
            dp = ex * (py - ay) - ey * (px - ax)
            dc = ex * (cy - ay) - ey * (cx - ax)
            if (dc >= tol) != (dp >= tol):
                t = dp / (dp - dc)
                nxt.append((px + t * (cx - px), py + t * (cy - py)))
            if dc >= tol:
                nxt.append((cx, cy))
        out = nxt
    tol = COLLINEAR_REL * diam
    keep = []
    for p in out if len(out) >= 3 else []:
        if not keep or max(abs(p[0] - keep[-1][0]),
                           abs(p[1] - keep[-1][1])) > tol:
            keep.append(p)
    if len(keep) >= 2 and max(abs(keep[0][0] - keep[-1][0]),
                              abs(keep[0][1] - keep[-1][1])) <= tol:
        keep.pop()
    poly = []
    for i, b in enumerate(keep if len(keep) >= 3 else []):
        a, c = keep[i - 1], keep[(i + 1) % len(keep)]
        ux, uy = c[0] - a[0], c[1] - a[1]
        if (abs(ux * (b[1] - a[1]) - uy * (b[0] - a[0]))
                > tol * (ux * ux + uy * uy) ** 0.5):
            poly.append(b)
    return np.array(poly if len(poly) >= 3 else []).reshape(-1, 2)


def reference_pieces(tri, amap, fluid):
    """{owner: subcell area in structure coordinates} of one element,
    scanning every fluid triangle whose bounding box meets the element's."""
    mapped = amap.apply(tri)
    if polygon_area(mapped) < 0:
        mapped = mapped[::-1]
    sliver = SLIVER_REL * abs(polygon_area(mapped))
    lo, hi = mapped.min(axis=0), mapped.max(axis=0)
    pieces = {}
    for f, verts in enumerate(fluid.vertices[fluid.triangles]):
        if np.any(verts.min(axis=0) > hi) or np.any(verts.max(axis=0) < lo):
            continue
        poly = reference_clip(mapped, verts)
        if poly.shape[0] < 3 or abs(polygon_area(poly)) < sliver:
            continue
        areas = [abs(polygon_area(t)) for t in fan_triangulate(poly)]
        kept = sum(a for a in areas if a >= sliver)
        if kept:
            pieces[f] = kept / abs(np.linalg.det(amap.matrix))
    return pieces


def check_against_reference(solid, amap, fluid):
    """Owners and per-owner areas of every element placed by amap match
    the reference, areas are conserved, and the clipper raises no
    floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = build_all_schemes(solid, amap, fluid)
    assert len(table) == solid.n_triangles
    for t, scheme in enumerate(table):
        want = reference_pieces(solid.triangle_vertices(t), amap, fluid)
        got = {}
        for owner, area in zip(scheme.owners, scheme.s_areas):
            got[owner] = got.get(owner, 0.0) + area
        assert set(got) == set(want)
        for owner, area in want.items():
            assert got[owner] == pytest.approx(area, rel=1e-9,
                                               abs=1e-13 * solid.areas[t])
        assert scheme.total_s_area() == pytest.approx(solid.areas[t],
                                                      rel=1e-10)
    return table


FLUID = midpoint_refine(uniform_mesh((-2, -2), (2, 2), 4))
H_FLUID = FLUID.hx
unit = st.floats(0.0, 1.0)


def fitted_map(matrix, ux, uy):
    """The map with this matrix placing [0, 1]^2 inside the fluid box;
    (ux, uy) in [0, 1]^2 picks the offset, 0 and 1 touch the walls."""
    corners = np.array([[0, 0], [1, 0], [0, 1], [1, 1]]) @ matrix.T
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    room = 4.0 - (hi - lo)
    offset = -2.0 - lo + np.array([ux, uy]) * room
    return AffineMap(matrix, np.clip(offset, -2.0 - lo, 2.0 - hi))


@st.composite
def generic_maps(draw):
    """Rotated, sheared and scaled placements, some touching a wall."""
    theta = draw(st.floats(0.0, 2 * np.pi))
    scale = draw(st.floats(0.4, 1.6))
    shear = draw(st.floats(-0.6, 0.6))
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    matrix = rot @ np.array([[scale, shear * scale], [0.0, scale]])
    ux = draw(st.one_of(st.sampled_from([0.0, 1.0]), unit))
    return fitted_map(matrix, ux, draw(unit))


@st.composite
def grid_aligned_maps(draw):
    """Axis-aligned placements whose offsets lie on fluid grid lines."""
    size = draw(st.integers(1, 6)) * H_FLUID
    i = draw(st.integers(0, int(round(4.0 / H_FLUID - size / H_FLUID))))
    j = draw(st.integers(0, int(round(4.0 / H_FLUID - size / H_FLUID))))
    return AffineMap(size * np.eye(2), (-2.0 + i * H_FLUID,
                                        -2.0 + j * H_FLUID))


PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)


class TestBatchedSupermesh:
    @PROPERTY
    @given(amap=st.one_of(generic_maps(), grid_aligned_maps()),
           n=st.integers(1, 3), orientation=st.sampled_from(["left", "right"]))
    def test_matches_scalar_reference(self, amap, n, orientation):
        solid = uniform_mesh((0, 0), (1, 1), n, orientation=orientation)
        check_against_reference(solid, amap, FLUID)

    @PROPERTY
    @given(n_fluid=st.integers(1, 3), refine=st.integers(1, 2),
           cells=st.integers(1, 3), i=st.integers(0, 4), j=st.integers(0, 4))
    def test_nested_grids_make_exact_and_approx_agree(self, n_fluid, refine,
                                                      cells, i, j):
        """Structure cells that subdivide fluid cells with the same
        diagonal lie in single fluid triangles, where the one-element
        rules are exact."""
        fluid = midpoint_refine(uniform_mesh((-2, -2), (2, 2), n_fluid))
        h = fluid.hx
        cells = min(cells, 2 * n_fluid)
        n_solid = cells * refine
        i = min(i, 2 * n_fluid - cells)
        j = min(j, 2 * n_fluid - cells)
        amap = AffineMap(cells * h * np.eye(2), (-2 + i * h, -2 + j * h))
        L = multiplier_space(uniform_mesh((0, 0), (1, 1), n_solid))
        V = velocity_space(fluid)
        for coupling in ("l2", "h1"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ex = coupling_matrix(L, V, amap, coupling, "exact")
            ap = coupling_matrix(L, V, amap, coupling, "approx")
            scale = matrix_1norm_diff(ex, 0 * ex) if ex.nnz else 1.0
            assert matrix_1norm_diff(ex, ap) <= 1e-12 * scale

    @PROPERTY
    @given(amap=generic_maps(), escape=st.floats(1e-6, 0.5),
           axis=st.integers(0, 1), side=st.sampled_from([-1.0, 1.0]))
    def test_escape_raises(self, amap, escape, axis, side):
        corners = amap.apply(np.array([[0, 0], [1, 0], [0, 1], [1, 1]]))
        reach = corners[:, axis].max() if side > 0 else corners[:, axis].min()
        shift = np.zeros(2)
        shift[axis] = side * (2.0 - side * reach + escape)
        moved = AffineMap(amap.matrix, amap.offset + shift)
        solid = uniform_mesh((0, 0), (1, 1), 2)
        with pytest.raises(DomainViolationError):
            build_all_schemes(solid, moved, FLUID)


def test_table_layout():
    solid = uniform_mesh((0, 0), (1, 1), 3, orientation="left")
    table = build_all_schemes(solid, standard_map(), FLUID)
    assert isinstance(table, IntersectionTable)
    assert table.offsets[0] == 0 and table.offsets[-1] == len(table.owner)
    assert np.all(np.diff(table.parent) >= 0)
    np.testing.assert_array_equal(
        table.parent, np.repeat(np.arange(len(table)), np.diff(table.offsets)))
    view = table[-1]
    np.testing.assert_array_equal(view.owners,
                                  table.owner[table.offsets[-2]:])
    with pytest.raises(IndexError):
        table[len(table)]


ROTATED = AffineMap(2.0 * np.array([[np.cos(0.3), -np.sin(0.3)],
                                    [np.sin(0.3), np.cos(0.3)]]),
                    (-0.613, -1.187))
SHEARED = AffineMap(np.array([[1.9, 0.45], [0.0, 2.1]]), (-1.093, -0.971))


@pytest.mark.parametrize("coupling", ["l2", "h1"])
@pytest.mark.parametrize("amap", [ROTATED, SHEARED],
                         ids=["rotated", "sheared"])
def test_gap_norm_stable_under_tiny_map_perturbation(amap, coupling):
    """Away from point-location ties, moving the map offset by 1e-12
    moves the reported coupling gap by rounding only (meshes of Test 2
    level 1)."""
    V, _, _, L = build_level_spaces(16, 23)
    v = L.mesh.vertices[L.mesh.triangles]
    nodes = np.concatenate([(v + np.roll(v, -1, axis=1)).reshape(-1, 2) / 2,
                            L.mesh.centroids()])
    x = amap.apply(nodes)
    owner = V.mesh.locate_points(x)
    bary = 1.0 / 3.0 + np.einsum("nd,nid->ni",
                                 x - V.mesh.centroids(owner),
                                 V.mesh.grads(owner))
    assert bary.min() > 1e-8, "a single-element rule node is tied"
    gaps = []
    for shift in (0.0, 1e-12):
        moved = AffineMap(amap.matrix, amap.offset + shift * np.array(
            [1.0, -0.7]))
        gaps.append(coupling_gap_norm(
            *(coupling_matrix(L, V, moved, coupling, mode)
              for mode in ("exact", "approx"))))
    assert gaps[0] > 0
    assert abs(gaps[1] - gaps[0]) <= 1e-8 * gaps[0]
