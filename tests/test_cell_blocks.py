"""Block-wise work: point location, the supermesh, the loads, the
coupling matrices, the streamed coupling gap and the error norms do not
depend on the block size, and their transient memory stays bounded.
The streamed gap clips in a worker thread: its errors and its traced
calls are checked here too."""

import threading
import tracemalloc

import numpy as np
import pytest

import fdlm.assembly as assembly
import fdlm.geom_intersect as geom_intersect
import fdlm.mesh as mesh
from fdlm.assembly import (approx_nodes, assemble_Af, assemble_B,
                           assemble_Cf_approx, assemble_Cf_exact,
                           assemble_rhs, coupling_gap)
import fdlm.experiments_cli as xcli
from fdlm.experiments_cli import (build_level_spaces, coupling_gap_norm,
                                  solve_level)
from fdlm.geom_intersect import build_all_schemes
from fdlm.manufactured_errors import error_norms, manufactured_solution
from fdlm.mesh import DomainViolationError
from coupling_geometry import coupling_matrix

# A block size that leaves a short last block at every mesh used here.
SMALL_BLOCK = 7

# The experiments' placement and the sheared one of test_geom_intersect,
# whose matrix is not symmetric.
MAPS = {"manufactured": manufactured_solution().xbar,
        "sheared": mesh.AffineMap(np.array([[1.9, 0.45], [0.0, 2.1]]),
                                  (-1.093, -0.971))}
# Levels 0-3 of Test 1 with the l2 coupling and Test 2 with h1.
STUDIES = {"test1-l2": (xcli.test1_schedule(4), "l2"),
           "test2-h1": (xcli.test2_schedule(4), "h1")}


def small_blocks(monkeypatch):
    """Set the one block size, mesh._BLOCK, to SMALL_BLOCK."""
    monkeypatch.setattr(mesh, "_BLOCK", SMALL_BLOCK)


def csr_arrays(C):
    return C.indptr, C.indices, C.data


def level_arrays(n_fluid, n_solid, coupling, mode):
    """F, G, D, the supermesh table and the CSR arrays of the exact and,
    in approx mode, the approx coupling matrix."""
    V, _, S, L = build_level_spaces(n_fluid, n_solid)
    exact = manufactured_solution()
    schemes = build_all_schemes(L.mesh, exact.xbar, V.mesh)
    table = (schemes.parent, schemes.owner, schemes.subcells,
             schemes.s_areas, schemes.offsets)
    C = assemble_Cf_exact(L, V, exact.xbar, coupling, schemes)
    nodes = schemes
    if mode == "approx":
        nodes = approx_nodes(L, V, exact.xbar, coupling)
        table += csr_arrays(assemble_Cf_approx(L, V, nodes))
    return assemble_rhs(V, S, L, exact, coupling, nodes) \
        + table + csr_arrays(C)


def traced_peak_mb(fn, *args):
    """Peak of the memory Python allocators trace while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_fluid,n_solid,coupling,mode",
                         [(16, 8, "l2", "exact"), (16, 23, "h1", "approx")])
def test_rhs_does_not_depend_on_block_size(monkeypatch, n_fluid, n_solid,
                                           coupling, mode):
    # also the supermesh and the coupling matrices, whose elements,
    # subcells and located points are taken in blocks
    want = level_arrays(n_fluid, n_solid, coupling, mode)
    small_blocks(monkeypatch)
    got = level_arrays(n_fluid, n_solid, coupling, mode)
    assert len(got) == len(want) == (11 if mode == "exact" else 14)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def check_groups(groups, n_streams):
    """Check the contract of a stream of groups (sets, done): every group
    has one node set per stream; within each stream the parents are
    non-decreasing, and so is done; no cell of a later group has a parent
    before an earlier group's done.  Returns the parents of each stream,
    joined over the groups."""
    parents = [[] for _ in range(n_streams)]
    last_done = 0
    for sets, done in groups:
        assert len(sets) == n_streams
        assert done >= last_done
        for joined, n in zip(parents, sets):
            p = n.parent
            assert p.size and np.all(np.diff(p) >= 0)
            assert p[0] >= last_done
            if joined:
                assert p[0] >= joined[-1][-1]
            joined.append(p)
        last_done = done
    return [np.concatenate(p) for p in parents]


@pytest.mark.parametrize("coupling", ["l2", "h1"])
def test_every_node_stream_keeps_the_group_contract(monkeypatch, coupling):
    small_blocks(monkeypatch)
    V, _, S, L = build_level_spaces(16, 23)
    xbar = MAPS["manufactured"]
    n_el = L.mesh.n_triangles
    elements = np.arange(n_el)
    # Edge midpoints and, for h1, centroids.
    approx_parents = [np.repeat(elements, 3)]
    if coupling == "h1":
        approx_parents.append(elements)

    mesh_groups = assembly._mesh_nodes(S.mesh, assembly.rule_for_degree(6))
    assert np.array_equal(check_groups(mesh_groups, 1)[0], elements)

    schemes = build_all_schemes(L.mesh, xbar, V.mesh)
    exact = assembly._subcell_nodes(xbar, coupling,
                                    assembly.rule_for_degree(2), schemes)
    assert np.array_equal(check_groups(exact, 1)[0], schemes.parent)

    approx = approx_nodes(L, V, xbar, coupling)
    assert len(approx) > 1
    for got, want in zip(check_groups(approx, len(approx_parents)),
                         approx_parents):
        assert np.array_equal(got, want)

    # The gap's groups: the exact stream, then the approx streams.
    seen = []
    final_rows = assembly._final_rows

    def recorded(groups):
        for group in groups:
            seen.append(group)
            yield group

    monkeypatch.setattr(assembly, "_final_rows",
                        lambda L, V, groups, n: final_rows(L, V,
                                                           recorded(groups),
                                                           n))
    coupling_gap(L, V, xbar, coupling)
    assert len(seen) > 1
    got = check_groups(seen, 1 + len(approx_parents))
    for g, w in zip(got, [schemes.parent] + approx_parents):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("coupling", ["l2", "h1"])
def test_approx_solve_locates_each_node_once(monkeypatch, coupling):
    # In blocks of 7 elements: one call per block, no node twice.
    small_blocks(monkeypatch)
    calls = []
    locate = mesh.Triangulation.locate_points

    def counting(fluid, pts):
        calls.append(len(pts))
        return locate(fluid, pts)

    monkeypatch.setattr(mesh.Triangulation, "locate_points", counting)
    _, _, system = solve_level(16, 8, coupling, "approx")
    n_el = system.spaces[2].mesh.n_triangles
    assert len(calls) == -(-n_el // SMALL_BLOCK)
    assert sum(calls) == (4 if coupling == "h1" else 3) * n_el


@pytest.mark.parametrize("name", sorted(MAPS))
def test_supermesh_blocks_tile_the_elements(monkeypatch, name):
    # The streamed gap takes its element blocks from these slices.
    small_blocks(monkeypatch)
    V, _, _, L = build_level_spaces(16, 23)
    stop = 0
    for b, parent, *_ in geom_intersect._supermesh(L.mesh, MAPS[name],
                                                    V.mesh):
        assert b.start == stop < b.stop <= stop + SMALL_BLOCK
        assert parent.size and np.all((b.start <= parent) & (parent < b.stop))
        stop = b.stop
    assert stop == L.mesh.n_triangles


def test_error_norms_do_not_depend_on_block_size(monkeypatch):
    exact = manufactured_solution()
    _, sol, _ = solve_level(16, 8, "l2", "exact", exact)
    want = [error_norms(sol, exact, c) for c in ("l2", "h1")]
    small_blocks(monkeypatch)
    got = [error_norms(sol, exact, c) for c in ("l2", "h1")]
    assert got == want


# A refined fluid mesh, whose midpoints follow its parent vertices, and
# a structure mesh with the other diagonal.
GATHERED_MESHES = {
    "refined": lambda: mesh.midpoint_refine(
        mesh.uniform_mesh((-2, -2), (2, 2), 6)),
    "structure": lambda: mesh.uniform_mesh((0, 0), (1, 1), 9, "left")}


@pytest.mark.parametrize("block", [None, SMALL_BLOCK])
@pytest.mark.parametrize("name", sorted(GATHERED_MESHES))
def test_gathered_hands_out_each_pair_once_in_row_order(monkeypatch, name,
                                                        block):
    if block:
        small_blocks(monkeypatch)
    m = GATHERED_MESHES[name]()
    rows, calls = m.triangles, []

    def entries(c, i):
        calls.append((c, i))
        return c[:, None], [np.ones((c.size, 1))]

    shape = (m.n_vertices, m.n_triangles)
    handed = []
    for b, A in zip(mesh._blocks(shape[0]),
                    assembly._gathered(shape, rows, entries), strict=True):
        (c, i), = calls
        calls.clear()
        r = rows[c, i]
        # Every pair in the block that holds its row, ...
        assert np.all((b.start <= r) & (r < b.stop))
        assert A.shape == (b.stop - b.start, shape[1])
        assert A.sum() == c.size
        # ... and each row's pairs in ascending cell order.
        by_row = np.argsort(r, kind="stable")
        same_row = np.diff(r[by_row]) == 0
        assert np.all(np.diff(c[by_row])[same_row] > 0)
        handed.append(3 * c + i)
    # Every (cell, local row) pair exactly once.
    assert np.array_equal(np.sort(np.concatenate(handed)),
                          np.arange(rows.size))


@pytest.fixture(scope="module")
def level_64_32():
    """Test 1 level 2, l2 exact: its spaces, supermesh and solution."""
    exact = manufactured_solution()
    _, sol, system = solve_level(64, 32, "l2", "exact", exact)
    V, S, L, Q = system.spaces
    schemes = build_all_schemes(L.mesh, exact.xbar, V.mesh)
    return exact, sol, (V, Q, S, L), schemes


def test_rhs_transient_bounded(level_64_32):
    # Whole-mesh degree-6 node sets peaked at 84 MB here, and every
    # cell's contribution kept for one sort and bincount at 6.5 MB.
    exact, _, (V, _, S, L), schemes = level_64_32
    peak = traced_peak_mb(
        lambda: assemble_rhs(V, S, L, exact, "l2", schemes))
    assert peak <= 5.0


def test_exact_matrix_transient_bounded(level_64_32):
    # The whole degree-2 subcell node set peaked at 33 MB here.
    exact, _, (V, _, _, L), schemes = level_64_32
    peak = traced_peak_mb(assemble_Cf_exact, L, V, exact.xbar, "l2", schemes)
    assert peak <= 25.0


def test_block_matrix_transients_bounded(level_64_32):
    # The whole-mesh COO scatter peaked at 9.3 MB (Af) and 20.8 MB (B)
    # here, for results of 2.0 and 1.5 MB.  The traced peak counts the
    # output's full capacity, one slot per scattered entry (3.4 and 6.8
    # MB), although only the slots written are ever backed by memory.
    _, _, (V, Q, _, _), _ = level_64_32
    assert traced_peak_mb(assemble_Af, V) <= 8.0
    assert traced_peak_mb(assemble_B, V, Q) <= 18.0


def test_error_norms_transient_bounded(level_64_32):
    # Whole-mesh degree-6 node sets peaked at 67 MB here.
    exact, sol, _, _ = level_64_32
    assert traced_peak_mb(error_norms, sol, exact, "l2") <= 20.0


def test_supermesh_transient_bounded():
    # The whole-mesh candidate pairs peaked at 24.6 MB at (32, 64); the
    # block lists joined all at once, next to the table, at 49.0 MB at
    # (64, 181).
    exact = manufactured_solution()
    for n_fluid, n_solid, bound in ((32, 64, 15.0), (64, 181, 40.0)):
        V, _, _, L = build_level_spaces(n_fluid, n_solid)
        peak = traced_peak_mb(build_all_schemes, L.mesh, exact.xbar, V.mesh)
        assert peak <= bound


@pytest.fixture(scope="module")
def level_64_181():
    """Test 2 level 3, h1 approx: its spaces and approx node groups."""
    exact = manufactured_solution()
    V, _, S, L = build_level_spaces(64, 181)
    nodes = approx_nodes(L, V, exact.xbar, "h1")
    return exact, (V, S, L), nodes


def test_approx_matrix_transient_bounded(level_64_181):
    # int64 COO indices, copied to int32 by coo_matrix, peaked at
    # 122.2 MB here.
    exact, (V, _, L), nodes = level_64_181
    peak = traced_peak_mb(assemble_Cf_approx, L, V, nodes)
    assert peak <= 105.0


def test_approx_rhs_transient_bounded(level_64_181):
    # Every cell's contribution kept for one sort and bincount peaked at
    # 37.4 MB here.
    exact, (V, S, L), nodes = level_64_181
    peak = traced_peak_mb(
        lambda: assemble_rhs(V, S, L, exact, "h1", nodes))
    assert peak <= 8.0


@pytest.fixture(scope="module")
def whole_gaps():
    """coupling_gap_norm of the whole matrices, per study, map and level."""
    gaps = {}
    for study, (schedule, coupling) in STUDIES.items():
        for name, xbar in MAPS.items():
            for n_fluid, n_solid in schedule:
                V, _, _, L = build_level_spaces(n_fluid, n_solid)
                gaps[study, name, n_fluid] = coupling_gap_norm(
                    *(coupling_matrix(L, V, xbar, coupling, mode)
                      for mode in ("exact", "approx")))
    return gaps


@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("study", sorted(STUDIES))
def test_streamed_gap_equals_whole_matrix_gap(whole_gaps, study, name):
    schedule, coupling = STUDIES[study]
    for n_fluid, n_solid in schedule:
        V, _, _, L = build_level_spaces(n_fluid, n_solid)
        got = coupling_gap(L, V, MAPS[name], coupling)
        assert got == whole_gaps[study, name, n_fluid] > 0


@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("study", sorted(STUDIES))
def test_streamed_gap_does_not_depend_on_block_size(monkeypatch, whole_gaps,
                                                    study, name):
    # Blocks of 7 elements leave rows pending across many blocks; levels
    # 0-2, as level 3 takes thousands of such blocks.
    small_blocks(monkeypatch)
    schedule, coupling = STUDIES[study]
    for n_fluid, n_solid in schedule[:3]:
        V, _, _, L = build_level_spaces(n_fluid, n_solid)
        got = coupling_gap(L, V, MAPS[name], coupling)
        assert got == whole_gaps[study, name, n_fluid]


def test_gap_transient_bounded():
    # Both whole matrices and their difference peaked at 94.7 MB here.
    exact = manufactured_solution()
    V, _, _, L = build_level_spaces(64, 181)
    assert traced_peak_mb(coupling_gap, L, V, exact.xbar, "h1") <= 20.0


# Test 2 level 2 has 8 blocks of 8 element rows; this map lifts the top
# row of elements, and no other, out of the fluid box, so the error
# comes from clipping the last block after 7 blocks are integrated.
LIFTED = mesh.AffineMap(2.0 * np.eye(2), (-0.62, 0.02))


def test_gap_raises_clipping_error_in_order():
    V, _, _, L = build_level_spaces(32, 64)
    threads = threading.active_count()
    message = "mapped structure element leaves the fluid domain"
    with pytest.raises(DomainViolationError, match=message):
        build_all_schemes(L.mesh, LIFTED, V.mesh)
    with pytest.raises(DomainViolationError, match=message):
        coupling_gap(L, V, LIFTED, "h1")
    assert threading.active_count() == threads


def test_gap_raises_location_error_and_joins_worker(monkeypatch):
    # A node that locates nowhere fails _approx_sets on the calling
    # thread while the worker clips the next block.
    V, _, _, L = build_level_spaces(32, 64)
    monkeypatch.setattr(V.mesh, "locate_points",
                        lambda pts: np.full(len(pts), -1))
    threads = threading.active_count()
    with pytest.raises(DomainViolationError,
                       match="mapped quadrature node leaves the fluid "
                             "domain"):
        coupling_gap(L, V, MAPS["manufactured"], "h1")
    assert threading.active_count() == threads


def test_gap_traced_calls_stay_on_calling_thread(monkeypatch):
    # The benchmark tracer wraps locate_points and rule_for_degree, and
    # its spans nest only if they run on one thread; the clipping does
    # run on another.
    seen = {"locate": set(), "rule": set(), "clip": set()}

    def recorded(name, fn):
        def call(*args, **kwargs):
            seen[name].add(threading.get_ident())
            return fn(*args, **kwargs)
        return call

    def clip(*args):
        for block in supermesh(*args):
            seen["clip"].add(threading.get_ident())
            yield block

    supermesh = assembly._supermesh
    monkeypatch.setattr(mesh.Triangulation, "locate_points",
                        recorded("locate", mesh.Triangulation.locate_points))
    monkeypatch.setattr(assembly, "rule_for_degree",
                        recorded("rule", assembly.rule_for_degree))
    monkeypatch.setattr(assembly, "_supermesh", clip)
    V, _, _, L = build_level_spaces(32, 64)
    coupling_gap(L, V, MAPS["manufactured"], "h1")
    main = threading.get_ident()
    assert seen["locate"] == seen["rule"] == {main}
    assert seen["clip"] and main not in seen["clip"]
