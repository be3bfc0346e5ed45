"""Block-wise node sets: the loads, the exact coupling matrix and the
error norms do not depend on the block size, and their transient memory
stays bounded."""

import tracemalloc

import numpy as np
import pytest

import fdlm.assembly as assembly
from fdlm.assembly import assemble_Cf_exact, assemble_rhs
from fdlm.experiments_cli import build_level_spaces, solve_level
from fdlm.geom_intersect import build_all_schemes
from fdlm.manufactured_errors import error_norms, manufactured_solution

# A block size that leaves a short last block at every mesh used here.
SMALL_BLOCK = 7


def level_arrays(n_fluid, n_solid, coupling, mode):
    """F, G, D and the CSR arrays of the exact coupling matrix."""
    V, Q, S, L = build_level_spaces(n_fluid, n_solid)
    exact = manufactured_solution()
    schemes = build_all_schemes(L.mesh, exact.xbar, V.mesh)
    C = assemble_Cf_exact(L, V, exact.xbar, coupling, schemes=schemes)
    return assemble_rhs(V, Q, S, L, exact, exact.xbar, coupling, mode,
                        schemes=schemes) + (C.indptr, C.indices, C.data)


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
    # also the exact coupling matrix, whose subcells stream in blocks
    want = level_arrays(n_fluid, n_solid, coupling, mode)
    monkeypatch.setattr(assembly, "_CELL_BLOCK", SMALL_BLOCK)
    got = level_arrays(n_fluid, n_solid, coupling, mode)
    assert len(got) == len(want) == 6
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_error_norms_do_not_depend_on_block_size(monkeypatch):
    exact = manufactured_solution()
    _, sol, _ = solve_level(16, 8, "l2", "exact", exact)
    want = [error_norms(sol, exact, c) for c in ("l2", "h1")]
    monkeypatch.setattr(assembly, "_CELL_BLOCK", SMALL_BLOCK)
    got = [error_norms(sol, exact, c) for c in ("l2", "h1")]
    assert got == want


@pytest.fixture(scope="module")
def level_64_32():
    """Test 1 level 2, l2 exact: its spaces, supermesh and solution."""
    exact = manufactured_solution()
    _, sol, system = solve_level(64, 32, "l2", "exact", exact)
    V, S, L, Q = system.spaces
    schemes = build_all_schemes(L.mesh, exact.xbar, V.mesh)
    return exact, sol, (V, Q, S, L), schemes


def test_rhs_transient_bounded(level_64_32):
    # Whole-mesh degree-6 node sets peaked at 84 MB here.
    exact, _, (V, Q, S, L), schemes = level_64_32
    peak = traced_peak_mb(
        lambda: assemble_rhs(V, Q, S, L, exact, exact.xbar, "l2", "exact",
                             schemes=schemes))
    assert peak <= 25.0


def test_exact_matrix_transient_bounded(level_64_32):
    # The whole degree-2 subcell node set peaked at 33 MB here.
    exact, _, (V, _, _, L), schemes = level_64_32
    peak = traced_peak_mb(assemble_Cf_exact, L, V, exact.xbar, "l2", schemes)
    assert peak <= 25.0


def test_error_norms_transient_bounded(level_64_32):
    # Whole-mesh degree-6 node sets peaked at 67 MB here.
    exact, sol, _, _ = level_64_32
    assert traced_peak_mb(error_norms, sol, exact, "l2") <= 20.0
