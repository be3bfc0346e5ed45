"""A level's coupling geometry and what is assembled on it, built the way
the command line builds them, for tests that pick the assembly mode by
name."""

from fdlm.assembly import approx_nodes, assemble_rhs
import fdlm.experiments_cli as xcli
from fdlm.geom_intersect import build_all_schemes


def geometry(L, V, xbar, coupling, mode):
    """The supermesh table (exact) or the located approx node groups."""
    if mode == "exact":
        return build_all_schemes(L.mesh, xbar, V.mesh)
    return approx_nodes(L, V, xbar, coupling)


def coupling_matrix(L, V, xbar, coupling, mode):
    """The coupling matrix of mode, on its own geometry."""
    return xcli._coupling(L, V, xbar, coupling, mode)[0]


def mode_rhs(V, S, L, exact, coupling, mode):
    """assemble_rhs on the geometry of mode, built with exact.xbar."""
    return assemble_rhs(V, S, L, exact, coupling,
                        geometry(L, V, exact.xbar, coupling, mode))
