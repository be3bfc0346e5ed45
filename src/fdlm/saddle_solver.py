"""Block assembly and direct solution of the coupled saddle system.

Unknown order is (u, X, lambda, p, sigma) where sigma is the scalar
multiplier enforcing zero pressure mean.  The system reads

    [ Af    0    Cf^T  -B^T  0  ] [u]      [F]
    [ 0     As  -Cs^T   0    0  ] [X]      [G]
    [ Cf   -Cs    0     0    0  ] [l]  =   [D]
    [ -B    0     0     0    m  ] [p]      [0]
    [ 0     0     0    m^T   0  ] [s]      [0]

and is symmetric indefinite.  Velocity Dirichlet rows and columns are
eliminated symmetrically (unit diagonal, zero load), and the factored
system is solved with a sparse LU.

The LU runs in a geometric nested-dissection order (George, "Nested
dissection of a regular finite element mesh", SIAM J. Numer. Anal.
1973) computed from where each dof sits in the fluid domain: velocity
and pressure dofs at their mesh vertices, structure and multiplier dofs
at the mapped structure vertices xbar(s), sigma last.  The ordering is
symmetric, and the quasidefinite diagonal shift (_SHIFT) is what makes
it safe to factor with pure diagonal pivoting.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .fespace import FEFunction

__all__ = ["Blocks", "BlockSystem", "DiscreteSolution",
           "SingularSystemError", "build_system", "solve",
           "dump_solution"]


class SingularSystemError(RuntimeError):
    """The assembled system could not be factored or solved."""


class Blocks:
    """Container for the assembled matrix blocks and the mean row."""

    def __init__(self, Af, As, B, Cf, Cs, mean_row):
        self.Af = Af
        self.As = As
        self.B = B
        self.Cf = Cf
        self.Cs = Cs
        self.mean_row = np.asarray(mean_row, dtype=float)


class BlockSystem:
    """Assembled global matrix with its right-hand side and dof layout."""

    def __init__(self, matrix, rhs, offsets, spaces, blocks, dirichlet_mask,
                 points):
        self.matrix = matrix
        self.rhs = rhs
        self.offsets = offsets
        self.spaces = spaces
        self.blocks = blocks
        self.dirichlet_mask = dirichlet_mask
        # (n_dofs - 1, 2) position of every dof but sigma in the fluid
        # domain; it orders the factorization.
        self.points = points

    @property
    def n_dofs(self):
        return self.matrix.shape[0]

    def split(self, x):
        """Slice a global vector into (u, X, lambda, p, sigma) parts."""
        o = self.offsets
        return (x[o["u"]:o["x"]], x[o["x"]:o["lambda"]],
                x[o["lambda"]:o["p"]], x[o["p"]:o["sigma"]],
                float(x[o["sigma"]]))


class DiscreteSolution:
    """Finite element functions solving the coupled system."""

    def __init__(self, u, p, X, lam, sigma, residual_norm, rhs_norm):
        self.u = u
        self.p = p
        self.X = X
        self.lam = lam
        self.sigma = sigma
        self.residual_norm = residual_norm
        self.rhs_norm = rhs_norm

    @property
    def relative_residual(self):
        if self.rhs_norm == 0.0:
            return self.residual_norm
        return self.residual_norm / self.rhs_norm


def build_system(blocks, rhs, spaces, solid_points):
    """Assemble the bordered global matrix and eliminate Dirichlet dofs.

    blocks: Blocks instance; rhs: (F, G, D) tuple; spaces: (V, S, L, Q);
    solid_points: (n, 2) structure mesh vertices mapped into the fluid
    domain, xbar(s), where the structure and multiplier dofs sit.
    The velocity space's dirichlet_mask marks the constrained dofs.
    """
    V, S, L, Q = spaces
    nu, ns, nl, npre = V.n_dofs, S.n_dofs, L.n_dofs, Q.n_dofs
    solid_points = np.asarray(solid_points, dtype=float)
    if (solid_points.shape != (S.n_vertices, 2)
            or L.n_vertices != S.n_vertices):
        raise ValueError("one mapped point per structure vertex required")
    if blocks.Af.shape != (nu, nu):
        raise ValueError("fluid block shape mismatch")
    if blocks.As.shape != (ns, ns):
        raise ValueError("structure block shape mismatch")
    if blocks.B.shape != (npre, nu):
        raise ValueError("divergence block shape mismatch")
    if blocks.Cf.shape != (nl, nu) or blocks.Cs.shape != (nl, ns):
        raise ValueError("coupling block shape mismatch")
    if blocks.mean_row.shape != (npre,):
        raise ValueError("mean row length mismatch")

    m = sp.csr_matrix(blocks.mean_row.reshape(1, -1))
    A = sp.bmat([
        [blocks.Af, None, blocks.Cf.T, -blocks.B.T, None],
        [None, blocks.As, -blocks.Cs.T, None, None],
        [blocks.Cf, -blocks.Cs, None, None, None],
        [-blocks.B, None, None, None, m.T],
        [None, None, None, m, None],
    ], format="coo")

    F, G, D = rhs
    b = np.concatenate([F, G, D, np.zeros(npre), [0.0]])
    if b.shape[0] != A.shape[0]:
        raise ValueError("right-hand side length mismatch")

    offsets = {"u": 0, "x": nu, "lambda": nu + ns, "p": nu + ns + nl,
               "sigma": nu + ns + nl + npre}

    mask = np.zeros(A.shape[0], dtype=bool)
    mask[:nu] = V.dirichlet_mask
    keep = ~(mask[A.row] | mask[A.col])
    fixed = np.flatnonzero(mask)
    rows = np.concatenate([A.row[keep], fixed])
    cols = np.concatenate([A.col[keep], fixed])
    data = np.concatenate([A.data[keep], np.ones(fixed.size)])
    b = b.copy()
    b[fixed] = 0.0
    matrix = sp.coo_matrix((data, (rows, cols)), shape=A.shape).tocsr()
    matrix.sum_duplicates()
    points = np.concatenate([np.tile(V.mesh.vertices, (V.value_dim, 1)),
                             np.tile(solid_points, (S.value_dim, 1)),
                             np.tile(solid_points, (L.value_dim, 1)),
                             np.tile(Q.mesh.vertices, (Q.value_dim, 1))])
    return BlockSystem(matrix, b, offsets, spaces, blocks, mask, points)


# Parts of at most this many dofs are not cut further and keep their
# original order.
_LEAF_SIZE = 64


def _nested_dissection(A, points):
    """Fill-reducing symmetric order of A from dof positions points (n, 2).

    A recursion over parts, starting from all n dofs.  A part of at most
    _LEAF_SIZE dofs, or with all its dofs at one point, is emitted in its
    original order.  Otherwise it is cut at the lower median of its longer
    coordinate axis, the upper half taking the dofs above the median (at
    or above it when the median is the top).  The dofs on one side that
    have a matrix neighbour on the other side, taken from the side with
    fewer of them (the lower side on a tie), form the separator.  Matrix
    edges that cross the cut or touch the separator are dropped, and the
    part is emitted as its lower half, its upper half, then the separator.
    Dofs beyond the first n (the dense mean multiplier) go last.
    Returns perm: perm[k] is the dof eliminated k-th.
    """
    n = len(points)
    G = A[:n, :n].tocoo()
    off = G.row != G.col
    upper = np.zeros(n, dtype=bool)
    mark = np.zeros(n, dtype=bool)
    order = []

    def dissect(dofs, ei, ej):
        # dofs ascending; ei, ej the matrix edges between them.  upper
        # and mark are scratch, reset before the recursive calls.
        if (dofs.size <= _LEAF_SIZE
                or not np.any(extent := np.ptp(points[dofs], axis=0))):
            order.append(dofs)
            return
        c = points[dofs, np.argmax(extent)]
        med = np.partition(c, (c.size - 1) // 2)[(c.size - 1) // 2]
        up = c > med if med < c.max() else c >= med
        upper[dofs] = up
        ui = upper[ei]
        cross = ui != upper[ej]
        mark[ei[cross]] = True
        rim = mark[dofs]
        sep = rim & (up == (np.count_nonzero(rim & up)
                            < np.count_nonzero(rim & ~up)))
        mark[dofs] = sep
        keep = ~(cross | mark[ei] | mark[ej])
        lo, hi = keep & ~ui, keep & ui
        upper[dofs] = False
        mark[dofs] = False
        dissect(dofs[~up & ~sep], ei[lo], ej[lo])
        dissect(dofs[up & ~sep], ei[hi], ej[hi])
        order.append(dofs[sep])

    dissect(np.arange(n), G.row[off], G.col[off])
    return np.concatenate(order + [np.arange(n, A.shape[0])])


# Relative size of the stabilizing diagonal shift.  The saddle matrix
# has zero diagonal in the multiplier, pressure, and mean rows, which
# makes threshold row pivoting explode the fill of the factors.  Adding
# +eps (primal rows) / -eps (dual rows) scaled by the row magnitude
# makes the matrix quasidefinite, and a quasidefinite matrix can be
# factored with pure diagonal pivoting in any symmetric order, here the
# nested-dissection one; the perturbation is then removed by iterative
# refinement against the unshifted matrix.
_SHIFT = 1e-8
_MAX_REFINE = 40


def _factor_shifted(A_csr, dual_start, perm):
    """LU of the shifted matrix in the symmetric order perm; returns a
    function solving with it in the original dof order."""
    n = A_csr.shape[0]
    rowmax = np.asarray(abs(A_csr).max(axis=1).todense()).ravel()
    if not np.all(rowmax > 0):
        raise SingularSystemError("matrix has an empty row")
    sign = np.ones(n)
    sign[dual_start:] = -1.0
    shifted = (A_csr + sp.diags(_SHIFT * rowmax * sign)).tocsr()
    try:
        lu = splu(shifted[perm][:, perm].tocsc(), permc_spec="NATURAL",
                  options=dict(SymmetricMode=True, DiagPivotThresh=0.0))
    except (RuntimeError, ValueError) as exc:
        raise SingularSystemError(str(exc)) from exc

    def lu_solve(b):
        x = np.empty(n)
        x[perm] = lu.solve(b[perm])
        return x
    return lu_solve


def solve(system):
    """Factor and solve; returns a DiscreteSolution with residual data.

    The factorization is computed for a slightly shifted matrix and the
    shift is removed by iterative refinement, which converges in a few
    steps; failure to reach a small relative residual is reported as a
    singular system.
    """
    A = system.matrix.tocsr()
    b = system.rhs
    lu_solve = _factor_shifted(A, system.offsets["lambda"],
                               _nested_dissection(A, system.points))
    x = lu_solve(b)
    bnorm = np.linalg.norm(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solver produced non-finite values")
    if bnorm > 0.0:
        prev = np.inf
        for _ in range(_MAX_REFINE):
            res = b - A @ x
            rel = np.linalg.norm(res) / bnorm
            if rel < 1e-12 or rel > 0.5 * prev:
                break
            prev = rel
            x = x + lu_solve(res)
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("refinement produced non-finite values")
        if np.linalg.norm(b - A @ x) / bnorm > 1e-9:
            raise SingularSystemError(
                "iterative refinement stalled above tolerance")
    res = A @ x - b
    V, S, L, Q = system.spaces
    uvec, xvec, lvec, pvec, sigma = system.split(x)
    return DiscreteSolution(
        u=FEFunction(V, uvec),
        p=FEFunction(Q, pvec),
        X=FEFunction(S, xvec),
        lam=FEFunction(L, lvec),
        sigma=sigma,
        residual_norm=float(np.linalg.norm(res)),
        rhs_norm=float(np.linalg.norm(system.rhs)),
    )


def dump_solution(sol, path):
    """CSV dump of all coefficient vectors: field,dof_index,value."""
    with open(path, "w") as fh:
        fh.write("field,dof_index,value\n")
        for name, fn in (("u", sol.u), ("x", sol.X),
                         ("lambda", sol.lam), ("p", sol.p)):
            for i, v in enumerate(fn.coefficients):
                fh.write("%s,%d,%.17g\n" % (name, i, v))
