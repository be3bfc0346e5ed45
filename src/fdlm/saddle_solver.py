"""Block assembly and solution of the coupled saddle system.

Unknown order is (u, X, lambda, p, sigma) where sigma is the scalar
multiplier enforcing zero pressure mean.  The system reads

    [ Af    0    Cf^T  -B^T  0  ] [u]      [F]
    [ 0     As  -Cs^T   0    0  ] [X]      [G]
    [ Cf   -Cs    0     0    0  ] [l]  =   [D]
    [ -B    0     0     0    m  ] [p]      [0]
    [ 0     0     0    m^T   0  ] [s]      [0]

and is symmetric indefinite.  Velocity Dirichlet rows and columns are
eliminated symmetrically (unit diagonal, zero load).

The system is solved by right-preconditioned flexible GMRES with a block
lower-triangular preconditioner (Benzi, Golub & Liesen, "Numerical
solution of saddle point problems", Acta Numerica 2005).  It solves the
fluid rows with an approximate inverse of the fluid Stokes block S_f,
the (u, p, sigma) rows and columns, then the multiplier row for X and
the structure row for lambda with Cs = blockdiag(c, c), which is SPD
because L and S share the structure mesh:

    w = S_f^-1 r_w,  X = -Cs^-1 (r_l - Cf u),  lambda = Cs^-1 (As X - r_X).

S_f^-1 uses no factor.  Its velocity solves are sine transforms, which
diagonalise the P1 stiffness on the uniform velocity grid (Buzbee,
Golub & Nielson, SIAM J. Numer. Anal. 1970), and its pressure is a CG
on the Schur complement preconditioned by the lumped pressure mass
(Elman, Silvester & Wathen, OUP 2014, ch. 9), stopped at a loose
tolerance.  Only c is factored, in single precision, in the nested
dissection of the structure mesh's grid into boxes (George, "Nested
dissection of a regular finite element mesh", SIAM J. Numer. Anal.
1973), which does not depend on the placement map.  The velocity solves
and this order take the vertex at each grid point from mesh.grid, which
the mesh read from its coordinates and checked when it was built.
GMRES keeps every residual in double precision and, being flexible,
needs no exactly linear preconditioner, so the solve still reaches a
double-precision residual (mixed-precision GMRES refinement, Carson &
Higham, SISC 2018).
"""

import itertools

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
    """Assembled global matrix with its right-hand side and dof layout.

    Cf and Bm are the multiplier rows Cf and the pressure rows -B of the
    matrix without their Dirichlet columns, and BmT is Bm's transpose;
    the solve's preconditioner applies them.
    """

    def __init__(self, matrix, rhs, offsets, spaces, blocks, dirichlet_mask,
                 Cf, Bm, BmT):
        self.matrix = matrix
        self.rhs = rhs
        self.offsets = offsets
        self.spaces = spaces
        self.blocks = blocks
        self.dirichlet_mask = dirichlet_mask
        self.Cf = Cf
        self.Bm = Bm
        self.BmT = BmT

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

    def __init__(self, u, p, X, lam, sigma, residual_norm, rhs_norm,
                 iterations=0, residual_history=()):
        self.u = u
        self.p = p
        self.X = X
        self.lam = lam
        self.sigma = sigma
        self.residual_norm = residual_norm
        self.rhs_norm = rhs_norm
        # GMRES iterations, and the true relative residual after each of
        # its cycles.
        self.iterations = iterations
        self.residual_history = list(residual_history)

    @property
    def relative_residual(self):
        if self.rhs_norm == 0.0:
            return self.residual_norm
        return self.residual_norm / self.rhs_norm


def _drop(M, cols, rows=None):
    """The canonical CSR matrix M without its entries in the columns
    marked True in cols and, if given, in the rows marked in rows; same
    shape, still canonical."""
    keep = ~cols[M.indices]
    if rows is not None:
        keep &= np.repeat(~rows, np.diff(M.indptr))
    count = np.zeros(M.nnz + 1, dtype=M.indptr.dtype)
    np.cumsum(keep, out=count[1:])
    return sp.csr_matrix((M.data[keep], M.indices[keep], count[M.indptr]),
                         shape=M.shape)


def _stack(rows, sizes):
    """One canonical CSR matrix, with int32 indices below 2**31 entries,
    of the grid of canonical CSR blocks rows, None standing for a zero
    block; block (i, j) is sizes[i] x sizes[j].  Each block's entries
    are written straight to their place, after the entries of the blocks
    to its left in the same rows, so no stacked copy of a row of blocks
    is made."""
    offsets = [0, *itertools.accumulate(sizes)]
    counts = np.concatenate([sum(np.diff(M.indptr) for M in row
                                 if M is not None) for row in rows])
    nnz = int(counts.sum())
    indptr = np.zeros(counts.size + 1,
                      dtype=np.int32 if nnz < 2 ** 31 else np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(nnz, dtype=indptr.dtype)
    data = np.empty(nnz)
    for i, row in enumerate(rows):
        # The next free slot of each row of the row block.
        free = indptr[offsets[i]:offsets[i + 1]].copy()
        for M, col in zip(row, offsets):
            if M is None:
                continue
            n = np.diff(M.indptr)
            at = (np.repeat(free - M.indptr[:-1], n)
                  + np.arange(M.nnz, dtype=indptr.dtype))
            indices[at] = M.indices + col
            data[at] = M.data
            free += n
    return sp.csr_matrix((data, indices, indptr), shape=(counts.size,) * 2)


def build_system(blocks, rhs, spaces):
    """Assemble the bordered global matrix and eliminate Dirichlet dofs.

    blocks: Blocks instance of canonical CSR matrices; rhs: (F, G, D)
    tuple; spaces: (V, S, L, Q), where L and S must live on the same
    structure mesh.  The velocity space's dirichlet_mask marks the
    constrained dofs.  Their rows and columns are dropped from Af and
    their columns from Cf and B, block by block, a unit diagonal is put
    in their rows, and the row blocks are stacked into one canonical
    CSR matrix.
    """
    V, S, L, Q = spaces
    nu, ns, nl, npre = V.n_dofs, S.n_dofs, L.n_dofs, Q.n_dofs
    if L.n_vertices != S.n_vertices:
        raise ValueError("multiplier and structure meshes differ")
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
    F, G, D = rhs
    b = np.concatenate([F, G, D, np.zeros(npre), [0.0]])
    if b.shape[0] != nu + ns + nl + npre + 1:
        raise ValueError("right-hand side length mismatch")

    fixed = V.dirichlet_mask
    b[:nu][fixed] = 0.0
    Af = (_drop(blocks.Af.tocsr(), fixed, fixed)
          + sp.diags(fixed.astype(float), format="csr"))
    Cf = _drop(blocks.Cf.tocsr(), fixed)
    Bm = -_drop(blocks.B.tocsr(), fixed)
    Cs = -blocks.Cs.tocsr()
    m = sp.csr_matrix(blocks.mean_row.reshape(1, -1))
    BmT = Bm.T.tocsr()
    matrix = _stack([[Af, None, Cf.T.tocsr(), BmT, None],
                     [None, blocks.As.tocsr(), Cs.T.tocsr(), None, None],
                     [Cf, Cs, None, None, None],
                     [Bm, None, None, None, m.T.tocsr()],
                     [None, None, None, m, None]], (nu, ns, nl, npre, 1))

    offsets = {"u": 0, "x": nu, "lambda": nu + ns, "p": nu + ns + nl,
               "sigma": nu + ns + nl + npre}
    mask = np.zeros(matrix.shape[0], dtype=bool)
    mask[:nu] = fixed
    return BlockSystem(matrix, b, offsets, spaces, blocks, mask, Cf, Bm, BmT)


# Boxes of at most this many vertices are not cut further.
_LEAF_SIZE = 64


def _dissection(grid):
    """Nested-dissection order of the vertices of a grid box (George,
    "Nested dissection of a regular finite element mesh", SIAM J. Numer.
    Anal. 1973).  A box of at most _LEAF_SIZE vertices is emitted row by
    row.  Otherwise its middle grid line across the longer side (a column
    on a tie) cuts it, and it is emitted as the halves before the line,
    then after it, then the line.  Every P1 edge joins grid points at
    most one step apart in each index, so the line separates the halves.
    Returns perm: perm[k] is the vertex eliminated k-th."""
    if grid.size <= _LEAF_SIZE:
        return grid.ravel()
    axis = int(grid.shape[1] >= grid.shape[0])
    mid = grid.shape[axis] // 2
    lo, line, hi = np.split(grid, [mid, mid + 1], axis=axis)
    return np.concatenate([_dissection(lo), _dissection(hi), line.ravel()])


# GMRES restart length, and the cap on its iterations over all cycles.
_RESTART = 50
_MAX_ITER = 200
# Relative tolerance of the inner pressure CG, and the cap on its steps.
# Flexible GMRES corrects what the inner solve leaves.
_INNER_TOL = 1e-2
_INNER_MAX_ITER = 100


def _lu(M, perm):
    """Single-precision LU of M in the symmetric order perm with diagonal
    pivoting; returns a function solving with it in the original dof
    order, taking and giving float64."""
    try:
        lu = splu(M.astype(np.float32).tocsr()[perm][:, perm].tocsc(),
                  permc_spec="NATURAL",
                  options=dict(SymmetricMode=True, DiagPivotThresh=0.0))
    except (RuntimeError, ValueError) as exc:
        raise SingularSystemError(str(exc)) from exc

    def lu_solve(b):
        x = np.empty(b.shape)
        x[perm] = lu.solve(b[perm].astype(np.float32))
        return x
    return lu_solve


def _sine_transform(a):
    """Orthonormal type-I sine transform of a (..., M, M) over its last two
    axes; it is its own inverse.  Along each axis it is the imaginary part
    of a real FFT of length 2(M + 1) of the data placed at 1..M, with a
    sign that the two axes cancel.  a is square, so both axes share one
    zero-padded buffer."""
    n = a.shape[-1] + 1
    ext = np.zeros(a.shape[:-1] + (2 * n,))
    for _ in range(2):
        ext[..., 1:n] = a
        a = np.fft.rfft(ext)[..., 1:n].imag.swapaxes(-1, -2)
    return a * (2.0 / n)


def _velocity_solver(Af, V):
    """Solve with Af after Dirichlet elimination by sine transforms.

    V lives on a uniform mesh of N x N square cells, where the P1
    stiffness K at the interior vertices is the 5-point Laplacian, with
    eigenvalues 4 sin^2(j pi / 2N) + 4 sin^2(k pi / 2N), j, k = 1..N-1,
    and sine-transform eigenvectors (Buzbee, Golub & Nielson, SIAM J.
    Numer. Anal. 1970).  nu and the mass term are read from the interior
    rows of Af = nu K + alpha M: a row sums to alpha h^2, the lumped mass,
    and its diagonal is 4 nu + alpha h^2 / 2.  The solve divides by
    nu (eigenvalue of K) + alpha h^2, which inverts Af exactly for
    alpha = 0 and is spectrally equivalent to it otherwise.  The
    eliminated Dirichlet dofs of V, which must be the grid's outer ring,
    are solved by the identity.
    Returns a function mapping a velocity vector to the solution.
    """
    mesh = V.mesh
    N = mesh.n_cells_per_side
    if abs(mesh.hy - mesh.hx) > 1e-12 * mesh.hx:
        raise ValueError("the velocity mesh cells are not square")
    slots = mesh.grid[1:-1, 1:-1]
    if not np.array_equal(V.dirichlet_mask,
                          np.tile(mesh.boundary_vertex_flags, 2)):
        raise ValueError("the Dirichlet velocity dofs are not the outer "
                         "ring of the uniform grid")
    dofs = slots + V.n_vertices * np.arange(2)[:, None, None]
    rows = dofs.ravel()
    lumped = float(np.mean((Af @ np.ones(Af.shape[1]))[rows]))
    nu = (float(np.mean(Af.diagonal()[rows])) - 0.5 * lumped) / 4.0
    lam = 4.0 * np.sin(np.arange(1, N) * np.pi / (2 * N)) ** 2
    eig = nu * (lam[:, None] + lam) + lumped
    if not eig.min() > 0.0:
        raise SingularSystemError("fluid block is not positive definite")

    def velocity_solve(f):
        z = f.copy()
        z[dofs] = _sine_transform(_sine_transform(f[dofs]) / eig)
        return z
    return velocity_solve


def _stokes_solver(system):
    """Approximate solve with the fluid Stokes block S_f of the system
    matrix, the (u, p, sigma) rows and columns, using no factor.

    With K^-1 the velocity solve of _velocity_solver, Bm = system.Bm and m
    the mean row, the rows of S_f read K u + Bm^T p = f,
    Bm u + m sigma = g and m^T p = h.  Bm^T annihilates constants, so
    sigma = sum(g') / sum(m) with g' = g - Bm K^-1 f makes the pressure
    equation (Bm K^-1 Bm^T) p = m sigma - g' consistent.  It is solved by
    CG preconditioned by the lumped pressure mass, diag(m), which is
    spectrally equivalent to Bm K^-1 Bm^T for this inf-sup stable pair
    (Elman, Silvester & Wathen, "Finite Elements and Fast Iterative
    Solvers", OUP 2014, ch. 9), to relative _INNER_TOL in the norm of its
    preconditioned residual.  The constant is then fixed by m^T p = h,
    and u = K^-1 (f - Bm^T p).
    Returns a function mapping (f, g, h) to (u, p, sigma).
    """
    V = system.spaces[0]
    m = system.blocks.mean_row
    if not np.all(m > 0.0):
        raise SingularSystemError("pressure mean row is not positive")
    msum = m.sum()
    Bm, BmT = system.Bm, system.BmT
    velocity_solve = _velocity_solver(system.blocks.Af, V)
    tol2 = _INNER_TOL ** 2

    def stokes_solve(f, g, h):
        # u is kept as K^-1 f - K^-1 Bm^T p along the CG steps, which
        # saves the last velocity solve; Bm^T ignores the constant of p.
        u = velocity_solve(f)
        gp = g - Bm @ u
        sigma = gp.sum() / msum
        r = m * sigma - gp
        p = np.zeros_like(r)
        z = r / m
        d = z
        rz = r @ z
        stop = tol2 * rz
        for _ in range(_INNER_MAX_ITER):
            if rz <= stop:
                break
            y = velocity_solve(BmT @ d)
            q = Bm @ y
            step = rz / (d @ q)
            p += step * d
            u -= step * y
            r -= step * q
            z = r / m
            rz, rz_old = r @ z, rz
            d = z + (rz / rz_old) * d
        p += (h - m @ p) / msum
        return u, p, sigma
    return stokes_solve


def _gmres(matvec, precondition, b, tol):
    """Restarted flexible GMRES from 0 on matvec(x) = b, right-preconditioned
    by precondition, so that it minimises the true residual (Saad, "A
    flexible inner-outer preconditioned GMRES algorithm", SISC 1993).  It
    keeps z_j = precondition(v_j) and updates x by the z_j, so the
    preconditioner need not be exactly linear, as a single-precision LU
    or an inner iteration is not.  Stops when the true relative
    residual, taken after each cycle, is <= tol, stalls (falls less than
    half in a cycle) or _MAX_ITER is reached.
    Returns (x, iterations, history of the true relative residual); x = 0
    with no iterations when b = 0."""
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    history = []
    iterations = 0
    r = b
    while bnorm > 0.0 and iterations < _MAX_ITER:
        beta = np.linalg.norm(r)
        V = [r / beta]
        Z = []
        H = np.zeros((_RESTART + 1, _RESTART))
        e1 = np.zeros(_RESTART + 1)
        e1[0] = beta
        for j in range(min(_RESTART, _MAX_ITER - iterations)):
            Z.append(precondition(V[j]))
            w = matvec(Z[j])
            for i, v in enumerate(V):
                H[i, j] = v @ w
                w -= H[i, j] * v
            H[j + 1, j] = np.linalg.norm(w)
            if not np.isfinite(H[j + 1, j]):
                raise SingularSystemError("solver produced non-finite values")
            iterations += 1
            y = np.linalg.lstsq(H[:j + 2, :j + 1], e1[:j + 2], rcond=None)[0]
            est = np.linalg.norm(H[:j + 2, :j + 1] @ y - e1[:j + 2])
            if est <= tol * bnorm or H[j + 1, j] == 0.0:
                break
            V.append(w / H[j + 1, j])
        x = x + sum(yi * z for yi, z in zip(y, Z))
        r = b - matvec(x)
        history.append(np.linalg.norm(r) / bnorm)
        if history[-1] <= tol or (len(history) > 1
                                  and history[-1] > 0.5 * history[-2]):
            break
    return x, iterations, history


def solve(system):
    """Solve by block-preconditioned GMRES; returns a DiscreteSolution with
    residual data and the solver's iterations and residual history.

    The fluid rows are solved by sine transforms inside a pressure CG
    (_stokes_solver), and the scalar block c of Cs is factored once in
    single precision, in the nested dissection of the structure mesh's
    grid (_dissection); flexible GMRES stops at a true relative residual
    of 1e-12.  A factorization failure, and a relative residual left above
    1e-9, are reported as a singular system.
    """
    V, S, L, Q = system.spaces
    A = system.matrix
    b = system.rhs
    o = system.offsets
    n = A.shape[0]
    u = slice(0, o["x"])
    xs = slice(o["x"], o["lambda"])
    lam = slice(o["lambda"], o["p"])
    p = slice(o["p"], o["sigma"])
    stokes_solve = _stokes_solver(system)
    k = S.n_vertices
    c = system.blocks.Cs[:k, :k]
    c_solve = _lu(c, _dissection(S.mesh.grid))

    def cs_solve(v):
        return c_solve(v.reshape(2, k).T).T.ravel()

    Cf, As = system.Cf, system.blocks.As

    def precondition(r):
        z = np.empty(n)
        z[u], z[p], z[-1] = stokes_solve(r[u], r[p], r[-1])
        z[xs] = -cs_solve(r[lam] - Cf @ z[u])
        z[lam] = cs_solve(As @ z[xs] - r[xs])
        return z

    x, iterations, history = _gmres(A.dot, precondition, b, 1e-12)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solver produced non-finite values")
    res = A @ x - b
    bnorm = np.linalg.norm(b)
    if bnorm > 0.0 and np.linalg.norm(res) / bnorm > 1e-9:
        raise SingularSystemError("GMRES stalled above tolerance")
    uvec, xvec, lvec, pvec, sigma = system.split(x)
    return DiscreteSolution(
        u=FEFunction(V, uvec),
        p=FEFunction(Q, pvec),
        X=FEFunction(S, xvec),
        lam=FEFunction(L, lvec),
        sigma=sigma,
        residual_norm=float(np.linalg.norm(res)),
        rhs_norm=float(bnorm),
        iterations=iterations,
        residual_history=history,
    )


def dump_solution(sol, path):
    """CSV dump of all coefficient vectors: field,dof_index,value."""
    with open(path, "w") as fh:
        fh.write("field,dof_index,value\n")
        for name, fn in (("u", sol.u), ("x", sol.X),
                         ("lambda", sol.lam), ("p", sol.p)):
            for i, v in enumerate(fn.coefficients):
                fh.write("%s,%d,%.17g\n" % (name, i, v))
