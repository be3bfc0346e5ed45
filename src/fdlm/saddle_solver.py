"""The coupled saddle system as a block operator, and its solution.

Unknown order is (u, X, lambda, p, sigma) where sigma is the scalar
multiplier enforcing zero pressure mean.  The system reads

    [ Af    0    Cf^T  -B^T  0  ] [u]      [F]
    [ 0     As  -Cs^T   0    0  ] [X]      [G]
    [ Cf   -Cs    0     0    0  ] [l]  =   [D]
    [ -B    0     0     0    m  ] [p]      [0]
    [ 0     0     0    m^T   0  ] [s]      [0]

and is symmetric indefinite.  Velocity Dirichlet rows and columns are
eliminated symmetrically (unit diagonal, zero load).  GMRES needs only
the action of this matrix, so it is never stacked: SaddleOperator
applies it from the assembled blocks, masking the Dirichlet velocity
entries, and the preconditioner applies the same masked blocks.

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
Higham, SISC 2018).  For the same reason it stores its preconditioned
directions Z in single precision, half of its Krylov storage: the
operator is applied to each direction as stored, so the directions
that update x are those the Arnoldi relation holds for, and the
preconditioner, a float32 factor and an inner CG stopped at 1e-2, is
of single-precision quality anyway.  The Arnoldi basis V, the Hessenberg
matrix H and x are double precision.
"""

import itertools

import numpy as np
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
    """Global system with its right-hand side and dof layout.

    matrix is the SaddleOperator of the blocks: it has the eliminated
    matrix's shape, dot, @ and nnz, but stores no matrix of its own.
    The solve's preconditioner applies the same masked blocks.
    """

    def __init__(self, matrix, rhs, offsets, spaces, blocks, dirichlet_mask):
        self.matrix = matrix
        self.rhs = rhs
        self.offsets = offsets
        self.spaces = spaces
        self.blocks = blocks
        self.dirichlet_mask = dirichlet_mask

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


def _stored(M, cols, rows=None):
    """Nonzeros of the canonical CSR matrix M outside the columns marked
    True in cols and, if given, the rows marked in rows."""
    keep = M.data != 0.0
    keep &= ~cols[M.indices]
    if rows is not None:
        keep &= np.repeat(~rows, np.diff(M.indptr))
    return np.count_nonzero(keep)


class SaddleOperator:
    """The global matrix after Dirichlet elimination, applied block by
    block from the caller's own blocks; nothing is stacked or copied.

    With free = ~fixed the Dirichlet-free part of a velocity vector,
    x = (u, X, lambda, p, sigma) maps to

        y_u      = free (Af (free u) + Cf^T lambda - B^T p) + fixed u
        y_X      = As X - Cs^T lambda
        y_lambda = Cf (free u) - Cs X
        y_p      = -B (free u) + m sigma
        y_sigma  = m^T p

    which is the product with the stacked matrix whose Dirichlet rows
    and columns hold a unit diagonal and nothing else.  The transposes
    are views of the blocks.
    """

    def __init__(self, blocks, fixed):
        self.Af, self.As, self.B = blocks.Af, blocks.As, blocks.B
        self.Cf, self.Cs, self.m = blocks.Cf, blocks.Cs, blocks.mean_row
        self.CfT, self.CsT, self.BT = self.Cf.T, self.Cs.T, self.B.T
        self.fixed = fixed
        sizes = (self.Af.shape[0], self.As.shape[0], self.Cs.shape[0],
                 self.B.shape[0])
        self._cuts = list(itertools.accumulate(sizes))
        self.shape = (self._cuts[-1] + 1,) * 2

    @property
    def nnz(self):
        """Entries the stacked eliminated matrix would store: the nonzeros
        of each block outside the Dirichlet rows and columns, those of
        the off-diagonal blocks twice, and the unit diagonal of the
        Dirichlet rows.  Counted on each access."""
        fixed = self.fixed
        return int(_stored(self.Af, fixed, fixed) + np.count_nonzero(fixed)
                   + 2 * (_stored(self.Cf, fixed) + _stored(self.B, fixed)
                          + np.count_nonzero(self.Cs.data)
                          + np.count_nonzero(self.m))
                   + np.count_nonzero(self.As.data))

    def free(self, u):
        """u with its Dirichlet entries set to zero."""
        return np.where(self.fixed, 0.0, u)

    def Bm(self, u):
        """The pressure rows -B (free u)."""
        return -(self.B @ self.free(u))

    def BmT(self, p):
        """Their transpose, free (-B^T p)."""
        return self.free(-(self.BT @ p))

    def dot(self, x):
        u, X, lam, p = np.split(x[:-1], self._cuts[:-1])
        uf = self.free(u)
        y_u = self.Af @ uf
        y_u += self.CfT @ lam
        y_u -= self.BT @ p
        return np.concatenate([
            np.where(self.fixed, u, y_u),
            self.As @ X - self.CsT @ lam,
            self.Cf @ uf - self.Cs @ X,
            self.m * x[-1] - self.B @ uf,
            [self.m @ p]])

    __matmul__ = dot


def build_system(blocks, rhs, spaces):
    """The bordered global system with Dirichlet dofs eliminated.

    blocks: Blocks instance of canonical CSR matrices; rhs: (F, G, D)
    tuple; spaces: (V, S, L, Q), where L and S must live on the same
    structure mesh.  The velocity space's dirichlet_mask marks the
    constrained dofs; their load is set to zero.  The matrix is a
    SaddleOperator over the blocks themselves, which are neither
    stacked nor copied.
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
    offsets = {"u": 0, "x": nu, "lambda": nu + ns, "p": nu + ns + nl,
               "sigma": nu + ns + nl + npre}
    mask = np.zeros(b.size, dtype=bool)
    mask[:nu] = fixed
    return BlockSystem(SaddleOperator(blocks, fixed), b, offsets, spaces,
                       blocks, mask)


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

    With K^-1 the velocity solve of _velocity_solver, Bm = -B (free u)
    the pressure rows of system.matrix (SaddleOperator.Bm) and m the mean
    row, the rows of S_f read K u + Bm^T p = f, Bm u + m sigma = g and
    m^T p = h.  Bm^T annihilates constants, so sigma = sum(g') / sum(m)
    with g' = g - Bm K^-1 f makes the pressure equation
    (Bm K^-1 Bm^T) p = m sigma - g' consistent.  It is solved by
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
    A = system.matrix
    velocity_solve = _velocity_solver(system.blocks.Af, V)
    tol2 = _INNER_TOL ** 2

    def stokes_solve(f, g, h):
        # u is kept as K^-1 f - K^-1 Bm^T p along the CG steps, which
        # saves the last velocity solve; Bm^T ignores the constant of p.
        u = velocity_solve(f)
        gp = g - A.Bm(u)
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
            y = velocity_solve(A.BmT(d))
            q = A.Bm(y)
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
    or an inner iteration is not.  Each z_j is stored rounded to single
    precision, and matvec is applied to that rounded z_j, so the Arnoldi
    relation A Z = V H holds for the Z that updates x: it is flexible
    GMRES with a preconditioner that rounds its output, which costs
    nothing here, where the preconditioner is of single-precision
    quality anyway.  V, H, the residuals and x are double precision.
    Stops when the true relative residual, taken after each cycle, is
    <= tol, stalls (falls less than half in a cycle) or _MAX_ITER is
    reached.
    Returns (x, iterations, history of the true relative residual, norm
    of the last true residual); x = 0 with no iterations when b = 0."""
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
            Z.append(precondition(V[j]).astype(np.float32))
            w = matvec(Z[j].astype(np.float64))
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
        # y is float64, so each y_i z_i is formed in double precision.
        x = x + sum(yi * z for yi, z in zip(y, Z))
        r = b - matvec(x)
        history.append(np.linalg.norm(r) / bnorm)
        if history[-1] <= tol or (len(history) > 1
                                  and history[-1] > 0.5 * history[-2]):
            break
    return x, iterations, history, float(np.linalg.norm(r))


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

    def precondition(r):
        z = np.empty(n)
        z[u], z[p], z[-1] = stokes_solve(r[u], r[p], r[-1])
        z[xs] = -cs_solve(r[lam] - A.Cf @ A.free(z[u]))
        z[lam] = cs_solve(A.As @ z[xs] - r[xs])
        return z

    x, iterations, history, res_norm = _gmres(A.dot, precondition, b, 1e-12)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solver produced non-finite values")
    bnorm = np.linalg.norm(b)
    if bnorm > 0.0 and res_norm / bnorm > 1e-9:
        raise SingularSystemError("GMRES stalled above tolerance")
    uvec, xvec, lvec, pvec, sigma = system.split(x)
    return DiscreteSolution(
        u=FEFunction(V, uvec),
        p=FEFunction(Q, pvec),
        X=FEFunction(S, xvec),
        lam=FEFunction(L, lvec),
        sigma=sigma,
        residual_norm=res_norm,
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
