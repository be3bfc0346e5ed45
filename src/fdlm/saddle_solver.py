"""The coupled saddle system as a block operator, and its solution.

Unknown order is (u, X, lambda, p, sigma) where sigma is the scalar
multiplier enforcing zero pressure mean.  The system reads

    [ Af    0    Cf^T  -B^T  0  ] [u]      [F]
    [ 0     As  -Cs^T   0    0  ] [X]      [G]
    [ Cf   -Cs    0     0    0  ] [l]  =   [D]
    [ -B    0     0     0    m  ] [p]      [0]
    [ 0     0     0    m^T   0  ] [s]      [0]

and is symmetric indefinite.  Af, As, Cf and Cs are blockdiag(A, A) of
one scalar matrix A each, which is all the blocks store; every product
applies A to each component.  Velocity Dirichlet rows and columns are
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

Nothing is factored.  The velocity solves of S_f^-1, and the
preconditioner of a CG on c, are exact grid solves by type-I sine and
cosine transforms, each applied as two dense matrix products or as
FFTs, whichever the grid's size and the prime factors of its FFT length
favour; for the l2 coupling that preconditioner is diagonal and needs
no transform.  The pressure of S_f^-1 is a CG on its Schur complement,
stopped at a loose tolerance.  The inner CGs make the
preconditioner inexact and not linear, which flexible GMRES allows.  It
keeps x, V, H and every residual in double precision, so the solve
still reaches a double-precision residual (Carson & Higham, SISC 2018),
and stores its preconditioned directions Z, half of its Krylov storage,
in single precision, applying the operator to each as stored.
"""

import itertools

import numpy as np
# Unused here; perfbench/tracing.py wraps it in this module's namespace.
from scipy.sparse.linalg import splu

from .fespace import FEFunction
from .mesh import _same_mesh

__all__ = ["Blocks", "BlockSystem", "DiscreteSolution",
           "SingularSystemError", "build_system", "solve",
           "dump_solution"]


class SingularSystemError(RuntimeError):
    """The assembled system could not be solved."""


class Blocks:
    """Container for the assembled matrix blocks and the mean row: Af,
    As, Cf and Cs are the scalar blocks of the vector blocks
    blockdiag(A, A), B is the whole divergence matrix."""

    def __init__(self, Af, As, B, Cf, Cs, mean_row):
        self.Af = Af
        self.As = As
        self.B = B
        self.Cf = Cf
        self.Cs = Cs
        self.mean_row = np.asarray(mean_row, dtype=float)


class BlockSystem:
    """Global system with its right-hand side.

    matrix is the SaddleOperator of the blocks: it has the eliminated
    matrix's shape, dot, @ and nnz, and the dof layout, but stores no
    matrix of its own.  The solve's preconditioner applies the same
    masked blocks.
    """

    def __init__(self, matrix, rhs, spaces, blocks):
        self.matrix = matrix
        self.rhs = rhs
        self.spaces = spaces
        self.blocks = blocks

    @property
    def n_dofs(self):
        return self.matrix.shape[0]

    def split(self, x):
        """Slice a global vector into (u, X, lambda, p, sigma) parts."""
        return (*self.matrix.split(x), float(x[-1]))


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


def _each_component(A, x, out=None):
    """blockdiag(A, A) @ x: the scalar block A applied to each half of x,
    into out if given.  Each row of each half is summed in the stored
    order, as the stacked matrix's row would be, so the product is that
    of the stacked matrix bit for bit; so is A.T's."""
    if out is None:
        out = np.empty(2 * A.shape[0])
    for x_c, out_c in zip(np.split(x, 2), np.split(out, 2)):
        out_c[:] = A @ x_c
    return out


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
    The vector blocks Af, As, Cf and Cs are blockdiag(A, A) of the
    stored scalar A, applied to each component (_each_component).

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
        sizes = (2 * self.Af.shape[0], 2 * self.As.shape[0],
                 2 * self.Cs.shape[0], self.B.shape[0])
        self._cuts = list(itertools.accumulate(sizes))
        self.shape = (self._cuts[-1] + 1,) * 2

    @property
    def nnz(self):
        """Entries the stacked eliminated matrix would store: the nonzeros
        of each block outside the Dirichlet rows and columns, a vector
        block's once per component with that component's mask, those of
        the off-diagonal blocks twice, and the unit diagonal of the
        Dirichlet rows.  Counted on each access."""
        fixed = self.fixed
        vector = sum(_stored(self.Af, f, f) + 2 * _stored(self.Cf, f)
                     for f in np.split(fixed, 2))
        return int(vector + np.count_nonzero(fixed)
                   + 2 * (_stored(self.B, fixed) + np.count_nonzero(self.m)
                          + 2 * np.count_nonzero(self.Cs.data)
                          + np.count_nonzero(self.As.data)))

    def split(self, x):
        """Views of the (u, X, lambda, p) parts of a global vector x."""
        return np.split(x[:-1], self._cuts[:-1])

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
        y = np.empty(self.shape[0])
        u, X, lam, p = self.split(x)
        y_u, y_X, y_lam, y_p = self.split(y)
        uf = self.free(u)
        _each_component(self.Af, uf, out=y_u)
        y_u += _each_component(self.CfT, lam)
        y_u -= self.BT @ p
        y_u[self.fixed] = u[self.fixed]
        _each_component(self.As, X, out=y_X)
        y_X -= _each_component(self.CsT, lam)
        _each_component(self.Cf, uf, out=y_lam)
        y_lam -= _each_component(self.Cs, X)
        np.subtract(self.m * x[-1], self.B @ uf, out=y_p)
        y[-1] = self.m @ p
        return y

    __matmul__ = dot


def build_system(blocks, rhs, spaces):
    """The bordered global system with Dirichlet dofs eliminated.

    blocks: Blocks instance of canonical CSR matrices, Af, As, Cf and
    Cs the scalar blocks, of vertices by vertices; rhs: (F, G, D) tuple;
    spaces: (V, S, L, Q), where L and S must live on the same structure
    mesh: one object, or equal vertices and triangles.  The velocity
    space's dirichlet_mask marks the constrained dofs; their load is set
    to zero.  The matrix is a SaddleOperator
    over the blocks themselves, which are neither stacked nor copied.
    """
    V, S, L, Q = spaces
    nu, ns, nl, npre = V.n_dofs, S.n_dofs, L.n_dofs, Q.n_dofs
    kv, ks, kl = V.n_vertices, S.n_vertices, L.n_vertices
    if not _same_mesh(L.mesh, S.mesh):
        raise ValueError("multiplier and structure meshes differ")
    if blocks.Af.shape != (kv, kv):
        raise ValueError("fluid block shape mismatch")
    if blocks.As.shape != (ks, ks):
        raise ValueError("structure block shape mismatch")
    if blocks.B.shape != (npre, nu):
        raise ValueError("divergence block shape mismatch")
    if blocks.Cf.shape != (kl, kv) or blocks.Cs.shape != (kl, ks):
        raise ValueError("coupling block shape mismatch")
    if blocks.mean_row.shape != (npre,):
        raise ValueError("mean row length mismatch")
    F, G, D = rhs
    if (np.shape(F), np.shape(G), np.shape(D)) != ((nu,), (ns,), (nl,)):
        raise ValueError("right-hand side length mismatch")
    b = np.concatenate([F, G, D, np.zeros(npre), [0.0]])

    fixed = V.dirichlet_mask
    b[:nu][fixed] = 0.0
    return BlockSystem(SaddleOperator(blocks, fixed), b, spaces, blocks)


# GMRES restart length, and the cap on its iterations over all cycles.
_RESTART = 50
_MAX_ITER = 200
# Relative tolerance of the inner pressure CG, and the cap on its steps.
# Flexible GMRES corrects what the inner solve leaves.
_INNER_TOL = 1e-2
_INNER_MAX_ITER = 100
# Relative tolerance of the structure CG: the loosest that kept GMRES at
# levels 0-4 of both schedules within an iteration of solving c exactly.
_STRUCTURE_TOL = 1e-7
# A grid transform of m points a side is two dense products when
# m < _DENSE_PER_PRIME p, p the largest prime factor of its FFT length 2n,
# and two FFT passes otherwise: the FFT's work per entry grows with p, the
# product's with m.  In solve() the products won at m = 31 and 63 (p = 2)
# and at m = 182 (p = 181); from m = 127 at p = 2 they gained little, and
# on two BLAS threads they lost badly while another process held a core.
_DENSE_PER_PRIME = 48


def _largest_prime_factor(k):
    """The largest prime factor of the integer k >= 2."""
    p = 2
    while p * p <= k:
        if k % p:
            p += 1
        else:
            k //= p
    return k


def _transform(shape, odd):
    """Type-I sine (odd) or cosine transform T over the last two axes of
    (..., m, m) arrays, scaled by 2 / n: along each axis a_k is the sum of
    a_j sin(j k pi / n), j, k = 1..m, n = m + 1, or a_j cos(j k pi / n),
    j, k = 0..m-1, n = m - 1.  T(T(a)) = a for the sine, T(T(a) w) = a / w
    for the cosine, w the outer product of (1/2, 1, ..., 1, 1/2) with
    itself.  For m < _DENSE_PER_PRIME p, p the largest prime factor of
    2n, T(a) = M a M, two products with the symmetric matrix M of
    sqrt(2 / n) sin(j k pi / n) or cos(j k pi / n); otherwise each axis is
    the imaginary or real part of a real FFT of length 2n of the data
    placed from index 1 or 0 in a zero buffer.  M and the buffers are
    allocated once; each call overwrites the output of the last."""
    m = shape[-1]
    n, lo = (m + 1, 1) if odd else (m - 1, 0)
    out = np.empty(shape)
    if m < _DENSE_PER_PRIME * _largest_prime_factor(2 * n):
        j = np.arange(lo, lo + m)
        # j k is reduced mod 2n, so every angle is below 2 pi.
        angle = (np.outer(j, j) % (2 * n)) * (np.pi / n)
        M = np.sqrt(2.0 / n) * (np.sin(angle) if odd else np.cos(angle))
        half = np.empty(shape)

        def dense(a):
            np.matmul(a, M, out=half)
            return np.matmul(M, half, out=out)
        return dense
    ext = np.zeros(shape[:-1] + (2 * n,))
    spec = np.empty(shape[:-1] + (n + 1,), dtype=complex)
    data = ext[..., lo:lo + m]
    part = (spec.imag if odd else spec.real)[..., lo:lo + m].swapaxes(-1, -2)

    def transform(a):
        data[...] = a
        np.fft.rfft(ext, out=spec)
        data[...] = part
        np.fft.rfft(ext, out=spec)
        return np.multiply(part, 2.0 / n, out=out)
    return transform


def _grid_solver(mesh, dofs, nu, a, odd):
    """f -> z with z[dofs] = P^-1 f[dofs] and z = f elsewhere, for
    P = nu (K1 x W + W x K1) + a W x W on the grid points dofs (2, m, m)
    of mesh, of n x n square cells, f of two blocks of mesh.n_vertices:
    with odd, the interior points, with K1 = tridiag(-1, 2, -1) and W = I;
    otherwise all points, with K1 the Neumann stiffness and
    W = diag(1/2, 1, ..., 1, 1/2).  That is the P1 form nu K + alpha M,
    a = alpha h^2, with the mass lumped onto the grid: nu is 1 and a is 0
    for the velocity, whose block is K, and nu is gamma for the structure.
    The type-I sine or cosine transform diagonalises K1 against W, with
    eigenvalues 4 sin^2(j pi / 2n), j = 1..n-1 or 0..n (Buzbee, Golub &
    Nielson, SIAM J. Numer. Anal. 1970), so two solve P exactly.  With
    nu = 0, P is diagonal, and z is f times its precomputed reciprocal.
    """
    if abs(mesh.hy - mesh.hx) > 1e-12 * mesh.hx:
        raise ValueError("the mesh cells are not square")
    n = mesh.n_cells_per_side
    j = np.arange(odd, n + 1 - odd)
    lam = 4.0 * np.sin(j * np.pi / (2 * n)) ** 2
    w = np.where((j == 0) | (j == n), 0.5, 1.0)
    eig = (nu * (lam[:, None] + lam) + a) / (w[:, None] * w)
    if not eig.min() > 0.0:
        raise SingularSystemError("block is not positive definite")
    if nu == 0.0:
        recip = np.ones(len(dofs) * mesh.n_vertices)
        recip[dofs] = 1.0 / (a * w[:, None] * w)
        return lambda f: f * recip
    transform = _transform(dofs.shape, odd)

    def grid_solve(f):
        z = f.copy()
        t = transform(f[dofs])
        t /= eig
        z[dofs] = transform(t)
        return z
    return grid_solve


def _velocity_solver(V):
    """Solve with the fluid block after Dirichlet elimination, exactly, by
    sine transforms: the block is the stiffness K of the fixed form
    (assembly.assemble_Af), the grid's 5-point Laplacian on the interior
    rows.  The Dirichlet dofs must be the grid's outer ring; they are left
    as given.
    """
    mesh = V.mesh
    if not np.array_equal(V.dirichlet_mask,
                          np.tile(mesh.boundary_vertex_flags, 2)):
        raise ValueError("the Dirichlet velocity dofs are not the outer "
                         "ring of the uniform grid")
    dofs = mesh.grid[1:-1, 1:-1] + V.n_vertices * np.arange(2)[:, None, None]
    return _grid_solver(mesh, dofs, 1.0, 0.0, odd=True)


def _structure_solver(c, mesh, tol=_STRUCTURE_TOL):
    """Solve with Cs = blockdiag(c, c), c = gamma K + M on mesh, by CG
    preconditioned by P = gamma K + h^2 D x D, D = diag(1/2, 1, ..., 1,
    1/2), which _grid_solver solves exactly: on the grid,
    K = K1 x D + D x K1.  M sums to n^2 h^2 and its trace is half that; K
    sums to 0 and its trace is 4 n^2.  M is spectrally equivalent to
    h^2 D x D (Wathen, IMA J. Numer. Anal. 1987): at n = 8, eig(P^-1 c)
    lies in [0.236, 1.010] for the l2 coupling (gamma = 0) and in
    [0.994, 1.003] for h1 (gamma = 1), tightening like h^2 there.  Read
    from an l2 block, gamma is round-off (about 1e-20).  A gamma with
    8 |gamma| <= 1e-12 h^2 moves no eigenvalue of P by more than 1e-12
    relative; it is taken as 0, which makes P diagonal.  CG
    stops at a relative residual 2-norm of tol, which needs no P-solve of
    the last residual; non-positive curvature, or no convergence in fewer
    than _INNER_MAX_ITER steps, raises SingularSystemError.  The returned
    function maps vectors of length 2k, k = c.shape[0]; c is applied to
    each half.
    """
    n2 = mesh.n_cells_per_side ** 2
    k = c.shape[0]
    total = float(c.sum())
    gamma = (float(c.diagonal().sum()) - 0.5 * total) / (4.0 * n2)
    if 8.0 * abs(gamma) * n2 <= 1e-12 * total:
        gamma = 0.0
    dofs = mesh.grid + k * np.arange(2)[:, None, None]
    precondition = _grid_solver(mesh, dofs, gamma, total / n2, odd=False)

    def structure_solve(b):
        x = np.zeros_like(b)
        d = np.zeros_like(b)
        r = b.copy()
        rz = np.inf
        stop = tol ** 2 * (b @ b)
        for _ in range(_INNER_MAX_ITER):
            if r @ r <= stop:
                return x
            z = precondition(r)
            rz, rz_old = r @ z, rz
            d = z + (rz / rz_old) * d
            q = _each_component(c, d)
            dq = d @ q
            if not dq > 0.0:
                break
            x += (rz / dq) * d
            r -= (rz / dq) * q
        raise SingularSystemError("structure block solve failed")
    return structure_solve


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
    velocity_solve = _velocity_solver(V)
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
    preconditioner need not be linear.  Each z_j is stored rounded to
    single precision and matvec is applied to it as stored, so A Z = V H
    holds for the Z that updates x.  V, H, the residuals and x are double
    precision.
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

    It solves the fluid rows by _stokes_solver and the structure rows by
    _structure_solver, and stops at a true relative residual of 1e-12; a
    residual left above 1e-9 raises SingularSystemError.
    """
    V, S, L, Q = system.spaces
    A = system.matrix
    b = system.rhs
    stokes_solve = _stokes_solver(system)
    cs_solve = _structure_solver(system.blocks.Cs, S.mesh)

    def precondition(r):
        z = np.empty_like(r)
        (ru, rX, rl, rp, rs), (zu, zX, zl, zp, _) = (system.split(r),
                                                     system.split(z))
        zu[:], zp[:], z[-1] = stokes_solve(ru, rp, rs)
        zX[:] = -cs_solve(rl - _each_component(A.Cf, A.free(zu)))
        zl[:] = cs_solve(_each_component(A.As, zX) - rX)
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
