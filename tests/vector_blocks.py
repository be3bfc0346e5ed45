"""The vector form of a scalar block, for tests that multiply vectors of
both components."""

import scipy.sparse as sp


def vector_block(A):
    """blockdiag(A, A) in CSR: the matrix of the vector P1 space, or of
    the coupling of equal components, whose scalar block A the assembly
    returns."""
    return sp.block_diag((A, A), format="csr")
