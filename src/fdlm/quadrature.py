"""Quadrature rules on the reference triangle.

All rules live on the reference triangle with vertices (0,0), (1,0),
(0,1) and use the convention that the weights sum to one, so the
physical integral over a triangle T is |T| * sum_k w_k f(q_k).
"""

import numpy as np

__all__ = [
    "QuadratureRule",
    "rule_for_degree",
    "conical_product_rule",
    "integrate",
]


class QuadratureRule:
    """Nodes (K, 2), weights (K,) summing to 1, and declared exactness degree."""

    __slots__ = ("points", "weights", "degree")

    def __init__(self, points, weights, degree):
        self.points = np.asarray(points, dtype=float).reshape(-1, 2)
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        self.degree = int(degree)
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("node/weight count mismatch")

    def __len__(self):
        return self.weights.shape[0]


def conical_product_rule(n):
    """Tensor Gauss rule mapped to the triangle, exact through degree 2n-1.

    The collapsed-square substitution x = u, y = v(1-u) turns the
    triangle integral into a square integral with the extra factor
    (1-u), which a Gauss-Jacobi rule with weight (1-u) absorbs; the v
    direction uses plain Gauss-Legendre.  n*n nodes, all interior.
    """
    # Imported here, not at module load: only this rule needs it.
    from scipy.special import roots_jacobi, roots_legendre

    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    xl, wl = roots_legendre(n)
    u = 0.5 * (xj + 1.0)
    wu = 0.25 * wj
    v = 0.5 * (xl + 1.0)
    wv = 0.5 * wl
    pts = np.empty((n * n, 2))
    pts[:, 0] = np.repeat(u, n)
    pts[:, 1] = np.tile(v, n) * (1.0 - pts[:, 0])
    w = 2.0 * np.repeat(wu, n) * np.tile(wv, n)
    return QuadratureRule(pts, w, 2 * n - 1)


# conical_product_rule(4), node (x, y) and weight per row, as written by
# float.hex, so rule_for_degree(6) needs no Gauss-Jacobi roots.
_DEGREE6 = tuple(tuple(map(float.fromhex, row)) for row in (
    ('0x1.d3cc2dd8d6d38p-5', '0x1.0c271e894c956p-4', '0x1.8224e6a7151e8p-5'),
    ('0x1.d3cc2dd8d6d38p-5', '0x1.3ea1eb9e41886p-2', '0x1.69f6d8c594c28p-4'),
    ('0x1.d3cc2dd8d6d38p-5', '0x1.4372475351ce9p-1', '0x1.69f6d8c594c28p-4'),
    ('0x1.d3cc2dd8d6d38p-5', '0x1.c13e595149001p-1', '0x1.8224e6a7151e8p-5'),
    ('0x1.1b7cbc26ceaaep-2', '0x1.9b5242a3deef4p-5', '0x1.21e628494f1aep-4'),
    ('0x1.1b7cbc26ceaaep-2', '0x1.e8c0a0e63f095p-3', '0x1.0fbef3e756288p-3'),
    ('0x1.1b7cbc26ceaaep-2', '0x1.f022f36611d07p-2', '0x1.0fbef3e756288p-3'),
    ('0x1.1b7cbc26ceaaep-2', '0x1.588c7dc25abb9p-1', '0x1.21e628494f1aep-4'),
    ('0x1.2acc5d7a90e51p-1', '0x1.d9b2120cfd1b0p-6', '0x1.72045e450ed82p-5'),
    ('0x1.2acc5d7a90e51p-1', '0x1.196f2ff0d4344p-3', '0x1.5ad8d6848fc3dp-4'),
    ('0x1.2acc5d7a90e51p-1', '0x1.1dafad12741bcp-2', '0x1.5ad8d6848fc3dp-4'),
    ('0x1.2acc5d7a90e51p-1', '0x1.8ccc23ea0e643p-2', '0x1.72045e450ed82p-5'),
    ('0x1.b8716522b33bep-1', '0x1.3df93fe2422eep-7', '0x1.636aa1ecadb8dp-7'),
    ('0x1.b8716522b33bep-1', '0x1.79d5031a4b734p-5', '0x1.4d2927a8e16e4p-6'),
    ('0x1.b8716522b33bep-1', '0x1.7f8a555d40676p-4', '0x1.4d2927a8e16e4p-6'),
    ('0x1.b8716522b33bep-1', '0x1.0a5ad7770eed9p-3', '0x1.636aa1ecadb8dp-7'),
))


def rule_for_degree(d):
    """Reference-triangle rule for a supported exactness degree.

    d = 0 or 1 gives the one-point centroid rule (exact on linears),
    d = 2 the three-point edge-midpoint rule with weights 1/3, and
    d = 6 the 16-point conical-product Gauss rule conical_product_rule(4)
    (exact through 7), from a table.
    """
    if d in (0, 1):
        return QuadratureRule([[1.0 / 3.0, 1.0 / 3.0]], [1.0], 1)
    if d == 2:
        pts = [[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]
        return QuadratureRule(pts, [1.0 / 3.0] * 3, 2)
    if d == 6:
        return QuadratureRule([row[:2] for row in _DEGREE6],
                              [row[2] for row in _DEGREE6], 7)
    raise ValueError("unsupported quadrature degree %r" % (d,))


def integrate(f, tri, rule):
    """|T| * sum_k w_k f(q_k) on the physical triangle tri ((3, 2) vertices).

    f is called once with the mapped nodes, shape (K, 2), and must
    return one value per node.
    """
    tri = np.asarray(tri, dtype=float).reshape(3, 2)
    a = tri[0]
    m = np.column_stack([tri[1] - a, tri[2] - a])
    area = 0.5 * abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    pts = rule.points @ m.T + a
    vals = np.asarray(f(pts), dtype=float).reshape(-1)
    return area * float(rule.weights @ vals)
