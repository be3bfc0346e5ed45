"""Reference-triangle quadrature rules and the quadrature error functional."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdlm
from fdlm.quadrature import (QuadratureRule, conical_product_rule, integrate,
                             rule_for_degree)


def reference_monomial_integral(a, b):
    """int over the unit triangle of x^a y^b = a! b! / (a+b+2)!."""
    return (math.factorial(a) * math.factorial(b)
            / math.factorial(a + b + 2))


def apply_rule(rule, f):
    """Reference-triangle quadrature: |T| Sum w f(q) with |T| = 1/2."""
    vals = np.array([f(q[0], q[1]) for q in rule.points])
    return 0.5 * float(rule.weights @ vals)


@pytest.mark.parametrize("degree", [0, 1, 2, 6])
def test_weights_sum_to_one(degree):
    rule = rule_for_degree(degree)
    np.testing.assert_allclose(rule.weights.sum(), 1.0, atol=1e-14)


@pytest.mark.parametrize("degree", [0, 1, 2, 6])
def test_nodes_inside_reference_triangle(degree):
    rule = rule_for_degree(degree)
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert np.all(x >= -1e-15)
    assert np.all(y >= -1e-15)
    assert np.all(x + y <= 1 + 1e-15)


@pytest.mark.parametrize("degree", [0, 1, 2, 6])
def test_monomial_exactness(degree):
    """Every monomial up to the declared degree integrates exactly."""
    rule = rule_for_degree(degree)
    for a in range(rule.degree + 1):
        for b in range(rule.degree + 1 - a):
            got = apply_rule(rule, lambda x, y: x ** a * y ** b)
            want = reference_monomial_integral(a, b)
            np.testing.assert_allclose(got, want, rtol=1e-13,
                                       err_msg="monomial x^%d y^%d" % (a, b))


def test_degree2_on_x_squared():
    rule = rule_for_degree(2)
    assert apply_rule(rule, lambda x, y: x * x) == pytest.approx(1.0 / 12.0,
                                                                 rel=1e-14)


def test_degree2_misses_cubics():
    """x^3 has exact integral 1/20; the degree-2 rule must miss it."""
    rule = rule_for_degree(2)
    got = apply_rule(rule, lambda x, y: x ** 3)
    assert abs(got - 1.0 / 20.0) > 1e-4


def test_centroid_rule_on_constants():
    rule = rule_for_degree(0)
    assert len(rule) == 1
    assert apply_rule(rule, lambda x, y: 3.25) == pytest.approx(3.25 * 0.5)


def test_unsupported_degree():
    with pytest.raises(ValueError):
        rule_for_degree(4)
    with pytest.raises(ValueError):
        rule_for_degree(-1)


def test_conical_product_degree():
    """The n-point-per-axis conical rule is exact to degree 2n-1."""
    for n in (2, 3, 4, 5):
        rule = conical_product_rule(n)
        assert rule.degree == 2 * n - 1
        assert len(rule) == n * n
        for a in range(rule.degree + 1):
            b = rule.degree - a
            got = apply_rule(rule, lambda x, y: x ** a * y ** b)
            np.testing.assert_allclose(got, reference_monomial_integral(a, b),
                                       rtol=1e-13)


def test_degree6_table_is_the_conical_rule():
    rule, conical = rule_for_degree(6), conical_product_rule(4)
    assert rule.degree == conical.degree == 7
    for got, want in ((rule.points, conical.points),
                      (rule.weights, conical.weights)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_cli_import_leaves_scipy_special_unloaded(tmp_path):
    # Only conical_product_rule needs scipy.special, so neither the
    # command line module nor a solve or run (degree-6 loads and norms)
    # pays its import.
    src = str(Path(fdlm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\n"
            "from fdlm.experiments_cli import cli_main\n"
            "cli_main(['solve', '--n-fluid', '8', '--n-solid', '4', "
            "'--out', 'solve.csv'])\n"
            "cli_main(['run', '--test', '1', '--levels', '2', "
            "'--out', 'run.csv'])\n"
            "print('scipy.special' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120,
                         cwd=tmp_path)
    assert (tmp_path / "solve.csv").stat().st_size > 0
    assert (tmp_path / "run.csv").stat().st_size > 0
    assert out.stdout.split()[-1] == "False"


def test_integrate_affine_invariance():
    """Physical integration equals reference integration times |det|/2... i.e.
    integrating a pulled-back function over a mapped triangle scales by area.
    """
    tri = np.array([[0.2, -0.3], [1.1, 0.1], [0.4, 0.9]])
    rule = rule_for_degree(6)
    got = integrate(lambda p: np.ones(p.shape[0]), tri, rule)
    area = 0.5 * abs(np.linalg.det(np.stack([tri[1] - tri[0],
                                             tri[2] - tri[0]])))
    np.testing.assert_allclose(got, area, rtol=1e-14)
    # quadratic integrand via both the degree-2 and degree-6 rules
    f = lambda p: (p[:, 0] - 2 * p[:, 1]) ** 2
    np.testing.assert_allclose(integrate(f, tri, rule_for_degree(2)),
                               integrate(f, tri, rule), rtol=1e-13)


class TestQuadErrorFunctional:
    """E_T(f) = int_T f - |T| sum_k w_k f(q_k), the per-element error."""

    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def test_quadratic_is_exact(self):
        # int_T x y = 1/24 and int_T x^2 = 1/12 on the reference triangle
        f = lambda p: p[:, 0] * p[:, 1] + 2 * p[:, 0] ** 2
        np.testing.assert_allclose(
            integrate(f, self.triangle, rule_for_degree(2)), 5.0 / 24.0,
            rtol=1e-14)

    def test_zero_function(self):
        f = lambda p: np.zeros(p.shape[0])
        for d in (0, 2, 6):
            assert integrate(f, self.triangle, rule_for_degree(d)) == 0.0

    def test_kinked_integrand_error(self):
        """A piecewise-linear kink across the element is not integrated
        exactly by the single degree-2 rule, while the rule on the pieces
        split at the kink gives the exact value.
        """
        f = lambda p: np.maximum(p[:, 0] - 0.4, 0.0)
        left = [np.array([[0.0, 0.0], [0.4, 0.0], [0.4, 0.6]]),
                np.array([[0.0, 0.0], [0.4, 0.6], [0.0, 1.0]])]
        right = [np.array([[0.4, 0.0], [1.0, 0.0], [0.4, 0.6]])]
        rule2 = rule_for_degree(2)
        # int_0^0.6 t (0.6 - t) dt = 0.036
        exact = sum(integrate(f, t, rule2) for t in left + right)
        np.testing.assert_allclose(exact, 0.036, rtol=1e-13)
        assert abs(exact - integrate(f, self.triangle, rule2)) > 1e-4

    def test_oracle_rule_form(self):
        """The degree-6 rule is an accurate oracle for the error of a
        low-order rule: int_T exp(x) = e - 2."""
        f = lambda p: np.exp(p[:, 0])
        oracle = integrate(f, self.triangle, rule_for_degree(6))
        np.testing.assert_allclose(oracle, math.e - 2.0, rtol=1e-9)
        drop = oracle - integrate(f, self.triangle, rule_for_degree(0))
        assert abs(drop) > 1e-2


def test_rule_is_immutable_constant():
    r1 = rule_for_degree(2)
    r2 = rule_for_degree(2)
    np.testing.assert_array_equal(r1.points, r2.points)
    assert not r1.points.flags.writeable or r1.points is not r2.points
