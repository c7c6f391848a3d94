from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from klmatroids.exactarith import IntPoly, binomial, parity_sign, poly_reverse

from oracles import pascal


def test_binomial_conventions():
    assert binomial(5, 1) == 5
    assert binomial(4, 7) == 0
    assert binomial(11, 5) == 462  # frozen from the Pascal oracle
    assert binomial(11, 5) == pascal(11, 5)
    assert binomial(-1, 0) == 0
    assert binomial(3, -2) == 0
    assert binomial(0, 0) == 1


@given(st.integers(min_value=0, max_value=80), st.integers(min_value=-5, max_value=85))
def test_binomial_pascal_recurrence(n, k):
    if n >= 1 and 0 <= k <= n:
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
    assert binomial(n, k) == pascal(n, k)


def test_parity_sign():
    assert parity_sign(0) == 1
    assert parity_sign(3) == -1
    assert parity_sign(-1) == -1
    assert parity_sign(-4) == 1


class TestIntPoly:
    def test_normalization_and_degree(self):
        assert IntPoly([0, 0]).is_zero()
        assert IntPoly([]).degree == -1
        assert IntPoly([1, 2, 0]).coeffs == (1, 2)
        assert IntPoly([5]).degree == 0

    @pytest.mark.parametrize("coeffs", [[1.9, 2.5], [Fraction(1, 2)], ["7"], [3, 2.0]])
    def test_refuses_non_integer_coefficients(self, coeffs):
        # int() would read these as 1 + 2t, 0, 7 and 3 + 2t
        with pytest.raises(TypeError):
            IntPoly(coeffs)

    def test_arithmetic(self):
        p = IntPoly([1, 2])
        q = IntPoly([2, -3, 1])
        assert p + q == IntPoly([3, -1, 1])
        assert p - p == IntPoly()
        assert p * q == IntPoly([2, 1, -5, 2])
        assert 3 * p == IntPoly([3, 6])
        assert (-p)(7) == -15

    def test_product_degree_adds(self):
        p = IntPoly([3, 0, 1])
        q = IntPoly([-2, 5])
        assert (p * q).degree == p.degree + q.degree

    def test_evaluation_is_exact(self):
        p = IntPoly([10**20, -1, 10**18])
        assert p(10**6) == 10**20 - 10**6 + 10**30

    def test_str(self):
        assert str(IntPoly([1, 2])) == "1 + 2t"
        assert str(IntPoly([2, -3, 1])) == "2 - 3t + t^2"
        assert str(IntPoly()) == "0"
        assert str(IntPoly([0, 0, -1])) == "-t^2"

    def test_reverse_examples(self):
        assert poly_reverse(IntPoly([1, 2]), 3) == IntPoly([0, 0, 2, 1])
        assert poly_reverse(IntPoly([1]), 0) == IntPoly([1])
        assert poly_reverse(IntPoly([2, -3, 1]), 2) == IntPoly([1, -3, 2])

    def test_reverse_rejects_large_degree(self):
        with pytest.raises(ValueError):
            poly_reverse(IntPoly([1, 1, 1]), 1)

    @given(st.lists(st.integers(min_value=-9, max_value=9), max_size=6))
    def test_reverse_involution(self, coeffs):
        p = IntPoly(coeffs)
        d = max(p.degree, 0) + 2
        assert poly_reverse(poly_reverse(p, d), d) == p

