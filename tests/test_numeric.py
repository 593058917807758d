from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from syrdyn.numeric import DyadicRational


def dr(num, exp=0):
    return DyadicRational(num, exp)


class TestCanonicalForm:
    def test_even_numerator_reduces(self):
        x = dr(4, 3)  # 4/8 = 1/2
        assert (x.num, x.exp) == (1, 1)

    def test_zero_is_zero_over_one(self):
        assert (dr(0, 7).num, dr(0, 7).exp) == (0, 0)

    def test_integer_stays_integer(self):
        assert (dr(6, 0).num, dr(6, 0).exp) == (6, 0)

    def test_odd_numerator_untouched(self):
        assert (dr(5, 9).num, dr(5, 9).exp) == (5, 9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dr(-1, 2)
        with pytest.raises(ValueError):
            dr(1, -2)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            DyadicRational(1.5, 2)
        with pytest.raises(TypeError):
            DyadicRational(True, 0)


class TestCompare:
    def test_half_equals_half(self):
        assert dr(1, 1) == dr(2, 2)
        assert hash(dr(1, 1)) == hash(dr(2, 2))


class TestScalingAndStrings:
    def test_mul_pow2_round_trip(self):
        x = dr(13, 3)
        assert x.mul_pow2(-5) == dr(13, 8)
        assert x.mul_pow2(-5).mul_pow2(5) == x
        assert x.mul_pow2(5) == dr(13 * 4, 0)

    def test_str_form(self):
        assert str(dr(3, 6)) == "3/2^6"
        assert str(dr(5, 0)) == "5"
        assert str(DyadicRational.zero()) == "0"

    def test_decimal_str(self):
        assert dr(1, 2).decimal_str() == "0.25"
        assert dr(5, 6).decimal_str() == "0.078125"
        assert dr(7, 0).decimal_str() == "7"


small = st.integers(min_value=0, max_value=2**40)
exps = st.integers(min_value=0, max_value=60)
dyadics = st.builds(DyadicRational, small, exps)


def value(a):
    return Fraction(a.num, 1 << a.exp)


@given(dyadics)
def test_canonical_unique(a):
    # same value rebuilt from raw parts lands on the same representation
    again = DyadicRational(a.num * 8, a.exp + 3)
    assert (again.num, again.exp) == (a.num, a.exp)
    assert a.num == 0 or a.num % 2 == 1 or a.exp == 0


@given(dyadics, st.integers(min_value=0, max_value=12))
def test_scale_then_sum_restores(a, k):
    # 2^k copies of a * 2^-k add up to a, exactly
    scaled = a.mul_pow2(-k)
    assert value(scaled) * 2**k == value(a)
    assert scaled.mul_pow2(k) == a


@given(dyadics, dyadics)
def test_cmp_matches_cross_multiplication(a, b):
    # equality of canonical forms is equality of the values
    lhs = a.num << max(0, b.exp - a.exp)
    rhs = b.num << max(0, a.exp - b.exp)
    assert (a == b) == (lhs == rhs)
    assert lhs != rhs or hash(a) == hash(b)
