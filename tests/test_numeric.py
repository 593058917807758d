import pytest
from hypothesis import given, strategies as st

from syrdyn.numeric import DyadicRational, mass_fields


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
    def test_str_form(self):
        assert str(dr(3, 6)) == "3/2^6"
        assert str(dr(5, 0)) == "5"
        assert str(DyadicRational.zero()) == "0"

    def test_decimal_str(self):
        assert mass_fields(1, 2) == ("1/2^2", "1", "0.25")
        assert mass_fields(5, 6)[2] == "0.078125"
        assert mass_fields(7, 0) == ("7", "1", "7")
        # no decimal past 2^-64, nor with an odd part in the denominator
        assert mass_fields(2, 65)[:2] == ("1/2^64", "1") and mass_fields(2, 65)[2] is not None
        assert mass_fields(1, 65)[2] is None
        assert mass_fields(3, 2, 10) == ("3/2^3", "5", None)


small = st.integers(min_value=0, max_value=2**40)
exps = st.integers(min_value=0, max_value=60)
dyadics = st.builds(DyadicRational, small, exps)


@given(dyadics)
def test_canonical_unique(a):
    # same value rebuilt from raw parts lands on the same representation
    again = DyadicRational(a.num * 8, a.exp + 3)
    assert (again.num, again.exp) == (a.num, a.exp)
    assert a.num == 0 or a.num % 2 == 1 or a.exp == 0


@given(dyadics, dyadics)
def test_cmp_matches_cross_multiplication(a, b):
    # equality of canonical forms is equality of the values
    lhs = a.num << max(0, b.exp - a.exp)
    rhs = b.num << max(0, a.exp - b.exp)
    assert (a == b) == (lhs == rhs)
    assert lhs != rhs or hash(a) == hash(b)
