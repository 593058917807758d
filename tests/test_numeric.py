import io
import json

import pytest
from hypothesis import given, strategies as st

from syrdyn.numeric import RECORDS, DyadicRational, batched, mass_fields, write_json


def dr(num, exp=0):
    return DyadicRational(num, exp)


def rendered(render, *args) -> str:
    """What render(*args, stream) writes, as one text."""
    stream = io.StringIO()
    assert render(*args, stream) is None
    return stream.getvalue()


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


# -- the one JSON writer -------------------------------------------------------


def _item(n):
    """Record n as json.dumps(indent=2) writes it as an item of a top-level value's array."""
    return f'{{\n      "n": "{n}"\n    }}'


@pytest.mark.parametrize("count", [0, 1, 2, 2047, 2048, 2049, 5000])
def test_write_json_splices_records_as_json_dumps_would(count):
    # record counts on both sides of a batch boundary, and an empty array
    envelope = {"map": "collatz", "nodes": RECORDS, "total": {"n": "1"}}
    want = json.dumps({**envelope, "nodes": [{"n": str(n)} for n in range(count)]}, indent=2)
    stream = io.StringIO()
    write_json(envelope, stream, batched(_item(n) for n in range(count)))
    assert stream.getvalue() == want + "\n"


def test_write_json_without_records_is_json_dumps():
    payload = {"map": "collatz", "cycles": [["1", "2"]], "count": 1, "empty": [], "none": None}
    assert rendered(write_json, payload) == json.dumps(payload, indent=2) + "\n"


def test_write_json_writes_a_batch_at_a_time():
    # each batch of records is one write, never the whole document at once
    class Writes(list):
        write = list.append

    stream = Writes()
    records = [_item(n) for n in range(5000)]
    write_json({"nodes": RECORDS}, stream, batched(records))
    # the head, then three batches of at most 2048 records with a separator between, then the tail
    assert len(stream) == 7
    assert stream[1] == ",\n    ".join(records[:2048]) and stream[2] == ",\n    "
    assert "".join(stream) == json.dumps({"nodes": [{"n": str(n)} for n in range(5000)]}, indent=2) + "\n"
