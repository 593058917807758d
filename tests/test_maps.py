import pickle

import pytest
from hypothesis import given, strategies as st

from syrdyn.errors import (
    DescriptorParseError,
    DomainError,
    GcdViolation,
    InvalidDescriptor,
    NonIntegerBranch,
    NonPositiveImage,
)
import syrdyn.maps as maps_module
from syrdyn.maps import (
    MapDescriptor,
    PxrDescriptor,
    collatz,
    parse_descriptor,
    preimage_levels,
    pxr,
    validate,
)

D3_TEXT = "d=3;m0=1,r0=0;m1=2,r1=1;m2=2,r2=2"


def brute_preimage(desc, y, hi):
    return [x for x in range(1, hi + 1) if desc.apply(x) == y]


class TestValidate:
    def test_collatz_is_valid(self):
        validate(MapDescriptor(2, ((1, 0), (3, 1))))

    def test_parity_violation(self):
        with pytest.raises(NonIntegerBranch):
            validate(MapDescriptor(2, ((1, 0), (3, 2))))

    def test_gcd_violation(self):
        with pytest.raises(GcdViolation):
            validate(MapDescriptor(2, ((2, 0), (3, 1))))

    def test_non_positive_image(self):
        # x=1 would land at (3*1-5)/2 = -1
        with pytest.raises(NonPositiveImage):
            validate(MapDescriptor(2, ((1, 0), (3, -5))))

    def test_three_x_minus_one_is_fine(self):
        # x=1 -> exactly 1, still on the domain
        assert pxr(3, -1).apply(1) == 1

    def test_bad_modulus(self):
        with pytest.raises(InvalidDescriptor):
            validate(MapDescriptor(1, ((1, 0),)))

    def test_branch_count_mismatch(self):
        with pytest.raises(InvalidDescriptor):
            validate(MapDescriptor(3, ((1, 0), (3, 1))))

    def test_d3_integrality_convention(self):
        # on class 1 with m=2, the offset must be -2 = 1 (mod 3); offset 2 leaves
        # (2*1+2)/3 fractional even though 2 = 1*2 (mod 3)
        with pytest.raises(NonIntegerBranch):
            validate(MapDescriptor(3, ((1, 0), (2, 2), (2, 2))))
        validate(parse_descriptor(D3_TEXT))


class TestPxrDescriptor:
    def test_collatz_equivalence(self):
        assert PxrDescriptor(3, 1).to_map_descriptor() == collatz()

    def test_rejects_even_p(self):
        with pytest.raises(InvalidDescriptor):
            PxrDescriptor(4, 1)

    def test_rejects_even_r(self):
        with pytest.raises(InvalidDescriptor):
            PxrDescriptor(5, 2)

    def test_rejects_large_r(self):
        with pytest.raises(InvalidDescriptor):
            PxrDescriptor(5, 7)

    def test_rejects_shared_factor(self):
        with pytest.raises(InvalidDescriptor):
            PxrDescriptor(9, 3)


class TestApply:
    def test_collatz_odd(self):
        assert collatz().apply(3) == 5

    def test_collatz_even(self):
        assert collatz().apply(8) == 4

    def test_five_x_plus_one(self):
        assert pxr(5, 1).apply(1) == 3

    def test_domain_errors(self):
        c = collatz()
        for bad in (0, -3, 2.0, "5", True):
            with pytest.raises(DomainError):
                c.apply(bad)


class TestPreimage:
    def test_multiple_of_three(self):
        assert collatz().preimage(6) == [12]

    def test_class_one(self):
        assert collatz().preimage(4) == [8]

    def test_class_two_has_both(self):
        assert collatz().preimage(5) == [3, 10]

    def test_empty_allowed(self):
        # 5x+1: 2y-1 = 5 has x=1 odd ok; pick y with neither branch landing
        assert pxr(7, 1).preimage(2) == [4]
        assert collatz().preimage(1) == [2]

    def test_formula_suite_small(self):
        c = collatz()
        for p in range(1, 2001):
            assert c.preimage(3 * p) == [6 * p]
            assert c.preimage(3 * p + 1) == [6 * p + 2]
            assert c.preimage(3 * p + 2) == [2 * p + 1, 6 * p + 4]

    @pytest.mark.parametrize("text", ["collatz", "pxr:p=5,r=1", "pxr:p=5,r=-3", D3_TEXT])
    def test_against_brute_force(self, text):
        desc = parse_descriptor(text)
        hi = desc.d * 300 + desc.d
        for y in range(1, 301):
            assert desc.preimage(y) == brute_preimage(desc, y, hi)

    def test_cardinality_at_most_d(self):
        d3 = parse_descriptor(D3_TEXT)
        for y in range(1, 500):
            assert len(d3.preimage(y)) <= 3


class TestParse:
    def test_named_form(self):
        assert parse_descriptor("collatz") == collatz()

    def test_pxr_form(self):
        assert parse_descriptor("pxr:p=5,r=3") == pxr(5, 3)
        assert parse_descriptor("pxr:p=5,r=-3") == pxr(5, -3)

    def test_general_form(self):
        desc = parse_descriptor("d=2;m0=1,r0=0;m1=7,r1=1")
        assert desc == pxr(7, 1)

    def test_to_text_round_trip(self):
        for text in ["collatz", "pxr:p=181,r=1", D3_TEXT]:
            desc = parse_descriptor(text)
            assert parse_descriptor(desc.to_text()) == desc

    def test_error_positions(self):
        with pytest.raises(DescriptorParseError) as exc:
            parse_descriptor("bogus")
        assert exc.value.position == 0
        with pytest.raises(DescriptorParseError) as exc:
            parse_descriptor("pxr:p=5,r=")
        assert exc.value.position == 10
        with pytest.raises(DescriptorParseError) as exc:
            parse_descriptor("d=2;m0=1")
        assert exc.value.position == 8
        with pytest.raises(DescriptorParseError) as exc:
            parse_descriptor("collatz ")
        assert exc.value.position == 7

    def test_trailing_garbage(self):
        with pytest.raises(DescriptorParseError):
            parse_descriptor("pxr:p=5,r=1x")

    def test_invalid_values_rejected(self):
        with pytest.raises(DescriptorParseError):
            parse_descriptor("pxr:p=4,r=1")
        with pytest.raises(GcdViolation):
            parse_descriptor("d=2;m0=2,r0=0;m1=3,r1=1")

    def test_non_string(self):
        with pytest.raises(DescriptorParseError):
            parse_descriptor(None)


def test_descriptor_pickles():
    desc = pxr(5, 1)
    again = pickle.loads(pickle.dumps(desc))
    assert again == desc
    assert again.apply(7) == desc.apply(7)


def test_is_collatz_flag():
    assert collatz().is_collatz
    assert not pxr(5, 1).is_collatz
    assert not parse_descriptor(D3_TEXT).is_collatz


@given(st.integers(min_value=1, max_value=10**6))
def test_round_trip_collatz(x):
    c = collatz()
    assert x in c.preimage(c.apply(x))


@given(st.integers(min_value=1, max_value=10**6),
       st.sampled_from([(5, 1), (7, 1), (5, 3), (5, -3), (181, 1)]))
def test_round_trip_pxr(x, pr):
    desc = pxr(*pr)
    assert x in desc.preimage(desc.apply(x))


@given(st.integers(min_value=1, max_value=10**6))
def test_round_trip_d3(x):
    d3 = parse_descriptor(D3_TEXT)
    assert x in d3.preimage(d3.apply(x))


class TestPreimageLevels:
    def test_levels_ascend_and_skip(self):
        levels = list(preimage_levels(collatz(), [1], 3, 1, "tree", skip={2}))
        assert levels == []  # 1's only preimage is 2
        levels = list(preimage_levels(collatz(), [8], 2, 1, "tree"))
        assert levels == [[(5, 8), (16, 8)], [(3, 5), (10, 5), (32, 16)]]

    def test_one_cap_refuses_tree_and_measure_at_the_crossing_level(self, capsys, monkeypatch):
        from syrdyn.chains import build_preimage_tree
        from syrdyn.cli import main
        from syrdyn.measure import build_forest
        from syrdyn.trajectory import CycleInfo

        cap = len(build_forest(collatz(), [CycleInfo((1, 2))], 8).covered)
        tree_levels = [n.level for n in build_preimage_tree(collatz(), 1, 12).nodes]
        crossing = tree_levels[cap]  # the level of the first node past the cap
        monkeypatch.setattr(maps_module, "_MAX_FOREST_NODES", cap)
        for argv, level, noun in (
            (["measure", "collatz", "--cycle-bound", "1", "--trials", "1", "--depth"], 9, "forest"),
            (["tree", "collatz", "--root", "1", "--depth"], crossing, "tree"),
        ):
            assert main(argv + [str(level - 1)]) == 0
            capsys.readouterr()
            assert main(argv + [str(level)]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: {noun} level {level} would take the {noun} to ")
            assert f"above the cap of {cap};" in err
