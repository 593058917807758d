import math
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

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


class TestPxr:
    def test_collatz_equivalence(self):
        assert pxr(3, 1) == MapDescriptor(2, ((1, 0), (3, 1))) == collatz()

    def test_rejects_even_p(self):
        with pytest.raises(InvalidDescriptor, match="p must be an odd integer >= 3, got 4"):
            pxr(4, 1)

    def test_rejects_even_r(self):
        with pytest.raises(InvalidDescriptor, match="r must be odd, got 2"):
            pxr(5, 2)

    def test_rejects_large_r(self):
        with pytest.raises(InvalidDescriptor, match=r"need \|r\| < p, got r=7, p=5"):
            pxr(5, 7)

    def test_rejects_shared_factor(self):
        with pytest.raises(InvalidDescriptor, match=r"got gcd\(3, 9\) != 1"):
            pxr(9, 3)


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


@pytest.mark.parametrize("call, error, message", [
    (lambda: collatz().preimage(0), DomainError, "map codomain is the positive integers, got 0"),
    (lambda: validate(MapDescriptor(2, ((1, 0), (3.0, 1)))), InvalidDescriptor,
     "branch 1 entries must be ints"),
    (lambda: parse_descriptor("d=2;m0=0,r0=0;m1=1,r1=1"), InvalidDescriptor,
     "branch 0 multiplier must be positive, got 0"),
    (lambda: pxr(5.0, 1), InvalidDescriptor, "p and r must be ints"),
    (lambda: pxr(5, "1"), InvalidDescriptor, "p and r must be ints"),
    (lambda: parse_descriptor("d=1;m0=1,r0=0"), DescriptorParseError,
     "modulus must be >= 2, got 1 (at position 2)"),
    (lambda: parse_descriptor("d=2;m0=1,r0=0;m1=3,r1=1x"), DescriptorParseError,
     "unexpected trailing text (at position 23)"),
])
def test_refusals_name_their_input(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


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


def reference_levels(desc, level, depth, skip):
    """The closure from one MapDescriptor.preimage call per node, read the way preimage_levels is."""
    for _ in range(depth):
        staged = sorted((q, v) for v in level for q in desc.preimage(v) if q not in skip)
        if not staged:
            return
        yield staged
        level = [q for q, _v in staged]


@st.composite
def validated_maps(draw, max_d=3):
    """Validated tables with 2 <= d <= max_d: offsets of either sign, any multiplier coprime to d.

    Every draw is valid, so none is filtered out: r = k*d - m*i makes branch
    i divide exactly, and its smallest x >= 1 (i, or d for i = 0) goes to k,
    or to m + k for i = 0, which must be at least 1.  Multipliers stay below
    14, so |r| <= 13*4 + 6*5 = 82 up to max_d = 5.
    """
    d = draw(st.sampled_from(range(2, max_d + 1)))
    branches = []
    for i in range(d):
        m = draw(st.sampled_from([m for m in range(1, 14) if math.gcd(m, d) == 1]))
        k = draw(st.integers(max(1 - m if i == 0 else 1, -6), 6))
        branches.append((m, k * d - m * i))
    return validate(MapDescriptor(d, tuple(branches)))


@settings(max_examples=200, deadline=None)
@given(desc=validated_maps(), root=st.integers(1, 3000), depth=st.integers(0, 8),
       grow=st.booleans(), data=st.data())
@example(desc=collatz(), root=1, depth=8, grow=False, data=None)
@example(desc=pxr(5, -3), root=7, depth=8, grow=True, data=None)
def test_preimage_levels_equals_the_preimage_closure(desc, root, depth, grow, data):
    # skip is drawn from the unskipped closure, so it removes real nodes; with
    # grow the caller adds each level to it, as build_forest does
    full = [q for staged in reference_levels(desc, [root], depth, ()) for q, _v in staged]
    skip = set(data.draw(st.lists(st.sampled_from(full), max_size=4))) if data and full else set()
    ref_skip = set(skip)
    got = preimage_levels(desc, [root], depth, 1, "tree", skip)
    for staged, ref in zip(got, reference_levels(desc, [root], depth, ref_skip), strict=True):
        assert staged == ref
        if grow:
            skip.update(q for q, _v in staged)
            ref_skip.update(q for q, _v in ref)


@given(desc=validated_maps(max_d=5), y=st.integers(1, 10**6))
def test_preimage_table_is_the_division_rule(desc, y):
    # y = t (mod m) is exactly the exact division of d*y - r by m
    assert len(desc.preimage_table) == desc.d
    for (m, r), (tm, tr, t) in zip(desc.branches, desc.preimage_table, strict=True):
        assert (tm, tr) == (m, r) and 0 <= t < m
        assert (y % m == t) == ((desc.d * y - r) % m == 0)


@given(desc=validated_maps(max_d=5), y=st.integers(1, 300))
def test_preimage_equals_brute_force_on_drawn_maps(desc, y):
    # a preimage is (d*y - r)/m <= d*y + 82, so d*y + 100 bounds the search
    assert desc.preimage(y) == brute_preimage(desc, y, desc.d * y + 100)


def test_preimage_table_is_cached_outside_the_fields():
    fresh, used = pxr(5, -3), pxr(5, -3)
    assert used.preimage_table == ((1, 0, 0), (5, -3, 1))
    assert used.preimage_table is used.preimage_table
    assert fresh == used and hash(fresh) == hash(used) and repr(fresh) == repr(used)
    again = pickle.loads(pickle.dumps(used))
    assert again == fresh and again.preimage(1) == fresh.preimage(1) == [1, 2]  # 1 is a fixed point


@pytest.mark.parametrize("desc, root, depth, size", [
    (collatz(), 1, 30, 34_450),
    (parse_descriptor(D3_TEXT), 2, 14, 32_766),
    (pxr(5, 1), 4, 24, 814),
    (pxr(7, -5), 1, 24, 1154),
])
def test_preimage_levels_equals_the_preimage_closure_deep(desc, root, depth, size):
    # far past the property's depth of 8, where every branch's class recurs
    got = list(preimage_levels(desc, [root], depth, 1, "tree"))
    assert got == list(reference_levels(desc, [root], depth, ()))
    assert sum(map(len, got)) == size


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


PX_MAPS = [(p, r) for p in (3, 5, 7, 9, 11) for r in range(2 - p, p, 2) if math.gcd(p, r) == 1]
TABLE_MAPS = [collatz(), *(pxr(p, r) for p, r in PX_MAPS), parse_descriptor(D3_TEXT)]


def k_steps(desc, x):
    """x and the class_steps points after it, one MapDescriptor.apply call each."""
    points = [x]
    for _ in range(desc.class_steps):
        points.append(desc.apply(points[-1]))
    return points


def check_class_table(desc, rng):
    size = desc.d ** desc.class_steps
    assert len(desc.class_levels[-1]) == size
    for a in range(size):
        q0, slope, offset, am, ab = desc.class_entry(a, desc.class_steps)
        for q in {q0, q0 + 1, rng.randrange(q0, q0 + 10**6), rng.randrange(q0, q0 + 10**30)}:
            if a + size * q >= 1:
                points = k_steps(desc, a + size * q)
                assert points[-1] == am * q + ab, (a, q)  # the landing
                assert max(points[1:]) == slope * q + offset, (a, q)  # the largest point


def test_class_steps_is_the_largest_power_within_256():
    assert [MapDescriptor(d, ()).class_steps for d in (2, 3, 4, 5, 16, 17, 256, 257)] == [
        8, 5, 4, 3, 2, 1, 1, 0]


@pytest.mark.parametrize("desc", TABLE_MAPS, ids=lambda desc: desc.to_text())
def test_class_table_is_k_map_steps(desc):
    # every entry against K calls of apply, at its threshold Q, just past it
    # and at random q >= Q: the landing and the largest of the K points
    check_class_table(desc, random.Random(desc.to_text()))


@settings(max_examples=30, deadline=None)
@given(desc=validated_maps(max_d=5), seed=st.integers(0, 2**32))
def test_class_table_is_k_map_steps_on_drawn_maps(desc, seed):
    check_class_table(desc, random.Random(seed))


def test_class_entries_are_filled_on_use_outside_the_fields():
    # an entry fills the entries it rests on, one a level, and no other
    fresh, used = pxr(5, 1), pxr(5, 1)
    entry = used.class_entry(7, 8)
    assert used.class_entry(7, 8) is entry and used.class_levels[8][7] is entry
    assert [sum(e is not None for e in level) for level in used.class_levels[1:]] == [1] * 8
    assert "class_levels" in used.__dict__ and "class_levels" not in fresh.__dict__
    assert fresh == used and hash(fresh) == hash(used) and repr(fresh) == repr(used)
    assert pickle.loads(pickle.dumps(used)).class_levels == used.class_levels
    assert fresh.class_entry(7, 8) == entry


@pytest.mark.parametrize("desc", TABLE_MAPS, ids=lambda desc: desc.to_text())
def test_a_step_never_falls_below_x_over_d(desc):
    # validate keeps r_i >= -(m_i - 1)*d, so d*T(x) >= x for x >= d: the range
    # engine's jumps from above last*d^K pass only points above last
    for x in range(desc.d, 100 * desc.d):
        assert desc.d * desc.apply(x) >= x, x


@given(desc=validated_maps(max_d=5), x=st.integers(1, 10**12))
def test_a_step_never_falls_below_x_over_d_on_drawn_maps(desc, x):
    if x >= desc.d:
        assert desc.d * desc.apply(x) >= x
