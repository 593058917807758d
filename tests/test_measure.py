import functools
import hashlib
import json
import math
import random
import time
import tracemalloc
from dataclasses import fields, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import syrdyn.maps as maps_module
import syrdyn.measure as measure_module
from syrdyn.cli import main
from syrdyn.errors import BoundViolation, InvalidParameters, OverlappingCycles, VerificationFailure
from syrdyn.maps import collatz, parse_descriptor, pxr
from syrdyn.measure import (
    MeasureAssignment,
    MeasureValue,
    PreimageForest,
    assign_measure,
    build_forest,
    check_power_bound,
    export_json,
    measure_of,
    power_bound_certificate,
)
from syrdyn.numeric import DyadicRational, dyadic_form, mass_fields
from syrdyn.partition import partition
from syrdyn.trajectory import CycleInfo, Limits, check_power_cycle, find_cycles
from test_maps import validated_maps
from test_numeric import rendered


def mv(num, exp, denom=1):
    return MeasureValue(DyadicRational(num, exp), denom)


def places(forest):
    """node -> (cycle index, level), read off forest.levels."""
    return {
        v: (ci, lvl)
        for ci, levels in enumerate(forest.levels)
        for lvl, level in enumerate(levels)
        for v in level
    }


def reference_children(forest):
    """node -> its children ascending: its map preimages on the next level.

    Read off desc.preimage and forest.levels, not off forest.parent, so the
    reference does not trust the links it checks.
    """
    desc = forest.descriptor
    kids = {}
    for levels in forest.levels:
        for level, below in zip(levels, levels[1:]):
            below = set(below)
            for v in level:
                kids[v] = sorted(q for q in desc.preimage(v) if q in below)
    return kids


def reference_local(forest):
    """Each covered node's cycle-local mass as a Fraction, from the construction rules.

    Built from the forest's levels and map preimages alone: 1/(2N) on the
    members of a cycle of length N, and m * 2^(-t-1) on the t-th child of a
    node of mass m.
    """
    kids = reference_children(forest)
    local = {}
    for cyc, levels in zip(forest.cycles, forest.levels):
        for v in levels[0]:
            local[v] = Fraction(1, 2 * cyc.length)
        for level in levels:
            for v in level:
                for t, q in enumerate(kids.get(v, ()), start=1):
                    local[q] = local[v] / 2 ** (t + 1)
    return local


def reference_combined(forest):
    """Cycle-local masses times the cycle weight 2^(-i-1), i 1-based."""
    where = places(forest)
    return {v: m / 2 ** (where[v][0] + 2) for v, m in reference_local(forest).items()}


def combined(asg, v):
    """The assignment's combined mass of v, read off its integer numerator."""
    return Fraction(asg.numerators[v], asg.denominator)


def local(asg, v):
    return combined(asg, v) * 2 ** (places(asg.forest)[v][0] + 2)


def as_fraction(value):
    return Fraction(value.dyadic.num, value.denom << value.dyadic.exp)


def parse(text):
    """'n', 'n/2^k' or 'n/2^k * 1/d' back into a Fraction."""
    dyadic, _, denom = text.partition(" * 1/")
    num, _, exp = dyadic.partition("/2^")
    return Fraction(int(num), int(denom or 1) << int(exp or 0))


def render(frac):
    """A Fraction in MeasureValue's canonical string form."""
    den = frac.denominator
    k = (den & -den).bit_length() - 1
    head = f"{frac.numerator}/2^{k}" if k else str(frac.numerator)
    return head if den >> k == 1 else f"{head} * 1/{den >> k}"


@pytest.fixture(scope="module")
def collatz_forest():
    return build_forest(collatz(), [CycleInfo((1, 2))], 15)


@pytest.fixture(scope="module")
def collatz_assignment(collatz_forest):
    return assign_measure(collatz_forest)


@pytest.fixture(scope="module")
def five_assignment():
    desc = pxr(5, 1)
    forest = build_forest(desc, find_cycles(desc, 1000), 10)
    return assign_measure(forest)


class TestMeasureValue:
    def test_even_denominator_folds_into_exponent(self):
        v = mv(1, 1, 4)  # 1/2 * 1/4 = 1/2^3
        assert v.dyadic == DyadicRational(1, 3) and v.denom == 1

    def test_mixed_denominator(self):
        v = mv(1, 1, 10)  # 1/20 = (1/4) * (1/5)
        assert v.dyadic == DyadicRational(1, 2) and v.denom == 5

    def test_odd_gcd_reduced(self):
        v = mv(3, 0, 9)
        assert v.dyadic == DyadicRational(1, 0) and v.denom == 3

    def test_add_unlike_denominators(self):
        # 1/10 + 1/14 as numerators 7 + 5 over the shared denominator 70 is 6/35
        s = MeasureValue(DyadicRational(7 + 5), 70)
        assert s.dyadic == DyadicRational(6, 0) and s.denom == 35

    def test_compare_cross_multiplied(self):
        # canonical forms make equality a field comparison; it must agree with
        # equality of the values, and equal values must hash alike
        assert mv(1, 1, 5) == mv(7, 1, 35)
        assert mv(1, 1, 5) != mv(1, 1, 7)
        grid = [(n, e, d) for n in range(7) for e in range(4) for d in (1, 2, 3, 6, 9, 10)]
        for a in grid:
            for b in grid:
                same = Fraction(a[0], a[2] << a[1]) == Fraction(b[0], b[2] << b[1])
                assert (mv(*a) == mv(*b)) == same
                assert not same or hash(mv(*a)) == hash(mv(*b))

    def test_zero(self):
        z = MeasureValue.zero()
        assert (z.dyadic, z.denom) == (DyadicRational(0, 0), 1)
        assert z == MeasureValue() == mv(0, 5, 9) and str(z) == "0"

    def test_str_and_json(self):
        assert str(mv(1, 2, 5)) == "1/2^2 * 1/5"
        assert str(mv(1, 4)) == "1/2^4"
        d = mv(1, 2).to_json_dict()
        assert d == {"dyadic": "1/2^2", "denom": "1", "decimal": "0.25"}
        assert mv(1, 2, 5).to_json_dict()["decimal"] is None

    def test_huge_exponent_builds_no_power_of_two(self):
        # a rule that built 2**exp would need 125 GB here
        tracemalloc.start()
        try:
            start = time.perf_counter()
            a = DyadicRational(3, 10**12)
            b = MeasureValue(DyadicRational(1, 10**12), 3)
            texts = (str(a), str(b), b.to_json_dict())
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (a.num, a.exp) == (3, 10**12)
        assert (b.dyadic, b.denom) == (DyadicRational(1, 10**12), 3)
        assert texts == ("3/2^1000000000000", "1/2^1000000000000 * 1/3",
                         {"dyadic": "1/2^1000000000000", "denom": "3", "decimal": None})
        assert elapsed < 1 and peak < 2**20


@settings(max_examples=300)
@given(
    num=st.integers(0, 2**80),
    exp=st.integers(0, 200),
    odd=st.one_of(st.just(1), st.integers(0, 10**6).map(lambda k: 2 * k + 1)),
    twos=st.integers(0, 80),
    scale=st.integers(0, 10**3).map(lambda k: 2 * k + 1),
)
def test_dyadic_form_is_the_one_canonical_form(num, exp, odd, twos, scale):
    den = odd << twos
    value = Fraction(num, den << exp)
    n, e, q = dyadic_form(num, exp, den)
    # lowest terms
    assert Fraction(n, q << e) == value
    assert q % 2 == 1 and math.gcd(n, q) == 1 and (e == 0 or n % 2 == 1)
    assert num or (n, e, q) == (0, 0, 1)
    # unique per value: other spellings of it reduce to the same form
    assert dyadic_form(value.numerator, 0, value.denominator) == (n, e, q)
    assert dyadic_form(num * scale << 3, exp + 2, den * scale << 1) == (n, e, q)
    # the texts are render()'s and parse back to the value
    dyadic, denom, decimal = mass_fields(num, exp, den)
    text = dyadic if denom == "1" else f"{dyadic} * 1/{denom}"
    assert text == render(value) and parse(text) == value and denom == str(q)
    if q == 1 and e <= 64:
        with localcontext() as ctx:
            ctx.prec = 200
            assert decimal == format(Decimal(value.numerator) / value.denominator, "f")
    else:
        assert decimal is None


class TestBuildForest:
    def test_level_progression(self, collatz_forest):
        levels = collatz_forest.levels[0]
        assert levels[0] == (1, 2)
        assert levels[1] == (4,)
        assert levels[2] == (8,)
        assert levels[3] == (5, 16)
        assert levels[4] == (3, 10, 32)
        assert levels[5] == (6, 20, 21, 64)
        assert levels[6] == (12, 13, 40, 42, 128)
        assert levels[7] == (24, 26, 80, 84, 85, 256)

    def test_parents_are_images(self, collatz_forest):
        c = collatz()
        for q, p in collatz_forest.parent.items():
            assert c.apply(q) == p

    def test_children_are_covered_preimages(self, collatz_forest):
        # parent is exactly the inverse of a fresh preimage computation on the
        # covered nodes off the cycle
        c = collatz()
        cycle_members = set(collatz_forest.cycles[0].members)
        expect = {
            q: v for v in collatz_forest.covered for q in c.preimage(v)
            if q in collatz_forest.covered and q not in cycle_members
        }
        assert collatz_forest.parent == expect

    def test_depth_zero(self):
        forest = build_forest(collatz(), [CycleInfo((1, 2))], 0)
        assert forest.covered == frozenset({1, 2})
        assert forest.levels[0] == ((1, 2),)

    def test_levels_disjoint(self, collatz_forest):
        seen = set()
        for level in collatz_forest.levels[0]:
            assert not seen.intersection(level)
            seen.update(level)

    def test_rejects_overlapping_cycles(self):
        # determinism forbids distinct overlapping cycles, so the realistic
        # overlap is the same cycle handed in twice
        with pytest.raises(OverlappingCycles):
            build_forest(collatz(), [CycleInfo((1, 2)), CycleInfo((1, 2))], 1)

    def test_rejects_fake_cycle(self):
        with pytest.raises(VerificationFailure):
            build_forest(collatz(), [CycleInfo((1, 3))], 1)

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameters):
            build_forest(collatz(), [], 1)
        with pytest.raises(InvalidParameters):
            build_forest(collatz(), [CycleInfo((1, 2))], -1)

    def test_multi_cycle_trees_disjoint(self, five_assignment):
        forest = five_assignment.forest
        assert len(forest.levels) == len(forest.cycles) > 1
        nodes = [v for levels in forest.levels for level in levels for v in level]
        assert len(nodes) == len(set(nodes))
        assert set(nodes) == forest.covered


class TestAssignMeasure:
    def test_cycle_members_quarter(self, collatz_assignment):
        assert local(collatz_assignment, 1) == local(collatz_assignment, 2) == Fraction(1, 4)

    def test_level_one_and_two(self, collatz_assignment):
        assert local(collatz_assignment, 4) == Fraction(1, 2**4)
        assert local(collatz_assignment, 8) == Fraction(1, 2**6)

    def test_level_three_split(self, collatz_assignment):
        assert local(collatz_assignment, 5) == Fraction(1, 2**8)
        assert local(collatz_assignment, 16) == Fraction(1, 2**9)

    def test_combined_is_per_cycle_over_four(self, collatz_assignment):
        assert combined(collatz_assignment, 4) == Fraction(1, 2**6)
        assert measure_of(collatz_assignment, {1, 2}) == mv(1, 3)

    def test_total_at_most_one(self, collatz_assignment, five_assignment):
        for asg in (collatz_assignment, five_assignment):
            assert sum(asg.numerators.values()) <= asg.denominator
            assert as_fraction(asg.total) == sum(reference_combined(asg.forest).values()) <= 1

    def test_cycle_local_half(self, collatz_assignment, five_assignment):
        # each mu_i gives its own cycle exactly 1/2
        for asg in (collatz_assignment, five_assignment):
            for cyc in asg.forest.cycles:
                assert sum(local(asg, m) for m in cyc.members) == Fraction(1, 2)

    def test_level_one_mass_at_most_quarter(self, five_assignment):
        forest = five_assignment.forest
        for levels in forest.levels:
            if len(levels) > 1:
                assert sum(local(five_assignment, v) for v in levels[1]) <= Fraction(1, 4)

    def test_children_sum_at_most_half_parent(self, collatz_assignment, five_assignment):
        # per-parent halving holds on every level, the cycle members included
        for asg in (collatz_assignment, five_assignment):
            for v, kids in reference_children(asg.forest).items():
                assert sum(local(asg, q) for q in kids) <= local(asg, v) / 2

    def test_level_totals_halve(self, collatz_assignment, five_assignment):
        for asg in (collatz_assignment, five_assignment):
            for levels in asg.forest.levels:
                sums = [sum(local(asg, v) for v in level) for level in levels]
                assert sums[0] == Fraction(1, 2)
                if len(sums) > 1:
                    assert sums[1] <= Fraction(1, 4)
                for prev, nxt in zip(sums[1:], sums[2:]):
                    assert nxt <= prev / 2

    def test_deterministic(self, collatz_forest):
        a = assign_measure(collatz_forest)
        b = assign_measure(collatz_forest)
        assert a.numerators == b.numerators and a.denominator == b.denominator
        assert a.total == b.total

    def test_fresh_five_cycle_values(self, five_assignment):
        # 5-cycle: each member carries 1/10 locally
        assert local(five_assignment, 1) == local(five_assignment, 8) == Fraction(1, 10)

    @pytest.mark.parametrize("which", ["collatz", "five", "seven", "six-cycle"])
    def test_every_node_matches_reference(self, which, collatz_assignment, five_assignment):
        # six-cycle: a cycle length with both an odd part and a factor of two
        if which == "collatz":
            asg = collatz_assignment
        elif which == "five":
            asg = five_assignment
        elif which == "seven":
            desc = pxr(7, 5)
            asg = assign_measure(build_forest(desc, find_cycles(desc, 1000), 9))
        else:
            asg = assign_measure(build_forest(pxr(63, 1), [check_power_cycle(6)], 6))
        ref = reference_combined(asg.forest)
        assert set(asg.numerators) == set(ref) == asg.forest.covered
        for v, mass in ref.items():
            assert combined(asg, v) == mass, v

    def test_only_integer_masses_are_stored(self, collatz_forest, monkeypatch):
        assert [f.name for f in fields(MeasureAssignment)] == ["forest", "numerators", "denominator"]
        built = []
        monkeypatch.setattr(MeasureValue, "__init__", lambda self, *a: built.append(a))
        monkeypatch.setattr(DyadicRational, "__init__", lambda self, *a: built.append(a))
        asg = assign_measure(collatz_forest)
        assert built == []
        assert all(type(n) is int for n in asg.numerators.values())

    def test_forest_node_data_is_its_levels_and_parent(self):
        # a node's cycle, level and children are its place in levels
        assert [f.name for f in fields(PreimageForest)] == [
            "descriptor", "cycles", "depth", "levels", "parent", "covered"]


class TestMeasureOf:
    def test_empty(self, collatz_assignment):
        assert measure_of(collatz_assignment, set()) == MeasureValue.zero()

    def test_uncovered_ignored(self, collatz_assignment):
        big = 10**9 + 7
        assert measure_of(collatz_assignment, {4, big}) == mv(1, 6)

    def test_total_matches_sum(self, five_assignment):
        assert measure_of(five_assignment, five_assignment.forest.covered) == five_assignment.total


class TestPowerBound:
    def test_no_violations_collatz(self, collatz_assignment):
        rep = check_power_bound(collatz_assignment, trials=200, max_n=10, seed=1729)
        assert rep.violations == 0
        assert rep.comparisons == 2000
        assert rep.worst_ratio is not None and rep.worst_ratio <= 2.0

    def test_no_violations_multi_cycle(self, five_assignment):
        rep = check_power_bound(five_assignment, trials=200, max_n=5, seed=1729)
        assert rep.violations == 0

    def test_exhaustive_singletons(self, collatz_assignment, five_assignment):
        # every singleton, every depth: the bound is not a sampling artifact
        for asg in (collatz_assignment, five_assignment):
            desc = asg.forest.descriptor
            covered = asg.forest.covered
            for v in sorted(covered):
                current = {v}
                bound = 2 * as_fraction(measure_of(asg, current))
                for _ in range(asg.forest.depth):
                    current = {q for y in current for q in desc.preimage(y) if q in covered}
                    assert as_fraction(measure_of(asg, current)) <= bound

    def test_contraction_off_cycle(self, collatz_assignment):
        asg = collatz_assignment
        desc = asg.forest.descriptor
        covered = asg.forest.covered
        cyc = set(asg.forest.cycles[0].members)
        off = sorted(covered - cyc)
        for lo in range(0, len(off), 7):
            a = set(off[lo:lo + 7])
            pre = {q for y in a for q in desc.preimage(y) if q in covered}
            assert as_fraction(measure_of(asg, pre)) <= as_fraction(measure_of(asg, a)) / 2

    def test_seeded_reports_identical(self, collatz_assignment):
        r1 = check_power_bound(collatz_assignment, trials=50, max_n=3, seed=7)
        r2 = check_power_bound(collatz_assignment, trials=50, max_n=3, seed=7)
        assert r1 == r2
        r3 = check_power_bound(collatz_assignment, trials=50, max_n=3, seed=8)
        assert r3.worst_ratio != r1.worst_ratio or r3.worst != r1.worst

    def test_comparison_cap(self, collatz_assignment, monkeypatch):
        monkeypatch.setattr(measure_module, "_MAX_COMPARISONS", 100)
        assert check_power_bound(collatz_assignment, trials=20, max_n=5, seed=1).comparisons == 100
        monkeypatch.setattr(random, "Random", None)  # refused before any draw
        for trials, max_n in ((21, 5), (101, 1), (10**12, 10)):
            with pytest.raises(InvalidParameters, match="cap of 100"):
                check_power_bound(collatz_assignment, trials=trials, max_n=max_n)

    @pytest.mark.parametrize("argv", [
        # a fixed point with no other preimage: the depth check cannot bound max_n
        ["measure", "d=2;m0=3,r0=0;m1=1,r1=1", "--depth", "2^40", "--cycle-bound", "1",
         "--trials", "1", "--max-n", "1099511627776"],
        ["measure", "collatz", "--depth", "8", "--trials", "100000000"],
    ])
    def test_cli_huge_sampling_exits_one_at_once(self, argv, capsys):
        t0 = time.perf_counter()
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "cap of 1048576" in err
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("seed", [-5, -1, 1.0, True, "5", None])
    def test_rejects_a_negative_or_non_int_seed(self, collatz_assignment, seed, monkeypatch):
        monkeypatch.setattr(random, "Random", None)  # refused before any draw
        with pytest.raises(InvalidParameters, match="seed must be a non-negative int"):
            check_power_bound(collatz_assignment, trials=1, max_n=1, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 1729, 2**31 - 1])
    @pytest.mark.parametrize("count", [1, 31, 32, 33, 206, 1137])
    def test_bulk_draw_is_the_per_node_draw(self, seed, count):
        # rests on how CPython's getrandbits lays out Mersenne Twister words
        bulk, single = random.Random(seed), random.Random(seed)
        assert list(measure_module._draw_mask(bulk, count)) == [
            single.getrandbits(1) for _ in range(count)]
        assert bulk.random() == single.random()

    def test_rejects_deep_max_n(self, collatz_assignment):
        with pytest.raises(InvalidParameters):
            check_power_bound(collatz_assignment, trials=1, max_n=99)
        with pytest.raises(InvalidParameters):
            check_power_bound(collatz_assignment, trials=0)


def test_export_shape(collatz_assignment):
    rep = check_power_bound(collatz_assignment, trials=10, max_n=2, seed=1)
    doc = json.loads(rendered(export_json, collatz_assignment, rep))
    assert doc["map"] == "d=2;m0=1,r0=0;m1=3,r1=1"
    assert doc["depth"] == 15
    assert doc["covered_nodes"] == len(collatz_assignment.forest.covered)
    assert doc["cycles"][0]["members"] == ["1", "2"]
    assert doc["cycles"][0]["weight"] == "1/2^2"
    assert doc["power_bound"]["violations"] == 0
    by_value = {n["value"]: n for n in doc["nodes"]}
    assert by_value["4"]["cycle_local"]["dyadic"] == "1/2^4"
    assert by_value["4"]["parent"] == "2"
    assert by_value["1"]["parent"] is None
    values = [int(n["value"]) for n in doc["nodes"]]
    assert values == sorted(values)
    no_rep = json.loads(rendered(export_json, collatz_assignment, None))
    assert no_rep["power_bound"] is None


def test_export_masses_match_reference(five_assignment):
    doc = json.loads(rendered(export_json, five_assignment, None))
    forest = five_assignment.forest
    local_ref, combined_ref = reference_local(forest), reference_combined(forest)
    for node in doc["nodes"]:
        v = int(node["value"])
        for key, ref in (("cycle_local", local_ref[v]), ("combined", combined_ref[v])):
            got = node[key]
            assert parse(got["dyadic"]) / int(got["denom"]) == ref
    for ci, cyc in enumerate(doc["cycles"]):
        got = cyc["cycle_local_total"]
        want = sum(local_ref[v] for level in forest.levels[ci] for v in level)
        assert parse(got["dyadic"]) / int(got["denom"]) == want
    total = doc["total"]
    assert parse(total["dyadic"]) / int(total["denom"]) == sum(combined_ref.values())


def reference_export_dict(assignment, report=None):
    """The measure document as a dict, the way it was built before the record templates."""
    forest = assignment.forest
    numerators, value = assignment.numerators, assignment.value
    where = places(forest)
    nodes = []
    for v in sorted(forest.covered):
        parent = forest.parent.get(v)
        ci, level = where[v]
        nodes.append({
            "value": str(v),
            "cycle": ci + 1,
            "level": level,
            "parent": None if parent is None else str(parent),
            "cycle_local": value(numerators[v] << (ci + 2)).to_json_dict(),
            "combined": value(numerators[v]).to_json_dict(),
        })
    cycles = []
    for ci, cyc in enumerate(forest.cycles):
        local = sum(numerators[v] for level in forest.levels[ci] for v in level) << (ci + 2)
        cycles.append({
            "index": ci + 1,
            "length": cyc.length,
            "members": [str(m) for m in cyc.members],
            "weight": str(DyadicRational(1, ci + 2)),
            "cycle_local_total": value(local).to_json_dict(),
        })
    return {
        "map": forest.descriptor.to_text(),
        "depth": forest.depth,
        "covered_nodes": len(forest.covered),
        "cycles": cycles,
        "nodes": nodes,
        "total": assignment.total.to_json_dict(),
        "power_bound": report.to_json_dict() if report else None,
    }


_EXPORT_MAPS = {
    "collatz": collatz(),
    "pxr5": pxr(5, 1),
    "pxr7": pxr(7, 5),
    "pxr3m": pxr(3, -1),
    "d3": parse_descriptor("d=3;m0=1,r0=0;m1=4,r1=2;m2=4,r2=1"),
}


def _export_case(name, depth, with_report, seed=1):
    desc = _EXPORT_MAPS[name]
    asg = assign_measure(build_forest(desc, find_cycles(desc, 100), depth))
    rep = check_power_bound(asg, trials=3, max_n=min(depth, 3), seed=seed) if with_report else None
    return rendered(export_json, asg, rep), json.dumps(reference_export_dict(asg, rep), indent=2) + "\n"


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_EXPORT_MAPS)),
    depth=st.integers(1, 12),
    with_report=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_export_json_is_json_dumps_of_the_reference(name, depth, with_report, seed):
    text, want = _export_case(name, depth, with_report, seed)
    assert text == want


@pytest.mark.parametrize("name, depth, null_denom", [
    ("pxr3m", 10, "11"),  # the 3- and 11-cycles' trees carry a denominator, the fixed point's none
    ("collatz", 25, "1"),  # masses below 2^-64 print no decimal
])
def test_export_json_renders_both_decimal_kinds(name, depth, null_denom):
    text, want = _export_case(name, depth, True)
    assert text == want
    masses = [n[k] for n in json.loads(text)["nodes"] for k in ("cycle_local", "combined")]
    assert any(m["decimal"] is None and m["denom"] == null_denom for m in masses)
    assert any(m["decimal"] is not None for m in masses)


@pytest.mark.parametrize("name, depth", [("collatz", 6), ("collatz", 14), ("pxr5", 10), ("d3", 8)])
def test_export_json_builds_no_value_per_node(name, depth, monkeypatch):
    # node masses are rendered from their numerators: MeasureValues only for
    # the cycle totals and the total, however many nodes there are
    desc = _EXPORT_MAPS[name]
    asg = assign_measure(build_forest(desc, find_cycles(desc, 100), depth))
    want = rendered(export_json, asg, None)
    values, dyadics = [], []
    value_init, dyadic_init = MeasureValue.__init__, DyadicRational.__init__

    def counted_value(self, *args):
        values.append(args)
        value_init(self, *args)

    def counted_dyadic(self, *args):
        dyadics.append(args)
        dyadic_init(self, *args)

    monkeypatch.setattr(MeasureValue, "__init__", counted_value)
    monkeypatch.setattr(DyadicRational, "__init__", counted_dyadic)
    assert rendered(export_json, asg, None) == want
    assert len(values) == len(asg.forest.cycles) + 1 < len(asg.forest.covered)
    assert len(dyadics) <= 2 * len(values)


def mass_keys(asg):
    """The numerators of every node's combined and cycle-local mass."""
    return {m << shift for ci, levels in enumerate(asg.forest.levels)
            for level in levels for v in level for m in [asg.numerators[v]] for shift in (0, ci + 2)}


@pytest.mark.parametrize("name, depth, keys", [
    ("collatz", 14, 34),  # 206 nodes
    ("pxr3m", 12, None),  # a fixed point, a 3- and an 11-cycle
    ("pxr5", 10, None),
])
def test_export_json_renders_each_distinct_mass_once(name, depth, keys, monkeypatch):
    # a mass text depends only on its numerator: one render per distinct
    # numerator, however many nodes carry it, and the bytes of the reference
    desc = _EXPORT_MAPS[name]
    asg = assign_measure(build_forest(desc, find_cycles(desc, 100), depth))
    want = mass_keys(asg)
    calls = []
    mass_text = measure_module._mass_text

    def counted(num, den):
        calls.append(num)
        return mass_text(num, den)

    monkeypatch.setattr(measure_module, "_mass_text", counted)
    assert rendered(export_json, asg, None) == json.dumps(reference_export_dict(asg), indent=2) + "\n"
    assert sorted(calls) == sorted(want)
    assert len(want) < len(asg.forest.covered)
    if keys is not None:
        assert len(want) == keys


@pytest.mark.parametrize("name, depth", [("collatz", 14), ("pxr3m", 12), ("pxr5", 10)])
def test_nodes_of_one_mass_share_one_numerator(name, depth):
    desc = _EXPORT_MAPS[name]
    asg = assign_measure(build_forest(desc, find_cycles(desc, 100), depth))
    numerators = list(asg.numerators.values())
    assert len({id(m) for m in numerators}) == len(set(numerators)) < len(numerators)


# -- the integer path against Fraction arithmetic ------------------------------


def reference_power_bound(asg, trials, max_n, seed, masses):
    """The sampling check on Fraction sums of masses and fresh map preimages.

    Draws the same subsets as check_power_bound and keeps the first pair
    with the largest exact ratio.  Returns (comparisons, ratio, worst).
    """
    rng = random.Random(seed)
    covered = asg.forest.covered
    desc = asg.forest.descriptor
    nodes = sorted(covered)
    comparisons, best, worst = 0, None, None
    for _ in range(trials):
        subset = frozenset(v for v in nodes if rng.getrandbits(1))
        mu_a = sum((masses[v] for v in subset), Fraction(0))
        current = subset
        for n in range(1, max_n + 1):
            current = frozenset(q for y in current for q in desc.preimage(y) if q in covered)
            mu_n = sum((masses[v] for v in current), Fraction(0))
            comparisons += 1
            assert mu_n <= 2 * mu_a
            if mu_a:
                ratio = mu_n / mu_a
                if best is None or ratio > best:
                    best = ratio
                    worst = {"n": n, "set_size": len(subset),
                             "mu_set": render(mu_a), "mu_preimage": render(mu_n)}
    return comparisons, best, worst


def assert_matches_reference(asg, trials, max_n, seed, masses=None):
    masses = reference_combined(asg.forest) if masses is None else masses
    rep = check_power_bound(asg, trials=trials, max_n=max_n, seed=seed)
    comparisons, ratio, worst = reference_power_bound(asg, trials, max_n, seed, masses)
    assert rep.violations == 0
    assert rep.comparisons == comparisons == trials * max_n
    assert rep.worst == worst
    if ratio is None:  # every drawn set was empty
        assert rep.worst_ratio is None and rep.worst_ratio_exact is None
    else:
        assert rep.worst_ratio == float(ratio)
        assert rep.worst_ratio_exact == f"{ratio.numerator}/{ratio.denominator}"
    return rep


@functools.cache
def _reference_case(name, depth):
    desc = _EXPORT_MAPS[name]
    asg = assign_measure(build_forest(desc, find_cycles(desc, 100), depth))
    return asg, reference_combined(asg.forest)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_EXPORT_MAPS)),
    depth=st.integers(1, 10),
    data=st.data(),
    trials=st.integers(1, 30),
    seed=st.integers(0, 2**64),
)
def test_power_bound_equals_the_reference(name, depth, data, trials, seed):
    max_n = data.draw(st.integers(1, min(depth, 6)), label="max_n")
    asg, masses = _reference_case(name, depth)
    assert_matches_reference(asg, trials, max_n, seed, masses)


@pytest.fixture(scope="module")
def collatz10_assignment():
    return assign_measure(build_forest(collatz(), [CycleInfo((1, 2))], 10))


class TestIntegerMasses:
    def test_numerators_over_shared_denominator(self, collatz_assignment, five_assignment):
        for asg in (collatz_assignment, five_assignment):
            for v, mass in reference_combined(asg.forest).items():
                assert combined(asg, v) == mass
            assert as_fraction(asg.total) == Fraction(sum(asg.numerators.values()), asg.denominator)

    def test_five_forest_has_odd_denominator(self, five_assignment):
        d = five_assignment.denominator
        assert len(five_assignment.forest.cycles) > 1
        assert d // (d & -d) > 1  # L > 1: the 5x+1 cycles have odd lengths

    @pytest.mark.parametrize("seed", [1, 1729, 2024])
    @pytest.mark.parametrize("which", ["collatz10", "five"])
    def test_power_bound_matches_measure_value_reference(
        self, which, seed, collatz10_assignment, five_assignment
    ):
        asg = collatz10_assignment if which == "collatz10" else five_assignment
        assert_matches_reference(asg, trials=40, max_n=5, seed=seed)

    def test_ties_keep_the_first_pair(self):
        # on this small forest, seed 9 draws the largest ratio at more than
        # one (n, |A|) pair; the first one drawn must be reported
        asg = assign_measure(build_forest(collatz(), [CycleInfo((1, 2))], 3))
        assert_matches_reference(asg, trials=30, max_n=2, seed=9)

    def test_ties_within_a_trial_keep_the_first_power(self):
        # a fixed point with no other preimage: T^-n{1} = {1} for every n, so
        # a trial that draws 1 ties at every power and must report n = 1
        desc = parse_descriptor("d=2;m0=3,r0=0;m1=1,r1=1")
        asg = assign_measure(build_forest(desc, [CycleInfo((1,))], 4))
        rep = assert_matches_reference(asg, trials=6, max_n=4, seed=2)
        assert rep.worst == {"n": 1, "set_size": 1, "mu_set": "1/2^3", "mu_preimage": "1/2^3"}

    @pytest.mark.parametrize("which", ["collatz", "five"])
    def test_measure_of_matches_measure_value_sum(
        self, which, collatz_assignment, five_assignment
    ):
        asg = collatz_assignment if which == "collatz" else five_assignment
        ref = reference_combined(asg.forest)
        rng = random.Random(11)
        nodes = sorted(asg.forest.covered)
        uncovered = [x for x in range(1, 400) if x not in asg.forest.covered] + [10**30 + 1]
        for _ in range(30):
            subset = rng.sample(nodes, rng.randrange(len(nodes) + 1))
            subset += rng.sample(uncovered, 5)
            want = sum((ref.get(v, 0) for v in set(subset)), Fraction(0))
            got = measure_of(asg, subset)
            assert as_fraction(got) == want and str(got) == render(want)

    def test_masses_below_double_range(self, collatz10_assignment):
        # every mass here is below 2^-1074, so float() of any of them is 0.0;
        # the ratio must still come out exact and correctly rounded
        asg = collatz10_assignment
        shift = 1100
        tiny = replace(asg, denominator=asg.denominator << shift)
        masses = {v: m / 2**shift for v, m in reference_combined(asg.forest).items()}
        assert float(as_fraction(measure_of(tiny, tiny.forest.covered))) == 0.0
        rep = assert_matches_reference(tiny, trials=30, max_n=4, seed=5, masses=masses)
        plain = check_power_bound(asg, trials=30, max_n=4, seed=5)
        assert rep.worst_ratio == plain.worst_ratio and rep.worst_ratio_exact == plain.worst_ratio_exact
        assert 1 < rep.worst_ratio <= 2
        assert rep.worst["mu_set"] == render(parse(plain.worst["mu_set"]) / 2**shift)

    @staticmethod
    def violation(asg, heavy):
        """check_power_bound's message on asg with every mass 1/2^30 but the heavy ones."""
        numerators = dict.fromkeys(asg.forest.covered, 1)
        numerators.update(heavy)
        broken = replace(asg, numerators=numerators, denominator=1 << 30)
        with pytest.raises(BoundViolation) as raised:
            check_power_bound(broken, trials=20, max_n=5, seed=1)
        return str(raised.value)

    def test_heavy_preimage_violates_the_bound(self, collatz10_assignment):
        # 4 is a preimage of 2; weighing it far above the rest breaks the bound
        # for any sampled A that holds 2 but not 4, and the check must say so
        assert self.violation(collatz10_assignment, {4: 10**6}) == (
            "mu(T^-1(A)) = 250009/2^28 > 2*mu(A) = 35/2^29 for |A| = 35, seed 1")

    def test_violation_names_the_first_violating_power(self, collatz10_assignment):
        # 16 = T^-3{2} outweighs 8 = T^-2{2}: the violating set's T^-2(A)
        # carries 1101000029/2^30, more than T^-1(A), but T^-1 breaks the bound first
        assert self.violation(collatz10_assignment, {4: 10**6, 8: 10**8, 16: 10**9}) == (
            "mu(T^-1(A)) = 50500017/2^29 > 2*mu(A) = 1000037/2^29 for |A| = 38, seed 1")

    def test_work_per_call(self, five_assignment, monkeypatch):
        # no map preimage (the fibre masses are pushed along the forest's
        # links), one draw per trial, and MeasureValues only for the worst pair
        desc = five_assignment.forest.descriptor
        calls = []
        built = []
        draws = []

        class CountedRandom(random.Random):
            def getrandbits(self, k):
                draws.append(k)
                return super().getrandbits(k)
        preimage, init = type(desc).preimage, MeasureValue.__init__

        def counted_preimage(self, y):
            calls.append(y)
            return preimage(self, y)

        def counted_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(type(desc), "preimage", counted_preimage)
        monkeypatch.setattr(MeasureValue, "__init__", counted_init)
        monkeypatch.setattr(measure_module, "random", SimpleNamespace(Random=CountedRandom))
        rep = check_power_bound(five_assignment, trials=20, max_n=5, seed=3)
        assert calls == []
        assert draws == [32 * len(five_assignment.forest.covered)] * 20
        assert len(built) == 2 and rep.comparisons == 100


# -- fibre masses and the exact certificate ------------------------------------


def union_numerators(asg, subset, n):
    """Numerator sum over T^-n(A) & covered, built by set unions of map preimages."""
    covered, desc = asg.forest.covered, asg.forest.descriptor
    current = set(subset)
    for _ in range(n):
        current = {q for y in current for q in desc.preimage(y) if q in covered}
    return sum(asg.numerators[v] for v in current)


class TestFibreMasses:
    @pytest.mark.parametrize("which", ["collatz10", "five"])
    def test_sum_over_set_equals_preimage_mass(self, which, collatz10_assignment, five_assignment):
        asg = collatz10_assignment if which == "collatz10" else five_assignment
        max_n = asg.forest.depth
        tables = measure_module._fibre_masses(asg, max_n)
        assert len(tables) == max_n + 1 and tables[0] is asg.numerators
        assert all(tables[n].keys() <= tables[n - 1].keys() for n in range(1, max_n + 1))
        rng = random.Random(8)
        nodes = sorted(asg.forest.covered)
        for _ in range(12):
            subset = rng.sample(nodes, rng.randrange(len(nodes) + 1))
            for n in range(max_n + 1):
                got = sum(tables[n].get(v, 0) for v in subset)
                assert got == union_numerators(asg, subset, n)

    @pytest.mark.parametrize("which", ["collatz10", "five"])
    def test_sampled_worst_at_most_certificate(self, which, collatz10_assignment, five_assignment):
        asg = collatz10_assignment if which == "collatz10" else five_assignment
        certificate = power_bound_certificate(asg, 5)
        for seed in (1, 7, 1729, 2024):
            rep = check_power_bound(asg, trials=40, max_n=5, seed=seed)
            ratio, _v = certificate[rep.worst["n"] - 1]
            assert Fraction(rep.worst_ratio_exact) <= Fraction(ratio) <= 2

    @pytest.mark.parametrize("which", ["collatz10", "five"])
    def test_certificate_is_attained_by_its_node(self, which, collatz10_assignment, five_assignment):
        asg = collatz10_assignment if which == "collatz10" else five_assignment
        nodes = sorted(asg.forest.covered)
        for n, (ratio, v) in enumerate(power_bound_certificate(asg, 5), start=1):
            ratios = [Fraction(union_numerators(asg, [u], n), asg.numerators[u]) for u in nodes]
            assert Fraction(ratio) == max(ratios) == ratios[nodes.index(v)]
            assert ratios.index(max(ratios)) == nodes.index(v)  # the smallest arg-max

    @pytest.mark.parametrize("desc, cycle_bound, depth, want", [
        (collatz(), 1, 14, "5/4@2, 5/4@1, 163/128@2, 163/128@1, 5225/4096@2"),
        (collatz(), 1, 20, "5/4@2, 5/4@1, 163/128@2, 163/128@1, 5225/4096@2"),
        (pxr(5, 1), 1000, 12, "5/4@3, 21/16@8, 85/64@83, 341/256@208, 341/256@104"),
        # a depth-max_n forest already holds every member's fibres
        (pxr(7, 5), 1000, 5, "5/4@6, 21/16@48, 85/64@342, 85/64@171, 2723/2048@601"),
        (pxr(7, 5), 1000, 14, "5/4@6, 21/16@48, 85/64@342, 85/64@171, 2723/2048@601"),
        # the fixed point 1 beside a 3- and an 11-cycle
        (pxr(3, -1), 1000, 14, "5/4@1, 21/16@1, 171/128@1, 687/512@1, 5503/4096@1"),
    ])
    def test_certificate_pinned(self, desc, cycle_bound, depth, want):
        asg = assign_measure(build_forest(desc, find_cycles(desc, cycle_bound), depth))
        assert ", ".join(f"{r}@{v}" for r, v in power_bound_certificate(asg, 5)) == want

    @pytest.mark.parametrize("desc, cycle_bound", [(collatz(), 1), (pxr(5, 1), 1000), (pxr(7, 5), 1000)])
    def test_level_one_and_below_contract(self, desc, cycle_bound):
        # the lemma in power_bound_certificate: off the cycles P_n(v)/mu(v) is
        # at most (sum_{t=1..d} 2^-(t+1))^n, (3/8)^n here, so every arg-max is
        # a cycle member and a depth-5 forest gives the depth-14 certificate
        cycles = find_cycles(desc, cycle_bound)
        asg = assign_measure(build_forest(desc, cycles, 14))
        members = {m for cyc in cycles for m in cyc.members}
        for n, table in enumerate(measure_module._fibre_masses(asg, 5)[1:], start=1):
            ratios = [Fraction(mass, asg.numerators[v]) for v, mass in table.items() if v not in members]
            assert 0 < max(ratios) <= Fraction(3, 8) ** n
        certificate = power_bound_certificate(asg, 5)
        assert all(v in members and Fraction(r) >= 1 for r, v in certificate)
        assert power_bound_certificate(assign_measure(build_forest(desc, cycles, 5)), 5) == certificate

    @settings(max_examples=150, deadline=None)
    @given(desc=validated_maps(max_d=3), cycle_bound=st.integers(1, 300), depth=st.integers(1, 8))
    @example(desc=pxr(7, 5), cycle_bound=100, depth=5)  # a 31-cycle
    @example(desc=pxr(3, -1), cycle_bound=100, depth=8)  # an 11-cycle
    def test_certificate_below_the_member_bound(self, desc, cycle_bound, depth):
        # the bound in power_bound_certificate: a member has at most d - 1
        # off-cycle children, carrying sigma = 1/2 - 2^-d of its mass, and each
        # level below carries at most rho = 1/2 - 2^-(d+1) of the one above,
        # so P_n/mu <= 1 + sigma/(1 - rho) < 2 on any cycle length
        cycles = find_cycles(desc, cycle_bound, Limits(200, 10**12))
        if not cycles:
            return
        asg = assign_measure(build_forest(desc, cycles, depth))
        sigma = Fraction(1, 2) - Fraction(1, 2**desc.d)
        rho = Fraction(1, 2) - Fraction(1, 2 ** (desc.d + 1))
        bound = 1 + sigma / (1 - rho)
        for ratio, _v in power_bound_certificate(asg, depth):
            assert Fraction(ratio) <= bound < 2

    def test_certificate_rejects_bad_max_n(self, collatz_assignment):
        for max_n in (0, 16, 2.0):
            with pytest.raises(InvalidParameters, match="max_n"):
                power_bound_certificate(collatz_assignment, max_n)

    def test_tables_at_the_forest_cap(self):
        # the deepest Collatz forest under _MAX_FOREST_NODES, every level pushed
        asg = assign_measure(build_forest(collatz(), [CycleInfo((1, 2))], 36))
        tables = measure_module._fibre_masses(asg, 36)
        assert sum(map(len, tables)) <= 5 * len(asg.forest.covered)

    def test_table_cap_refuses_before_pushing(self, collatz_assignment, monkeypatch):
        entries = sum(max(len(t), 8) for t in measure_module._fibre_masses(collatz_assignment, 5)[1:])
        entries += len(collatz_assignment.numerators)
        monkeypatch.setattr(measure_module, "_MAX_TABLE_ENTRIES", entries)
        assert power_bound_certificate(collatz_assignment, 5)
        monkeypatch.setattr(measure_module, "_MAX_TABLE_ENTRIES", entries - 1)
        with pytest.raises(InvalidParameters, match="table entries"):
            check_power_bound(collatz_assignment, trials=1, max_n=5)

    def test_huge_max_n_on_a_dead_tree_refused_at_once(self):
        # a fixed point with no other preimage: every level holds one entry,
        # so only the up-front bound keeps this from 2^40 pushes, and 2^18
        # one-entry levels from costing a dict each
        desc = parse_descriptor("d=2;m0=3,r0=0;m1=1,r1=1")
        asg = assign_measure(build_forest(desc, [CycleInfo((1,))], 2**40))
        assert power_bound_certificate(asg, 3) == [("1/1", 1)] * 3
        t0 = time.perf_counter()
        for max_n in (2**18, 2**40):
            with pytest.raises(InvalidParameters, match="table entries"):
                power_bound_certificate(asg, max_n)
        assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("argv, digest", [
    (["measure", "collatz", "--depth", "8"],
     "16e60f8dcfb277853e1c5be2458148f23de2ecac8e63dd86823da30c0456d298"),
    (["measure", "pxr:p=5,r=1", "--depth", "10"],
     "f93abfd52ebe0d6779d064800b271fe6319408fc8b22435a5dbda286702a2681"),
    # the default 1000 trials; then wide fibre masses over a denominator
    # with an odd part
    (["measure", "collatz", "--depth", "20", "--cycle-bound", "1"],
     "bd5608966cbd9a2bb5600cb39e0ea3a263a761d8fcf98bb6bd6b04692bd7be88"),
    (["measure", "pxr:p=7,r=5", "--depth", "14", "--trials", "200", "--max-n", "8"],
     "041c1d3371058413dae57bd7c4772f00c91af716f188f256b0dd2d8777b4db8a"),
    # a fixed point, a 3- and an 11-cycle: the shared denominator's odd part
    # is 33, and the fixed point's tree prints denom 1 beside them
    (["measure", "pxr:p=3,r=-1", "--depth", "12", "--trials", "50"],
     "8dd5f7cd08863f0195d99c9a229ff9fe723de87bb2c6e57b06c78930e218f500"),
])
def test_cli_measure_output_pinned(argv, digest, capsys):
    # SHA-256 of the whole stdout.  The Collatz bytes are those the per-node
    # MeasureValue implementation printed; the px+r forests have an odd
    # shared denominator part, carried by every node of an odd-length cycle's tree
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_power_bound_block_pinned(capsys):
    # the block as the MeasureValue implementation printed it, plus the exact ratio
    assert main(["measure", "collatz", "--depth", "8", "--trials", "100", "--seed", "1729"]) == 0
    assert json.loads(capsys.readouterr().out)["power_bound"] == {
        "trials": 100,
        "max_n": 5,
        "seed": 1729,
        "comparisons": 500,
        "violations": 0,
        "bound_constant": 2,
        "worst_ratio": 1.2713257867373804,
        "worst_ratio_exact": "133760/105213",
        "worst": {"n": 5, "set_size": 14, "mu_set": "526065/2^23", "mu_preimage": "5225/2^16"},
    }


# -- forward basin = backward forest --------------------------------------------


def basin_starts(desc, bound, depth):
    """The starts x <= bound that partition sees enter a cycle within depth steps.

    Asserts they are exactly the forest's nodes <= bound, over partition's
    cycles, each on the level of its own cycle's tree that its entry step names.
    """
    result = partition(desc, bound)
    entered = {x: (cycle, steps) for x, _status, steps, _exc, cycle in result.records()
               if steps is not None and steps <= depth}
    if not result.cycles:
        assert entered == {}
        return 0
    forest = build_forest(desc, result.cycles, depth)
    where = places(forest)
    assert set(entered) == {v for v in forest.covered if v <= bound}
    for x, (cycle, steps) in entered.items():
        ci, level = where[x]
        assert (forest.cycles[ci], level) == (cycle, steps), x
    return len(entered)


@pytest.mark.parametrize("desc, depth, bound, count", [
    (collatz(), 20, 3000, 506),
    (pxr(5, 1), 16, 2000, 148),
    (pxr(7, 5), 14, 3000, 253),
])
def test_basin_is_the_forest_pinned(desc, depth, bound, count):
    assert basin_starts(desc, bound, depth) == count


SMALL_PX_MAPS = [(p, r) for p in (3, 5, 7) for r in range(2 - p, p, 2) if math.gcd(p, r) == 1]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_PX_MAPS), st.integers(1, 600), st.integers(0, 16))
def test_basin_is_the_forest(pr, bound, depth):
    # a forest node's level is its forward entry step: the forward range
    # engine and the backward closure see the same finite basin
    basin_starts(pxr(*pr), bound, depth)


class TestForestGuards:
    def test_cap_refuses_the_crossing_level(self, monkeypatch):
        size8 = len(build_forest(collatz(), [CycleInfo((1, 2))], 8).covered)
        monkeypatch.setattr(maps_module, "_MAX_FOREST_NODES", size8)
        assert len(build_forest(collatz(), [CycleInfo((1, 2))], 8).covered) == size8
        with pytest.raises(InvalidParameters, match="cap"):
            build_forest(collatz(), [CycleInfo((1, 2))], 9)

    def test_huge_depth_exits_one_without_allocating(self, capsys, monkeypatch):
        monkeypatch.setattr(maps_module, "_MAX_FOREST_NODES", 50)
        tracemalloc.start()
        try:
            code = main(["measure", "collatz", "--depth", "2^40", "--cycle-bound", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "cap of 50" in err
        assert peak < 2**20

    def test_dead_tree_stops_at_its_last_level(self):
        # x -> 3x/2 on evens, (x+1)/2 on odds: the fixed point 1 has no other preimage
        desc = parse_descriptor("d=2;m0=3,r0=0;m1=1,r1=1")
        forest = build_forest(desc, [CycleInfo((1,))], 2**40)
        assert forest.levels == (((1,),),)
        assert forest.covered == frozenset({1})
        asg = assign_measure(forest)
        assert asg.total == mv(1, 3)  # 1/2 on the cycle, weighted 2^-2
        rep = check_power_bound(asg, trials=5, max_n=3, seed=1)
        assert rep.violations == 0 and rep.worst_ratio_exact == "1/1"
        # seed 1 draws the empty set first, and no ratio exists for it
        empty = check_power_bound(asg, trials=1, max_n=1, seed=1)
        assert (empty.worst_ratio, empty.worst_ratio_exact, empty.worst) == (None, None, None)
        assert empty.to_json_dict()["worst_ratio_exact"] is None
