import hashlib
import json
import random
import time
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import pytest

import syrdyn.maps as maps_module
import syrdyn.measure as measure_module
from syrdyn.cli import main
from syrdyn.errors import BoundViolation, InvalidParameters, OverlappingCycles, VerificationFailure
from syrdyn.maps import collatz, parse_descriptor, pxr
from syrdyn.measure import (
    MeasureAssignment,
    MeasureValue,
    assign_measure,
    build_forest,
    check_power_bound,
    export_json,
    measure_of,
    power_bound_certificate,
)
from syrdyn.numeric import DyadicRational
from syrdyn.trajectory import CycleInfo, check_power_cycle, find_cycles


def mv(num, exp, denom=1):
    return MeasureValue(DyadicRational(num, exp), denom)


def reference_local(forest):
    """Each covered node's cycle-local mass as a Fraction, from the construction rules.

    Built from the forest alone: 1/(2N) on the members of a cycle of length N,
    2^(-j-3) on the j-th level-1 node, and m * 2^(-t-1) on the t-th child of a
    node of mass m below level 1.
    """
    local = {}
    for cyc, levels in zip(forest.cycles, forest.levels):
        for v in levels[0]:
            local[v] = Fraction(1, 2 * cyc.length)
        for j, v in enumerate(levels[1] if len(levels) > 1 else (), start=1):
            local[v] = Fraction(1, 2 ** (j + 3))
        for level in levels[1:]:
            for v in level:
                for t, q in enumerate(forest.children.get(v, ()), start=1):
                    local[q] = local[v] / 2 ** (t + 1)
    return local


def reference_combined(forest):
    """Cycle-local masses times the cycle weight 2^(-i-1), i 1-based."""
    return {v: m / 2 ** (forest.node_cycle[v] + 2) for v, m in reference_local(forest).items()}


def combined(asg, v):
    """The assignment's combined mass of v, read off its integer numerator."""
    return Fraction(asg.numerators[v], asg.denominator)


def local(asg, v):
    return combined(asg, v) * 2 ** (asg.forest.node_cycle[v] + 2)


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
        # the stored links and a fresh preimage computation must agree
        c = collatz()
        cycle_members = set(collatz_forest.cycles[0].members)
        for v in collatz_forest.covered:
            expect = tuple(sorted(
                q for q in c.preimage(v)
                if q in collatz_forest.covered and q not in cycle_members
            ))
            assert collatz_forest.children.get(v, ()) == expect

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
        for v in forest.covered:
            assert v in forest.node_cycle
        totals = sum(len(lvl) for levels in forest.levels for lvl in levels)
        assert totals == len(forest.covered)


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
        # per-parent halving holds from level 1 down; level-1 nodes under the
        # cycle follow the global j-rule instead and are bounded per level
        for asg in (collatz_assignment, five_assignment):
            forest = asg.forest
            for v, kids in forest.children.items():
                if forest.node_level[v] == 0:
                    continue
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

    def test_rejects_deep_max_n(self, collatz_assignment):
        with pytest.raises(InvalidParameters):
            check_power_bound(collatz_assignment, trials=1, max_n=99)
        with pytest.raises(InvalidParameters):
            check_power_bound(collatz_assignment, trials=0)


def test_export_shape(collatz_assignment):
    rep = check_power_bound(collatz_assignment, trials=10, max_n=2, seed=1)
    doc = export_json(collatz_assignment, rep)
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
    no_rep = export_json(collatz_assignment)
    assert no_rep["power_bound"] is None


def test_export_masses_match_reference(five_assignment):
    doc = export_json(five_assignment)
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
    assert rep.worst_ratio == float(ratio)
    assert rep.worst_ratio_exact == f"{ratio.numerator}/{ratio.denominator}"
    return rep


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

    def test_heavy_preimage_violates_the_bound(self, collatz10_assignment):
        # 4 is a preimage of 2; weighing it far above the rest breaks the bound
        # for any sampled A that holds 2 but not 4, and the check must say so
        asg = collatz10_assignment
        numerators = dict.fromkeys(asg.forest.covered, 1)
        numerators[4] = 10**6
        broken = replace(asg, numerators=numerators, denominator=1 << 30)
        with pytest.raises(BoundViolation, match=r"mu\(T\^-\d\(A\)\) = \S.* > 2\*mu\(A\) = \S.* for \|A\| = \d+, seed 1"):
            check_power_bound(broken, trials=20, max_n=5, seed=1)

    def test_work_per_call(self, five_assignment, monkeypatch):
        # one map preimage per covered node, and MeasureValues only for the worst pair
        desc = five_assignment.forest.descriptor
        calls = []
        built = []
        preimage, init = type(desc).preimage, MeasureValue.__init__

        def counted_preimage(self, y):
            calls.append(y)
            return preimage(self, y)

        def counted_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(type(desc), "preimage", counted_preimage)
        monkeypatch.setattr(MeasureValue, "__init__", counted_init)
        rep = check_power_bound(five_assignment, trials=20, max_n=5, seed=3)
        assert sorted(calls) == sorted(five_assignment.forest.covered)
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
        (pxr(5, 1), 1000, 12,
         "15/8@13, 127/64@33, 1023/512@83, 8191/4096@208, 8191/4096@104"),
    ])
    def test_certificate_pinned(self, desc, cycle_bound, depth, want):
        asg = assign_measure(build_forest(desc, find_cycles(desc, cycle_bound), depth))
        assert ", ".join(f"{r}@{v}" for r, v in power_bound_certificate(asg, 5)) == want

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
     "7646b7b377ccc47ae16e2dbda1753cdb01f375d93344869610bbebcbf22b0a58"),
])
def test_cli_measure_output_pinned(argv, digest, capsys):
    # SHA-256 of the whole stdout as the per-node MeasureValue implementation
    # printed it; the second forest has an odd shared denominator part
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
