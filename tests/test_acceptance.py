"""Acceptance gate: one test per shipped criterion, each printing PASS/FAIL.

Run with -s to see the per-criterion lines on success; failures always show
them.  Where a runtime budget is part of the criterion it is asserted here,
so a regression in asymptotics fails loudly rather than quietly dragging.
"""

import json
import math
from fractions import Fraction
import subprocess
import sys
import time
from contextlib import contextmanager

from syrdyn.chains import (
    chain_criterion,
    decompose,
    family_tails,
    search_family_witness,
    two_preimage_class,
    verify_family_connection,
)
from syrdyn.maps import collatz, pxr
from syrdyn.measure import (
    assign_measure,
    build_forest,
    check_power_bound,
    measure_of,
)
from syrdyn.partition import partition
from syrdyn.trajectory import CycleInfo, Limits, check_power_cycle, find_cycles


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException as exc:
        print(f"[criterion {num:02d}] {name}: FAIL ({exc!r})")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


def admissible_rs(p):
    return [r for r in range(-(p - 1), p)
            if r % 2 == 1 and abs(r) < p and math.gcd(r, p) == 1]


PR_GRID = [(p, r) for p in range(3, 32, 2) for r in admissible_rs(p)]


def test_criterion_01_preimage_oracle_equivalence():
    with criterion(1, "preimage oracle equivalence"):
        t0 = time.perf_counter()
        y_max = 10**4
        for desc in (collatz(), pxr(5, 1), pxr(7, 1), pxr(5, 3)):
            buckets = {}
            for x in range(1, desc.d * y_max + desc.d + 1):
                y = desc.apply(x)
                if y <= y_max:
                    buckets.setdefault(y, []).append(x)
            for y in range(1, y_max + 1):
                assert desc.preimage(y) == buckets.get(y, []), (desc.to_text(), y)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_02_closed_form_preimages():
    with criterion(2, "closed-form collatz preimages"):
        c = collatz()
        for p in range(1, 10**4 + 1):
            assert c.preimage(3 * p) == [6 * p]
            assert c.preimage(3 * p + 1) == [6 * p + 2]
            assert c.preimage(3 * p + 2) == [2 * p + 1, 6 * p + 4]


def test_criterion_03_decompose_round_trip():
    with criterion(3, "3^a*2^b*h-1 round trip to 10^6"):
        t0 = time.perf_counter()
        for n in range(2, 10**6 + 1, 3):
            form = decompose(n)
            assert form.a >= 1
            assert math.gcd(form.h, 6) == 1
            assert 3**form.a * (1 << form.b) * form.h - 1 == n
        elapsed = time.perf_counter() - t0
        assert elapsed < 10, f"took {elapsed:.1f}s"


def test_criterion_04_family_identity():
    with criterion(4, "family member identity a<=16 h<=100"):
        c = collatz()
        for a in range(1, 17):
            for h in range(1, 101):
                if math.gcd(h, 6) != 1:
                    continue
                x = 2**a * h - 1
                for j in range(a + 1):
                    assert x == 3**j * 2 ** (a - j) * h - 1, (a, h, j)
                    if j < a:
                        x = c.apply(x)


def test_criterion_05_witness_search_matches_criterion():
    with criterion(5, "structure search agrees with r = +-(p-2)"):
        for p, r in PR_GRID:
            found = search_family_witness(p, r, alpha_max=4, beta_max=4, k_max=50)
            assert (found is not None) == chain_criterion(p, r), (p, r, found)


def test_criterion_06_two_preimage_class():
    with criterion(6, "doubled preimage class over the same grid"):
        for p, r in PR_GRID:
            desc = pxr(p, r)
            cls = two_preimage_class(p, r)
            # the least positive class member is (p+r)/2, so no y >= 1 in the
            # class falls below the odd branch's floor: no boundary exceptions
            assert (p + r) // 2 % p == cls
            for y in range(1, 10**4 + 1):
                expect = 2 if y % p == cls else 1
                assert len(desc.preimage(y)) == expect, (p, r, y)


def reference_children(forest):
    """node -> its children ascending: its map preimages on the next level of its tree."""
    desc = forest.descriptor
    kids = {}
    for levels in forest.levels:
        for level, below in zip(levels, levels[1:]):
            below = set(below)
            for v in level:
                kids[v] = sorted(q for q in desc.preimage(v) if q in below)
    return kids


def reference_local(forest, kids):
    """Cycle-local masses as Fractions, from the forest's levels and the construction rules."""
    local = {}
    for cyc, levels in zip(forest.cycles, forest.levels):
        for v in levels[0]:
            local[v] = Fraction(1, 2 * cyc.length)
        for level in levels:
            for v in level:
                for t, q in enumerate(kids.get(v, ()), start=1):
                    local[q] = local[v] / 2 ** (t + 1)
    return local


def assert_measure_matches_reference(asg):
    """Every node's numerator against the reference, and the measure's properties on it."""
    forest = asg.forest
    kids = reference_children(forest)
    ref = reference_local(forest, kids)
    assert set(asg.numerators) == set(ref) == forest.covered
    local = {}
    for ci, levels in enumerate(forest.levels):
        for v in (v for level in levels for v in level):
            local[v] = Fraction(asg.numerators[v], asg.denominator) * 2 ** (ci + 2)
            assert local[v] == ref[v], v
        sums = [sum(local[v] for v in level) for level in levels]
        assert sums[0] == Fraction(1, 2)
        assert len(sums) < 2 or sums[1] <= Fraction(1, 4)
        assert all(nxt <= prev / 2 for prev, nxt in zip(sums[1:], sums[2:]))
        for v in (v for level in levels for v in level):
            assert sum(local[q] for q in kids.get(v, ())) <= local[v] / 2
    assert sum(asg.numerators.values()) <= asg.denominator


def test_criterion_07_collatz_measure_and_power_bound():
    with criterion(7, "measure on the {1,2} forest, depth 15, M = 2"):
        t0 = time.perf_counter()
        forest = build_forest(collatz(), [CycleInfo((1, 2))], 15)
        asg = assign_measure(forest)
        assert_measure_matches_reference(asg)
        assert Fraction(asg.numerators[4], asg.denominator) * 4 == Fraction(1, 2**4)
        assert Fraction(asg.numerators[8], asg.denominator) * 4 == Fraction(1, 2**6)
        report = check_power_bound(asg, trials=1000, max_n=10, seed=1729)
        assert report.violations == 0
        assert report.comparisons == 10000
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_08_multi_cycle_measure():
    with criterion(8, "combined measure across the 5x+1 cycles"):
        desc = pxr(5, 1)
        cycles = find_cycles(desc, 1000)
        assert len(cycles) >= 2
        assert (1, 3, 8, 4, 2) in [c.members for c in cycles]
        forest = build_forest(desc, cycles, 10)
        asg = assign_measure(forest)
        assert_measure_matches_reference(asg)
        assert measure_of(asg, forest.covered) == asg.total
        report = check_power_bound(asg, trials=1000, max_n=10, seed=1729)
        assert report.violations == 0


def test_criterion_09_cycle_fixtures():
    with criterion(9, "power-family cycles and catalogue searches"):
        for k in range(2, 7):
            cyc = check_power_cycle(k)
            assert cyc.members[0] == 1 and cyc.length == k
        five = find_cycles(pxr(5, 1), 10**4)
        assert (1, 3, 8, 4, 2) in [c.members for c in five]
        big = find_cycles(pxr(181, 1), 10**4, Limits(max_steps=10**5, max_value=10**9))
        nontrivial = [c for c in big if c.length > 1]
        assert len(nontrivial) >= 2, [c.members for c in big]


def test_criterion_10_partition_sanity():
    with criterion(10, "partition classes at desk scale"):
        res = partition(collatz(), 10**5)
        assert sorted(res.c_set) == [1, 2]
        assert res.d2_candidates == frozenset()
        assert len(res.c_set) + len(res.d1_set) == 10**5
        c = collatz()
        for x in res.c_set:
            assert c.apply(x) in res.c_set
        for x in (3, 27, 703, 99999):
            assert res.class_of(x) == "D1"
        res5 = partition(pxr(5, 1), 100, Limits(max_steps=10**4, max_value=10**9))
        assert res5.d2_candidates
        assert len(res5.c_set) + len(res5.d1_set) + len(res5.d2_candidates) == 100
        desc = pxr(5, 1)
        for x in range(1, 101):
            y = desc.apply(x)
            if y <= 100 and res5.class_of(y) == "D2?":
                assert res5.class_of(x) == "D2?"


def test_criterion_11_family_connection():
    with criterion(11, "family tails land in the doubled class"):
        for p, r in [(3, 1), (5, 3), (7, 5), (5, -3)]:
            tails = family_tails(p, r, 500)
            assert len(tails) == 500
            report = verify_family_connection(p, r, tails=tails)
            assert report.satisfied == 500
            # independent oracle: iterate each tail to its first odd-branch
            # application and read off the landing class
            desc = pxr(p, r)
            cls = two_preimage_class(p, r)
            for t in tails:
                x = t
                while x % 2 == 0:
                    x = desc.apply(x)
                assert desc.apply(x) % p == cls, (p, r, t)


CLI_RUNS = [
    ["traj", "collatz", "27"],
    ["traj", "pxr:p=5,r=1", "7", "--max-value", "1e6"],
    ["cycles", "pxr:p=5,r=1", "--bound", "400"],
    ["partition", "pxr:p=5,r=1", "--bound", "50", "--max-steps", "1e3",
     "--max-value", "1e8"],
    ["measure", "collatz", "--depth", "8", "--trials", "100", "--seed", "1729"],
    ["chains", "7", "--links", "2"],
    ["chains", "7", "--format", "dot"],
    ["tree", "collatz", "--root", "8", "--depth", "3"],
    ["tree", "collatz", "--root", "8", "--depth", "3", "--format", "dot"],
    ["criterion", "5", "-3", "--verify"],
    ["scan", "collatz", "--start", "1", "--end", "40", "--threads", "2"],
]


def test_criterion_12_cli_determinism():
    with criterion(12, "byte-identical CLI reruns"):
        for args in CLI_RUNS:
            runs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "syrdyn", *args],
                    capture_output=True, timeout=120,
                )
                runs.append(proc)
            assert runs[0].returncode == runs[1].returncode, args
            assert runs[0].stdout == runs[1].stdout, args
            assert runs[0].stdout, args
