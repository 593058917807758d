import json

import pytest
from hypothesis import given, settings, strategies as st

from syrdyn.errors import DomainError, InvalidParameters, VerificationFailure
from syrdyn.maps import collatz, parse_descriptor, pxr
from syrdyn.trajectory import (
    CycleInfo,
    Limits,
    TrajectoryStatus,
    check_power_cycle,
    find_cycles,
    iterate,
    trajectory_to_json,
)
from test_numeric import rendered


class TestLimits:
    def test_defaults(self):
        lim = Limits()
        assert lim.max_steps == 10**5
        assert lim.max_value == 10**40

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidParameters):
            Limits(max_steps=0)
        with pytest.raises(InvalidParameters):
            Limits(max_value=0)
        with pytest.raises(InvalidParameters):
            Limits(max_steps=2.5)

    def test_step_cap(self):
        # the budget is only stored, so a refused one allocates nothing
        assert Limits(max_steps=10**7).max_steps == 10**7
        for big in (10**7 + 1, 10**12, 10**1000):
            with pytest.raises(InvalidParameters, match="cap of 10000000"):
                Limits(max_steps=big)


class TestCycleInfo:
    def test_canonical_rotation(self):
        cyc = CycleInfo.from_orbit((8, 4, 2, 1, 3))
        assert cyc.members == (1, 3, 8, 4, 2)
        assert cyc.min_member == 1
        assert cyc.length == 5

    def test_must_start_at_min(self):
        with pytest.raises(InvalidParameters):
            CycleInfo((2, 1))

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidParameters):
            CycleInfo((1, 2, 2))

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameters):
            CycleInfo(())

    @pytest.mark.parametrize("members, shown", [
        ((0, 1), "0"), ((1, -4), "-4"), ((1, 2.0), "2.0"), ((True,), "True"),
    ])
    def test_rejects_a_member_that_is_not_a_positive_int(self, members, shown):
        with pytest.raises(InvalidParameters) as exc:
            CycleInfo(members)
        assert str(exc.value) == f"cycle members must be positive ints, got {shown}"

    def test_verify(self):
        CycleInfo((1, 2)).verify(collatz())
        with pytest.raises(VerificationFailure):
            CycleInfo((1, 3)).verify(collatz())


class TestIterate:
    def test_orbit_of_seven(self):
        rep = iterate(collatz(), 7)
        assert rep.steps == (7, 11, 17, 26, 13, 20, 10, 5, 8, 4, 2, 1)
        assert rep.status is TrajectoryStatus.ENTERED_CYCLE
        assert rep.entry_index == 10
        assert rep.cycle.members == (1, 2)
        assert rep.max_excursion == 26
        assert rep.steps[rep.entry_index] == 2  # first repeated value

    def test_start_inside_cycle(self):
        rep = iterate(collatz(), 1)
        assert rep.status is TrajectoryStatus.ENTERED_CYCLE
        assert rep.entry_index == 0
        assert rep.steps == (1, 2)

    def test_step_limit(self):
        rep = iterate(collatz(), 27, Limits(max_steps=5))
        assert rep.status is TrajectoryStatus.HIT_STEP_LIMIT
        assert len(rep.steps) == 6  # start plus five applications
        assert rep.cycle is None and rep.entry_index is None

    def test_value_limit_drops_violator(self):
        rep = iterate(pxr(5, 1), 7, Limits(max_value=10**6))
        assert rep.status is TrajectoryStatus.HIT_VALUE_LIMIT
        assert rep.max_excursion <= 10**6
        assert max(rep.steps) == rep.max_excursion

    def test_start_above_ceiling_rejected(self):
        with pytest.raises(InvalidParameters):
            iterate(collatz(), 10**7, Limits(max_value=10**6))

    def test_bad_start(self):
        with pytest.raises(DomainError):
            iterate(collatz(), 0)
        with pytest.raises(DomainError):
            iterate(collatz(), -5)

    def test_json_shape(self):
        payload = json.loads(rendered(trajectory_to_json, collatz(), iterate(collatz(), 7)))
        assert payload["map"] == collatz().to_text()
        assert payload["start"] == "7"
        assert payload["status"] == "EnteredCycle"
        assert payload["steps"][0] == "7"
        assert payload["applications"] == 12
        assert payload["cycle"] == ["1", "2"]

    def test_fixed_point(self):
        # 3x-1 pins x=1: orbit 1 -> 1
        rep = iterate(pxr(3, -1), 1)
        assert rep.cycle.members == (1,)
        assert rep.entry_index == 0


class TestFindCycles:
    def test_collatz_only_trivial(self):
        cycles = find_cycles(collatz(), 1000)
        assert [c.members for c in cycles] == [(1, 2)]

    def test_five_x_plus_one(self):
        cycles = find_cycles(pxr(5, 1), 1000)
        members = [c.members for c in cycles]
        assert (1, 3, 8, 4, 2) in members
        assert (13, 33, 83, 208, 104, 52, 26) in members
        assert (17, 43, 108, 54, 27, 68, 34) in members

    def test_seven_x_plus_one(self):
        cycles = find_cycles(pxr(7, 1), 100)
        assert (1, 4, 2) in [c.members for c in cycles]

    def test_sorted_by_min_member(self):
        cycles = find_cycles(pxr(5, 1), 1000)
        mins = [c.min_member for c in cycles]
        assert mins == sorted(mins)

    def test_results_verify(self):
        desc = pxr(5, 1)
        for cyc in find_cycles(desc, 500):
            cyc.verify(desc)

    def test_bad_bound(self):
        # the window check partition makes, before any walk
        with pytest.raises(InvalidParameters, match="^end must be >= start 1, got 0$"):
            find_cycles(collatz(), 0)


class TestPowerCycle:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_construction(self, k):
        cyc = check_power_cycle(k)
        assert cyc.members[0] == 1
        assert cyc.length == k
        assert set(cyc.members) == {1} | {1 << t for t in range(1, k)}

    def test_k2_is_collatz_cycle(self):
        assert check_power_cycle(2).members == (1, 2)

    def test_bad_k(self):
        with pytest.raises(InvalidParameters):
            check_power_cycle(1)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=10**5))
def test_collatz_always_converges_here(x):
    rep = iterate(collatz(), x, Limits(max_steps=10**4))
    assert rep.status is TrajectoryStatus.ENTERED_CYCLE
    assert rep.cycle.members == (1, 2)


@given(st.integers(min_value=1, max_value=10**4))
def test_excursion_is_orbit_max(x):
    rep = iterate(collatz(), x)
    assert rep.max_excursion == max(rep.steps)
    assert rep.max_excursion >= x
