import hashlib
import importlib
import io
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from syrdyn import cli
from syrdyn.cli import main
from syrdyn.errors import DomainError, InvalidParameters
from syrdyn.maps import MapDescriptor, collatz, parse_descriptor, pxr, validate
from syrdyn.partition import (_OPEN, _checkpoint_gap, _classify, export_csv, partition,
                              summary_dict)
from syrdyn.trajectory import Limits, TrajectoryStatus, _descent_starts, find_cycles, iterate
from test_range_engine import PX_MAPS, reference_cycles, reference_scan_rows, refuse_partition

partition_module = importlib.import_module("syrdyn.partition")  # syrdyn.partition is the function

D3 = parse_descriptor("d=3;m0=1,r0=0;m1=2,r1=1;m2=2,r2=2")


def naive_classify(desc, x, limits):
    """Literal per-point classification; the memoized engine must match this."""
    rep = iterate(desc, x, limits)
    if rep.status is not TrajectoryStatus.ENTERED_CYCLE:
        return ("D2?", None, rep.max_excursion)
    if x in rep.cycle.members:
        return ("C", 0, rep.max_excursion)
    return ("D1", rep.entry_index, rep.max_excursion)


class TestCollatzPartition:
    def test_small_range_converges(self):
        res = partition(collatz(), 1000)
        assert sorted(res.c_set) == [1, 2]
        assert res.d2_candidates == frozenset()
        assert len(res.d1_set) == 998

    def test_class_queries(self):
        res = partition(collatz(), 100)
        assert res.class_of(1) == "C"
        assert res.class_of(2) == "C"
        assert res.class_of(7) == "D1"
        assert res.steps_to_cycle(7) == 10
        assert res.steps_to_cycle(1) == 0
        assert res.max_excursion(7) == 26
        assert res.max_excursion(27) == 4616

    def test_out_of_range_rejected(self):
        res = partition(collatz(), 10)
        with pytest.raises(DomainError):
            res.class_of(11)
        with pytest.raises(DomainError):
            res.class_of(0)

    def test_counts_add_up(self):
        res = partition(collatz(), 500)
        assert sum(res.counts().values()) == 500


class TestPartitionStructure:
    def test_fixed_point_map(self):
        # 3x-1 holds 1 in place
        res = partition(pxr(3, -1), 1)
        assert res.c_set == frozenset({1})

    def test_five_x_plus_one_has_candidates(self):
        res = partition(pxr(5, 1), 100, Limits(max_steps=10**4, max_value=10**9))
        assert 7 in res.d2_candidates
        assert res.counts()["D2?"] > 0
        assert 1 in res.c_set and 13 in res.c_set and 17 in res.c_set

    def test_cycles_listed_sorted(self):
        res = partition(pxr(5, 1), 100, Limits(max_steps=10**4, max_value=10**9))
        mins = [c.min_member for c in res.cycles]
        assert mins == sorted(mins)
        assert (1, 3, 8, 4, 2) in [c.members for c in res.cycles]

    def test_closure_invariants(self):
        desc = pxr(5, 1)
        bound = 100
        res = partition(desc, bound, Limits(max_steps=10**4, max_value=10**9))
        for x in res.c_set | res.d1_set:
            y = desc.apply(x)
            if y <= bound:
                # anything feeding a convergent point converges
                assert res.class_of(y) in ("C", "D1")
        for x in res.c_set:
            assert any(x in c.members for c in res.cycles)

    def test_domain_bound_validation(self):
        with pytest.raises(InvalidParameters):
            partition(collatz(), 0)
        with pytest.raises(InvalidParameters):
            # the whole domain must sit under the ceiling
            partition(collatz(), 100, Limits(max_steps=10, max_value=50))
        with pytest.raises(InvalidParameters, match="exceeds max_value"):
            partition(collatz(), 51, Limits(max_steps=10, max_value=50))
        assert partition(collatz(), 50, Limits(max_steps=10, max_value=50)).domain_bound == 50


LIMITS_GRID = [
    Limits(max_steps=5, max_value=330),
    Limits(max_steps=12, max_value=10**4),
    Limits(max_steps=30, max_value=400),
    Limits(max_steps=120, max_value=10**9),
    # keeps verdicts past the budget (gap 4); walks run out of points below
    # the ceiling, and the last path point that may be open (index 22) is a
    # checkpoint
    Limits(max_steps=21, max_value=10**12),
]
DOMAIN_GRID = [
    (collatz(), 300),
    (pxr(5, 1), 120),
    (D3, 120),
]
TIGHT_LIMITS = pytest.mark.parametrize("limits", LIMITS_GRID)
SMALL_DOMAINS = pytest.mark.parametrize("desc,bound", DOMAIN_GRID)


def no_iterate(*args, **kwargs):
    raise AssertionError("the range engine called iterate")


@TIGHT_LIMITS
@SMALL_DOMAINS
def test_memoized_equals_naive(capsys, monkeypatch, desc, bound, limits):
    # the whole point of the cache: bit-identical to per-point iteration,
    # including under budgets tight enough to cut walks short; each start is
    # finished within its own walk, so partition, cycles and scan never call
    # iterate, also when a memo hit lies past a start's budget
    monkeypatch.setattr(partition_module, "iterate", no_iterate)
    res = partition(desc, bound, limits)
    for x in range(1, bound + 1):
        cls, steps, exc = naive_classify(desc, x, limits)
        assert res.class_of(x) == cls, x
        assert res.steps_to_cycle(x) == steps, x
        assert res.max_excursion(x) == exc, x
    flags = [desc.to_text(), "--max-steps", str(limits.max_steps),
             "--max-value", str(limits.max_value), "--threads", "1"]
    assert main(["cycles", *flags, "--bound", str(bound)]) == 0
    want = [[str(v) for v in c.members] for c in reference_cycles(desc, 1, bound, limits)]
    assert json.loads(capsys.readouterr().out)["cycles"] == want
    lo = bound // 3
    assert main(["scan", *flags, "--start", str(lo), "--end", str(bound)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == reference_scan_rows(desc, lo, bound, limits)


class SpyDict(dict):
    """A memo that records every (key, value) the kernel finds in it."""

    def __init__(self):
        super().__init__()
        self.found = []

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not None:
            self.found.append((key, value))
        return value


def classify_window(desc, bound, limits, memo=None, start=1):
    """partition(desc, bound, limits, start)'s kernel run on the memo given."""
    memo = {} if memo is None else memo
    size = bound - start + 1
    cycles, _applications, _jumps = _classify(desc, range(start, bound + 1), start, bound, limits,
                                              memo, bytearray(size), [None] * size, [0] * size,
                                              [None] * size)
    return _checkpoint_gap(limits.max_steps), memo, cycles


def entry_budget(limits, cycles, cid):
    return limits.max_steps - (0 if cid is None else cycles[cid].length)


def test_grid_has_memo_hits_past_the_budget():
    # without lookups that find a past-budget checkpoint, an open entry and a
    # verdict within the budget keyed above the window (kept at checkpoint
    # depths only), the grid would not exercise the code that stores and
    # reads them
    past = opened = above = 0
    for desc, bound in DOMAIN_GRID:
        for limits in LIMITS_GRID:
            memo = SpyDict()
            _k, _memo, cycles = classify_window(desc, bound, limits, memo)
            for v, (depth, cid, _exc) in memo.found:
                if depth >= _OPEN:
                    opened += 1
                elif depth > entry_budget(limits, cycles, cid):
                    past += 1
                else:
                    above += v > bound and depth > 0
    assert past > 0 and opened > 0 and above > 0


@TIGHT_LIMITS
@SMALL_DOMAINS
def test_every_memo_entry_is_a_fresh_iterate(desc, bound, limits):
    # the memo also holds orbit values outside the window and verdicts past
    # the budget; each exact entry must be the verdict a fresh iterate from
    # that value reaches with an unbounded budget, and each open entry must
    # have the clean points ahead that it claims
    check_memo(desc, limits, bound, *classify_window(desc, bound, limits))


def check_memo(desc, limits, last, k, memo, cycles):
    """Check every memo entry of a window ending at last."""
    unbounded = Limits(max_steps=10**6, max_value=limits.max_value)
    for v, (depth, cid, exc) in memo.items():
        if depth >= _OPEN:
            # an open entry names the last of the distinct points ahead it claims
            ahead = depth - _OPEN
            assert ahead >= limits.max_steps and depth % k == 0 and exc == 0, v
            rep = iterate(desc, v, Limits(max_steps=ahead, max_value=limits.max_value))
            assert rep.status is TrajectoryStatus.HIT_STEP_LIMIT, v
            assert rep.steps[-1] == cid, v
            continue
        rep = iterate(desc, v, unbounded)
        if cid is None:
            assert rep.status is TrajectoryStatus.HIT_VALUE_LIMIT, v
            assert len(rep.steps) == depth, v  # applications up to the ceiling
        else:
            assert rep.status is TrajectoryStatus.ENTERED_CYCLE, v
            assert rep.entry_index == depth, v
            assert rep.cycle == cycles[cid], v
        if depth <= entry_budget(limits, cycles, cid):
            assert exc == rep.max_excursion == iterate(desc, v, limits).max_excursion, v
            # above the window, only checkpoint depths and cycle members (depth 0)
            assert v <= last or depth % k == 0, v
        else:
            assert depth % k == 0 and exc == 0, v  # a checkpoint past the budget


@pytest.mark.parametrize("max_steps", range(15, 41))
def test_cycle_repeating_just_before_the_cap_is_found(max_steps):
    # the walk from 27 runs round the 31-cycle of pxr:p=7,r=5 through 27 and
    # first repeats at step 31, but Brent's mark comes round only at step 63,
    # past the cap of 2 * (max_steps + 1) points up to max_steps 30: there
    # only the cap's check for a repeated point finds the cycle, and without
    # it the walk would store open entries that claim more distinct points
    # ahead than the cycle has
    desc, limits = pxr(7, 5), Limits(max_steps, 10**12)
    res = partition(desc, 40, limits, start=27)
    assert list(res.records()) == [
        (x, rep.status, rep.entry_index, rep.max_excursion, rep.cycle)
        for x in range(27, 41) for rep in [iterate(desc, x, limits)]]
    assert list(res.cycles) == reference_cycles(desc, 27, 40, limits)
    check_memo(desc, limits, 40, *classify_window(desc, 40, limits, start=27))


@pytest.mark.parametrize("max_steps", range(15, 41))
@pytest.mark.parametrize("bound", [40, 200])
def test_open_entries_on_a_long_cycle_claim_only_distinct_points(bound, max_steps):
    # walks from below 27 enter the 31-cycle of pxr:p=7,r=5 and can run along
    # it to an open entry without repeating a point; at max_steps 15 the walk
    # that reaches 342 that way would give 244 36 points ahead, more than the
    # cycle has, unless it sees that 342's last point ahead is on its path
    desc, limits = pxr(7, 5), Limits(max_steps, 10**12)
    check_memo(desc, limits, bound, *classify_window(desc, bound, limits))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PX_MAPS), st.integers(15, 60), st.integers(1, 250),
       st.sampled_from([10**6, 10**12]))
def test_memo_holds_on_small_px_maps(pr, max_steps, bound, max_value):
    desc, limits = pxr(*pr), Limits(max_steps, max_value)
    check_memo(desc, limits, bound, *classify_window(desc, bound, limits))


@pytest.mark.parametrize("text,limits,escapee,handed", [
    # 5 enters the 7-cycle at 13, above itself
    ("pxr:p=5,r=1", Limits(200, 10**12), 5, 726),
    # 1 enters the 6-cycle at 3, above itself
    ("pxr:p=7,r=5", Limits(), 1, 854),
])
def test_escapee_hands_only_the_remaining_descent_starts(monkeypatch, text, limits, escapee,
                                                        handed):
    # at the first escapee the range engine gets that start and the descent's
    # starts after it, in the window 1..2000, and no partition is run; window
    # values that are not starts get memo entries only from the walks
    desc = parse_descriptor(text)
    want = list(partition(desc, 2000, limits).cycles)
    calls = []
    kernel = partition_module._classify

    def spy(desc, starts, first, last, limits, memo, *arrays):
        starts = list(starts)
        cycles, applications, jumps = kernel(desc, starts, first, last, limits, memo, *arrays)
        calls.append((starts, first, last, memo, cycles))
        return cycles, applications, jumps

    monkeypatch.setattr(partition_module, "_classify", spy)
    monkeypatch.setattr(partition_module, "partition", refuse_partition)
    assert find_cycles(desc, 2000, limits) == want
    [(starts, first, last, memo, cycles)] = calls
    assert starts == [x for x in _descent_starts(desc, 2000) if x >= escapee]
    assert (len(starts), first, last) == (handed, 1, 2000)
    check_memo(desc, limits, last, _checkpoint_gap(limits.max_steps), memo, cycles)


JUMP_MAPS = [f"pxr:p={p},r={r}" for p, r in PX_MAPS] + ["collatz", D3.to_text()]


def jump_room(room):
    """partition with a walk starting a jump run given room for room jumps, 1 as the bare rule."""
    return mock.patch.object(partition_module, "_JUMP_ROOM", room)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(JUMP_MAPS), st.integers(15, 250), st.integers(1, 60), st.integers(0, 40),
       st.sampled_from([10**6, 10**9, 10**12, 10**20, 10**40]), st.sampled_from([1, 4]),
       st.just(False))
# the 31-cycle of pxr:p=7,r=5 through 27, members up to 3,688, lies partly above
# 7's floor of 7*2^8: the walk from 7 jumps along it and must find it all the same
@example("pxr:p=7,r=5", 40, 7, 0, 10**12, 4, True)
# the budget ends inside a jump run, and runs stop short of the ceiling, which
# their walks reach in single steps
@example("pxr:p=5,r=1", 200, 1, 39, 10**12, 4, True)
# walks with runs end at the cap, meet an open entry and meet a cycle member
@example("pxr:p=5,r=1", 80, 1, 119, 10**40, 4, True)
# from 1 the walk passes 3*2^8 at 1,579, where q = 6 is below its class's Q =
# 10 and the steepest line, 3,954, misses the largest point ahead, 4,004: a
# jump from there would pass over the ceiling
@example("d=2;m0=1,r0=10;m1=5,r1=13", 60, 1, 2, 4000, 4, True)
# a jump lands on Brent's mark: the walk from 5 finds the 10-cycle through 11
# right after jumping over its entry
@example("pxr:p=31,r=21", 40, 5, 0, 10**12, 4, True)
def test_jumps_keep_every_verdict(text, max_steps, lo, width, max_value, room, jumped):
    # small windows, so that orbits climb far past the floor last*d^K and
    # jump, on every map of the grids: records, cycles and scan are
    # per-start iterate's, and every memo entry is a fresh iterate
    desc, limits, hi = parse_descriptor(text), Limits(max_steps, max_value), lo + width
    argv = ["scan", text, "--start", str(lo), "--end", str(hi),
            "--max-steps", str(max_steps), "--max-value", str(max_value)]
    buf = io.StringIO()
    with jump_room(room), mock.patch.object(cli.sys, "stdout", buf):
        res = partition(desc, hi, limits, start=lo)
        assert main(argv) == 0
        check_memo(desc, limits, hi, *classify_window(desc, hi, limits, start=lo))
    assert list(res.records()) == [
        (x, rep.status, rep.entry_index, rep.max_excursion, rep.cycle)
        for x in range(lo, hi + 1) for rep in [iterate(desc, x, limits)]]
    assert list(res.cycles) == reference_cycles(desc, lo, hi, limits)
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    assert rows == reference_scan_rows(desc, lo, hi, limits)
    assert res.jumps > 0 or not jumped


@pytest.mark.parametrize("ahead", [16, 24])
def test_open_entry_met_after_a_jump(ahead):
    # the walk from 7 under pxr:p=7,r=5 enters the 31-cycle through 27 and
    # jumps along it to 202, where an open entry vouches for ahead distinct
    # points of the cycle; their last lies where the jump passed, so 7 is
    # walked again in single steps.  With 16 ahead that last point is not on
    # the walk's path and the entry stands; with 24 it is, the entry lies on a
    # cycle through the path, and the walk steps on past it to the cap
    desc, limits = pxr(7, 5), Limits(15, 10**12)
    ahead_points = [202]
    for _ in range(ahead):
        ahead_points.append(desc.apply(ahead_points[-1]))
    memo = {202: (_OPEN + ahead, ahead_points[-1], 0)}
    codes, steps, excs, cids = bytearray(1), [None], [0], [None]
    with jump_room(1):
        cycles, _applications, jumps = _classify(desc, [7], 7, 7, limits, memo, codes, steps, excs,
                                                 cids)
    rep = iterate(desc, 7, limits)
    assert jumps > 0 and rep.status is TrajectoryStatus.HIT_STEP_LIMIT
    assert (codes[0], steps[0], excs[0]) == (partition_module._STEP_LIMIT, None, rep.max_excursion)
    check_memo(desc, limits, 7, _checkpoint_gap(15), memo, cycles)


def test_a_jump_onto_brents_mark_counts_its_steps():
    # under pxr:p=31,r=21 the walk from 5 passes 5*2^8 at 2,816, step 6, and
    # jumps 8 steps to 11, step 14, Brent's mark since step 4: it has found the
    # 10-cycle through 11, whose entry at step 1 the jump passed over, so 5 is
    # walked again in single steps.  That is 6 + 8 steps to the mark, the jump
    # counting as its K, and 26 more for the second walk, which passes the
    # first repeat at step 11 and meets Brent's mark, moved to step 16, at 26
    res = partition(pxr(31, 21), 5, Limits(40, 10**12), start=5)
    assert (res.jumps, res.applications) == (1, 40)
    assert list(res.records()) == [(5, TrajectoryStatus.ENTERED_CYCLE, 1, 2816, res.cycles[0])]


def test_walks_below_the_floor_build_no_table():
    # Collatz orbits from 1..300 stay below 300*2^8, so no walk jumps, the
    # class table is never built and no run is recorded
    desc = collatz()
    res = partition(desc, 300)
    assert max(res._excursions) < 300 << 8
    assert res.jumps == 0 and "class_levels" not in desc.__dict__


def test_a_few_jumps_fill_a_few_entries():
    # Collatz 1..5000 passes 5000*2^8 on 3 walks: their jumps fill the
    # entries they land through, not the 256 classes mod 2^8
    desc = collatz()
    res = partition(desc, 5000)
    filled = sum(entry is not None for entry in desc.class_levels[8])
    assert 0 < res.jumps and 0 < filled <= res.jumps


# d = 17 leaves one step a class mod 17 <= 256 < 17^2, too few for a table
D17 = validate(MapDescriptor(
    17, ((1, 0),) + tuple((35, -(-35 * i // 17) * 17 - 35 * i) for i in range(1, 17))))


def test_no_jumps_below_two_table_steps():
    # the orbits of D17 climb to the ceiling in single steps
    desc = D17
    limits = Limits(200, 10**12)
    assert desc.class_steps == 1
    res = partition(desc, 40, limits)
    assert res.counts()["D2?"] > 0 and res.jumps == 0 and "class_levels" not in desc.__dict__
    assert list(res.records()) == [
        (x, rep.status, rep.entry_index, rep.max_excursion, rep.cycle)
        for x in range(1, 41) for rep in [iterate(desc, x, limits)]]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([collatz(), D3, D17, *(pxr(p, r) for p, r in PX_MAPS)]),
       st.integers(1, 2**100), st.integers(1, 300))
# 3 lies in a class mod 2^8 whose line holds only from its Q up: the line
# gives 1 where the largest of the 8 points from 3 is 4
@example(pxr(3, -1), 3, 9)
def test_peak_is_the_orbits_maximum(desc, v, count):
    # the largest of the first count orbit points from v, hops through the
    # class table included, and one step counted for each point past v
    points = iterate(desc, v, Limits(count - 1, 1 << 4096)).steps if count > 1 else (v,)
    assert partition_module._peak(desc, v, count) == (max(points), count - 1)


def test_memo_keeps_checkpoints_above_the_window():
    # pxr:p=5,r=1 climbs to the ceiling from most starts; a verdict within the
    # budget is kept above the window only at checkpoint depths (gap 14 here),
    # where the rule that kept every one held 21,049 entries, and only on the
    # points a walk steps to, not those it jumps over above 2000*2^8, where
    # storing every checkpoint held 3,114
    limits = Limits(max_steps=200, max_value=10**12)
    k, memo, _cycles = classify_window(pxr(5, 1), 2000, limits)
    assert k == 14 and len(memo) == 2160


@TIGHT_LIMITS
@SMALL_DOMAINS
def test_records_equal_iterate(desc, bound, limits):
    # the internal step-limit / value-limit split of D2? is iterate's status,
    # and each convergent point keeps the cycle iterate finds
    res = partition(desc, bound, limits)
    for x, status, steps, exc, cycle in res.records():
        rep = iterate(desc, x, limits)
        assert (status, steps, exc, cycle) == (
            rep.status, rep.entry_index, rep.max_excursion, rep.cycle), x


def test_grid_reaches_every_status():
    # the grid above is only a check of the D2? split if both limits occur
    limits = Limits(max_steps=30, max_value=400)
    statuses = {status for _x, status, *_ in partition(collatz(), 300, limits).records()}
    assert statuses == set(TrajectoryStatus)


def test_csv_golden():
    res = partition(collatz(), 12)
    buf = io.StringIO()
    export_csv(res, buf)
    assert buf.getvalue() == (
        "x,class,steps_to_cycle,max_excursion\n"
        "1,C,0,2\n"
        "2,C,0,2\n"
        "3,D1,4,8\n"
        "4,D1,1,4\n"
        "5,D1,3,8\n"
        "6,D1,5,8\n"
        "7,D1,10,26\n"
        "8,D1,2,8\n"
        "9,D1,12,26\n"
        "10,D1,4,10\n"
        "11,D1,9,26\n"
        "12,D1,6,12\n"
    )


@pytest.mark.parametrize("desc,start,bound,limits,count", [
    (collatz(), 1, 5000, Limits(max_steps=10**5, max_value=10**40), 8388),
    (pxr(5, 1), 1, 2000, Limits(max_steps=200, max_value=10**12), 93932),
    (pxr(5, 1), 1300, 1899, Limits(max_steps=200, max_value=10**12), 39295),
    # checkpoints past the budget, open entries and most excursions from _peak
    (pxr(5, 1), 1, 20000, Limits(max_steps=50, max_value=10**40), 1058225),
    (D3, 1, 120, Limits(max_steps=21, max_value=10**12), 120),
])
def test_applications_count_every_map_step(desc, start, bound, limits, count):
    # every map step the kernel takes, exactly: the steps up to each verdict,
    # a class-table jump counting as its K steps, and Brent's overshoot, the
    # steps a walk that finds a cycle takes past its first repeat before the
    # mark comes round (2 for Collatz's (1 2); for pxr:p=5,r=1, 23 from 1 over
    # its three cycles; none for D3's two fixed points), and the steps a walk
    # that merges into a stored orbit above the window takes on to the next
    # value kept there.  _peak counts the steps to its points, a hop as its K,
    # so a step-limited start whose excursion it reads adds the steps from
    # the point it starts at to the start's last point.  Those are most of
    # the pxr rows' steps (66,620, 17,392 and 798,015 of them).  The pxr rows
    # also count more steps than walks of single steps do: a jump passes over
    # stored values a walk would have merged into, and a start whose verdict
    # may rest on a point a jump passed over is walked a second time, in
    # single steps, both walks counted (4, 1 and 144 starts here, whose second
    # walks take 736, 135 and 13,996 steps).  No Collatz or D3 walk here
    # passes over one.
    assert partition(desc, bound, limits, start).applications == count


RANGE_FLAGS = {
    "collatz": ["--max-steps", "100000", "--max-value", "10^40"],
    "pxr:p=5,r=1": ["--max-steps", "200", "--max-value", "10^12"],
}


@pytest.mark.parametrize("map_text,bound,flags,digests", [
    pytest.param("collatz", 5000, RANGE_FLAGS["collatz"], (
        "5c8114973117664f0858766495127688adb912c6d00db6eebecfd6b85b129b1a",
        "b5305340f0f80bfca2c1343e6ba0d3329cfcd43a785768486bd15b555660b858"),
        id="collatz-5000-digests0"),
    pytest.param("pxr:p=5,r=1", 2000, RANGE_FLAGS["pxr:p=5,r=1"], (
        "221b6da108af1607052b14dfaa2d26a29674eb673f689e897ae9d6d50bf8dc50",
        "0c6a58cb3f03eaf2da9eb8123589f55fa70bbbf6e882ae9bdba7793e7722cb2b"),
        id="pxr:p=5,r=1-2000-digests1"),
    # a small budget: nearly every start is step-limited, so most of the
    # excursions are read beyond the walks' paths
    pytest.param("pxr:p=5,r=1", 20000, ["--max-steps", "50", "--max-value", "10^40"], (
        "588ce72f5b97e84d5f4d983d0de2a20192e4db999cfdcac2c431782b72588ef5",
        "cd16519771a4c92867d8432ba2c3f58eaadb3560f26a3e1363644db1b27f845f"),
        id="pxr:p=5,r=1-20000-max-steps-50"),
])
def test_cli_partition_output_pinned(map_text, bound, flags, digests, capsys, tmp_path):
    # SHA-256 of the JSON on stdout and of the CSV, as the engine printed
    # them when it stepped the map through MapDescriptor.apply
    csv_path = tmp_path / "partition.csv"
    argv = ["partition", map_text, "--bound", str(bound), "--csv", str(csv_path)]
    assert main([*argv, *flags]) == 0
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(),
            hashlib.sha256(csv_path.read_bytes()).hexdigest()) == digests


@pytest.mark.parametrize("argv,digest", [
    (["cycles", "collatz", "--bound", "5000"],
     "b5282d57b92576f00dfe39a700997d524271b667d655ad2489ee2e755d059fe4"),
    (["scan", "collatz", "--start", "3001", "--end", "4500"],
     "5a2f70f77e525564cbf08009948d412132d2b9efb004ed317772bf66549e22a4"),
    (["cycles", "pxr:p=5,r=1", "--bound", "2000"],
     "aa34156b3c8b50e78fbb7055b3e7d5cc419a904725959d0cf7b86ac1e1803ad2"),
    (["scan", "pxr:p=5,r=1", "--start", "1300", "--end", "1899"],
     "3dabb5f7492d413af6cbc337d79675876305eba99788bd19b8d6d26674e6a6d8"),
    (["scan", "pxr:p=5,r=1", "--start", "1200", "--end", "1799"],
     "fc03b96091433bdecef435800e42b228837dda42aab103c08a369f5daefeba88"),
])
def test_cli_cycles_and_scan_output_pinned(argv, digest, capsys):
    # SHA-256 of the whole stdout, at the sizes and limits of the range benchmarks
    assert main([*argv, *RANGE_FLAGS[argv[1]]]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_csv_d2_rows_leave_steps_empty():
    res = partition(pxr(5, 1), 10, Limits(max_steps=100, max_value=10**6))
    buf = io.StringIO()
    export_csv(res, buf)
    lines = buf.getvalue().splitlines()
    row7 = next(l for l in lines if l.startswith("7,"))
    assert row7.split(",")[1] == "D2?"
    assert row7.split(",")[2] == ""


def test_summary_shape():
    res = partition(collatz(), 50)
    d = summary_dict(res)
    assert d["map"] == "d=2;m0=1,r0=0;m1=3,r1=1"
    assert d["domain_bound"] == "50"
    assert d["counts"] == {"C": 2, "D1": 48, "D2?": 0}
    assert d["cycles"] == [["1", "2"]]
    assert d["limits"]["max_steps"] == 10**5


def test_million_point_convergence():
    # every start below 10^6 reaches {1, 2} within 10^4 steps
    res = partition(collatz(), 10**6, Limits(max_steps=10**4, max_value=10**40))
    assert res.d2_candidates == frozenset()
    assert sorted(res.c_set) == [1, 2]
