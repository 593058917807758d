"""cycles, scan and find_cycles against per-start iterate().

scan reads partition's shared memo; find_cycles, and cycles through it,
walk each start by descent and, at the first start that neither falls
below nor returns to itself, hand that start and the descent's later
starts to the range engine.  Past d^K the descent walks only the starts
that no residue class proves to fall; every start it skips is checked to
fall by plain apply calls.  The reference
functions below walk every start on its own with iterate(), as the range
subcommands did before they were rebuilt on partition; both engines must
reproduce them exactly, whatever --threads says.
"""

import concurrent.futures
import importlib
import io
import json
import math
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from syrdyn import cli
from syrdyn.cli import main
from syrdyn.errors import DomainError, InvalidParameters
from syrdyn.maps import MapDescriptor, collatz, parse_descriptor, pxr, validate
from syrdyn.partition import partition
from syrdyn.trajectory import (
    CycleInfo, Limits, TrajectoryStatus, _class_pass, _descent_starts, find_cycles, iterate)

partition_module = importlib.import_module("syrdyn.partition")  # syrdyn.partition is the function


def reference_scan_rows(desc, lo, hi, limits):
    rows = []
    for x in range(lo, hi + 1):
        rep = iterate(desc, x, limits)
        entered = rep.status is TrajectoryStatus.ENTERED_CYCLE
        rows.append([
            str(x),
            rep.status.value,
            str(rep.entry_index) if entered else "",
            str(rep.max_excursion),
            str(rep.cycle.min_member) if entered else "",
        ])
    return rows


def reference_cycles(desc, lo, hi, limits):
    found = {}
    for start in range(lo, hi + 1):
        rep = iterate(desc, start, limits)
        if rep.status is TrajectoryStatus.ENTERED_CYCLE:
            found.setdefault(rep.cycle.members, rep.cycle)
    return sorted(found.values(), key=lambda c: c.members[0])


# (map text, descriptor, limits, CLI limit flags)
CASES = [
    ("collatz", collatz(), Limits(), []),
    ("pxr:p=5,r=1", pxr(5, 1), Limits(max_steps=50), ["--max-steps", "50"]),
    ("pxr:p=5,r=1", pxr(5, 1), Limits(max_steps=200, max_value=10**12),
     ["--max-steps", "200", "--max-value", "1e12"]),
    ("pxr:p=7,r=5", pxr(7, 5), Limits(max_value=10**6), ["--max-value", "1e6"]),
]
IDS = ["collatz", "5x+1-steps50", "5x+1-steps200-value1e12", "7x+5-value1e6"]
LO, HI = 151, 420  # a window that does not start at 1


def run(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("text,desc,limits,flags", CASES, ids=IDS)
def test_scan_rows_match_reference(capsys, text, desc, limits, flags, threads):
    code, out = run(capsys, "scan", text, "--start", str(LO), "--end", str(HI),
                    "--threads", threads, *flags)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,status,steps_to_cycle,max_excursion,cycle_min"
    assert [line.split(",") for line in lines[1:]] == reference_scan_rows(desc, LO, HI, limits)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("text,desc,limits,flags", CASES, ids=IDS)
def test_cycles_match_reference(capsys, text, desc, limits, flags, threads):
    code, out = run(capsys, "cycles", text, "--bound", str(HI), "--threads", threads, *flags)
    assert code == 0
    want = [[str(v) for v in c.members] for c in reference_cycles(desc, 1, HI, limits)]
    assert json.loads(out)["cycles"] == want


@pytest.mark.parametrize("text,desc,limits,flags", CASES, ids=IDS)
def test_find_cycles_matches_reference(text, desc, limits, flags):
    assert find_cycles(desc, HI, limits) == reference_cycles(desc, 1, HI, limits)


@pytest.mark.parametrize("text,desc,limits,flags", CASES, ids=IDS)
def test_window_agrees_with_full_range(text, desc, limits, flags):
    full = partition(desc, HI, limits)
    window = partition(desc, HI, limits, start=LO)
    assert list(window.records()) == list(full.records())[LO - 1:]
    assert window.counts() == {
        cls: sum(1 for x in range(LO, HI + 1) if full.class_of(x) == cls)
        for cls in ("C", "D1", "D2?")
    }
    assert window.d2_candidates == {x for x in full.d2_candidates if x >= LO}
    for x in (LO, (LO + HI) // 2, HI):
        assert window.class_of(x) == full.class_of(x)
        assert window.steps_to_cycle(x) == full.steps_to_cycle(x)
        assert window.max_excursion(x) == full.max_excursion(x)


def test_cycle_found_past_every_budget_is_not_listed(capsys):
    # walks look past max_steps for a verdict; from 279..383 they find six
    # cycles of pxr:p=5,r=3 that no start enters within 5 steps
    desc, limits = pxr(5, 3), Limits(5, 10**12)
    assert reference_cycles(desc, 279, 383, limits) == []
    assert partition(desc, 383, limits, start=279).cycles == ()
    want = [[str(v) for v in c.members] for c in reference_cycles(desc, 1, 383, limits)]
    for threads in ("1", "2"):
        code, out = run(capsys, "cycles", "pxr:p=5,r=3", "--bound", "383", "--threads", threads,
                        "--max-steps", "5", "--max-value", "1e12")
        assert code == 0
        assert json.loads(out)["cycles"] == want


GRID_MAPS = ["collatz", "pxr:p=5,r=1", "d=3;m0=1,r0=0;m1=2,r1=1;m2=2,r2=2"]
PX_MAPS = [(p, r) for p in (3, 5, 7, 9, 11) for r in range(2 - p, p, 2) if math.gcd(p, r) == 1]


def falls_by_its_class(desc, x):
    """Whether T^j(x) < x, by j apply calls, at the first j <= K with T^j's multiplier below d^j.

    That multiplier is the product of the branch multipliers along x's first
    j steps, and it is the same on x's whole class mod d^j.
    """
    d, am, v = desc.d, 1, x
    for j in range(1, desc.class_steps + 1):
        am *= desc.branches[v % d][0]
        v = desc.apply(v)
        if am < d ** j:
            return v < x
    return False


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GRID_MAPS + [f"pxr:p={p},r={r}" for p, r in PX_MAPS]),
       st.one_of(st.integers(1, 1000), st.integers(256, 1000)),
       st.one_of(st.integers(1, 8), st.integers(1, 400)),
       st.one_of(st.integers(10, 5000), st.integers(10, 10**40)))
# start 1 enters the 6-cycle at 3, above the bound
@example("pxr:p=7,r=5", 2, 10**5, 10**40)
# start 1 is the first escapee, so every descent start is handed on
@example("pxr:p=7,r=5", 300, 10**5, 10**40)
# the 7-cycle at 13 lies above the bound, and start 5, the first escapee, enters it
@example("pxr:p=5,r=1", 12, 10**5, 10**40)
# start 5 reaches the 7-cycle at 13 in one step
@example("pxr:p=5,r=1", 5, 10**5, 10**40)
# and enters it in 8 steps, before Brent's mark comes round
@example("pxr:p=5,r=1", 5, 8, 10**40)
# the 31-cycle at 27 is longer than the step budget
@example("pxr:p=7,r=5", 40, 30, 10**12)
# the 7-cycle at 13 climbs past the ceiling
@example("pxr:p=5,r=1", 10, 10**5, 20)
# so does the 11-cycle at 17, and every start below 17 falls or returns first
@example("pxr:p=3,r=-1", 20, 10**5, 100)
# 259 = 3 mod 16 is skipped and falls at step 4, past the step budget; start
# 3 does not fall within it either, so it and the later starts are handed on
@example("collatz", 300, 3, 10**40)
# 997 = 1 mod 4 is skipped and falls at step 2, through 1496, above max_value
@example("collatz", 1000, 10**5, 1000)
# every start of the d = 3 map past 3^5 is skipped and falls at step 1
@example("d=3;m0=1,r0=0;m1=2,r1=1;m2=2,r2=2", 1000, 1, 1000)
# the even class falls at step 1 only past x = 400, so 256..400 are walked
# before the classes mod 2^8 that never fall take over
@example("d=2;m0=1,r0=400;m1=3,r1=41", 1000, 10**5, 10**40)
def test_find_cycles_by_descent_matches_partition(text, bound, max_steps, max_value):
    desc, limits = parse_descriptor(text), Limits(max_steps, max_value)
    bound = min(bound, max_value)
    want = reference_cycles(desc, 1, bound, limits)
    assert list(partition(desc, bound, limits).cycles) == want
    assert find_cycles(desc, bound, limits) == want
    # the descent skips exactly the starts past d^K that fall below
    # themselves at their class's level, whatever the limits
    top = desc.d ** desc.class_steps
    assert list(_descent_starts(desc, bound)) == [
        x for x in range(1, bound + 1) if x < top or not falls_by_its_class(desc, x)]


@pytest.mark.parametrize("desc,survivors", [
    (collatz(), [1, 1, 2, 3, 4, 8, 13, 19]),
    (pxr(3, -1), [1, 1, 2, 3, 4, 8, 13, 19]),
    (pxr(5, 1), [1, 2, 3, 6, 10, 20, 35, 70]),
    (pxr(5, 3), [1, 2, 3, 6, 10, 20, 35, 70]),
    (pxr(7, 5), [1, 2, 3, 6, 12, 22, 44, 88]),
], ids=lambda v: v.to_text() if isinstance(v, MapDescriptor) else "")
def test_class_pass_survivors(desc, survivors):
    # the classes mod 2^j whose multiplier is still at least 2^j, j = 1..8
    nodes = list(_class_pass(desc))
    assert [sum(1 for _a, i, am, _b in nodes if i == j and am >= 2 ** j)
            for j in range(1, 9)] == survivors
    assert len(nodes) == len({(a, j) for a, j, _am, _b in nodes})


@pytest.mark.parametrize("text,bound,walked", [
    ("collatz", 5000, 606),
    ("d=3;m0=1,r0=0;m1=2,r1=1;m2=2,r2=2", 10**5, 242),
])
def test_walked_start_counts(text, bound, walked):
    assert sum(1 for _x in _descent_starts(parse_descriptor(text), bound)) == walked


@pytest.mark.parametrize("bound", [1, 300, 3000])
def test_map_without_class_table_walks_every_start(bound):
    # d = 257 is past the 256-class table, so class_steps is 0 and no class
    # proves any start to fall
    d = 257
    desc = validate(MapDescriptor(d, tuple((1, d - i) for i in range(d))))
    assert desc.class_steps == 0
    assert list(_descent_starts(desc, bound)) == list(range(1, bound + 1))
    assert find_cycles(desc, bound) == list(partition(desc, bound).cycles) == [
        CycleInfo((1,))]
    assert desc.class_levels == [[None]]


def refuse_partition(*args, **kwargs):
    raise AssertionError("partition was called")


def test_descent_without_escapees_calls_no_partition(capsys, monkeypatch):
    # every start falls below or returns to itself, so the descent alone
    # gives the list, and nothing is stored per start; past 2^8 it walks
    # only the starts whose class does not prove them to fall
    monkeypatch.setattr(partition_module, "partition", refuse_partition)
    assert [c.members for c in find_cycles(collatz(), 10**4)] == [(1, 2)]
    assert [c.members for c in find_cycles(pxr(3, -1), 10**5)] == [
        (1,), (5, 7, 10), (17, 25, 37, 55, 82, 41, 61, 91, 136, 68, 34)]
    # 255 starts below 2^8, and 19 of each 256 past it
    assert sum(1 for _x in _descent_starts(pxr(3, -1), 10**5)) == 7659
    code, out = run(capsys, "cycles", "collatz", "--bound", "20000")
    assert code == 0 and json.loads(out)["cycles"] == [["1", "2"]]


@pytest.mark.parametrize("argv,err", [
    (["cycles", "collatz", "--bound", "0"], "error: end must be >= start 1, got 0\n"),
    (["cycles", "collatz", "--bound", "4e6"],
     "error: window 1..4000000 has 4000000 points, above the cap of 3500000; "
     "partition stores every point\n"),
    (["cycles", "collatz", "--bound", "100", "--max-value", "50"],
     "error: end 100 exceeds max_value 50\n"),
    (["measure", "collatz", "--depth", "3", "--cycle-bound", "0"],
     "error: end must be >= start 1, got 0\n"),
], ids=["bound0", "cap", "ceiling", "measure-bound0"])
def test_cycle_search_refuses_through_check_window(capsys, monkeypatch, argv, err):
    monkeypatch.setattr(partition_module, "partition", refuse_partition)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", err)



@st.composite
def windows(draw):
    max_value = draw(st.one_of(st.integers(1, 5000), st.integers(1, 10**15)))
    lo = draw(st.integers(1, min(max_value, 3000)))
    hi = draw(st.integers(lo, min(max_value, lo + 120)))
    return max_value, lo, hi


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GRID_MAPS), st.integers(1, 60), windows())
@example("pxr:p=5,r=1", 1, (10**12, 279, 383))
@example("collatz", 60, (400, 1, 120))
# a cycle whose first repeat lies before the walk's cap and Brent's next match past it
@example("pxr:p=7,r=5", 15, (10**12, 27, 40))
def test_records_cycles_and_scan_match_iterate(text, max_steps, window):
    max_value, lo, hi = window
    desc, limits = parse_descriptor(text), Limits(max_steps, max_value)
    res = partition(desc, hi, limits, start=lo)
    reps = [iterate(desc, x, limits) for x in range(lo, hi + 1)]
    assert list(res.records()) == [
        (rep.start, rep.status, rep.entry_index, rep.max_excursion, rep.cycle) for rep in reps]
    assert list(res.cycles) == reference_cycles(desc, lo, hi, limits)
    argv = ["scan", text, "--start", str(lo), "--end", str(hi),
            "--max-steps", str(max_steps), "--max-value", str(max_value)]
    outs = []
    for threads in ("1", "2"):
        buf = io.StringIO()
        with mock.patch.object(cli.sys, "stdout", buf):
            assert main([*argv, "--threads", threads]) == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]


def test_window_near_the_ceiling_stores_only_the_window():
    lo = 10**39
    res = partition(collatz(), lo + 20, start=lo)
    assert len(res._codes) == len(res._steps) == 21
    assert list(res.records()) == [
        (x, rep.status, rep.entry_index, rep.max_excursion, rep.cycle)
        for x in range(lo, lo + 21)
        for rep in [iterate(collatz(), x)]
    ]


def test_window_domain_checks():
    res = partition(collatz(), 20, start=10)
    with pytest.raises(DomainError):
        res.class_of(9)
    with pytest.raises(InvalidParameters):
        partition(collatz(), 9, start=10)
    with pytest.raises(InvalidParameters):
        partition(collatz(), 9, start=0)


def no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


class TestWorkerPlan:
    # --threads is accepted and ignored: no request starts a process pool

    def test_huge_thread_request_runs_inline(self, capsys, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, many = run(capsys, "scan", "collatz", "--start", "1", "--end", "40",
                         "--threads", "10000")
        assert code == 0
        code, cyc = run(capsys, "cycles", "pxr:p=5,r=1", "--bound", "300", "--threads", "10000")
        assert code == 0
        assert many == run(capsys, "scan", "collatz", "--start", "1", "--end", "40")[1]
        assert cyc == run(capsys, "cycles", "pxr:p=5,r=1", "--bound", "300")[1]


class TestPointCap:
    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(partition_module, "_MAX_POINTS", 10)
        assert len(partition(collatz(), 10)._codes) == 10
        assert len(partition(collatz(), 14, start=5)._codes) == 10
        with pytest.raises(InvalidParameters, match="cap"):
            partition(collatz(), 11)
        with pytest.raises(InvalidParameters, match="cap"):
            partition(collatz(), 15, start=5)

    @pytest.mark.parametrize("argv", [
        ["partition", "collatz", "--bound", "1e12"],
        ["scan", "collatz", "--start", "1", "--end", "1e12", "--threads", "4"],
        ["cycles", "collatz", "--bound", "1e12", "--threads", "4"],
        ["measure", "collatz", "--depth", "3", "--cycle-bound", "1e12"],
    ])
    def test_huge_window_exits_one_at_once(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "above the cap" in err
        assert elapsed < 1

    def test_whole_window_checked(self, capsys, monkeypatch):
        # the window of 12 is over a cap of 10, whatever --threads says
        monkeypatch.setattr(partition_module, "_MAX_POINTS", 10)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        for argv in (["scan", "collatz", "--start", "1", "--end", "12", "--threads", "2"],
                     ["cycles", "collatz", "--bound", "12", "--threads", "2"]):
            assert main(argv) == 1
            assert "above the cap" in capsys.readouterr().err

    def test_ceiling_checked(self, capsys, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        for argv in (["cycles", "collatz", "--bound", "100", "--max-value", "50", "--threads", "2"],
                     ["scan", "collatz", "--start", "1", "--end", "100", "--max-value", "50",
                      "--threads", "2"]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and "exceeds max_value 50" in err


class StoreLog(dict):
    """A memo that records every entry stored in it."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, entry):
        self.stored.append(entry)
        super().__setitem__(key, entry)


class TestMemoBudget:
    # pxr:p=5,r=1 under the default limits keeps about 1.01 memo entries a
    # start: its orbits climb to the ceiling, jumping over the points far above
    # the window
    BUDGET = 4 << 20

    def test_divergent_map_refused_within_the_budget(self, monkeypatch):
        # the window's arrays take most of the budget, so the memo outgrows
        # the rest within a few hundred starts
        monkeypatch.setattr(partition_module, "_MAX_BYTES", self.BUDGET)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameters, match="outgrows its budget of 4 MiB"):
                partition(pxr(5, 1), 150_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.BUDGET

    def test_lower_ceiling_admits_more_starts(self, monkeypatch):
        # a lower max_value means smaller memo entries and shorter walks;
        # output under the budget is what an unlimited run gives.  Under the
        # default limits 1..16,000 keeps 16,133 entries, since jumps store no
        # checkpoint they pass, and fits; 1..17,250 does not
        want = partition(pxr(5, 1), 17_250, Limits(max_value=10**12)).counts()
        monkeypatch.setattr(partition_module, "_MAX_BYTES", self.BUDGET)
        with pytest.raises(InvalidParameters, match="budget"):
            partition(pxr(5, 1), 17_250)
        assert partition(pxr(5, 1), 17_250, Limits(max_value=10**12)).counts() == want

    def test_window_fits_when_only_checkpoints_above_it_are_kept(self, monkeypatch):
        # keeping every verdict within the budget, the memo passed 4 MiB after
        # about 345 of these starts
        want = list(partition(pxr(5, 1), 5000).records())
        monkeypatch.setattr(partition_module, "_MAX_BYTES", self.BUDGET)
        assert list(partition(pxr(5, 1), 5000).records()) == want

    def test_verdicts_past_the_budget_are_dropped_first(self, monkeypatch):
        # pxr:p=5,r=1 with max_steps 50 keeps about 1.5 entries a start, nearly
        # all past the budget, and about 0.05 within it; a budget too small
        # for the former drops them and finishes the window without them
        limits, size = Limits(max_steps=50), 20000
        want = list(partition(pxr(5, 1), size, limits).records())
        monkeypatch.setattr(partition_module, "_MAX_BYTES", 3 << 20)
        assert list(partition(pxr(5, 1), size, limits).records()) == want
        memo = StoreLog()
        steps, excs = [None] * size, [0] * size
        partition_module._classify(pxr(5, 1), range(1, size + 1), 1, size, limits, memo,
                                   bytearray(size), steps, excs, [None] * size)
        assert list(zip(steps, excs)) == [(n, top) for _x, _status, n, top, _c in want]
        # the walks started with gap 7: what they stored past the budget lies
        # at multiples of 7, and the window ended keeping none of it
        past = [depth for depth, _cid, exc in memo.stored if not exc and depth < partition_module._OPEN]
        assert math.gcd(*past) == 7
        assert all(exc for _depth, _cid, exc in memo.values())

    @pytest.mark.parametrize("argv,budget", [
        (["scan", "collatz", "--start", "1", "--end", "20000"], 3_000_000),
        # start 5 enters a cycle above itself, so it and the 5,648 descent starts
        # after it go to the range engine; their arrays are smaller than the
        # window's, and 3,000,000 bytes would hold them and their memo
        (["cycles", "pxr:p=5,r=1", "--bound", "20000"], 2_500_000),
    ], ids=["scan", "cycles"])
    def test_refusal_ignores_threads(self, capsys, monkeypatch, argv, budget):
        # one memo and one budget for the whole window, whatever --threads says,
        # and the refusal names the caller's window
        monkeypatch.setattr(partition_module, "_MAX_BYTES", budget)
        runs = []
        for threads in ("1", "2"):
            code = main([*argv, "--threads", threads])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 1 and out == ""
        assert err.startswith("error: partition of 1..20000 outgrows its budget")

    def test_cli_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(partition_module, "_MAX_BYTES", self.BUDGET)
        assert main(["partition", "pxr:p=5,r=1", "--bound", "3500000"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: partition of 1..3500000 outgrows its budget")
