"""cycles, scan and find_cycles on partition's shared memo, against per-start iterate().

The reference functions below walk every start on its own with iterate(),
as the range subcommands did before they were rebuilt on partition; the
memoized engine must reproduce them exactly, for any worker count.
"""

import concurrent.futures
import importlib
import json
import time
import tracemalloc

import pytest

from syrdyn import cli
from syrdyn.cli import _chunks, _thread_count, main
from syrdyn.errors import DomainError, InvalidParameters
from syrdyn.maps import collatz, pxr
from syrdyn.partition import partition
from syrdyn.trajectory import Limits, TrajectoryStatus, find_cycles, iterate

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
def test_scan_rows_match_reference(capsys, monkeypatch, text, desc, limits, flags, threads):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # two chunks whatever the host
    code, out = run(capsys, "scan", text, "--start", str(LO), "--end", str(HI),
                    "--threads", threads, *flags)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,status,steps_to_cycle,max_excursion,cycle_min"
    assert [line.split(",") for line in lines[1:]] == reference_scan_rows(desc, LO, HI, limits)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("text,desc,limits,flags", CASES, ids=IDS)
def test_cycles_match_reference(capsys, monkeypatch, text, desc, limits, flags, threads):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # two chunks whatever the host
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
    # the chunk plan is min(requested, CPUs, points) chunks; nothing here starts a process

    def test_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert _chunks(1, 1001, _thread_count(10000)) == [(1, 501), (501, 1001)]
        assert _thread_count(10000) == 2

    def test_clamped_to_points(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert _chunks(5, 8, _thread_count(10000)) == [(5, 6), (6, 7), (7, 8)]

    def test_requested_below_cpus(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert _chunks(1, 101, _thread_count(3)) == [(1, 35), (35, 68), (68, 101)]
        assert _thread_count(None) == 1

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert _chunks(1, 101, _thread_count(8)) == [(1, 101)]

    def test_huge_thread_request_runs_inline(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
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
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "above the cap" in err
        assert elapsed < 1

    def test_whole_window_checked_before_fan_out(self, capsys, monkeypatch):
        # two chunks of 6 would each fit under a cap of 10; the window of 12 does not
        monkeypatch.setattr(partition_module, "_MAX_POINTS", 10)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        for argv in (["scan", "collatz", "--start", "1", "--end", "12", "--threads", "2"],
                     ["cycles", "collatz", "--bound", "12", "--threads", "2"]):
            assert main(argv) == 1
            assert "above the cap" in capsys.readouterr().err

    def test_ceiling_checked_before_fan_out(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        for argv in (["cycles", "collatz", "--bound", "100", "--max-value", "50", "--threads", "2"],
                     ["scan", "collatz", "--start", "1", "--end", "100", "--max-value", "50",
                      "--threads", "2"]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and "exceeds max_value 50" in err


class TestMemoBudget:
    # pxr:p=5,r=1 under the default limits keeps about 51 memo entries a start
    BUDGET = 4 << 20

    def test_divergent_map_refused_within_the_budget(self, monkeypatch):
        monkeypatch.setattr(partition_module, "_MAX_BYTES", self.BUDGET)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameters, match="outgrows its budget of 4 MiB"):
                partition(pxr(5, 1), 5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.BUDGET

    def test_lower_ceiling_admits_more_starts(self, monkeypatch):
        # a lower max_value means smaller memo entries and shorter walks;
        # output under the budget is what an unlimited run gives
        want = partition(pxr(5, 1), 1000, Limits(max_value=10**12)).counts()
        monkeypatch.setattr(partition_module, "_MAX_BYTES", self.BUDGET)
        with pytest.raises(InvalidParameters, match="budget"):
            partition(pxr(5, 1), 1000)
        assert partition(pxr(5, 1), 1000, Limits(max_value=10**12)).counts() == want

    def test_cli_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(partition_module, "_MAX_BYTES", self.BUDGET)
        assert main(["partition", "pxr:p=5,r=1", "--bound", "3500000"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: partition of 1..3500000 outgrows its budget")
