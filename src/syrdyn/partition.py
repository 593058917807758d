"""Partition of a finite domain into cycle members, basin points and escapees.

Classes: "C" (on a cycle), "D1" (orbit reaches a cycle within limits), "D2?"
(step or value limit hit first).  The question mark is deliberate: a finite
budget cannot certify true escape, so the third class only collects
candidates, and results always carry the limits used.

This is the one range engine: find_cycles and the CLI's cycles and scan
subcommands read their answers off a PartitionResult.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass, field

from .errors import DomainError, InvalidParameters
from .maps import MapDescriptor
# iterate is not called here; benchmarks/tracing.py patches syrdyn.partition.iterate
from .trajectory import CycleInfo, Limits, TrajectoryStatus, iterate  # noqa: F401

__all__ = ["CLASS_C", "CLASS_D1", "CLASS_D2", "PartitionResult", "partition",
           "check_window", "export_csv", "summary_dict"]

CLASS_C = "C"
CLASS_D1 = "D1"
CLASS_D2 = "D2?"

# per-point codes: 1=C 2=D1; the public class D2? is split by the limit hit
# first, so scan can report iterate's status without re-walking
_C, _D1, _STEP_LIMIT, _VALUE_LIMIT = 1, 2, 3, 4
_CODE_NAMES = {_C: CLASS_C, _D1: CLASS_D1, _STEP_LIMIT: CLASS_D2, _VALUE_LIMIT: CLASS_D2}
_CODE_STATUS = {
    _C: TrajectoryStatus.ENTERED_CYCLE,
    _D1: TrajectoryStatus.ENTERED_CYCLE,
    _STEP_LIMIT: TrajectoryStatus.HIT_STEP_LIMIT,
    _VALUE_LIMIT: TrajectoryStatus.HIT_VALUE_LIMIT,
}

# windows of more points than this are refused, before anything is stored;
# the window arrays take about 25 B a point.  Most of a call's memory is the
# orbit memo, which the byte budget below bounds.
_MAX_POINTS = 3_500_000

# each partition call holds its window arrays and orbit memo to this many
# bytes, at _POINT_BYTES a window point (a code byte and three list slots)
# and _ENTRY_BYTES a memo entry (a 3-tuple, a step count and a dict slot at
# its worst, 90 B while a growing table is copied) plus one int of
# max_value's size, since no memo value exceeds max_value.  The memo is the
# cost that varies: under the default limits Collatz keeps about 1.6 entries
# a start, so a window of about 2.7 M starts fits, while pxr:p=5,r=1 keeps
# about 51 (8.4 KB a start under tracemalloc) and stops after about 87,000.
_MAX_BYTES = 1 << 30
_POINT_BYTES = 25
_ENTRY_BYTES = 182


@dataclass
class PartitionResult:
    """Per-point classification of start..domain_bound; arrays index by x - start."""

    descriptor: MapDescriptor
    domain_bound: int
    limits: Limits
    cycles: tuple[CycleInfo, ...]
    start: int
    _codes: bytearray = field(repr=False)       # one of the per-point codes above
    _steps: list = field(repr=False)            # steps_to_cycle, None for D2?
    _excursions: list = field(repr=False)
    _cycle_of: list = field(repr=False)         # the CycleInfo entered, None for D2?
    _sets: dict = field(default_factory=dict, repr=False)

    def _index(self, x: int) -> int:
        if type(x) is not int or not self.start <= x <= self.domain_bound:
            raise DomainError(
                f"{x!r} is outside the classified domain {self.start}..{self.domain_bound}"
            )
        return x - self.start

    def class_of(self, x: int) -> str:
        return _CODE_NAMES[self._codes[self._index(x)]]

    def steps_to_cycle(self, x: int) -> int | None:
        """Index of the first orbit point on the eventual cycle; None for D2?."""
        return self._steps[self._index(x)]

    def max_excursion(self, x: int) -> int:
        return self._excursions[self._index(x)]

    def records(self):
        """Iterate (x, status, steps_to_cycle, max_excursion, cycle) over x in order.

        Each tuple carries what iterate reports for x under the same limits:
        its status, entry_index, max_excursion and cycle (None unless entered).
        """
        return zip(
            range(self.start, self.domain_bound + 1),
            map(_CODE_STATUS.__getitem__, self._codes),
            self._steps,
            self._excursions,
            self._cycle_of,
        )

    def _class_set(self, codes: tuple[int, ...]) -> frozenset:
        if codes not in self._sets:
            self._sets[codes] = frozenset(
                x for x, code in zip(range(self.start, self.domain_bound + 1), self._codes)
                if code in codes
            )
        return self._sets[codes]

    @property
    def c_set(self) -> frozenset:
        return self._class_set((_C,))

    @property
    def d1_set(self) -> frozenset:
        return self._class_set((_D1,))

    @property
    def d2_candidates(self) -> frozenset:
        return self._class_set((_STEP_LIMIT, _VALUE_LIMIT))

    def counts(self) -> dict[str, int]:
        codes = self._codes
        return {
            CLASS_C: codes.count(_C),
            CLASS_D1: codes.count(_D1),
            CLASS_D2: codes.count(_STEP_LIMIT) + codes.count(_VALUE_LIMIT),
        }


def _backfill(memo, path, end, steps, cid, exc, budget):
    """Give path[:end] the verdict (steps, cid, exc) of the value after path[end - 1].

    path[i] lies end - i steps before that value, so each entry gains a step
    and takes the running maximum of the excursion.  An entry is stored only
    while its steps stay within budget: max_steps less the cycle length, or
    less 0 for a ceiling verdict.  That is the number of applications a fresh
    iterate needs to reach the same verdict, and steps only grow towards
    path[0], so the first entry over budget ends the fill.
    """
    for i in range(end - 1, -1, -1):
        steps += 1
        if steps > budget:
            break
        v = path[i]
        if v > exc:
            exc = v
        memo[v] = (steps, cid, exc)


def _walk(desc, x, limits, memo, cycles, cycle_ids):
    """Classify x, growing the memo only with budget-safe entries.

    memo maps a value to (steps, cycle_id, max_excursion).  A cycle_id of
    None is a ceiling verdict, and steps then counts the applications up to
    the first value above max_value; otherwise steps is the index of the
    first orbit point on cycles[cycle_id].  _backfill stores an entry only
    when a fresh walk from that value, with the full step budget, would
    reproduce it, so results stay bit-identical to a per-point iterate.  If
    x itself is not stored, its verdict lies past its budget and its first
    max_steps + 1 orbit points lie at or below max_value: the walk goes on
    to that length and reports a step-limit hit.

    Returns (code, steps_to_cycle, max_excursion, cycle_id) for x; the
    second and last are None for the two limit codes.
    """
    rec = memo.get(x)
    if rec is None:
        max_steps = limits.max_steps
        path = [x]
        pos = {x: 0}
        while len(path) <= max_steps:
            nxt = desc.apply(path[-1])
            hit = memo.get(nxt)
            if hit is not None:
                steps, cid, exc = hit
                length = 0 if cid is None else cycles[cid].length
                _backfill(memo, path, len(path), steps, cid, exc, max_steps - length)
                break
            entry = pos.get(nxt)
            if entry is not None:
                # a fresh cycle; detection took len(path) <= max_steps
                # applications, and every path point needs no more
                cycle = CycleInfo.from_orbit(tuple(path[entry:]))
                cid = cycle_ids.get(cycle.members)
                if cid is None:
                    cid = len(cycles)
                    cycles.append(cycle)
                    cycle_ids[cycle.members] = cid
                cyc_max = max(cycle.members)
                for v in cycle.members:
                    memo[v] = (0, cid, cyc_max)
                _backfill(memo, path, entry, 0, cid, cyc_max, max_steps - cycle.length)
                break
            if nxt > limits.max_value:
                # nxt is dropped from the orbit, so it adds nothing to the excursion
                _backfill(memo, path, len(path), 0, None, 0, max_steps)
                break
            pos[nxt] = len(path)
            path.append(nxt)
        rec = memo.get(x)
        if rec is None:
            # out of budget; intermediates keep their larger budgets for later
            while len(path) <= max_steps:
                path.append(desc.apply(path[-1]))
            return _STEP_LIMIT, None, max(path), None
    steps, cid, exc = rec
    if cid is None:
        return _VALUE_LIMIT, None, exc, None
    return (_C if steps == 0 else _D1), steps, exc, cid


def check_window(start: int, end: int, limits: Limits) -> None:
    """Raise InvalidParameters unless start..end is a window partition can classify.

    That needs 1 <= start <= end <= limits.max_value, so every point is
    iterable inside the box, and at most _MAX_POINTS points, since partition
    stores every one.  The range subcommands call this before any worker
    starts.
    """
    if type(start) is not int or start < 1:
        raise InvalidParameters(f"start must be >= 1, got {start!r}")
    if type(end) is not int or end < start:
        raise InvalidParameters(f"end must be >= start {start}, got {end!r}")
    if end > limits.max_value:
        raise InvalidParameters(f"end {end} exceeds max_value {limits.max_value}")
    size = end - start + 1
    if size > _MAX_POINTS:
        raise InvalidParameters(
            f"window {start}..{end} has {size} points, above the cap of "
            f"{_MAX_POINTS}; partition stores every point"
        )


def partition(
    desc: MapDescriptor, domain_bound: int, limits: Limits | None = None, start: int = 1
) -> PartitionResult:
    """Classify every x in start..domain_bound exactly as iterate would.

    All starts share one orbit memo, value -> (steps, cycle_id, excursion),
    of cycle and ceiling verdicts, and no start is walked twice, so a window
    costs about as much as the orbits it touches; only the window is stored
    per point.  check_window refuses a bad window before storing anything,
    and InvalidParameters is raised after the first start whose walk takes
    the memo past what _MAX_BYTES leaves it beside the window.
    """
    limits = limits or Limits()
    check_window(start, domain_bound, limits)
    memo: dict[int, tuple[int, int | None, int]] = {}
    cycles: list[CycleInfo] = []
    cycle_ids: dict[tuple[int, ...], int] = {}
    size = domain_bound - start + 1
    max_entries = (_MAX_BYTES - size * _POINT_BYTES) // (
        _ENTRY_BYTES + sys.getsizeof(limits.max_value))
    codes = bytearray(size)
    steps_arr: list = [None] * size
    exc_arr: list = [0] * size
    cycle_arr: list = [None] * size
    for i, x in enumerate(range(start, domain_bound + 1)):
        code, st, exc, cid = _walk(desc, x, limits, memo, cycles, cycle_ids)
        if len(memo) > max_entries:
            raise InvalidParameters(
                f"partition of {start}..{domain_bound} outgrows its budget of "
                f"{_MAX_BYTES >> 20} MiB: the orbit memo passed {max_entries} entries after "
                f"{i + 1} starts; use a smaller bound, or lower max_value or max_steps"
            )
        codes[i] = code
        steps_arr[i] = st
        exc_arr[i] = exc
        if cid is not None:
            cycle_arr[i] = cycles[cid]
    ordered = tuple(sorted(cycles, key=lambda c: c.members[0]))
    return PartitionResult(desc, domain_bound, limits, ordered, start,
                           codes, steps_arr, exc_arr, cycle_arr)


def export_csv(result: PartitionResult, stream) -> None:
    """Columns x, class, steps_to_cycle (empty for D2?), max_excursion."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["x", "class", "steps_to_cycle", "max_excursion"])
    for x, code, st, exc in zip(range(result.start, result.domain_bound + 1),
                                result._codes, result._steps, result._excursions):
        writer.writerow([
            str(x),
            _CODE_NAMES[code],
            "" if st is None else str(st),
            str(exc),
        ])


def summary_dict(result: PartitionResult) -> dict:
    return {
        "map": result.descriptor.to_text(),
        "domain_bound": str(result.domain_bound),
        "limits": {
            "max_steps": result.limits.max_steps,
            "max_value": str(result.limits.max_value),
        },
        "counts": result.counts(),
        "cycles": [[str(m) for m in c.members] for c in result.cycles],
    }
