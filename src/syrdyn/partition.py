"""Partition of a finite domain into cycle members, basin points and escapees.

Classes: "C" (on a cycle), "D1" (orbit reaches a cycle within limits), "D2?"
(step or value limit hit first).  The question mark is deliberate: a finite
budget cannot certify true escape, so the third class only collects
candidates, and results always carry the limits used.

This is the one range engine: find_cycles and the CLI's cycles and scan
subcommands read their answers off a PartitionResult.  Its starts share an
orbit memo of exact verdict depths, kept past the step budget at checkpoint
depths only, and a step-limited start reads its excursion off cached orbit
segments, so orbits shared by many starts are walked about once.  The engine
steps the map inline, with the formula of MapDescriptor.apply, and reports
the steps it took as PartitionResult.applications.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import isqrt

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

# each partition call holds its window arrays, orbit memo and segment cache
# to this many bytes, at _POINT_BYTES a window point (a code byte and three
# list slots) and _ENTRY_BYTES a memo entry or cached segment (a 3-tuple, a
# depth and a dict slot at its worst, 90 B while a growing table is copied)
# plus one int of max_value's size, since no stored value exceeds max_value.
# The memo is the cost that varies: under the default limits Collatz keeps
# about 1.6 entries a start, so a window of about 2.7 M starts fits, while
# pxr:p=5,r=1 keeps about 51 (8.4 KB a start under tracemalloc) and stops
# after about 87,000.  With max_steps 200 and max_value 1e12 it keeps about
# 10.8 entries and segments a start, 0.4 of them past the budget.
_MAX_BYTES = 1 << 30
_POINT_BYTES = 25
_ENTRY_BYTES = 182

# pseudo-depth of an open memo entry: a value with at least max_steps clean,
# distinct orbit points ahead, whose verdict no walk has reached.  It is above
# every step budget, so any start that reaches such a value is step-limited.
_OPEN = 1 << 62
# a checkpoint gap that no depth reaches (depth % gap is the depth itself), so
# no checkpoint is stored and no segment hop is taken: nothing past the budget
_NO_CHECKPOINTS = 1 << 63


@dataclass
class PartitionResult:
    """Per-point classification of start..domain_bound; arrays index by x - start."""

    descriptor: MapDescriptor
    domain_bound: int
    limits: Limits
    cycles: tuple[CycleInfo, ...]
    start: int
    applications: int                           # map steps the call took
    _codes: bytearray = field(repr=False)       # one of the per-point codes above
    _steps: list = field(repr=False)            # steps_to_cycle, None for D2?
    _excursions: list = field(repr=False)
    _cids: list = field(repr=False)             # the cycle id entered, None for D2?
    _cycle_of: dict = field(repr=False)         # cycle id -> CycleInfo; None -> None
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
            map(self._cycle_of.__getitem__, self._cids),
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


def _checkpoint_gap(max_steps: int) -> int:
    """K: past the step budget the memo keeps only depths divisible by K.

    K is isqrt(max_steps + 1).  Keeping what lies past the budget pays only
    when a fresh walk of max_steps + 1 points costs more than a lead, about K
    hops and a tail through the segment cache plus the memo upkeep.  Below
    K = 4 (max_steps < 15) it does not: with it, partition ran up to 1.46
    times as long on Collatz and pxr:p=5,r=1 at max_steps 4 to 14, and faster
    on both from K = 4 on (Python 3.11, 2 CPUs), so a smaller K gives
    _NO_CHECKPOINTS.
    """
    k = isqrt(max_steps + 1)
    return k if k >= 4 else _NO_CHECKPOINTS


def _peak(desc, v, depth, count, segments, k):
    """The maximum of the first count orbit points from v, at memo depth depth.

    Steps to the next checkpoint depth, hops k points at a time through
    segments, value -> (T^k(value), max of those k points), filled on first
    use, and steps through the rest.  Only step-limited starts ask, so every
    point read lies at or below max_value.  Returns (maximum, map steps
    taken); a filled segment takes k steps, a hop through a cached one none.
    """
    branches, d = desc.branches, desc.d
    best = steps = 0
    lead = depth % k
    while count:
        if lead or count < k:
            if v > best:
                best = v
            count -= 1
            if lead:
                lead -= 1
            if count:
                m, r = branches[v % d]
                v = (m * v + r) // d
                steps += 1
            continue
        seg = segments.get(v)
        if seg is None:
            u = top = v
            for _ in range(k - 1):
                m, r = branches[u % d]
                u = (m * u + r) // d
                if u > top:
                    top = u
            m, r = branches[u % d]
            seg = segments[v] = ((m * u + r) // d, top)
            steps += k
        v, top = seg
        if top > best:
            best = top
        count -= k
    return best, steps


def _walk(desc, x, limits, k, memo, segments, cycles, cycle_ids):
    """Classify x, which is not in the memo, growing the memo with exact verdict depths.

    memo maps a value to (depth, cycle_id, excursion).  A cycle_id of None is
    a ceiling verdict, and depth then counts the applications up to the first
    value above max_value; otherwise depth is the index of the first orbit
    point on cycles[cycle_id].  A value is classified from its entry (by
    partition, for a start already in the memo) as a fresh iterate with the
    full budget would classify it: a ceiling verdict with depth <= max_steps
    is a value-limit hit, a cycle verdict with depth <= max_steps less the
    cycle length is C or D1, and anything else is a step-limit hit.  Every
    verdict within the budget is stored with its
    excursion.  Past the budget only checkpoint depths, multiples of k, are
    stored, so a later walk overruns a stored value by fewer than k steps;
    their excursion is stored as 0, since any start that reaches them is
    step-limited, and so a lookup tells the two kinds apart.

    The walk may go past max_steps to find x's verdict, up to
    2 * (max_steps + 1) points, unless k is _NO_CHECKPOINTS and nothing past
    the budget is kept.  If it still has none, x is step-limited, and so is
    any start that reaches a path point with max_steps clean, distinct
    points ahead of it: those points get open entries, depth _OPEN + points
    ahead, at their checkpoints.  The excursion of a step-limited start is
    the maximum of its first max_steps + 1 orbit points, read off the path
    and, beyond it, from _peak.

    The walk steps the map inline, with MapDescriptor.apply's formula but
    without its domain check: check_window has checked x, and maps.validate
    guarantees that every branch sends a positive int to a positive int, so
    every orbit point is in the domain.

    Returns (code, steps_to_cycle, max_excursion, cycle_id, applications)
    for x; the second and fourth are None for the two limit codes, and the
    last is the number of map steps the walk and its _peak took.
    """
    branches, d, max_value = desc.branches, desc.d, limits.max_value
    max_steps = limits.max_steps
    # a gap of _NO_CHECKPOINTS exceeds every budget, and the walk stops at the budget
    cap = 2 * (max_steps + 1) if k <= max_steps else max_steps + 1
    path = [x]
    pos = {x: 0}
    nxt = x
    for n in range(1, cap):  # n = len(path), the steps taken so far
        m, r = branches[nxt % d]
        nxt = (m * nxt + r) // d
        hit = memo.get(nxt)
        if hit is not None:
            depth, cid, exc = hit
            end = n
            break
        entry = pos.get(nxt)
        if entry is not None:
            cycle = CycleInfo.from_orbit(tuple(path[entry:]))
            cid = cycle_ids.get(cycle.members)
            if cid is None:
                cid = len(cycles)
                cycles.append(cycle)
                cycle_ids[cycle.members] = cid
            # members of a cycle longer than the budget lie past it
            exc = max(cycle.members) if cycle.length <= max_steps else 0
            for v in cycle.members:
                memo[v] = (0, cid, exc)
            depth, end = 0, entry
            break
        if nxt > max_value:
            # nxt is dropped from the orbit, so it adds nothing to the excursion
            depth, cid, exc, end = 0, None, 0, n
            break
        pos[nxt] = n
        path.append(nxt)
    else:
        # no verdict after cap - 1 applications; path[j] has cap - 1 - j points ahead
        if cap == max_steps + 1:  # nothing past the budget is kept
            return _STEP_LIMIT, None, max(path), None, cap - 1
        for j in range((_OPEN + cap - 1) % k, max_steps + 2, k):
            memo[path[j]] = (_OPEN + cap - 1 - j, None, 0)
        return _STEP_LIMIT, None, max(path[:max_steps + 1]), None, cap - 1
    # path[:end] takes the verdict of path[end] (nxt): path[i] lies end - i
    # steps before it.  Verdicts within budget, depth <= keep, are a suffix.
    keep = max_steps - (0 if cid is None else cycles[cid].length)
    for i in range(end - 1, -1, -1):
        if depth >= keep:
            break
        depth += 1
        v = path[i]
        if v > exc:
            exc = v
        memo[v] = (depth, cid, exc)
    else:
        if exc:  # x's verdict is within budget
            if cid is None:
                return _VALUE_LIMIT, None, exc, None, n
            return (_C if depth == 0 else _D1), depth, exc, cid, n
        i = -1  # x is on a cycle longer than the budget
    # path[:i + 1] lies past the budget: store its checkpoint depths
    top = depth + i + 1  # x's depth; path[j] lies at top - j
    for j in range(top % k, i + 1, k):
        memo[path[j]] = (top - j, cid, 0)
    # x is step-limited; nxt follows path[-1] on its orbit, at depth top - end
    count = max_steps + 1
    if len(path) >= count:
        return _STEP_LIMIT, None, max(path[:count]), None, n
    peak, steps = _peak(desc, nxt, top - end, count - len(path), segments, k)
    return _STEP_LIMIT, None, max(peak, max(path)), None, n + steps


def check_window(start: int, end: int, limits: Limits) -> None:
    """Raise InvalidParameters unless start..end is a window partition can classify.

    That needs 1 <= start <= end <= limits.max_value, so every point is
    iterable inside the box, and at most _MAX_POINTS points, since partition
    stores every one.  partition calls this before it stores anything.
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

    All starts share one orbit memo, value -> (depth, cycle_id, excursion),
    of exact cycle and ceiling verdicts (see _walk), each start is classified
    by comparing its depth with the budget, and no start is walked twice, so
    a window costs about as much as the orbits it touches; only the window is
    stored per point.  The cycles listed are those some start enters within
    its budget.  check_window refuses a bad window before storing anything.
    If the memo and segment cache outgrow what _MAX_BYTES leaves beside the
    window, everything past the budget is dropped and no more is kept; if the
    verdicts within the budget alone outgrow it, InvalidParameters is raised.
    The result's applications is the number of map steps the call took.
    """
    limits = limits or Limits()
    check_window(start, domain_bound, limits)
    memo: dict[int, tuple[int, int | None, int]] = {}
    segments: dict[int, tuple[int, int]] = {}
    k = _checkpoint_gap(limits.max_steps)
    cycles: list[CycleInfo] = []
    cycle_ids: dict[tuple[int, ...], int] = {}
    size = domain_bound - start + 1
    max_entries = (_MAX_BYTES - size * _POINT_BYTES) // (
        _ENTRY_BYTES + sys.getsizeof(limits.max_value))
    codes = bytearray(size)
    steps_arr: list = [None] * size
    exc_arr: list = [0] * size
    cid_arr: list = [None] * size
    room = max_entries  # for the memo, beside the segment cache
    applications = 0
    for i, x in enumerate(range(start, domain_bound + 1)):
        rec = memo.get(x)
        if rec is None:
            code, st, exc, cid, steps = _walk(desc, x, limits, k, memo, segments,
                                              cycles, cycle_ids)
            applications += steps
        else:  # classified on lookup, as _walk describes
            depth, cid, exc = rec
            if not exc:  # past the budget
                code, st, cid = _STEP_LIMIT, None, None
                exc, steps = _peak(desc, x, depth, limits.max_steps + 1, segments, k)
                applications += steps
            elif cid is None:
                code, st = _VALUE_LIMIT, None
            else:
                code, st = (_C if depth == 0 else _D1), depth
        if code == _STEP_LIMIT:  # only step-limited starts fill the segment cache
            room = max_entries - len(segments)
        if len(memo) > room:
            if k != _NO_CHECKPOINTS:
                # what lies past the budget only saves work: drop it, and keep
                # nothing past the budget for the rest of the window
                segments.clear()
                room = max_entries
                for v in [v for v, entry in memo.items() if not entry[2]]:
                    del memo[v]
                k = _NO_CHECKPOINTS
            if len(memo) > max_entries:
                raise InvalidParameters(
                    f"partition of {start}..{domain_bound} outgrows its budget of "
                    f"{_MAX_BYTES >> 20} MiB: the orbit memo passed {max_entries} entries "
                    f"after {i + 1} starts; use a smaller bound, or lower max_value or "
                    f"max_steps"
                )
        codes[i] = code
        steps_arr[i] = st
        exc_arr[i] = exc
        cid_arr[i] = cid
    # a walk may find a cycle past its start's budget; list only those entered
    cycle_of = {cid: cycles[cid] for cid in set(cid_arr) if cid is not None}
    ordered = tuple(sorted(cycle_of.values(), key=lambda c: c.members[0]))
    cycle_of[None] = None
    return PartitionResult(desc, domain_bound, limits, ordered, start, applications,
                           codes, steps_arr, exc_arr, cid_arr, cycle_of)


def export_csv(result: PartitionResult, stream) -> None:
    """Columns x, class, steps_to_cycle (empty for D2?), max_excursion."""
    rows = zip(range(result.start, result.domain_bound + 1),
               map(_CODE_NAMES.__getitem__, result._codes), result._steps, result._excursions)
    stream.write("x,class,steps_to_cycle,max_excursion\n" + "".join(
        f"{x},{name},{'' if st is None else st},{exc}\n" for x, name, st, exc in rows))


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
