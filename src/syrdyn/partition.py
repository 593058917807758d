"""Partition of a finite domain into cycle members, basin points and escapees.

Classes: "C" (on a cycle), "D1" (orbit reaches a cycle within limits), "D2?"
(step or value limit hit first).  The question mark is deliberate: a finite
budget cannot certify true escape, so the third class only collects
candidates, and results always carry the limits used.

This is the one range engine: the CLI's partition and scan subcommands read
their answers off a PartitionResult.  find_cycles, and the cycles subcommand
through it, need no per-start verdict: they find the cycles by descent,
walking only the starts that no residue class of MapDescriptor.class_entry
proves to fall below themselves.  At the first walked start that neither
falls below nor returns to itself, they hand that start and the descent's
later starts to the engine's loop, _classify, and never call partition (see
trajectory.find_cycles).  The starts of a call share an orbit memo of exact
verdict depths, kept for every value up to the window's end and every cycle
member, and above the window or past the step budget at checkpoint depths
only, so orbits shared by many starts are walked about once; it is the one
cache a call keeps.  One loop, _classify, runs the starts it is given, for
partition the whole window: a start found in the memo is classified where
it is found, and any other is walked right there, stepping the map inline
with the formula of MapDescriptor.apply.
A walk finds a cycle by Brent's test against one moving mark, not by indexing
every point it passes.  Far above the window, past last * d^K, a walk jumps K
steps at a time through MapDescriptor.class_entry, the affine form of T^K on
each residue class mod d^K (Terras 1976; Lagarias 1985, section 2), since no
point a jump passes there is in the window or often met again.  A start
whose verdict may rest on a point a jump passed over is walked a second
time, from the start in single steps; that is rare (4 of the 2,000 starts
of pxr:p=5,r=1 at max_steps 200 and max_value 1e12, none of Collatz
1..10^6 at the default limits).  A step-limited start whose walk stops
short of its last budgeted point reads the rest of its excursion from
_peak, which hops K steps at a time through the same table.  The steps
taken, a jump or hop counting as its K, are reported as
PartitionResult.applications, and the jumps as PartitionResult.jumps.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import islice
from math import isqrt

from .errors import DomainError, InvalidParameters
from .maps import MapDescriptor
from .numeric import batched, write_batches
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

# each _classify call holds its arrays and orbit memo to this many bytes, at
# _POINT_BYTES a start (a code byte and three list slots: partition's window
# points, or the starts find_cycles hands on) and
# _ENTRY_BYTES a memo entry (a 3-tuple, a depth and a dict slot at its worst,
# 90 B while a growing table is copied) plus one int of max_value's size,
# since no stored value exceeds max_value.
# The memo is the cost that varies.  Above the window it keeps checkpoint
# depths only, and none of the points a class-table jump passes, so under the
# default limits Collatz keeps 1.0 entries a start and pxr:p=5,r=1 about 1.01
# (windows 1..10^6).  A window of _MAX_POINTS leaves room for about 4.36 M
# entries, so at those rates both fit up to the point cap.  With max_steps 200
# and max_value 1e12, pxr:p=5,r=1 keeps about 1.08 entries a start (1..2000),
# 0.06 of them past the budget; with max_steps 50 and max_value 1e40, about
# 0.80 (1..20000), 0.76 of them past the budget.
_MAX_BYTES = 1 << 30
_POINT_BYTES = 25
_ENTRY_BYTES = 182

# pseudo-depth of an open memo entry: a value with at least max_steps clean,
# distinct orbit points ahead, whose verdict no walk has reached.  It is above
# every step budget, so any start that reaches such a value is step-limited.
# The entry is (_OPEN + points ahead, the last of those points, 0).
_OPEN = 1 << 62
# a walk starts a run of class-table jumps only with room in its step budget
# for this many jumps.  A walk with runs costs more to settle than one
# without, and a class-table entry costs a few steps to fill on first use,
# while a jump saves about 5; with room for one jump, partition of
# pxr:p=5,r=1 1..3000 at max_value 1e40 ran 3-6% longer than without jumps at
# max_steps 20 to 50, and with room for 4 within 2% (Python 3.11, 2 CPUs)
_JUMP_ROOM = 4
# a checkpoint gap that no depth reaches (depth % gap is the depth itself), so
# no checkpoint is stored: nothing past the budget is kept
_NO_CHECKPOINTS = 1 << 63


@dataclass
class PartitionResult:
    """Per-point classification of start..domain_bound; arrays index by x - start."""

    descriptor: MapDescriptor
    domain_bound: int
    limits: Limits
    cycles: tuple[CycleInfo, ...]
    start: int
    applications: int                           # map steps, Brent's overshoot included
    jumps: int                                  # of K steps each, through the class table
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

    K is isqrt(max_steps + 1).  Keeping what lies past the budget pays when
    the walks that meet a checkpoint save more than the upkeep of the
    checkpoints and the longer walks to a verdict past the budget cost.
    Partition of 1..20000 at the default max_value, with checkpoints against
    without (Python 3.11, 2 CPUs, medians of 5 alternating runs, two
    series): from max_steps 8 on (K = 3) it ran 12-44% shorter on Collatz
    and 3-28% shorter on pxr:p=5,r=1, and at max_steps 2 (K = 1) 13-29%
    longer on both; between, Collatz mostly gained and pxr:p=5,r=1 mostly
    lost.  A K below 4 (max_steps < 15) gives _NO_CHECKPOINTS, a margin
    above where checkpoints start to pay.
    """
    k = isqrt(max_steps + 1)
    return k if k >= 4 else _NO_CHECKPOINTS


def _peak(desc, v, count):
    """The maximum of the first count orbit points from v, and the count - 1 steps to them.

    While K = desc.class_steps >= 2 steps remain, a class whose line holds,
    q >= Q on v = a + d^K*q, hops K steps through desc.class_entry, the K
    points' maximum being S*q + C; everywhere else it takes single steps.
    Only step-limited starts ask, so every point read lies at or below
    max_value.
    """
    branches, d, K = desc.branches, desc.d, desc.class_steps
    best, left = v, count - 1
    if K >= 2 and left >= K:
        size, table, fill = d ** K, desc.class_levels[K], desc.class_entry
        while left >= K:
            q, a = divmod(v, size)
            q0, slope, offset, am, ab = table[a] or fill(a, K)
            if q >= q0:
                top = slope * q + offset
                v = am * q + ab
                left -= K
            else:
                m, r = branches[a % d]
                top = v = (m * v + r) // d
                left -= 1
            if top > best:
                best = top
    for _ in range(left):
        m, r = branches[v % d]
        v = (m * v + r) // d
        if v > best:
            best = v
    return best, count - 1


def _classify(desc, starts, first, last, limits, memo, codes, steps, excs, cids):
    """Classify the starts given into codes, steps, excs and cids, one loop for them all.

    starts is an ascending iterable within the window first..last, and the
    w-th start's verdict goes to index w of each array; a refusal names the
    window.

    memo maps a value to (depth, cycle_id, excursion).  A cycle_id of None is
    a ceiling verdict, and depth then counts the applications up to the first
    value above max_value; otherwise depth is the index of the first orbit
    point on cycles[cycle_id].  A value is classified from its entry as a
    fresh iterate with the full budget would classify it: a ceiling verdict
    with depth <= max_steps is a value-limit hit, a cycle verdict with depth
    <= max_steps less the cycle length is C or D1, and anything else is a
    step-limit hit.  A start found in the memo is classified there; any other
    is walked in the same loop until its orbit reaches a memo entry, passes
    max_value or comes round to a cycle, and the walk grows the memo.  A
    verdict within the budget is stored with its excursion for every value
    up to the window's end, last, and for cycle members.  Above last, and for
    every value past the budget, only checkpoint depths, multiples of the gap
    k, are stored, so a later walk overruns a stored value by fewer than k
    steps.  Most lookups that find an entry find it at or below last, and
    values far above the window are seldom met again.  Past the budget the
    excursion is stored as 0, since any start that reaches such a value is
    step-limited, and so a lookup tells the two kinds apart.

    A walk finds a cycle by Brent's test: it compares each new point with a
    mark, which moves to the current point whenever the step count reaches a
    power of two, so a walk keeps no per-point index.  The mark comes round
    fewer than 2 * max(tail, cycle length) steps after the first repeat, and
    only then is that repeat located, with one dict over the path, once per
    cycle a walk finds.

    A walk may go past max_steps to find its start's verdict, up to
    2 * (max_steps + 1) points, unless k is _NO_CHECKPOINTS and nothing past
    the budget is kept.  If it still has none, and its points are distinct
    (Brent's mark may not have come round to a repeat before the cap), the
    start is step-limited, and so is any start that reaches a path point
    with max_steps clean, distinct points ahead of it: those points get open
    entries, (_OPEN + points ahead, the last of those points, 0), at their
    checkpoints.  A walk that ends on an open entry gives its own checkpoints
    open entries that count on through that entry's points ahead and name
    the same last point.  If that last point is on the walk's path, the
    entry lies on a cycle through the path, the sum would count cycle points
    twice, and the walk goes on past the entry instead.  The excursion of a
    step-limited start is the maximum of its first max_steps + 1 orbit
    points, read off the path and, beyond it, from _peak.

    Far above the window a walk jumps (Terras 1976; Lagarias 1985, section
    2).  Above the floor J = last * d^K, K = desc.class_steps (8 for d = 2,
    5 for d = 3; no jumps below K = 2), it takes K steps at once through
    desc.class_entry: on x = a + d^K*q, T^K(x) = A*q + B, and for q >= Q the
    largest of the K points is S*q + C.  maps.validate gives r >= -(m - 1)*d
    on every branch, so T(x) >= x/d for x >= d, and every point a jump from
    above J passes lies above last.  The walk reaches the jump code only
    from its compare against min(J, max_value), and keeps jumping while x >
    J, q >= Q, the jump's top stays at most max_value and the jump ends
    within the budget; it starts a run of jumps only with room in the
    budget for _JUMP_ROOM of them.  The points a jump passes are neither
    looked up nor stored.  A jump may pass over what a verdict rests on:
    when the walk found a cycle or met a cycle member, whose entry may lie
    among the jumped points, and when it vouches for distinct points ahead
    (at the cap, or from an open entry) whose last may repeat a jumped
    point, one above last and at most the runs' highest.  Then x is walked
    again under the ceiling max_value, so that the second walk takes no
    jump, and that walk is the one settled; applications counts the steps
    of both walks, and jumps the first walk's jumps.  Depths count steps, a
    jump counting as K, and every walk is settled by the same code, which
    reads the back-fill, the budget's edge and the excursion off step
    positions: the back-fill stops before a run that would pass the budget,
    checkpoints past the budget are taken at their true depths, and a walk
    without runs is the case of none.

    The kernel also holds the memo to partition's byte budget, as partition
    describes, beside arrays of one slot per start given.

    The walks step the map inline, with MapDescriptor.apply's formula but
    without its domain check: check_window has checked the window, and
    maps.validate guarantees that every branch sends a positive int to a
    positive int, so every orbit point is in the domain.

    Returns (cycles, applications, jumps): the cycles found, indexed by the
    cycle ids in cids, the map steps the walks and _peak took, a jump or a
    hop counting as K, and the walks' jumps.
    """
    branches, d = desc.branches, desc.d
    max_steps, max_value = limits.max_steps, limits.max_value
    count = max_steps + 1  # the orbit points a step-limited excursion spans
    memo_get = memo.get
    k = _checkpoint_gap(max_steps)
    # a gap of _NO_CHECKPOINTS exceeds every budget, and a walk stops at the budget
    cap = 2 * count if k <= max_steps else count
    max_entries = (_MAX_BYTES - len(codes) * _POINT_BYTES) // (
        _ENTRY_BYTES + sys.getsizeof(max_value))
    cycles: list[CycleInfo] = []
    lengths: list[int] = []  # lengths[cid] is cycles[cid].length
    cycle_ids: dict[tuple[int, ...], int] = {}
    applications = jumps = 0
    # a walk jumps K steps at a time through the forward class table, mod
    # size = d^K, from points above the floor: it starts a run of jumps up to
    # the step first_jump, and jumps on up to the step last_jump
    K = desc.class_steps
    size = d ** K
    floor = last * size if K >= 2 else max_value
    jump_ceiling = min(floor, max_value)
    last_jump = max_steps - K
    first_jump = max_steps - _JUMP_ROOM * K
    table = None  # desc.class_levels[K], whose entries class_entry fills on use
    span = range(1, cap)  # the steps a walk may take
    for w, x in enumerate(starts):
        hit = memo_get(x)
        if hit is not None:
            depth, cid, exc = hit
            if not exc:  # past the budget
                code, st, cid = _STEP_LIMIT, None, None
                exc, n = _peak(desc, x, count)
                applications += n
            elif cid is None:
                code, st = _VALUE_LIMIT, None
            else:
                code, st = (_C if depth == 0 else _D1), depth
        else:
            # a walk whose verdict may rest on a point a jump passed over is
            # walked again from x in single steps, under ceiling max_value
            ceiling = jump_ceiling
            while True:
                path = [x]
                nxt = mark = x
                due = 1  # the mark moves to nxt once n reaches due, a power of two
                hops = ()  # the jump runs: (i, ran, high) for a run of ran steps to path[i]
                skipped = highest = 0  # the steps they took, and the highest point they passed
                clock = iter(span)
                for n in clock:  # the steps taken so far, len(path) until a jump
                    m, r = branches[nxt % d]
                    nxt = (m * nxt + r) // d
                    hit = memo_get(nxt)
                    # an open entry whose last point ahead is on the path lies on a
                    # cycle through the path: its points ahead are not all new
                    if hit is not None and (hit[0] < _OPEN or hit[1] not in path):
                        depth, cid, exc = hit
                        end = n
                        break
                    if nxt > ceiling:
                        if nxt > max_value:
                            # nxt is dropped from the orbit, so it adds nothing to the excursion
                            depth, cid, exc, end = 0, None, 0, n
                            break
                        if n > first_jump:  # so is every later step of this walk
                            ceiling = max_value
                        else:
                            # nxt lies above the floor: jump K steps a table entry
                            # while the points jumped stay at most max_value
                            s, v, high = n, nxt, nxt
                            if table is None:
                                table, fill = desc.class_levels[K], desc.class_entry
                            while s <= last_jump and v > floor:
                                q, a = divmod(v, size)
                                q0, slope, offset, am, ab = table[a] or fill(a, K)
                                if q < q0:
                                    break
                                t = slope * q + offset
                                if t > max_value:
                                    break
                                if t > high:
                                    high = t
                                v = am * q + ab
                                s += K
                            if s > n:
                                if not hops:
                                    hops = []
                                hops.append((len(path), s - n, high))
                                if high > highest:
                                    highest = high
                                jumps += (s - n) // K
                                skipped += s - n
                                nxt = v
                                # the clock counts on from s
                                next(islice(clock, s - n - 1, None), None)
                                n = s
                    path.append(nxt)
                    if nxt == mark:
                        end = -1  # path holds a cycle
                        break
                    if n >= due:  # a jump may pass due
                        mark = nxt
                        due <<= 1
                else:
                    end = -1 if len(set(path)) < len(path) else None
                applications += n
                if not hops:
                    break
                if end is not None and end > 0:
                    end -= skipped  # nxt would be path[end]
                # the jumped points, all above last and at most highest, may
                # hold a cycle's entry, or repeat the point that ends the
                # distinct points the walk vouches for: path[-1] at the cap,
                # or an open entry's last point
                if end is None:
                    recheck = last < path[-1] <= highest
                elif end < 0 or depth == 0 and cid is not None:  # a cycle, or a member met
                    recheck = True
                else:
                    recheck = depth >= _OPEN and last < cid <= highest
                if not recheck:
                    break
                ceiling = max_value
            if end is None:
                # no verdict after the cap: path vouches for the distinct
                # points up to path[-1], as an open entry there with none
                # ahead would
                end, nxt, depth, cid, exc = len(path) - 1, path[-1], _OPEN, path[-1], 0
            elif end < 0:
                # the first repeat: path[j] == path[entry], one cycle length on
                seen = {}
                for j, v in enumerate(path):
                    entry = seen.setdefault(v, j)
                    if entry != j:
                        break
                del path[j:]
                nxt = path[entry]
                cycle = CycleInfo.from_orbit(tuple(path[entry:]))
                cid = cycle_ids.get(cycle.members)
                if cid is None:
                    cid = len(cycles)
                    cycles.append(cycle)
                    lengths.append(j - entry)
                    cycle_ids[cycle.members] = cid
                # members of a cycle longer than the budget lie past it
                exc = max(cycle.members) if j - entry <= max_steps else 0
                for v in cycle.members:
                    memo[v] = (0, cid, exc)
                depth, end = 0, entry
            # path[:end] takes the verdict of path[end] (nxt): path[j] lies end
            # - j steps before it, plus the steps of the runs between them; a
            # run (i, ran, high) puts path[i] 1 + ran steps after path[i - 1].
            # Verdicts within budget, depth <= keep, are a suffix; path[j:]
            # holds them when the loop ends
            keep = max_steps - (0 if cid is None or depth >= _OPEN else lengths[cid])
            j, held = end, skipped  # hops, of held steps, are the runs up to path[j]
            run = hops[-1][0] if hops else 0  # the last of them ends at path[run]
            while True:
                while j > run and depth < keep:
                    j -= 1
                    depth += 1
                    v = path[j]
                    if v > exc:
                        exc = v
                    if v <= last or not depth % k:  # above the window, checkpoints only
                        memo[v] = (depth, cid, exc)
                if not hops or j != run or depth + hops[-1][1] >= keep:
                    break
                # back over the run: its steps, and its highest point for the excursion
                _i, ran, high = hops.pop()
                depth += ran
                held -= ran
                if high > exc:
                    exc = high
                run = hops[-1][0] if hops else 0
            if not j and exc:  # x's verdict is within budget
                if cid is None:
                    code, st = _VALUE_LIMIT, None
                else:
                    code, st = (_C if depth == 0 else _D1), depth
            else:
                # path[:j] lies past the budget (all of it, if x is on a cycle
                # longer than the budget): store its checkpoint depths, down
                # from x's depth, and for an open verdict only those
                # max_steps or more ahead
                at = depth + j + held  # path[i] lies at depth at - i, up to the next run
                # path[i] is kept if i < stop: for an open verdict, only with
                # max_steps points ahead or more
                stop = at + 1 if depth < _OPEN else at - _OPEN - max_steps + 1
                lo = 0
                for hi, ran, _high in hops:
                    for i in range(lo + (at - lo) % k, min(hi, stop), k):
                        memo[path[i]] = (at - i, cid, 0)
                    lo, at, stop = hi, at - ran, stop - ran
                for i in range(lo + (at - lo) % k, min(j, stop), k):
                    memo[path[i]] = (at - i, cid, 0)
                code, st, cid = _STEP_LIMIT, None, None
                # x's excursion: the largest of its first max_steps + 1
                # points, those of path[:ahead] and of the runs, and _peak's
                # beyond the path
                ahead = count - skipped
                if len(path) >= ahead:
                    exc = max(path[:ahead])
                else:
                    exc, n = _peak(desc, nxt, ahead - len(path))
                    exc = max(exc, max(path))
                    applications += n
                if highest > exc:
                    exc = highest
        if len(memo) > max_entries:
            if k != _NO_CHECKPOINTS:
                # what lies past the budget only saves work: drop it, and keep
                # nothing past the budget for the rest of the window
                for v in [v for v, entry in memo.items() if not entry[2]]:
                    del memo[v]
                k, cap = _NO_CHECKPOINTS, count
                span = range(1, cap)
            if len(memo) > max_entries:
                raise InvalidParameters(
                    f"partition of {first}..{last} outgrows its budget "
                    f"of {_MAX_BYTES >> 20} MiB: the orbit memo passed {max_entries} "
                    f"entries after {w + 1} starts; use a smaller bound, or lower "
                    f"max_value or max_steps"
                )
        codes[w] = code
        steps[w] = st
        excs[w] = exc
        cids[w] = cid
    return cycles, applications, jumps


def _entered(cycles, cids) -> dict:
    """cycle id -> cycle, for the cycles some start entered within its budget.

    A walk may find a cycle past its start's budget, and cids names only
    those entered, so a cycle that no cid names is left out.
    """
    return {cid: cycles[cid] for cid in set(cids) if cid is not None}


def check_window(start: int, end: int, limits: Limits) -> None:
    """Raise InvalidParameters unless start..end is a window partition can classify.

    That needs 1 <= start <= end <= limits.max_value, so every point is
    iterable inside the box, and at most _MAX_POINTS points, since partition
    stores every one.  partition calls this before it stores anything.
    find_cycles calls it too, for 1..bound, though it stores only the
    starts it hands to _classify, at most the window's; the cap guards those.
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
    of exact cycle and ceiling verdicts (see _classify), each start is classified
    by comparing its depth with the budget, and a start is walked a second
    time only when a class-table jump may have passed over its verdict, so a
    window costs about as much as the orbits it touches; only the window is
    stored per point.  The cycles listed are those some start enters within
    its budget.  check_window refuses a bad window before storing anything.
    If the memo outgrows what _MAX_BYTES leaves beside the window,
    everything past the budget is dropped and no more is kept; if the
    verdicts within the budget alone outgrow it, InvalidParameters is raised.
    The result's applications is the number of map steps the call took, a
    class-table jump or hop counting as its K steps, and jumps the number of
    the walks' jumps.
    """
    limits = limits or Limits()
    check_window(start, domain_bound, limits)
    memo: dict[int, tuple[int, int | None, int]] = {}
    size = domain_bound - start + 1
    codes = bytearray(size)
    steps_arr: list = [None] * size
    exc_arr: list = [0] * size
    cid_arr: list = [None] * size
    cycles, applications, jumps = _classify(desc, range(start, domain_bound + 1), start,
                                            domain_bound, limits, memo, codes, steps_arr,
                                            exc_arr, cid_arr)
    cycle_of = _entered(cycles, cid_arr)
    ordered = tuple(sorted(cycle_of.values(), key=lambda c: c.members[0]))
    cycle_of[None] = None
    return PartitionResult(desc, domain_bound, limits, ordered, start, applications, jumps,
                           codes, steps_arr, exc_arr, cid_arr, cycle_of)


def export_csv(result: PartitionResult, stream) -> None:
    """Columns x, class, steps_to_cycle (empty for D2?), max_excursion; a batch of rows a write."""
    rows = zip(range(result.start, result.domain_bound + 1),
               map(_CODE_NAMES.__getitem__, result._codes), result._steps, result._excursions)
    write_batches(batched(f"{x},{name},{'' if st is None else st},{exc}\n" for x, name, st, exc in rows),
                  "", "x,class,steps_to_cycle,max_excursion\n", stream)


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
