"""Forward orbits, cycle detection and cycle catalogues.

Every walk is bounded by explicit Limits: a step budget, at most _MAX_STEPS,
and a value ceiling.  A finite budget cannot distinguish slow convergence
from true escape, so limit hits are reported as statuses, never errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain

from .errors import DomainError, InvalidParameters, VerificationFailure
from .maps import MapDescriptor, pxr
from .numeric import RECORDS, batched, write_json

__all__ = [
    "DEFAULT_MAX_STEPS",
    "DEFAULT_MAX_VALUE",
    "Limits",
    "TrajectoryStatus",
    "CycleInfo",
    "TrajectoryReport",
    "iterate",
    "trajectory_to_json",
    "find_cycles",
    "check_power_cycle",
]

DEFAULT_MAX_STEPS = 10**5
DEFAULT_MAX_VALUE = 10**40

# step budgets above this are refused: a walk keeps its whole orbit, so a huge
# budget on a slow orbit would exhaust memory long before it ran out
_MAX_STEPS = 100 * DEFAULT_MAX_STEPS


@dataclass(frozen=True)
class Limits:
    max_steps: int = DEFAULT_MAX_STEPS
    max_value: int = DEFAULT_MAX_VALUE

    def __post_init__(self):
        if type(self.max_steps) is not int or self.max_steps < 1:
            raise InvalidParameters(f"max_steps must be >= 1, got {self.max_steps!r}")
        if self.max_steps > _MAX_STEPS:
            raise InvalidParameters(
                f"max_steps {self.max_steps} is above the cap of {_MAX_STEPS}"
            )
        if type(self.max_value) is not int or self.max_value < 1:
            raise InvalidParameters(f"max_value must be >= 1, got {self.max_value!r}")


class TrajectoryStatus(str, Enum):
    ENTERED_CYCLE = "EnteredCycle"
    HIT_STEP_LIMIT = "HitStepLimit"
    HIT_VALUE_LIMIT = "HitValueLimit"


@dataclass(frozen=True)
class CycleInfo:
    """A cycle in orbit order, canonicalized to start at the minimal member."""

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise InvalidParameters("a cycle needs at least one member")
        for m in self.members:
            if type(m) is not int or m < 1:
                raise InvalidParameters(f"cycle members must be positive ints, got {m!r}")
        if len(set(self.members)) != len(self.members):
            raise InvalidParameters("cycle members must be pairwise distinct")
        if self.members[0] != min(self.members):
            raise InvalidParameters("cycle must start at its minimal member")

    @classmethod
    def from_orbit(cls, members: tuple[int, ...]) -> "CycleInfo":
        """Rotate an orbit-ordered member list to start at the minimum."""
        k = members.index(min(members))
        return cls(members[k:] + members[:k])

    @property
    def length(self) -> int:
        return len(self.members)

    @property
    def min_member(self) -> int:
        return self.members[0]

    def verify(self, desc: MapDescriptor) -> None:
        """Check that the map walks the cycle exactly; internal error if not."""
        for j, m in enumerate(self.members):
            nxt = self.members[(j + 1) % len(self.members)]
            got = desc.apply(m)
            if got != nxt:
                raise VerificationFailure(
                    f"cycle broken at {m}: map gives {got}, cycle says {nxt}"
                )


@dataclass(frozen=True)
class TrajectoryReport:
    start: int
    steps: tuple[int, ...]
    status: TrajectoryStatus
    max_excursion: int
    entry_index: int | None
    cycle: CycleInfo | None


def iterate(desc: MapDescriptor, start: int, limits: Limits | None = None) -> TrajectoryReport:
    """Walk forward from start until a repeat, the step budget, or the ceiling.

    Repeats are found by first-revisit bookkeeping, which gives the cycle and
    its entry index for free at desk scale.  steps[entry_index] is the first
    repeated value.  A value above max_value aborts the walk and is dropped:
    the retained orbit (and so max_excursion) never exceeds the ceiling.
    """
    limits = limits or Limits()
    if type(start) is not int or start < 1:
        raise DomainError(f"start must be a positive integer, got {start!r}")
    if start > limits.max_value:
        raise InvalidParameters(f"start {start} already exceeds max_value {limits.max_value}")
    steps = [start]
    seen = {start: 0}
    for _ in range(limits.max_steps):
        nxt = desc.apply(steps[-1])
        entry = seen.get(nxt)
        if entry is not None:
            cycle = CycleInfo.from_orbit(tuple(steps[entry:]))
            return TrajectoryReport(
                start, tuple(steps), TrajectoryStatus.ENTERED_CYCLE,
                max(steps), entry, cycle,
            )
        if nxt > limits.max_value:
            return TrajectoryReport(
                start, tuple(steps), TrajectoryStatus.HIT_VALUE_LIMIT,
                max(steps), None, None,
            )
        seen[nxt] = len(steps)
        steps.append(nxt)
    return TrajectoryReport(
        start, tuple(steps), TrajectoryStatus.HIT_STEP_LIMIT, max(steps), None, None
    )


def trajectory_to_json(desc: MapDescriptor, report: TrajectoryReport, stream) -> None:
    """Write the map and the report to stream as indent-2 JSON, a batch of steps at a time.

    The steps array is spliced in by numeric.write_json, one "<digits>"
    record per orbit point, so the document text is never held whole.
    """
    cycle = report.cycle
    write_json({
        "map": desc.to_text(),
        "start": str(report.start),
        "status": report.status.value,
        "steps": RECORDS,
        "applications": len(report.steps) - 1 + (1 if cycle else 0),
        "max_excursion": str(report.max_excursion),
        "entry_index": report.entry_index,
        "cycle": [str(v) for v in cycle.members] if cycle else None,
    }, stream, ([f'"{v}"' for v in part] for part in batched(report.steps)))


def find_cycles(
    desc: MapDescriptor, search_bound: int, limits: Limits | None = None
) -> list[CycleInfo]:
    """Distinct cycles that starts in 1..search_bound enter within the limits.

    The list is the cycles of partition(desc, search_bound, limits), sorted
    by least member: a cycle counts when some start's iterate() enters it
    within the limits.  It is found by descent, with nothing stored per
    start up to the first escapee (below).  Each start x is walked,
    stepping the map inline with the formula of MapDescriptor.apply, only
    until its orbit falls below x or returns to x.  A return means x is its
    cycle's least member, and x is recorded.
    Then each recorded cycle is rebuilt from its least member.  Most starts
    past d^K, K = desc.class_steps, are not walked at all: a residue class
    proves that they fall (_descent_starts).

    Why the list is partition's.  Suppose x falls below itself to y within
    the limits, s <= max_steps steps on, every point on the way at most
    max_value.  Then x enters whatever cycle y enters.  If x enters a cycle
    within budget, y lies on x's orbit and enters it in s fewer steps, or
    is on it already, through points of x's orbit.  So by induction down the
    descents, every cycle that a start in 1..search_bound enters within
    budget is the cycle of a least member <= search_bound that returns to
    itself within max_steps steps and below max_value, and each such member
    is recorded.  The induction needs every start to fall or return.  A
    start that does neither is an escapee: its walk passes max_value, uses
    up max_steps, or enters a cycle above x, which Brent's test finds when
    the walk meets its moving mark again, as 1 does under pxr(7, 5), which
    enters the 6-cycle at 3.

    At the first escapee e the descent stops, and the range engine,
    partition._classify, classifies e and every later start of
    _descent_starts, in the window 1..search_bound, as partition would.
    The list is then the cycles of the least members recorded before e,
    and those that some handed start enters within the limits, by the one
    filter partition lists its cycles with (partition._entered).  It is
    still partition's.  Each listed cycle is entered within the limits by
    a start: a recorded member or a handed one.  Conversely, follow the
    descents of a start that enters a cycle within the limits down to a
    start w that does not fall below itself within them; w enters the same
    cycle within the limits, and a class cannot prove that it falls (see
    below), so the descent does not skip it.  If w < e, w was walked and
    returned to itself, so it is a recorded least member.  Otherwise w is
    a handed start, and the engine finds that it enters the cycle.

    Why a start that is not walked needs no limit.  Suppose x enters a cycle
    within the limits: its first repeat is at index mu + lambda <= max_steps,
    and every point before it is at most max_value.  Every later point
    repeats one of those, so the orbit never passes max_value, and a point
    below x, if any, comes before index mu + lambda.  So a start whose orbit
    falls below itself at some step either enters no cycle within the
    limits, and adds none to the list, or falls within the limits, and the
    induction above holds for it unchanged.  Nor is such a start a least
    member.  So the skip rests on the exact identity T^j(x) = A*q + B < x
    alone, and reads neither the class entry's Q, S and C nor the limits.

    check_window refuses a bad window, or one above partition's point cap,
    before any walk, so the descent refuses exactly what partition would.
    The handed starts share one orbit memo under partition's byte budget,
    and a call that outgrows it is refused naming the window
    1..search_bound.
    """
    from .partition import _classify, _entered, check_window  # partition builds on this module

    limits = limits or Limits()
    check_window(1, search_bound, limits)
    branches, d = desc.branches, desc.d
    max_value = limits.max_value
    span = range(1, limits.max_steps + 1)
    starts = _descent_starts(desc, search_bound)
    least, handed = [], []
    for x in starts:
        v = mark = x
        due = 1  # the mark moves to v once n reaches due, a power of two
        for n in span:
            m, r = branches[v % d]
            v = (m * v + r) // d
            if v <= x or v > max_value or v == mark:
                break
            if n == due:
                mark = v
                due <<= 1
        if v > x:  # x is the first escapee
            handed = [x, *starts]
            break
        if v == x:
            least.append(x)
    cycles = {}
    for x in least:
        members, v = [x], desc.apply(x)
        while v != x:
            members.append(v)
            v = desc.apply(v)
        cycles[x] = CycleInfo(tuple(members))
    if handed:
        size = len(handed)
        cids = [None] * size
        found, _applications, _jumps = _classify(
            desc, handed, 1, search_bound, limits, {}, bytearray(size), [None] * size,
            [0] * size, cids)
        for cycle in _entered(found, cids).values():
            cycles.setdefault(cycle.min_member, cycle)
    return [cycles[m] for m in sorted(cycles)]


def _class_pass(desc: MapDescriptor):
    """Every class a mod d^j, 0 <= j <= K, of a depth-first pass, as (a, j, A, B).

    K = desc.class_steps, and T^j(a + d^j*q) = A*q + B for every q >= 0
    (MapDescriptor.class_entry; the root, a = 0 at j = 0, is q itself).  A
    class is split into its d children mod d^(j+1) while A >= d^j and j < K,
    so the pass ends on the classes that fall, A < d^j, and on those mod
    d^K that survive every level.  A class filled for the pass stays in
    desc.class_levels, where partition's jumps read the level-K entries.
    """
    d, k = desc.d, desc.class_steps
    classes = [(0, 0, 1, 0)]
    while classes:
        a, j, am, ab = node = classes.pop()
        yield node
        size = d ** j
        if am >= size and j < k:
            for i in range(d):
                child = a + size * i
                classes.append((child, j + 1, *desc.class_entry(child, j + 1)[3:]))


def _descent_starts(desc: MapDescriptor, bound: int):
    """The starts find_cycles walks, ascending: 1..bound but for those a class proves fall.

    Every start below d^K, K = desc.class_steps, comes first, and nothing
    is read from the class table until they are all taken, so an escapee
    among them reaches the range engine before any entry is filled.
    Past d^K, a class a mod d^j from _class_pass with A < d^j gives T^j(x) =
    A*q + B < a + d^j*q = x once q > (B - a)/(d^j - A) (Terras 1976;
    Lagarias 1985, section 2), so only its members up to that bound are
    walked.  Every member of a class mod d^K that survives is walked.  The
    members of falling classes all lie below some block of d^K starts, and
    from that block on the survivors are yielded a block at a time, so
    what is held does not grow with the bound.
    """
    d, k = desc.d, desc.class_steps
    top = d ** k
    yield from range(1, min(bound, top - 1) + 1)
    if bound < top:
        return
    walked, offsets = [], []
    for a, j, am, ab in _class_pass(desc):
        size = d ** j
        if am < size:
            walked.append(range(top + a, min(bound, a + size * ((ab - a) // (size - am))) + 1, size))
        elif j == k:
            offsets.append(a)
    offsets.sort()
    rest = top * (max((r[-1] for r in walked if r), default=0) // top + 1)
    walked += [range(top + a, min(bound + 1, rest), top) for a in offsets]
    yield from sorted(chain.from_iterable(walked))
    yield from (x for base in range(rest, bound + 1, top) for a in offsets
                for x in [base + a] if x <= bound)


def check_power_cycle(k: int) -> CycleInfo:
    """Construct and verify the cycle {1, 2^(k-1), ..., 2} of the (2^k - 1)x + 1 map.

    From 1 the odd branch gives ((2^k - 1) + 1)/2 = 2^(k-1), and halving walks
    back down to 1.  Verification failure would be an internal bug.
    """
    if type(k) is not int or k < 2:
        raise InvalidParameters(f"k must be an integer >= 2, got {k!r}")
    members = (1,) + tuple(1 << (k - 1 - t) for t in range(k - 1))
    cycle = CycleInfo(members)
    cycle.verify(pxr((1 << k) - 1, 1))
    return cycle
