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
from dataclasses import dataclass, field

from .errors import DomainError, InvalidParameters
from .maps import MapDescriptor
from .trajectory import CycleInfo, Limits, TrajectoryStatus, iterate

__all__ = ["CLASS_C", "CLASS_D1", "CLASS_D2", "PartitionResult", "partition",
           "check_window", "export_csv", "summary_dict"]

CLASS_C = "C"
CLASS_D1 = "D1"
CLASS_D2 = "D2?"

# per-point codes: 1=C 2=D1; the public class D2? is split by the limit hit
# first, so scan can report iterate()'s status without re-walking
_C, _D1, _STEP_LIMIT, _VALUE_LIMIT = 1, 2, 3, 4
_CODE_NAMES = {_C: CLASS_C, _D1: CLASS_D1, _STEP_LIMIT: CLASS_D2, _VALUE_LIMIT: CLASS_D2}
_CODE_STATUS = {
    _C: TrajectoryStatus.ENTERED_CYCLE,
    _D1: TrajectoryStatus.ENTERED_CYCLE,
    _STEP_LIMIT: TrajectoryStatus.HIT_STEP_LIMIT,
    _VALUE_LIMIT: TrajectoryStatus.HIT_VALUE_LIMIT,
}
_LIMIT_CODES = {
    TrajectoryStatus.HIT_STEP_LIMIT: _STEP_LIMIT,
    TrajectoryStatus.HIT_VALUE_LIMIT: _VALUE_LIMIT,
}

# windows of more points than this are refused; partition keeps about 290 B
# a point (10^6 Collatz starts peak at 288 MB), so the cap is about 1 GB
_MAX_POINTS = 3_500_000


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

        Each tuple carries what iterate(descriptor, x, limits) reports: its
        status, entry_index, max_excursion and cycle (None unless entered).
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


def _walk(desc, x, limits, conv, vlim, cycles, cycle_ids):
    """Classify x, growing the caches only with budget-safe entries.

    conv maps a value to (steps_to_cycle, cycle_id, max_excursion) and vlim
    maps a value to (steps_until_ceiling_hit, max_excursion).  An entry is
    added only when a fresh walk from that value, with the full step budget,
    would provably reproduce it; everything else is re-walked later with its
    own budget.  That keeps results bit-identical to per-point iterate().

    Returns (code, steps_to_cycle, max_excursion, cycle_id) for x; the
    second and last are None for the two limit codes.
    """
    max_steps = limits.max_steps
    path = [x]
    pos = {x: 0}
    while True:
        steps = len(path) - 1
        if steps == max_steps:
            # out of budget; intermediates keep their larger budgets for later
            return _STEP_LIMIT, None, max(path), None
        nxt = desc.apply(path[-1])
        apps = steps + 1

        hit = conv.get(nxt)
        if hit is not None:
            dist0, cid, exc0 = hit
            n_len = cycles[cid].length
            m = exc0
            for i in range(len(path) - 1, -1, -1):
                if path[i] > m:
                    m = path[i]
                d_i = (apps - i) + dist0
                if d_i + n_len > max_steps:
                    break  # d_i only grows as i shrinks
                conv[path[i]] = (d_i, cid, m)
            rec = conv.get(x)
            if rec is not None:
                d_x, _cid, exc_x = rec
                return (_C if d_x == 0 else _D1), d_x, exc_x, cid
            report = iterate(desc, x, limits)  # barely out of budget; exact fallback
            return _LIMIT_CODES[report.status], None, report.max_excursion, None

        v_hit = vlim.get(nxt)
        if v_hit is not None:
            v0, exc0 = v_hit
            m = exc0
            for i in range(len(path) - 1, -1, -1):
                if path[i] > m:
                    m = path[i]
                if (apps - i) + v0 > max_steps:
                    break
                vlim[path[i]] = ((apps - i) + v0, m)
            rec = vlim.get(x)
            if rec is not None:
                return _VALUE_LIMIT, None, rec[1], None
            report = iterate(desc, x, limits)
            return _LIMIT_CODES[report.status], None, report.max_excursion, None

        entry = pos.get(nxt)
        if entry is not None:
            # a fresh cycle; detection took apps <= max_steps, and every path
            # point detects it within (steps+1-i) + length <= apps <= budget
            cycle = CycleInfo.from_orbit(tuple(path[entry:]))
            cid = cycle_ids.get(cycle.members)
            if cid is None:
                cid = len(cycles)
                cycles.append(cycle)
                cycle_ids[cycle.members] = cid
            cyc_max = max(cycle.members)
            for idx in range(entry, len(path)):
                conv[path[idx]] = (0, cid, cyc_max)
            m = cyc_max
            for i in range(entry - 1, -1, -1):
                if path[i] > m:
                    m = path[i]
                conv[path[i]] = (entry - i, cid, m)
            d_x, _cid, exc_x = conv[x]
            return (_C if d_x == 0 else _D1), d_x, exc_x, cid

        if nxt > limits.max_value:
            # every path point sees this violation within its own budget
            m = 0
            for i in range(len(path) - 1, -1, -1):
                if path[i] > m:
                    m = path[i]
                vlim[path[i]] = (apps - i, m)
            return _VALUE_LIMIT, None, vlim[x][1], None

        pos[nxt] = len(path)
        path.append(nxt)


def check_window(start: int, domain_bound: int) -> None:
    """Raise InvalidParameters if start..domain_bound has more than _MAX_POINTS points."""
    size = domain_bound - start + 1
    if size > _MAX_POINTS:
        raise InvalidParameters(
            f"window {start}..{domain_bound} has {size} points, above the cap of "
            f"{_MAX_POINTS}; partition stores every point"
        )


def partition(
    desc: MapDescriptor, domain_bound: int, limits: Limits | None = None, start: int = 1
) -> PartitionResult:
    """Classify every x in start..domain_bound exactly as iterate() would.

    All starts share one orbit memo, so a window costs about as much as the
    orbits it touches; only the window itself is stored per point.  A window
    of more than _MAX_POINTS points is refused before anything is stored.
    """
    if type(start) is not int or start < 1:
        raise InvalidParameters(f"start must be >= 1, got {start!r}")
    if type(domain_bound) is not int or domain_bound < start:
        raise InvalidParameters(f"domain_bound must be >= {start}, got {domain_bound!r}")
    check_window(start, domain_bound)
    limits = limits or Limits()
    if domain_bound > limits.max_value:
        # every domain point must be iterable inside the box
        raise InvalidParameters(
            f"domain_bound {domain_bound} exceeds max_value {limits.max_value}"
        )
    conv: dict[int, tuple[int, int, int]] = {}
    vlim: dict[int, tuple[int, int]] = {}
    cycles: list[CycleInfo] = []
    cycle_ids: dict[tuple[int, ...], int] = {}
    size = domain_bound - start + 1
    codes = bytearray(size)
    steps_arr: list = [None] * size
    exc_arr: list = [0] * size
    cycle_arr: list = [None] * size
    for i, x in enumerate(range(start, domain_bound + 1)):
        rec = conv.get(x)
        if rec is not None:
            st, cid, exc = rec
            code = _C if st == 0 else _D1
        else:
            v_rec = vlim.get(x)
            if v_rec is not None:
                code, st, exc, cid = _VALUE_LIMIT, None, v_rec[1], None
            else:
                code, st, exc, cid = _walk(desc, x, limits, conv, vlim, cycles, cycle_ids)
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
