"""A finite measure on a truncated preimage forest, and its power bound M = 2.

Construction, per cycle i of length N (cycle trees are disjoint):

* level 0: every cycle member gets 1/(2N), so the cycle carries 1/2;
* every other node: the children of a node with value m, ascending as
  t = 1, 2, ...: m * 2^(-t-1), so each node's children carry less than half
  its value;
* combined: mu = sum over cycles of 2^(-i-1) * mu_i, total at most 1.

So a node's mass is local: mu(x) = mu(T x) * 2^(-t-1) down to the cycle.
Every node of cycle i's tree weighs 2^-e / odd(N_i), where odd(N_i) is the
length N_i with its factors of two removed.  assign_measure computes those
straight from the rules in plain ints and puts them over one shared
denominator L * 2^E, with L the lcm of the odd(N_i) and E the largest
exponent: MeasureAssignment.numerators and .denominator are the only stored
masses.  A mass depends only on its cycle and exponent, so the forest holds
far fewer distinct masses than nodes (depth-36 Collatz: 87 for 112,658
nodes), and the work that depends only on a mass is done once per distinct
mass: every node of one mass shares one numerator int, and export_json
renders each distinct numerator's text once.  A set's mass is an integer
sum and the power bound an integer comparison.  The sets T^-n{v} of
distinct v are disjoint, so mu(T^-n(A)) is a sum over A of the fibre
masses P_n(v), pushed forward once per level: check_power_bound samples
such sums, one packed sum per trial, and power_bound_certificate reads
their exact supremum over all A off the same tables.  Masses are reported
through numeric.dyadic_form and mass_fields: as a MeasureValue from
measure_of and the totals, and as one text per distinct numerator in
export_json.

build_forest grows each tree with maps.preimage_levels, which refuses the
level that would cross the node cap and stops at the first empty one, so a
huge depth costs no more than the nodes it finds.  The forest keeps its
levels and the parent map only: assign_measure ranks each node among its
parent's children as it walks a level in ascending order, and export_json
reads each node's cycle and level off the levels.  It writes the measure
to a stream, one record template per node, spliced into json.dumps of the
small envelope by numeric.write_json a batch of records at a time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress

from .errors import InvalidParameters, OverlappingCycles, BoundViolation
from .maps import MapDescriptor, preimage_levels
from .numeric import (RECORDS, DyadicRational, batched, dyadic_form, mass_fields, record_str,
                      write_json)
from .trajectory import CycleInfo

__all__ = [
    "MeasureValue",
    "PreimageForest",
    "MeasureAssignment",
    "PowerBoundReport",
    "build_forest",
    "assign_measure",
    "measure_of",
    "check_sampling",
    "check_power_bound",
    "power_bound_certificate",
    "export_json",
]

# check_power_bound refuses more comparisons (trials * max_n) than this; one
# packed sum over the drawn set gives a trial's max_n of them.
_MAX_COMPARISONS = 1 << 20

# the fibre-mass tables P_0..P_max_n may hold no more entries than this in
# all, each level counted as at least 8.  Depth 36 (112,658 nodes) with max_n
# 36 holds 450,893; a forest of long single-preimage chains grows about as
# nodes * max_n, and a dead tree with a huge max_n as 8 * max_n.
_MAX_TABLE_ENTRIES = 1 << 21


class MeasureValue:
    """Non-negative rational (dyadic) * 1/denom, its fields in numeric.dyadic_form.

    So the twos of denom are in the dyadic exponent, denom is odd and coprime
    to the numerator, and zero is stored over denom 1.  The texts are
    numeric.mass_fields.  Immutable by convention, like DyadicRational.
    """

    __slots__ = ("dyadic", "denom")

    def __init__(self, dyadic: DyadicRational | None = None, denom: int = 1):
        dyadic = dyadic if dyadic is not None else DyadicRational.zero()
        if not isinstance(dyadic, DyadicRational):
            raise InvalidParameters("dyadic part must be a DyadicRational")
        if type(denom) is not int or denom < 1:
            raise InvalidParameters(f"denominator must be a positive int, got {denom!r}")
        num, exp, self.denom = dyadic_form(dyadic.num, dyadic.exp, denom)
        self.dyadic = dyadic if num == dyadic.num and exp == dyadic.exp else DyadicRational(num, exp)

    @classmethod
    def zero(cls) -> "MeasureValue":
        return cls(DyadicRational.zero(), 1)

    def __eq__(self, other):
        if not isinstance(other, MeasureValue):
            return NotImplemented
        return self.dyadic == other.dyadic and self.denom == other.denom

    def __hash__(self):
        return hash((self.dyadic, self.denom))

    def __repr__(self):
        return f"MeasureValue({self.dyadic!r}, {self.denom})"

    def __str__(self):
        dyadic, denom, _ = mass_fields(self.dyadic.num, self.dyadic.exp, self.denom)
        return dyadic if denom == "1" else f"{dyadic} * 1/{denom}"

    def to_json_dict(self) -> dict:
        dyadic, denom, decimal = mass_fields(self.dyadic.num, self.dyadic.exp, self.denom)
        return {"dyadic": dyadic, "denom": denom, "decimal": decimal}


@dataclass(frozen=True)
class PreimageForest:
    """Truncated preimage trees over one tree per cycle, levels ascending.

    levels[i][l] lists level-l nodes of cycle i ascending; level 0 holds the
    cycle members.  A tree that dies out before depth ends at its last
    non-empty level, so levels[i] may hold fewer than depth + 1 tuples.
    parent maps every non-cycle node to its image under the map, and covered
    is the set of all nodes.  These are the only node data: a node's cycle
    and level are its place in levels, and its children are the next level's
    nodes whose parent it is, in ascending order.  The enumeration order is
    part of the contract: the measure depends on it.
    """

    descriptor: MapDescriptor
    cycles: tuple[CycleInfo, ...]
    depth: int
    levels: tuple[tuple[tuple[int, ...], ...], ...]
    parent: dict
    covered: frozenset


def build_forest(
    desc: MapDescriptor, cycles, depth: int
) -> PreimageForest:
    """Breadth-first preimage closure of each cycle, ascending within levels.

    Each tree is maps.preimage_levels below its cycle, skipping nodes the
    forest holds already; that closure refuses a forest above its node cap.
    """
    if type(depth) is not int or depth < 0:
        raise InvalidParameters(f"depth must be a non-negative int, got {depth!r}")
    cycles = tuple(cycles)
    if not cycles:
        raise InvalidParameters("need at least one cycle to build a forest")
    seen: set[int] = set()
    for cyc in cycles:
        cyc.verify(desc)
        overlap = seen.intersection(cyc.members)
        if overlap:
            raise OverlappingCycles(f"cycles share members {sorted(overlap)}")
        seen.update(cyc.members)
    parent: dict[int, int] = {}
    all_levels = []
    for cyc in cycles:
        levels = [tuple(sorted(cyc.members))]
        for staged in preimage_levels(desc, levels[0], depth, len(seen), "forest", seen):
            parent.update(staged)
            level = tuple(q for q, _v in staged)
            seen.update(level)
            levels.append(level)
        all_levels.append(tuple(levels))
    return PreimageForest(desc, cycles, depth, tuple(all_levels), parent, frozenset(seen))


@dataclass(frozen=True)
class MeasureAssignment:
    forest: PreimageForest
    numerators: dict   # node -> combined mass times denominator, an int
    denominator: int   # L * 2^E shared by every combined mass

    def value(self, numerator: int) -> MeasureValue:
        """numerator / denominator as a canonical MeasureValue."""
        return MeasureValue(DyadicRational(numerator), self.denominator)

    @property
    def total(self) -> MeasureValue:
        """Combined mass of the whole forest."""
        return self.value(sum(self.numerators.values()))


def assign_measure(forest: PreimageForest) -> MeasureAssignment:
    """Every covered node's combined mass, as an int over one shared denominator.

    A member of cycle i (1-based) of length N weighs 2^-(i+1) * 1/(2N), and
    every other node weighs its parent's mass times 2^-(t+1), t its 1-based
    ascending rank among the parent's children.  So node v of cycle i's tree
    weighs 2^-exps[v] / odd(N): one odd part and one exponent dict per
    cycle, and one numerator int per distinct mass, shared by its nodes.
    """
    parent = forest.parent
    per_cycle = []  # (odd part of the cycle's length, node -> exponent)
    for ci, cyc in enumerate(forest.cycles):
        levels = forest.levels[ci]
        twos = (cyc.length & -cyc.length).bit_length() - 1
        # 1/(2N) each, times the cycle weight 2^(-i-1), i 1-based
        exps = dict.fromkeys(levels[0], ci + 3 + twos)
        for level in levels[1:]:
            rank: dict[int, int] = {}  # parent -> children ranked so far
            for q in level:  # ascending, so the t-th child of p is ranked t
                p = parent[q]
                t = rank[p] = rank.get(p, 0) + 1
                exps[q] = exps[p] + t + 1
        per_cycle.append((cyc.length >> twos, exps))
    odd = math.lcm(*(o for o, _exps in per_cycle))
    top = max(max(exps.values()) for _o, exps in per_cycle)
    numerators: dict[int, int] = {}
    shared: dict[int, int] = {}  # one int object per distinct mass, for every node of that mass
    for o, exps in per_cycle:
        scale = odd // o
        mass = {}  # exponent -> its mass's int, built once per (cycle, exponent)
        for e in set(exps.values()):
            m = scale << (top - e)
            mass[e] = shared.setdefault(m, m)
        numerators.update(zip(exps, map(mass.__getitem__, exps.values())))
    return MeasureAssignment(forest, numerators, odd << top)


def measure_of(assignment: MeasureAssignment, a) -> MeasureValue:
    """Exact combined mass of a set of integers; uncovered points weigh 0."""
    numerators = assignment.numerators
    return assignment.value(sum(numerators.get(v, 0) for v in set(a)))


@dataclass(frozen=True)
class PowerBoundReport:
    trials: int
    max_n: int
    seed: int
    comparisons: int
    violations: int
    worst_ratio: float | None        # mu(T^-n A) / mu(A), correctly rounded
    worst_ratio_exact: str | None    # the same ratio as a reduced "p/q"
    worst: dict | None

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "max_n": self.max_n,
            "seed": self.seed,
            "comparisons": self.comparisons,
            "violations": self.violations,
            "bound_constant": 2,
            "worst_ratio": self.worst_ratio,
            "worst_ratio_exact": self.worst_ratio_exact,
            "worst": self.worst,
        }


def _fibre_masses(assignment: MeasureAssignment, max_n: int) -> list[dict]:
    """[P_0, ..., P_max_n]: P_n[v] is the numerator sum over T^-n{v} & covered.

    P_0 is the assignment's numerators and P_n the push-forward of P_(n-1)
    along the image map q -> T(q), keyed by its nonzero entries only.  The
    image map is read off the forest with no map call: forest.parent is T
    off the cycles, and each cycle member maps to the next one.  The covered
    set is forward-closed, so pushing forward n times sums exactly the
    covered part of each n-step preimage, and the supports shrink with n.
    Raises InvalidParameters, before the first level and after each one,
    once the tables must hold more than _MAX_TABLE_ENTRIES entries in all,
    each level counted as at least 8.
    """
    forest = assignment.forest
    parent = forest.parent
    successor = {}  # cycle member -> the next member, its image
    for cyc in forest.cycles:
        members = cyc.members
        successor.update(zip(members, members[1:] + members[:1]))
    tables = [assignment.numerators]
    # a lower bound: each level counts as at least the 8 slots of a dict's
    # smallest table, so that many tiny levels are bounded like a few big ones
    entries = len(tables[0]) + 8 * max_n
    while entries <= _MAX_TABLE_ENTRIES:
        if len(tables) > max_n:
            return tables
        pushed: dict[int, int] = {}
        for q, m in tables[-1].items():
            v = parent.get(q) or successor[q]  # nodes are positive ints
            pushed[v] = pushed.get(v, 0) + m
        tables.append(pushed)
        entries += max(len(pushed), 8) - 8
    raise InvalidParameters(
        f"fibre masses up to n = {max_n} need more than {_MAX_TABLE_ENTRIES} "
        f"table entries; use a smaller max_n"
    )


# byte b -> its top bit, 0 or 1
_TOP_BIT = bytes(b >> 7 for b in range(256))


def _draw_mask(rng: random.Random, count: int) -> bytes:
    """[rng.getrandbits(1) for _ in range(count)] as bytes, in one draw.

    getrandbits(1) is the top bit of one 32-bit Mersenne Twister word, and
    getrandbits(32 * count) lays count such words out least significant
    first, so the top bit of byte 4i + 3 of its little-endian bytes is draw
    i.  The generator ends in the same state as after the count calls.
    """
    return rng.getrandbits(32 * count).to_bytes(4 * count, "little")[3::4].translate(_TOP_BIT)


def _check_max_n(depth: int, max_n: int) -> None:
    if type(max_n) is not int or max_n < 1:
        raise InvalidParameters(f"max_n must be >= 1, got {max_n!r}")
    if max_n > depth:
        raise InvalidParameters(
            f"max_n {max_n} exceeds forest depth {depth}; deeper preimages are unknowable"
        )


def check_sampling(depth: int, trials: int, max_n: int, seed: int) -> None:
    """check_power_bound's refusals of trials, max_n and seed, for a forest of this depth."""
    if type(trials) is not int or trials < 1:
        raise InvalidParameters(f"trials must be >= 1, got {trials!r}")
    if type(seed) is not int or seed < 0:
        # random.Random seeds with abs(seed): -5 would draw the subsets of 5
        raise InvalidParameters(f"seed must be a non-negative int, got {seed!r}")
    _check_max_n(depth, max_n)
    if trials * max_n > _MAX_COMPARISONS:
        raise InvalidParameters(
            f"trials * max_n = {trials * max_n} comparisons, above the cap of "
            f"{_MAX_COMPARISONS}; use fewer trials or a smaller max_n"
        )


def check_power_bound(
    assignment: MeasureAssignment, trials: int = 1000, max_n: int = 5, seed: int = 1729
) -> PowerBoundReport:
    """Sample subsets A of covered nodes; assert mu(T^-n(A)) <= 2 mu(A), n <= max_n.

    Subsets are drawn reproducibly from the seed, one random bit per covered
    node in ascending order; one getrandbits call per trial yields the same
    bits as, and leaves the generator as, one getrandbits(1) per node (see
    _draw_mask).  check_sampling refuses bad arguments.  The sets T^-n{v} of
    distinct v are disjoint, so mu(T^-n(A)) is the sum over v in A of the
    fibre mass P_n(v), the mass of the covered part of T^-n{v}.  The fibre
    masses are computed once per call (see _fibre_masses: pushed along the
    forest's links, with no map call) and packed into one int per node,
    P_n(v) in field n.  A field is as many bits as the largest table
    total needs, so no subset sum carries into the next field.  Packing
    shifts each nonzero table entry into its field, once per distinct row of
    fields: nodes whose rows agree share one packed int (1,229 for the
    112,658 nodes of depth-36 Collatz).  One sum of the packed ints over the
    drawn set then holds mu(A) and every mu(T^-n(A)) of the trial, unpacked
    once per trial.  Masses are integer numerators over the assignment's
    shared denominator, so every comparison is exact integer arithmetic; a
    trial counts max_n comparisons, and a violation names the first power
    that breaks the bound.  Within a trial mu(A) is fixed, so only the first
    largest mu(T^-n(A)) can beat the worst pair so far: the worst pair is
    the first with the largest ratio, found by cross-multiplication.  Its
    ratio is reported correctly rounded and as a reduced fraction, and only
    its masses are rendered as MeasureValues.  power_bound_certificate reads
    the supremum over all subsets off the same fibre masses.
    """
    forest = assignment.forest
    check_sampling(forest.depth, trials, max_n, seed)
    nodes = sorted(forest.covered)
    tables = _fibre_masses(assignment, max_n)
    # bits per field: no subset sum of a table exceeds the table's total
    width = max(sum(table.values()) for table in tables).bit_length()
    # P_n(v) shifted into field n; rows keeps one int per distinct (fields
    # so far, P_n(v)), so nodes whose fields agree share it
    packed = dict(tables[0])
    for n in range(1, len(tables)):
        shift, rows = n * width, {}
        for v, m in tables[n].items():
            key = (packed[v], m)
            row = rows.get(key)
            if row is None:
                row = rows[key] = key[0] | m << shift
            packed[v] = row
    del tables
    packed = list(map(packed.__getitem__, nodes))
    rng = random.Random(seed)
    low = (1 << width) - 1
    shifts = range(width, (max_n + 1) * width, width)
    best = None  # (mu_n, mu_a, n, |A|) with the largest mu_n / mu_a so far
    for _ in range(trials):
        mask = _draw_mask(rng, len(nodes))
        sums = sum(compress(packed, mask))
        mu_a = sums & low
        fibres = [(sums >> k) & low for k in shifts]
        mu_n = max(fibres)  # mu_a is fixed in a trial: its largest ratio
        if mu_n > 2 * mu_a:
            n, mu_n = next((n, mu) for n, mu in enumerate(fibres, 1) if mu > 2 * mu_a)
            raise BoundViolation(
                f"mu(T^-{n}(A)) = {assignment.value(mu_n)} > 2*mu(A) = "
                f"{assignment.value(2 * mu_a)} for |A| = {mask.count(1)}, seed {seed}"
            )
        if mu_a and (best is None or mu_n * best[1] > best[0] * mu_a):
            best = (mu_n, mu_a, fibres.index(mu_n) + 1, mask.count(1))
    comparisons = trials * max_n  # every trial compares its max_n powers
    if best is None:
        return PowerBoundReport(trials, max_n, seed, comparisons, 0, None, None, None)
    mu_n, mu_a, n, size = best
    worst = {
        "n": n,
        "set_size": size,
        "mu_set": str(assignment.value(mu_a)),
        "mu_preimage": str(assignment.value(mu_n)),
    }
    return PowerBoundReport(trials, max_n, seed, comparisons, 0, mu_n / mu_a,
                            _ratio_text(mu_n, mu_a), worst)


def power_bound_certificate(assignment: MeasureAssignment, max_n: int) -> list[tuple[str, int]]:
    """The exact sup over nonempty A of mu(T^-n(A)) / mu(A), for n = 1..max_n.

    Entry n - 1 is (ratio, v): ratio = max_v P_n(v) / mu(v) as a reduced
    "p/q" over the covered nodes v, with P_n the fibre masses check_power_bound
    sums, and v the smallest node attaining it.  mu(T^-n(A)) / mu(A) is a
    mediant of the per-node ratios over A, never above the largest, so this is
    the supremum over all subsets of the covered nodes: every sampled ratio at
    power n is at most entry n - 1.  The power bound holds iff no ratio
    exceeds 2.

    Lemma: with rho = 1/2 - 2^-(d+1) = sum_{t=1..d} 2^-(t+1), a node v at
    level >= 1 has P_n(v)/mu(v) <= rho^n, (3/8)^n for d = 2, below 2^-n: its
    t-th child weighs 2^-(t+1) of it, and by induction over its at most d
    children.  A member's ratio is at least 1, its cycle predecessor weighing
    as much, so the supremum sits on cycle members, whose n-step fibres lie
    in levels <= n: a depth-max_n forest gives the exact certificate.

    Bound: every member weighs the same and has at most d - 1 children off
    the cycle, which carry at most sigma = 1/2 - 2^-d of its mass.  T^-n{c}
    is one member and, for l = 1..n, the level-l descendants of one member,
    which carry at most sigma * rho^(l-1) of that member's mass.  So
    P_n(c)/mu(c) <= 1 + sigma/(1 - rho) < 2 on a cycle of any length: 7/5
    for d = 2 and 5/3 for d = 3.
    """
    _check_max_n(assignment.forest.depth, max_n)
    weight = assignment.numerators
    certificate = []
    for fibre in _fibre_masses(assignment, max_n)[1:]:
        p, q, arg = 0, 1, None
        for v, mass in fibre.items():
            m = weight[v]
            if mass * q > p * m or (mass * q == p * m and v < arg):
                p, q, arg = mass, m, v
        certificate.append((_ratio_text(p, q), arg))
    return certificate


def _ratio_text(p: int, q: int) -> str:
    """p/q reduced, as the text "p/q"."""
    g = math.gcd(p, q)
    return f"{p // g}/{q // g}"


def _mass_text(num: int, den: int) -> str:
    """num/den's mass_fields as a node record's field, 6 spaces deep."""
    dyadic, denom, decimal = mass_fields(num, 0, den)
    return (f'{{\n        "dyadic": "{dyadic}",\n        "denom": "{denom}",\n'
            f'        "decimal": {record_str(decimal)}\n      }}')


class _MassTexts(dict):
    """numerator -> _mass_text(numerator, den), each rendered on its first lookup."""

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, num: int) -> str:
        text = self[num] = _mass_text(num, self.den)
        return text


def export_json(assignment: MeasureAssignment, report: PowerBoundReport | None, stream) -> None:
    """Write the measure to stream as indent-2 JSON, one record template per node.

    A mass's text depends only on its numerator over the shared denominator,
    so each distinct numerator is rendered once and every node of that mass
    reuses it; cycle-local masses undo the weight 2^(-i-1) by a shift of the
    numerator.  numeric.write_json draws the records and states their
    escaping rule.
    """
    forest = assignment.forest
    numerators, texts = assignment.numerators, _MassTexts(assignment.denominator)
    parent = forest.parent
    places = sorted((v, ci, lvl) for ci, levels in enumerate(forest.levels)
                    for lvl, level in enumerate(levels) for v in level)
    records = ([
        "{\n"
        f'      "value": "{v}",\n'
        f'      "cycle": {ci + 1},\n'
        f'      "level": {lvl},\n'
        f'      "parent": {record_str(parent.get(v))},\n'
        f'      "cycle_local": {texts[numerators[v] << (ci + 2)]},\n'
        f'      "combined": {texts[numerators[v]]}\n'
        "    }"
        for v, ci, lvl in part
    ] for part in batched(places))
    cycles = []
    for ci, cyc in enumerate(forest.cycles):
        local = sum(numerators[v] for level in forest.levels[ci] for v in level) << (ci + 2)
        cycles.append({
            "index": ci + 1,
            "length": cyc.length,
            "members": [str(m) for m in cyc.members],
            "weight": mass_fields(1, ci + 2)[0],
            "cycle_local_total": assignment.value(local).to_json_dict(),
        })
    write_json({
        "map": forest.descriptor.to_text(),
        "depth": forest.depth,
        "covered_nodes": len(forest.covered),
        "cycles": cycles,
        "nodes": RECORDS,
        "total": assignment.total.to_json_dict(),
        "power_bound": report.to_json_dict() if report else None,
    }, stream, records)
