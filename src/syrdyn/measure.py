"""A finite measure on a truncated preimage forest, power-bounded with M = 2.

Construction, per cycle i of length N (cycle trees are disjoint):

* level 0: every cycle member gets 1/(2N), so the cycle carries 1/2;
* level 1, nodes ascending as j = 1, 2, ...: 2^(-j-3), total below 2^-2;
* level l >= 2: children of a node with value m, ascending as t = 1, 2, ...:
  m * 2^(-t-1), so each node's children carry less than half its value;
* combined: mu = sum over cycles of 2^(-i-1) * mu_i, total at most 1.

Every node's combined mass is 2^-e, or 2^-e / odd(N) on a member of a cycle
of length N, where odd(N) is N with its factors of two removed.
assign_measure computes those straight from the rules in plain ints and puts
them over one shared denominator L * 2^E, with L the lcm of the odd(N) and E
the largest exponent: MeasureAssignment.numerators and .denominator are the
only stored masses.  A set's mass is an integer sum and the power bound an
integer comparison.  The sets T^-n{v} of distinct v are disjoint, so
mu(T^-n(A)) is a sum over A of the fibre masses P_n(v), pushed forward once
per level: check_power_bound samples such sums, and power_bound_certificate
reads their exact supremum over all A off the same tables.  MeasureValue, a
DyadicRational times a symbolic 1/denom with odd denom, is only the canonical
form in which a mass is reported.

build_forest grows each tree with maps.preimage_levels, which refuses the
level that would cross the node cap and stops at the first empty one, so a
huge depth costs no more than the nodes it finds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import repeat

from .errors import InvalidParameters, OverlappingCycles, BoundViolation
from .maps import MapDescriptor, preimage_levels
from .numeric import DyadicRational
from .trajectory import CycleInfo

__all__ = [
    "MeasureValue",
    "PreimageForest",
    "MeasureAssignment",
    "PowerBoundReport",
    "build_forest",
    "assign_measure",
    "measure_of",
    "check_power_bound",
    "power_bound_certificate",
    "export_json",
]

# check_power_bound refuses more comparisons (trials * max_n) than this; each
# one is a sum over the drawn set.
_MAX_COMPARISONS = 1 << 20

# the fibre-mass tables P_0..P_max_n may hold no more entries than this in
# all, each level counted as at least 8.  Depth 36 (112,658 nodes) with max_n
# 36 holds 450,893; a forest of long single-preimage chains grows about as
# nodes * max_n, and a dead tree with a huge max_n as 8 * max_n.
_MAX_TABLE_ENTRIES = 1 << 21


class MeasureValue:
    """Non-negative rational (dyadic) * 1/denom with odd denom, for reporting.

    Canonical: factors of two in the denominator move into the dyadic
    exponent, the odd gcd is divided out, and zero is stored over denom 1.
    Immutable by convention, like DyadicRational.
    """

    __slots__ = ("dyadic", "denom")

    def __init__(self, dyadic: DyadicRational | None = None, denom: int = 1):
        dyadic = dyadic if dyadic is not None else DyadicRational.zero()
        if not isinstance(dyadic, DyadicRational):
            raise InvalidParameters("dyadic part must be a DyadicRational")
        if type(denom) is not int or denom < 1:
            raise InvalidParameters(f"denominator must be a positive int, got {denom!r}")
        twos = (denom & -denom).bit_length() - 1
        denom >>= twos
        dyadic = dyadic.mul_pow2(-twos)
        if dyadic.num == 0:
            denom = 1
        else:
            g = math.gcd(dyadic.num, denom)
            if g > 1:
                dyadic = DyadicRational(dyadic.num // g, dyadic.exp)
                denom //= g
        self.dyadic = dyadic
        self.denom = denom

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
        if self.denom == 1:
            return str(self.dyadic)
        return f"{self.dyadic} * 1/{self.denom}"

    def to_json_dict(self) -> dict:
        return {
            "dyadic": str(self.dyadic),
            "denom": str(self.denom),
            "decimal": self.dyadic.decimal_str()
            if self.denom == 1 and self.dyadic.exp <= 64
            else None,
        }


@dataclass(frozen=True)
class PreimageForest:
    """Truncated preimage trees over one tree per cycle, levels ascending.

    levels[i][l] lists level-l nodes of cycle i ascending; level 0 holds the
    cycle members.  A tree that dies out before depth ends at its last
    non-empty level, so levels[i] may hold fewer than depth + 1 tuples.
    parent maps every non-cycle node to its image under the map; children
    is the inverse, each tuple ascending.  The enumeration order is part of
    the contract: the measure depends on it.
    """

    descriptor: MapDescriptor
    cycles: tuple[CycleInfo, ...]
    depth: int
    levels: tuple[tuple[tuple[int, ...], ...], ...]
    parent: dict
    children: dict
    node_cycle: dict
    node_level: dict
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
    children: dict[int, tuple[int, ...]] = {}
    node_cycle: dict[int, int] = {}
    node_level: dict[int, int] = {}
    all_levels = []
    for ci, cyc in enumerate(cycles):
        levels = [tuple(sorted(cyc.members))]
        for v in levels[0]:
            node_cycle[v] = ci
            node_level[v] = 0
        closure = preimage_levels(desc, levels[0], depth, len(seen), "forest", seen)
        for lvl, staged in enumerate(closure, start=1):
            for q, v in staged:
                seen.add(q)
                parent[q] = v
                children[v] = children.get(v, ()) + (q,)
                node_cycle[q] = ci
                node_level[q] = lvl
            levels.append(tuple(q for q, _v in staged))
        all_levels.append(tuple(levels))
    return PreimageForest(
        desc, cycles, depth, tuple(all_levels), parent, children,
        node_cycle, node_level, frozenset(seen),
    )


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

    Node v of cycle i (1-based) weighs 2^-exps[v], divided by odd(N) on a
    member of a cycle of length N; the cycle weight 2^(-i-1) is in exps.
    """
    exps: dict[int, int] = {}
    odds: dict[int, int] = {}  # cycle member -> odd part of its cycle's length
    for ci, cyc in enumerate(forest.cycles):
        levels = forest.levels[ci]
        weight_exp = ci + 2  # the cycle weight is 2^(-i-1), i 1-based
        twos = (cyc.length & -cyc.length).bit_length() - 1
        for v in levels[0]:  # 1/(2N) each
            exps[v] = 1 + twos + weight_exp
            odds[v] = cyc.length >> twos
        for j, v in enumerate(levels[1] if len(levels) > 1 else (), start=1):
            exps[v] = j + 3 + weight_exp
        for level in levels[1:]:
            for v in level:
                for t, child in enumerate(forest.children.get(v, ()), start=1):
                    exps[child] = exps[v] + t + 1
    odd = math.lcm(*odds.values())
    top = max(exps.values())
    numerators = {v: (odd // odds.get(v, 1)) << (top - e) for v, e in exps.items()}
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
    image map is read off one map preimage per covered node (not the stored
    tree links), intersected with the covered set.  The covered set is
    forward-closed, so pushing forward n times sums exactly the covered part
    of each n-step preimage, and the supports shrink with n.  Raises
    InvalidParameters, before the first level and after each one, once the
    tables must hold more than _MAX_TABLE_ENTRIES entries in all, each level
    counted as at least 8.
    """
    forest = assignment.forest
    desc, covered = forest.descriptor, forest.covered
    image = {q: v for v in covered for q in desc.preimage(v) if q in covered}
    tables = [assignment.numerators]
    # a lower bound: each level counts as at least the 8 slots of a dict's
    # smallest table, so that many tiny levels are bounded like a few big ones
    entries = len(tables[0]) + 8 * max_n
    while entries <= _MAX_TABLE_ENTRIES:
        if len(tables) > max_n:
            return tables
        pushed: dict[int, int] = {}
        for q, m in tables[-1].items():
            v = image[q]
            pushed[v] = pushed.get(v, 0) + m
        tables.append(pushed)
        entries += max(len(pushed), 8) - 8
    raise InvalidParameters(
        f"fibre masses up to n = {max_n} need more than {_MAX_TABLE_ENTRIES} "
        f"table entries; use a smaller max_n"
    )


def _check_max_n(forest: PreimageForest, max_n: int) -> None:
    if type(max_n) is not int or max_n < 1:
        raise InvalidParameters(f"max_n must be >= 1, got {max_n!r}")
    if max_n > forest.depth:
        raise InvalidParameters(
            f"max_n {max_n} exceeds forest depth {forest.depth}; deeper preimages are unknowable"
        )


def check_power_bound(
    assignment: MeasureAssignment, trials: int = 1000, max_n: int = 5, seed: int = 1729
) -> PowerBoundReport:
    """Sample subsets A of covered nodes; assert mu(T^-n(A)) <= 2 mu(A), n <= max_n.

    Subsets are drawn reproducibly from the seed, one random bit per covered
    node in ascending order.  The sets T^-n{v} of distinct v are disjoint, so
    mu(T^-n(A)) is the sum over v in A of the fibre mass P_n(v), the mass of
    the covered part of T^-n{v}.  The fibre masses are computed once per call
    (see _fibre_masses: one map preimage per covered node, not the stored tree
    links), so each comparison is one sum over the drawn set.  Masses are
    integer numerators over the assignment's shared denominator, so every
    comparison is exact integer arithmetic.  The worst pair is the first with
    the largest ratio, found by cross-multiplication; its ratio is reported
    correctly rounded and as a reduced fraction, and only its masses are
    rendered as MeasureValues.  power_bound_certificate reads the supremum
    over all subsets off the same fibre masses.
    A violation is an internal bug: the construction guarantees the bound.
    """
    forest = assignment.forest
    if type(trials) is not int or trials < 1:
        raise InvalidParameters(f"trials must be >= 1, got {trials!r}")
    _check_max_n(forest, max_n)
    if trials * max_n > _MAX_COMPARISONS:
        raise InvalidParameters(
            f"trials * max_n = {trials * max_n} comparisons, above the cap of "
            f"{_MAX_COMPARISONS}; use fewer trials or a smaller max_n"
        )
    rng = random.Random(seed)
    nodes = sorted(forest.covered)
    fibres = [table.get for table in _fibre_masses(assignment, max_n)[1:]]
    weight = assignment.numerators.__getitem__
    comparisons = 0
    best = None  # (mu_n, mu_a, n, |A|) with the largest mu_n / mu_a so far
    for _ in range(trials):
        subset = [v for v in nodes if rng.getrandbits(1)]
        mu_a = sum(map(weight, subset))
        for n, fibre in enumerate(fibres, start=1):
            mu_n = sum(map(fibre, subset, repeat(0)))
            comparisons += 1
            if mu_n > 2 * mu_a:
                raise BoundViolation(
                    f"mu(T^-{n}(A)) = {assignment.value(mu_n)} > 2*mu(A) = "
                    f"{assignment.value(2 * mu_a)} for |A| = {len(subset)}, seed {seed}"
                )
            if mu_a and (best is None or mu_n * best[1] > best[0] * mu_a):
                best = (mu_n, mu_a, n, len(subset))
    if best is None:
        return PowerBoundReport(trials, max_n, seed, comparisons, 0, None, None, None)
    mu_n, mu_a, n, size = best
    g = math.gcd(mu_n, mu_a)
    worst = {
        "n": n,
        "set_size": size,
        "mu_set": str(assignment.value(mu_a)),
        "mu_preimage": str(assignment.value(mu_n)),
    }
    return PowerBoundReport(trials, max_n, seed, comparisons, 0, mu_n / mu_a,
                            f"{mu_n // g}/{mu_a // g}", worst)


def power_bound_certificate(assignment: MeasureAssignment, max_n: int) -> list[tuple[str, int]]:
    """The exact sup over nonempty A of mu(T^-n(A)) / mu(A), for n = 1..max_n.

    Entry n - 1 is (ratio, v): ratio = max_v P_n(v) / mu(v) as a reduced
    "p/q" over the covered nodes v, with P_n the fibre masses check_power_bound
    sums, and v the smallest node attaining it.  mu(T^-n(A)) / mu(A) is a
    mediant of the per-node ratios over A, never above the largest, so this is
    the supremum over all subsets of the covered nodes: every sampled ratio at
    power n is at most entry n - 1.  The power bound holds iff no ratio
    exceeds 2.
    """
    _check_max_n(assignment.forest, max_n)
    weight = assignment.numerators
    certificate = []
    for fibre in _fibre_masses(assignment, max_n)[1:]:
        p, q, arg = 0, 1, None
        for v, mass in fibre.items():
            m = weight[v]
            if mass * q > p * m or (mass * q == p * m and v < arg):
                p, q, arg = mass, m, v
        g = math.gcd(p, q)
        certificate.append((f"{p // g}/{q // g}", arg))
    return certificate


def export_json(assignment: MeasureAssignment, report: PowerBoundReport | None = None) -> dict:
    """The measure as JSON; cycle-local masses undo the weight 2^(-i-1) by a shift."""
    forest = assignment.forest
    numerators, value = assignment.numerators, assignment.value
    nodes = []
    for v in sorted(forest.covered):
        parent = forest.parent.get(v)
        ci = forest.node_cycle[v]
        nodes.append({
            "value": str(v),
            "cycle": ci + 1,
            "level": forest.node_level[v],
            "parent": None if parent is None else str(parent),
            "cycle_local": value(numerators[v] << (ci + 2)).to_json_dict(),
            "combined": value(numerators[v]).to_json_dict(),
        })
    cycles = []
    for ci, cyc in enumerate(forest.cycles):
        local = sum(numerators[v] for level in forest.levels[ci] for v in level) << (ci + 2)
        cycles.append({
            "index": ci + 1,
            "length": cyc.length,
            "members": [str(m) for m in cyc.members],
            "weight": str(DyadicRational(1, ci + 2)),
            "cycle_local_total": value(local).to_json_dict(),
        })
    return {
        "map": forest.descriptor.to_text(),
        "depth": forest.depth,
        "covered_nodes": len(forest.covered),
        "cycles": cycles,
        "nodes": nodes,
        "total": assignment.total.to_json_dict(),
        "power_bound": report.to_json_dict() if report else None,
    }
