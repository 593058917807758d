"""Residue-branched affine maps on the positive integers.

A map with modulus d and branch table ((m_0, r_0), ..., (m_{d-1}, r_{d-1}))
sends x to (m_i*x + r_i) / d on the residue class x = i (mod d).  The halved
3x+1 step is d=2 with branches (1, 0) and (3, 1); the general px+r variants
keep the even branch x/2 and use (p*x + r)/2 on odd x.  pxr(p, r) is the one
check of a (p, r) pair; the chain layer's px+r entry points call it too.

Validation enforces what keeps such a table a self-map of {1, 2, 3, ...}:

* gcd(m_0 * m_1 * ... * m_{d-1}, d) = 1,
* m_i*i + r_i = 0 (mod d) for every class, so each branch divides exactly,
* no x >= 1 maps below 1.  Checking the smallest x >= 1 in each residue
  class suffices because multipliers are positive.

Those rules make the inverse a congruence.  y has a branch-i preimage x,
the solution of m_i*x + r_i = d*y, exactly when d*y = r_i (mod m_i), that
is when y = t_i = r_i * d^-1 (mod m_i), well defined since gcd(m_i, d) = 1;
it then counts when x >= 1.  MapDescriptor.preimage_table holds
(m_i, r_i, t_i) per branch, and it is the one preimage rule here.

Descriptor text grammar (no whitespace, '-' allowed on r values only):

    collatz | pxr:p=<int>,r=<int> | d=<int>(;m<i>=<int>,r<i>=<int>){d}
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DescriptorParseError,
    DomainError,
    GcdViolation,
    InvalidDescriptor,
    InvalidParameters,
    NonIntegerBranch,
    NonPositiveImage,
)
from .numeric import max_str_digits, str_ceiling

__all__ = [
    "MapDescriptor",
    "collatz",
    "pxr",
    "validate",
    "parse_descriptor",
]

# the forward class table (MapDescriptor.class_levels) is kept mod d^K for the
# largest K with d^K at most this many classes
_CLASS_TABLE_SIZE = 256


@dataclass(frozen=True)
class MapDescriptor:
    """Modulus d >= 2 plus one (multiplier, offset) pair per residue class.

    Frozen, so a descriptor is hashable and safe to share.  Construct
    through collatz()/pxr()/parse_descriptor() or run validate() on a raw
    instance; apply/preimage assume a validated table.
    """

    d: int
    branches: tuple[tuple[int, int], ...]

    def apply(self, x: int) -> int:
        """One forward step.  Raises DomainError off {1, 2, 3, ...}.

        This is the definition of the map, and iterate steps through it.  The
        range engine (partition) and find_cycles' descent inline the same
        formula without the domain check, which validate makes redundant on
        orbit points.
        """
        if type(x) is not int or x < 1:
            raise DomainError(f"map domain is the positive integers, got {x!r}")
        m, r = self.branches[x % self.d]
        return (m * x + r) // self.d

    @cached_property
    def preimage_table(self) -> tuple[tuple[int, int, int], ...]:
        """(m_i, r_i, t_i) per branch, with t_i = r_i * d^-1 (mod m_i).

        y has a branch-i preimage exactly when y = t_i (mod m_i).  Computed
        once per descriptor: the cache goes in the instance __dict__ and
        leaves the fields, equality and hash alone.
        """
        return tuple((m, r, r * pow(self.d, -1, m) % m) for m, r in self.branches)

    @cached_property
    def class_steps(self) -> int:
        """K, the steps a forward class table entry spans: the largest K with d^K <= 256.

        8 for d = 2 and 5 for d = 3.  K is 1 for 17 <= d <= 256 and 0, with
        no table, for d > 256.  partition jumps only when K >= 2 (d <= 16);
        find_cycles' class filter reads the table whenever K >= 1.
        """
        k, size = 0, self.d
        while size <= _CLASS_TABLE_SIZE:
            k, size = k + 1, size * self.d
        return k

    @cached_property
    def class_levels(self) -> list[list]:
        """The forward class tables, filled an entry at a time by class_entry.

        class_levels[j][a], for j = 1 .. class_steps and 0 <= a < d^j, is the
        entry of T^j on the class a mod d^j, or None until a caller needs
        it; class_levels[0] is unused.  Nothing is built until first use.
        """
        return [[None] * self.d ** j for j in range(self.class_steps + 1)]

    def class_entry(self, a: int, j: int) -> tuple[int, int, int, int, int]:
        """T^j on the residue class a mod d^j, 1 <= j <= class_steps: (Q, S, C, A, B).

        On the class x = a + d^j*q, 0 <= a < d^j, the first j steps take the
        same branches for every q >= 0, so T^j is affine there (Terras 1976;
        Lagarias 1985, section 2).  All five are exact: T^j(x) = A*q + B,
        and for q >= Q the largest of the j points T(x), ..., T^j(x) is
        S*q + C, the steepest of their lines.  Q is a bound, not always the
        least one.

        Filled on first use into class_levels from the level below: on x = a
        + d^j*q, T(x) = a' + d^(j-1)*(c + m*q) for the branch (m, r) of a,
        where (m*a + r)/d = a' + d^(j-1)*c with 0 <= a' < d^(j-1), so T^j
        there is T followed by T^(j-1) on the class a' mod d^(j-1) at q' = c
        + m*q.  So each entry costs one step once the entries it rests on
        are filled.
        """
        levels = self.class_levels
        entry = levels[j][a]
        if entry is None:
            d = self.d
            m, r = self.branches[a % d]
            a1 = (m * a + r) // d
            if j == 1:
                entry = (0, m, a1, m, a1)
            else:
                size = d ** (j - 1)
                c, rest = divmod(a1, size)
                q0, slope, offset, am, ab = levels[j - 1][rest] or self.class_entry(rest, j - 1)
                first = m * size  # the slope of T(x)
                slope, offset = slope * m, slope * c + offset  # the steepest line after T(x)
                # that line holds the later points from q' >= q0, and the
                # steeper of the two lines passes the other where it catches up
                q0 = -((c - q0) // m)
                if first > slope:
                    slope, offset, first, a1 = first, a1, slope, offset
                if a1 > offset:
                    q0 = max(q0, -((offset - a1) // (slope - first)))
                entry = (max(q0, 0), slope, offset, am * m, am * c + ab)
            levels[j][a] = entry
        return entry

    def preimage(self, y: int) -> list[int]:
        """All x >= 1 with apply(x) == y, ascending.

        Branch i applies when y = t_i (mod m_i) (preimage_table), and its
        preimage x = (d*y - r_i) / m_i counts when x >= 1.  At most one
        preimage per branch, so at most d in total.

        This is the definition of the inverse, and the tests hold the closure
        to it.  preimage_levels reads the same table, without the codomain
        check: its nodes are positive ints by construction.
        """
        if type(y) is not int or y < 1:
            raise DomainError(f"map codomain is the positive integers, got {y!r}")
        d = self.d
        # an exact x of branch i lies in class i untested: m_i*x = -r_i = m_i*i (mod d)
        # by validate's integrality rule, and gcd(m_i, d) = 1 cancels m_i
        out = []
        for m, r, t in self.preimage_table:
            if y % m == t:
                x = (d * y - r) // m
                if x >= 1:
                    out.append(x)
        out.sort()
        return out

    @property
    def is_collatz(self) -> bool:
        return self.d == 2 and self.branches == ((1, 0), (3, 1))

    def to_text(self) -> str:
        """Canonical descriptor text (general form, parse round-trips)."""
        parts = [f"d={self.d}"]
        for i, (m, r) in enumerate(self.branches):
            parts.append(f"m{i}={m},r{i}={r}")
        return ";".join(parts)


# preimage closures (measure forests, and preimage trees with their repeats)
# of more nodes than this are refused.  The deepest Collatz forest under it,
# depth 36 with 112,658 nodes, takes `measure --trials 1` about 61 MB peak
# RSS and 0.8-1.2 s, of which the forest and assignment hold 18 MB, while its
# 36 MB document goes out a batch of node records at a time, and the default
# 1000 trials 8-9.5 s (Python 3.11, 2 CPUs, fresh processes); depth 20 has 1137 nodes.
_MAX_FOREST_NODES = 1 << 17


def preimage_levels(desc: MapDescriptor, level, depth: int, nodes: int, noun: str, skip=()):
    """Levels 1..depth of the breadth-first preimage closure of `level`.

    Yields each level as (preimage, image) pairs, ascending, without the
    preimages in `skip` (the caller may grow it between levels); stops at
    the first empty level.  Raises InvalidParameters, before yielding it, at
    the first level that takes `nodes`, the count so far, above
    _MAX_FOREST_NODES, or that holds a value too long to print
    (numeric.max_str_digits); `noun` names the closure in the message.

    Every level reads MapDescriptor.preimage_table, as preimage does: a
    branch divides only the nodes in its class.
    """
    ceiling = str_ceiling()
    d = desc.d
    table = desc.preimage_table
    for lvl in range(1, depth + 1):
        staged = []
        for m, r, t in table:
            staged += [
                (q, v) for v in level if v % m == t for q in [(d * v - r) // m]
                if q >= 1 and q not in skip
            ]
        if not staged:
            return  # no level below an empty one
        nodes += len(staged)
        if nodes > _MAX_FOREST_NODES:
            raise InvalidParameters(
                f"{noun} level {lvl} would take the {noun} to {nodes} "
                f"nodes, above the cap of {_MAX_FOREST_NODES}; use a smaller depth"
            )
        staged.sort()
        if staged[-1][0] >= ceiling:
            raise InvalidParameters(
                f"{noun} level {lvl} holds a value of more than {max_str_digits()} "
                f"digits, too long to print; use a smaller depth"
            )
        yield staged
        level = [q for q, _v in staged]


def validate(desc: MapDescriptor) -> MapDescriptor:
    """Check the self-map conditions; return the descriptor or raise."""
    if type(desc.d) is not int or desc.d < 2:
        raise InvalidDescriptor(f"modulus must be an integer >= 2, got {desc.d!r}")
    if len(desc.branches) != desc.d:
        raise InvalidDescriptor(
            f"need exactly {desc.d} branches, got {len(desc.branches)}"
        )
    prod = 1
    for i, (m, r) in enumerate(desc.branches):
        if type(m) is not int or type(r) is not int:
            raise InvalidDescriptor(f"branch {i} entries must be ints")
        if m < 1:
            raise InvalidDescriptor(f"branch {i} multiplier must be positive, got {m}")
        prod *= m
    if math.gcd(prod, desc.d) != 1:
        raise GcdViolation(
            f"gcd of branch multipliers with modulus {desc.d} is not 1"
        )
    for i, (m, r) in enumerate(desc.branches):
        if (m * i + r) % desc.d != 0:
            raise NonIntegerBranch(
                f"branch {i}: {m}*x + {r} is not divisible by {desc.d} on x = {i} (mod {desc.d})"
            )
        # smallest x >= 1 in class i; images grow with x since m > 0
        x0 = i if i >= 1 else desc.d
        if (m * x0 + r) // desc.d < 1:
            raise NonPositiveImage(
                f"branch {i} sends x = {x0} to {(m * x0 + r) // desc.d} < 1"
            )
    return desc


def collatz() -> MapDescriptor:
    """The halved 3x+1 map."""
    return pxr(3, 1)


def pxr(p: int, r: int) -> MapDescriptor:
    """The px+r map x/2 on even x, (p*x + r)/2 on odd x, as a validated descriptor.

    Requires p odd >= 3, r odd (else the odd branch is non-integral),
    |r| < p and gcd(r, p) = 1; raises InvalidDescriptor otherwise.
    """
    if type(p) is not int or type(r) is not int:
        raise InvalidDescriptor("p and r must be ints")
    if p < 3 or p % 2 == 0:
        raise InvalidDescriptor(f"p must be an odd integer >= 3, got {p}")
    if r % 2 == 0:
        raise InvalidDescriptor(f"r must be odd, got {r}")
    if abs(r) >= p:
        raise InvalidDescriptor(f"need |r| < p, got r={r}, p={p}")
    if math.gcd(r, p) != 1:
        raise InvalidDescriptor(f"r and p must be coprime, got gcd({r}, {p}) != 1")
    return validate(MapDescriptor(2, ((1, 0), (p, r))))


# -- descriptor text parsing -------------------------------------------------


def _expect(text: str, pos: int, literal: str) -> int:
    if not text.startswith(literal, pos):
        raise DescriptorParseError(f"expected '{literal}'", pos)
    return pos + len(literal)


def _read_int(text: str, pos: int, signed: bool) -> tuple[int, int]:
    start = pos
    if signed and pos < len(text) and text[pos] == "-":
        pos += 1
    end = pos
    while end < len(text) and text[end].isdigit():
        end += 1
    if end == pos:
        raise DescriptorParseError("expected an integer", pos)
    return int(text[start:end]), end


def parse_descriptor(text: str) -> MapDescriptor:
    """Parse descriptor text and return the validated map.

    Errors carry the first offending character position.  'collatz' and the
    pxr:... form are returned expanded to their two-branch tables.
    """
    if not isinstance(text, str):
        raise DescriptorParseError("descriptor must be a string", 0)
    for pos, ch in enumerate(text):
        if ch.isspace():
            raise DescriptorParseError("whitespace is not allowed", pos)
    if text == "collatz":
        return collatz()
    if text.startswith("pxr:"):
        pos = 4
        pos = _expect(text, pos, "p=")
        p, pos = _read_int(text, pos, signed=False)
        pos = _expect(text, pos, ",r=")
        r, pos = _read_int(text, pos, signed=True)
        if pos != len(text):
            raise DescriptorParseError("unexpected trailing text", pos)
        try:
            return pxr(p, r)
        except InvalidDescriptor as exc:
            raise DescriptorParseError(str(exc), 4) from exc
    if text.startswith("d="):
        pos = 2
        d, pos = _read_int(text, pos, signed=False)
        if d < 2:
            raise DescriptorParseError(f"modulus must be >= 2, got {d}", 2)
        branches = []
        for i in range(d):
            pos = _expect(text, pos, f";m{i}=")
            m, pos = _read_int(text, pos, signed=False)
            pos = _expect(text, pos, f",r{i}=")
            r, pos = _read_int(text, pos, signed=True)
            branches.append((m, r))
        if pos != len(text):
            raise DescriptorParseError("unexpected trailing text", pos)
        return validate(MapDescriptor(d, tuple(branches)))
    raise DescriptorParseError(
        "descriptor must be 'collatz', 'pxr:p=..,r=..' or 'd=..;m0=..,r0=..;...'", 0
    )
