"""Residue-branched affine maps on the positive integers.

A map with modulus d and branch table ((m_0, r_0), ..., (m_{d-1}, r_{d-1}))
sends x to (m_i*x + r_i) / d on the residue class x = i (mod d).  The halved
3x+1 step is d=2 with branches (1, 0) and (3, 1); the general px+r variants
keep the even branch x/2 and use (p*x + r)/2 on odd x.

Validation enforces what keeps such a table a self-map of {1, 2, 3, ...}:

* gcd(m_0 * m_1 * ... * m_{d-1}, d) = 1,
* m_i*i + r_i = 0 (mod d) for every class, so each branch divides exactly,
* no x >= 1 maps below 1.  Checking the smallest x >= 1 in each residue
  class suffices because multipliers are positive.

Descriptor text grammar (no whitespace, '-' allowed on r values only):

    collatz | pxr:p=<int>,r=<int> | d=<int>(;m<i>=<int>,r<i>=<int>){d}
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "PxrDescriptor",
    "collatz",
    "pxr",
    "validate",
    "parse_descriptor",
]


@dataclass(frozen=True)
class MapDescriptor:
    """Modulus d >= 2 plus one (multiplier, offset) pair per residue class.

    Frozen and picklable so scans can ship descriptors to worker processes.
    Construct through collatz()/pxr()/parse_descriptor() or run validate()
    on a raw instance; apply/preimage assume a validated table.
    """

    d: int
    branches: tuple[tuple[int, int], ...]

    def apply(self, x: int) -> int:
        """One forward step.  Raises DomainError off {1, 2, 3, ...}."""
        if type(x) is not int or x < 1:
            raise DomainError(f"map domain is the positive integers, got {x!r}")
        m, r = self.branches[x % self.d]
        return (m * x + r) // self.d

    def preimage(self, y: int) -> list[int]:
        """All x >= 1 with apply(x) == y, ascending.

        Solves m_i*x + r_i = d*y per branch; a candidate counts only when the
        division is exact and the solution actually lies in class i.  At most
        one preimage per branch, so at most d in total.
        """
        if type(y) is not int or y < 1:
            raise DomainError(f"map codomain is the positive integers, got {y!r}")
        out = []
        for i, (m, r) in enumerate(self.branches):
            num = self.d * y - r
            if num <= 0:
                continue
            x, rem = divmod(num, m)
            if rem == 0 and x >= 1 and x % self.d == i:
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
# depth 36 with 112,658 nodes, takes `measure --trials 1` about 245 MB peak
# RSS and 4.5 s, of which the export_json dict holds about 105 MB and the
# forest and assignment 37 MB, and the default 1000 trials about 70 s
# (Python 3.11, 2 CPUs); depth 20 has 1137 nodes.
_MAX_FOREST_NODES = 1 << 17


def preimage_levels(desc: MapDescriptor, level, depth: int, nodes: int, noun: str, skip=()):
    """Levels 1..depth of the breadth-first preimage closure of `level`.

    Yields each level as (preimage, image) pairs, ascending, without the
    preimages in `skip` (the caller may grow it between levels); stops at
    the first empty level.  Raises InvalidParameters, before yielding it, at
    the first level that takes `nodes`, the count so far, above
    _MAX_FOREST_NODES, or that holds a value too long to print
    (numeric.max_str_digits); `noun` names the closure in the message.
    """
    ceiling = str_ceiling()
    for lvl in range(1, depth + 1):
        staged = [(q, v) for v in level for q in desc.preimage(v) if q not in skip]
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


@dataclass(frozen=True)
class PxrDescriptor:
    """The px+r view: x/2 on even x, (p*x + r)/2 on odd x.

    Requires p odd >= 3, r odd (else the odd branch is non-integral),
    |r| < p and gcd(r, p) = 1.
    """

    p: int
    r: int

    def __post_init__(self):
        if type(self.p) is not int or type(self.r) is not int:
            raise InvalidDescriptor("p and r must be ints")
        if self.p < 3 or self.p % 2 == 0:
            raise InvalidDescriptor(f"p must be an odd integer >= 3, got {self.p}")
        if self.r % 2 == 0:
            raise InvalidDescriptor(f"r must be odd, got {self.r}")
        if abs(self.r) >= self.p:
            raise InvalidDescriptor(f"need |r| < p, got r={self.r}, p={self.p}")
        if math.gcd(self.r, self.p) != 1:
            raise InvalidDescriptor(
                f"r and p must be coprime, got gcd({self.r}, {self.p}) != 1"
            )

    def to_map_descriptor(self) -> MapDescriptor:
        return MapDescriptor(2, ((1, 0), (self.p, self.r)))


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
    """Validated px+r map as a two-branch descriptor."""
    return validate(PxrDescriptor(p, r).to_map_descriptor())


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
