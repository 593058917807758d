"""One canonical form and one text for every measure mass.

The measure keeps every mass as an integer numerator over one shared
denominator and does all its arithmetic on those integers.  dyadic_form is
the one rule that reduces a mass to its canonical form n * 2**-e / odd q, and
mass_fields the one that renders it; DyadicRational and MeasureValue hold
their fields in that form.  Nothing here rounds or builds a power 2**e, so
values stay exact and cheap at any exponent.  Instances are treated as
immutable, which makes them safe to share across threads and processes.

Every int the engines report is printed in decimal, and CPython refuses
int -> str past sys.get_int_max_str_digits() digits.  max_str_digits and
str_ceiling state that limit once, for the CLI's bound parser and for the
builders that refuse a value before it could reach the printer.

write_json writes every JSON document to a stream: json.dumps renders it,
and the `tree` and `measure` node arrays and the `traj` orbit, pre-rendered
one record per node or step and a batch of records at a time, are spliced in
where it holds RECORDS.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from itertools import islice

__all__ = ["DyadicRational", "dyadic_form", "mass_fields"]

# CPython's default int -> str digit limit, for interpreters that set none
_DEFAULT_MAX_STR_DIGITS = 4300


def max_str_digits() -> int:
    """Most decimal digits an int may have and still be printed.

    sys.get_int_max_str_digits(); an interpreter with no limit (0, or a
    Python before 3.10.7) gets CPython's default of 4300, so the bound still
    caps the integers the engines build.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    return (get and get()) or _DEFAULT_MAX_STR_DIGITS


def str_ceiling() -> int:
    """10^max_str_digits(): the smallest positive int too long to print."""
    return _pow10(max_str_digits())


@functools.cache
def _pow10(digits: int) -> int:
    return 10**digits


# json.dumps writes this NUL as '"\u0000"'; a document's other strings are
# map descriptors, numerals and n/2^k forms, so that text marks only the splice
RECORDS = "\x00"

# texts per batch: into a StringIO, a write per text would cost as much as rendering it
_BATCH = 2048


def record_str(value) -> str:
    """value's text, unescaped, as a JSON string; null for None."""
    return "null" if value is None else f'"{value}"'


def batched(items):
    """items in lists of _BATCH, for a renderer to render one batch at a time."""
    items = iter(items)
    return iter(lambda: list(islice(items, _BATCH)), [])


def write_batches(batches, sep: str, lead: str, stream) -> bool:
    """Write lead + sep.join of the texts in batches, lists of texts; True if any was written."""
    # a batch is one join and one write, a separator a write apart: no joined batch is copied
    wrote = False
    for batch in filter(None, batches):
        stream.write(sep if wrote else lead)
        stream.write(sep.join(batch))
        wrote = True
    return wrote


def write_json(document, stream, batches=()) -> None:
    """Write json.dumps(document, indent=2) plus a newline to stream.

    A top-level value RECORDS stands for the array of the records in
    `batches`, lists of records.  Each record is one array item as indent-2
    json.dumps writes it there: its first line unindented and every later
    line with its full indentation, 4 spaces for the closing brace.  Records
    go in unescaped, so every string in them must need no escaping: decimal
    digits, class names, 3^a*2^b*h-1 forms, n/2^k dyadics and decimals do.
    """
    head, spliced, tail = json.dumps(document, indent=2).partition(json.dumps(RECORDS))
    if spliced and write_batches(batches, ",\n    ", head + "[\n    ", stream):
        stream.write(f"\n  ]{tail}\n")
    else:  # no array to splice, or an empty one
        stream.write(f"{head}{'[]' if spliced else ''}{tail}\n")


def dyadic_form(num: int, exp: int = 0, den: int = 1) -> tuple[int, int, int]:
    """num * 2**-exp / den in lowest terms, as (n, e, q): n * 2**-e / q.

    The twos of den move into e, so q is odd; n is odd whenever e > 0, and
    zero is (0, 0, 1), so the form is unique per value.  Twos move by shifts
    and the gcd is taken against q only.  Takes num >= 0, exp >= 0, den >= 1.
    """
    if num == 0:
        return 0, 0, 1
    twos = (den & -den).bit_length() - 1
    den >>= twos
    exp += twos
    if exp:
        drop = min((num & -num).bit_length() - 1, exp)
        num >>= drop
        exp -= drop
    if den > 1:
        g = math.gcd(num, den)
        num //= g
        den //= g
    return num, exp, den


def mass_fields(num: int, exp: int = 0, den: int = 1) -> tuple[str, str, str | None]:
    """num * 2**-exp / den in dyadic_form as its (dyadic, denom, decimal) texts.

    dyadic is "n" or "n/2^e", denom is q, and decimal is the exact decimal
    expansion (3/2^6 -> "0.046875"), given only for q == 1 and e <= 64.
    """
    n, e, q = dyadic_form(num, exp, den)
    decimal = None
    if q == 1 and e <= 64:
        digits = str(n * 5**e).zfill(e + 1)
        decimal = f"{digits[:-e]}.{digits[-e:]}" if e else digits
    return f"{n}/2^{e}" if e else str(n), str(q), decimal


class DyadicRational:
    """A non-negative rational num * 2**-exp, its fields in dyadic_form.

    Zero is stored as (0, 0), and otherwise the numerator is odd whenever
    exp > 0.  Canonical forms are unique per value, so equality and hashing
    are plain field comparisons.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int = 0, exp: int = 0):
        if type(num) is not int or type(exp) is not int:
            raise TypeError("numerator and exponent must be plain ints")
        if num < 0:
            raise ValueError(f"numerator must be non-negative, got {num}")
        if exp < 0:
            raise ValueError(f"exponent must be non-negative, got {exp}")
        self.num, self.exp, _ = dyadic_form(num, exp)

    @classmethod
    def zero(cls) -> "DyadicRational":
        return cls(0, 0)

    def __eq__(self, other):
        if not isinstance(other, DyadicRational):
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self):
        return hash((self.num, self.exp))

    def __repr__(self):
        return f"DyadicRational({self.num}, {self.exp})"

    def __str__(self):
        return mass_fields(self.num, self.exp)[0]
