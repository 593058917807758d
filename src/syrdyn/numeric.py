"""Exact dyadic rationals for rendering measure values.

The measure keeps every mass as an integer numerator over one shared
denominator and does all its arithmetic on those integers.  A
DyadicRational is the canonical form num * 2**-exp in which a mass, or the
dyadic part of one, is reported.  Python integers are arbitrary precision, so
values stay exact at any forest depth; nothing here ever rounds.  Instances
are treated as immutable, which makes them safe to share across threads and
processes.
"""

from __future__ import annotations

__all__ = ["DyadicRational"]


class DyadicRational:
    """A non-negative rational num * 2**-exp in canonical form.

    Canonical means: zero is stored as (0, 0), and otherwise the numerator is
    odd whenever exp > 0 (powers of two are shifted out of the numerator as
    far as the non-negative exponent allows).  Canonical forms are unique per
    value, so equality and hashing are plain field comparisons.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int = 0, exp: int = 0):
        if type(num) is not int or type(exp) is not int:
            raise TypeError("numerator and exponent must be plain ints")
        if num < 0:
            raise ValueError(f"numerator must be non-negative, got {num}")
        if exp < 0:
            raise ValueError(f"exponent must be non-negative, got {exp}")
        if num == 0:
            exp = 0
        elif exp:
            drop = min((num & -num).bit_length() - 1, exp)
            num >>= drop
            exp -= drop
        self.num = num
        self.exp = exp

    @classmethod
    def zero(cls) -> "DyadicRational":
        return cls(0, 0)

    def mul_pow2(self, k: int) -> "DyadicRational":
        """Exact scaling by 2**k, k of either sign."""
        if k >= 0:
            drop = k if k < self.exp else self.exp
            return DyadicRational(self.num << (k - drop), self.exp - drop)
        return DyadicRational(self.num, self.exp - k)

    def __eq__(self, other):
        if not isinstance(other, DyadicRational):
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self):
        return hash((self.num, self.exp))

    def __repr__(self):
        return f"DyadicRational({self.num}, {self.exp})"

    def __str__(self):
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"

    def decimal_str(self) -> str:
        """Exact decimal expansion, e.g. 3/2^6 -> '0.046875'.

        Always terminates (denominator is a power of two).  Reports emit this
        only for exp <= 64; the method itself works at any exponent.
        """
        if self.exp == 0:
            return str(self.num)
        digits = str(self.num * 5 ** self.exp)
        if len(digits) <= self.exp:
            return "0." + digits.zfill(self.exp)
        return digits[: -self.exp] + "." + digits[-self.exp:]
