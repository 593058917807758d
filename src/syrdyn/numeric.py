"""Exact dyadic-rational arithmetic.

The measure's per-node values and reported masses are non-negative
rationals of the form num * 2**-exp (its power-bound check sums integer
numerators instead).  Python integers are arbitrary precision, so values stay
exact at any forest depth; nothing here ever rounds.  Instances are treated as
immutable: every operation returns a fresh value, which makes them safe to
share across threads and processes.
"""

from __future__ import annotations

__all__ = ["DyadicRational", "dyadic_add", "dyadic_cmp"]


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
        else:
            while not num & 1 and exp > 0:
                num >>= 1
                exp -= 1
        self.num = num
        self.exp = exp

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "DyadicRational":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "DyadicRational":
        return cls(1, 0)

    @classmethod
    def from_int(cls, n: int) -> "DyadicRational":
        return cls(n, 0)

    @classmethod
    def pow2(cls, k: int) -> "DyadicRational":
        """2**k for any integer k (negative k gives 1/2**-k exactly)."""
        if k >= 0:
            return cls(1 << k, 0)
        return cls(1, -k)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, DyadicRational):
            return NotImplemented
        e = self.exp if self.exp >= other.exp else other.exp
        return DyadicRational(
            (self.num << (e - self.exp)) + (other.num << (e - other.exp)), e
        )

    def __mul__(self, other):
        # scaling by a non-negative integer only; general products never occur
        if type(other) is not int:
            return NotImplemented
        return DyadicRational(self.num * other, self.exp)

    __rmul__ = __mul__

    def mul_pow2(self, k: int) -> "DyadicRational":
        """Exact scaling by 2**k, k of either sign."""
        if k >= 0:
            drop = k if k < self.exp else self.exp
            return DyadicRational(self.num << (k - drop), self.exp - drop)
        return DyadicRational(self.num, self.exp - k)

    def halve(self) -> "DyadicRational":
        return self.mul_pow2(-1)

    # -- comparisons ---------------------------------------------------------

    def _diff(self, other) -> int:
        # sign of self - other without leaving the integers
        return (self.num << other.exp) - (other.num << self.exp)

    def __eq__(self, other):
        if not isinstance(other, DyadicRational):
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __lt__(self, other):
        if not isinstance(other, DyadicRational):
            return NotImplemented
        return self._diff(other) < 0

    def __le__(self, other):
        if not isinstance(other, DyadicRational):
            return NotImplemented
        return self._diff(other) <= 0

    def __gt__(self, other):
        if not isinstance(other, DyadicRational):
            return NotImplemented
        return self._diff(other) > 0

    def __ge__(self, other):
        if not isinstance(other, DyadicRational):
            return NotImplemented
        return self._diff(other) >= 0

    def __hash__(self):
        return hash((self.num, self.exp))

    def __bool__(self):
        return self.num != 0

    def __float__(self):
        return self.num / (1 << self.exp)

    # -- rendering -----------------------------------------------------------

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


def dyadic_add(a: DyadicRational, b: DyadicRational) -> DyadicRational:
    """Exact sum of two dyadic rationals."""
    return a + b


def dyadic_cmp(a: DyadicRational, b: DyadicRational) -> int:
    """Three-way exact comparison: -1 if a < b, 0 if equal, 1 if a > b."""
    d = (a.num << b.exp) - (b.num << a.exp)
    if d < 0:
        return -1
    return 1 if d > 0 else 0
