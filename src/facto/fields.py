"""Exact scalar arithmetic over the rationals and prime fields F_p.

A field object carries the mode; element values are plain Python objects
(`fractions.Fraction` for Q, `int` residues in [0, p) for F_p).  All
operations are pure and values are immutable, so they are safe to share
between threads.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field:
    """Base for the two scalar modes."""

    def check(self, other: "Field") -> None:
        if self != other:
            raise FieldError(f"scalar mode mismatch: {self} vs {other}")

    # subclasses implement: add, sub, mul, neg, inv, zero, one,
    # from_int, parse, to_json

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero


class Rationals(Field):
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def parse(self, s) -> Fraction:
        # "num/den" strings or bare integers
        if isinstance(s, str):
            try:
                return Fraction(s)
            except ZeroDivisionError:
                raise FieldError(f"zero denominator in {s!r}") from None
        if type(s) is int:
            return Fraction(s)
        raise FieldError(f"cannot parse rational from {s!r}")

    def to_json(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    def __init__(self, p: int):
        if not (2 <= p < 2**31 and _is_prime(p)):
            raise FieldError(f"modulus must be a prime < 2^31, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int) -> int:
        return n % self.p

    def parse(self, s) -> int:
        if type(s) is int:
            return s % self.p
        if isinstance(s, str):
            return int(s) % self.p
        raise FieldError(f"cannot parse F_{self.p} element from {s!r}")

    def to_json(self, a):
        return a

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_spec(spec: str) -> Field:
    """Parse a CLI field spec: "q" or "fp:<p>"."""
    spec = spec.lower()
    if spec in ("q", "qq", "rational"):
        return QQ
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise FieldError(f"modulus must be an integer, got {spec[3:]!r}") from None
        return PrimeField(p)
    raise FieldError(f"unknown field spec {spec!r} (use q or fp:<p>)")
