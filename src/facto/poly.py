"""Dense univariate polynomials with exact coefficients.

Coefficients are stored lowest degree first with no trailing zeros; the
zero polynomial has an empty coefficient tuple.  The JSON form is the
coefficient array, rationals as "num/den" strings, F_p residues as ints.
"""

from __future__ import annotations

from .fields import Field, FieldError


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = tuple(coeffs)

    # constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return cls(field, (field.one,))

    @classmethod
    def monomial(cls, field: Field, exp: int, coeff=None) -> "Polynomial":
        c = field.one if coeff is None else coeff
        if field.is_zero(c):
            return cls.zero(field)
        return cls(field, (field.zero,) * exp + (c,))

    @classmethod
    def x(cls, field: Field) -> "Polynomial":
        return cls.monomial(field, 1)

    # basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_unit(self) -> bool:
        """Nonzero constant."""
        return len(self.coeffs) == 1

    def is_monomial(self) -> bool:
        return bool(self.coeffs) and all(
            self.field.is_zero(c) for c in self.coeffs[:-1]
        )

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    # arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other)}")
        self.field.check(other.field)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(F, [F.add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(F, [F.sub(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self) -> "Polynomial":
        F = self.field
        return Polynomial(F, [F.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        F = self.field
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(F)
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if F.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Polynomial(F, out)

    def scale(self, c) -> "Polynomial":
        F = self.field
        return Polynomial(F, [F.mul(c, a) for a in self.coeffs])

    def shift(self, k: int) -> "Polynomial":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return Polynomial(self.field, (self.field.zero,) * k + self.coeffs)

    def divrem(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact division with remainder: self = q*other + r, deg r < deg other."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        F = self.field
        rem = list(self.coeffs)
        db = other.degree
        lb_inv = F.inv(other.leading())
        quo = [F.zero] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if F.is_zero(c):
                continue
            q = F.mul(c, lb_inv)
            quo[i - db] = q
            for j, b in enumerate(other.coeffs):
                rem[i - db + j] = F.sub(rem[i - db + j], F.mul(q, b))
        return Polynomial(F, quo), Polynomial(F, rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return self.divrem(other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divrem(other)[1]

    def divides(self, other: "Polynomial") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    # comparisons / hashing ---------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if self.field.is_zero(c):
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                parts.append(xs if c == self.field.one else f"{c}*{xs}")
        return " + ".join(parts)

    # serialization -----------------------------------------------------

    def to_json(self):
        return [self.field.to_json(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, field: Field, data) -> "Polynomial":
        if not isinstance(data, list):
            raise FieldError(f"polynomial JSON must be a coefficient array, got {data!r}")
        return cls(field, [field.parse(c) for c in data])


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm."""
    a._check(b)
    if a.is_zero() and b.is_zero():
        raise ZeroDivisionError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()
