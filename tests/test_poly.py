import pytest
from hypothesis import given, settings, strategies as st

from facto.fields import QQ, GF, FieldError, field_from_spec
from facto.poly import Polynomial, poly_gcd
from reference import from_ints

F5 = GF(5)
F2 = GF(2)


def P(field, *ints):
    return from_ints(field, ints)


def test_mul_difference_of_squares():
    # (x+1)(x-1) = x^2 - 1
    assert P(QQ, 1, 1) * P(QQ, -1, 1) == P(QQ, -1, 0, 1)


def test_divrem_monomials():
    q, r = P(QQ, 0, 0, 0, 1).divrem(P(QQ, 0, 0, 1))
    assert q == P(QQ, 0, 1)
    assert r.is_zero()


def test_freshman_dream_over_f2():
    # (x+1)^2 = x^2 + 1 in F_2
    a = P(F2, 1, 1)
    assert a * a == P(F2, 1, 0, 1)


def test_gcd_monomials():
    assert poly_gcd(P(QQ, 0, 0, 1), P(QQ, 0, 0, 0, 1)) == P(QQ, 0, 0, 1)


def test_gcd_factor():
    assert poly_gcd(P(QQ, -1, 0, 1), P(QQ, -1, 1)) == P(QQ, -1, 1)


def test_gcd_over_f2():
    # x^2+1 = (x+1)^2 over F_2
    g = poly_gcd(P(F2, 1, 0, 1), P(F2, 1, 1))
    assert g == P(F2, 1, 1)
    assert (P(F2, 1, 0, 1) % g).is_zero()


def test_mode_mismatch_rejected():
    with pytest.raises(FieldError):
        P(QQ, 1) + P(F5, 1)


def test_divide_by_zero_poly():
    with pytest.raises(ZeroDivisionError):
        P(QQ, 1).divrem(Polynomial.zero(QQ))
    with pytest.raises(ZeroDivisionError):
        poly_gcd(Polynomial.zero(QQ), Polynomial.zero(QQ))


def test_normalization_strips_trailing_zeros():
    assert P(QQ, 1, 2, 0, 0) == P(QQ, 1, 2)
    assert P(QQ, 0).is_zero()
    assert P(QQ, 0).degree == -1


coeffs = st.lists(st.integers(-9, 9), max_size=6)


@settings(max_examples=150, deadline=None)
@given(coeffs, coeffs)
def test_divrem_identity(a_c, b_c):
    for field in (QQ, F5):
        a, b = P(field, *a_c), P(field, *b_c)
        if b.is_zero():
            continue
        q, r = a.divrem(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


@settings(max_examples=150, deadline=None)
@given(coeffs, coeffs)
def test_gcd_divides_and_monic(a_c, b_c):
    for field in (QQ, F5):
        a, b = P(field, *a_c), P(field, *b_c)
        if a.is_zero() and b.is_zero():
            continue
        g = poly_gcd(a, b)
        assert g.leading() == field.one
        assert (a % g).is_zero() and (b % g).is_zero()


@settings(max_examples=80, deadline=None)
@given(coeffs, coeffs, coeffs)
def test_ring_axioms(a_c, b_c, c_c):
    a, b, c = P(F5, *a_c), P(F5, *b_c), P(F5, *c_c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


def test_json_round_trip():
    from fractions import Fraction

    p = Polynomial(QQ, (Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7)))
    assert Polynomial.from_json(QQ, p.to_json()) == p
    q = P(F5, 3, 4, 2)
    assert Polynomial.from_json(F5, q.to_json()) == q


def test_field_from_spec():
    assert field_from_spec("q") == QQ
    assert field_from_spec("fp:5") == F5
    with pytest.raises(FieldError):
        field_from_spec("fp:6")
    with pytest.raises(FieldError):
        field_from_spec("float")
