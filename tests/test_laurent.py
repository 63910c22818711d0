import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwhitney.errors import EvalAtZeroError, InexactDivisionError
from qwhitney.laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    as_laurent,
    parse_laurent,
    q_monomial,
)
from qwhitney.qcore import q_binomial

Q = q_monomial(1)


def test_q_monomial_basics():
    assert q_monomial(0) == 1
    assert q_monomial(-1) == LaurentPoly(-1, (1,))
    assert q_monomial(3) * q_monomial(-3) == 1


def test_zero_normalization():
    assert LaurentPoly(5, (0, 0)) == ZERO
    assert LaurentPoly(2, ()) == ZERO
    assert not ZERO
    assert LaurentPoly.from_terms({3: 0, -1: 0}) == ZERO
    assert ZERO.degree == -1 and ZERO.val == 0


def test_coefficients_normalize_to_int():
    p = LaurentPoly(0, (Fraction(4, 2),))
    assert p.coeffs == (2,)
    assert type(p.coeffs[0]) is int


def test_addition_and_subtraction():
    p = Q + 1
    assert p == LaurentPoly(0, (1, 1))
    assert p - Q == ONE
    assert 1 - Q == LaurentPoly(0, (1, -1))
    assert (p + (-p)) == ZERO


def test_exact_div_examples():
    assert (Q * Q - 1).exact_div(Q - 1) == Q + 1
    assert (Q + 1) / Q == 1 + q_monomial(-1)
    with pytest.raises(InexactDivisionError):
        (Q + 1).exact_div(Q - 1)
    with pytest.raises(ZeroDivisionError):
        Q.exact_div(ZERO)


def test_division_by_rational():
    assert (Q * 3) / 3 == Q
    assert (Q + 1) / Fraction(1, 2) == 2 * Q + 2


def test_exact_div_divides_primitive_parts():
    # Content and denominators on both sides come back through the scale.
    assert (6 * Q**2 - 6).exact_div(4 * Q - 4) == Fraction(3, 2) * (Q + 1)
    assert (Q / 2 + Fraction(1, 3)).exact_div(3 * Q + 2) == Fraction(1, 6)
    assert ZERO / (Q + 1) == ZERO
    # A first digit that leaves a remainder, and a divisor longer than the dividend.
    # Past a first digit's remainder, (q + 1)^2 / (2q + 1) would floor to a zero
    # remainder, so the division must stop at that digit.
    for a, b in ((Q**2 + 1, 2 * Q + 1), ((Q + 1) ** 2, 2 * Q + 1), (Q, Q**2 + 1)):
        with pytest.raises(InexactDivisionError) as caught:
            a.exact_div(b)
        assert str(caught.value) == f"{a} is not divisible by {b}"


@pytest.mark.parametrize("q0", [Fraction(3, 7), Fraction(-5, 2)])
def test_evaluate_matches_a_fraction_horner_loop(q0):
    binomial = q_binomial(20, 10)
    for p in (binomial, binomial / (3 * q_monomial(7))):
        acc = Fraction(0)
        for c in reversed(p.coeffs):
            acc = acc * q0 + c
        value = p.evaluate(q0)
        assert type(value) is Fraction and value == acc * q0**p.val


def test_pow():
    assert (Q + 1) ** 0 == ONE
    assert (Q + 1) ** 2 == Q * Q + 2 * Q + 1
    assert ZERO ** 0 == ONE
    assert ZERO ** 3 == ZERO
    assert q_monomial(2, 3) ** -1 == q_monomial(-2, Fraction(1, 3))
    with pytest.raises(InexactDivisionError):
        (Q + 1) ** -1


def test_negative_power_of_zero_divides_by_zero():
    # The same error as ZERO in exact_div and /, not a non-monomial complaint.
    for n in (-1, -3):
        with pytest.raises(ZeroDivisionError, match="Laurent division by zero"):
            ZERO ** n


def test_evaluate_examples():
    p = LaurentPoly(0, (1, 1, 1))
    assert p.evaluate(1) == 3
    assert q_monomial(-1).evaluate(Fraction(1, 2)) == 2
    with pytest.raises(EvalAtZeroError):
        q_monomial(-1).evaluate(0)
    assert (Q + 2).evaluate(0) == 2
    assert ZERO.evaluate(Fraction(7)) == 0
    # Positive zero at a negative float q0, where q0 * 0 would be -0.0.
    for q0 in (-0.5, 0.5):
        assert math.copysign(1.0, ZERO.evaluate(q0)) == 1.0


def test_evaluate_float():
    p = 2 * Q + q_monomial(-1)
    assert p.evaluate(0.5) == pytest.approx(3.0)


def test_float_mixing_is_an_error():
    with pytest.raises(TypeError):
        Q + 0.5
    with pytest.raises(TypeError):
        Q - 0.5
    with pytest.raises(TypeError):
        0.5 - Q
    with pytest.raises(TypeError):
        0.5 * Q
    with pytest.raises(TypeError):
        as_laurent(0.5)


def test_canonical_rendering():
    p = q_monomial(-1, -1) + 2 + q_monomial(2, Fraction(1, 3))
    assert str(p) == "-1*q^-1 + 2 + 1/3*q^2"
    assert str(ZERO) == "0"
    assert str(Q) == "1*q^1"
    assert parse_laurent(str(p)) == p
    assert parse_laurent("0") == ZERO


def test_hash_consistent_with_int_equality():
    assert hash(LaurentPoly.constant(2)) == hash(2)
    assert LaurentPoly.constant(2) == 2
    assert len({LaurentPoly.constant(2), 2}) == 1


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
polys = st.dictionaries(st.integers(min_value=-5, max_value=5), rationals,
                        max_size=5).map(LaurentPoly.from_terms)
nonzero_scalars = (st.integers(min_value=-9, max_value=9) | rationals).filter(bool)


@settings(max_examples=150)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=150)
@given(polys, polys.filter(bool), nonzero_scalars, st.integers(min_value=-5, max_value=5),
       st.integers(min_value=1, max_value=4))
def test_exact_div_round_trip(a, b, c, e, n):
    assert (a * b).exact_div(b) == a
    # Division by an int or a Fraction, and a negative power of a monomial,
    # are the exact_div quotients.
    assert (a * c) / c == a and a / c == a.exact_div(c) == a * (1 / Fraction(c))
    mono = q_monomial(e, c)
    assert mono**-n == ONE.exact_div(mono**n) == q_monomial(-e * n, 1 / Fraction(c) ** n)


@settings(max_examples=100)
@given(polys, polys, st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(-2, 3)]))
def test_evaluate_is_a_ring_homomorphism(a, b, q0):
    assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)
    assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)


@settings(max_examples=150)
@given(polys, polys)
def test_canonical_text_round_trip(p, b):
    for value in (p, p * b - p):
        assert parse_laurent(str(value)) == value


def test_doctests_pass():
    import doctest

    import qwhitney.laurent as mod

    assert doctest.testmod(mod).failed == 0


# -- differential tests against sympy.Poly -------------------------------------
#
# A Laurent polynomial p is compared as the ordinary polynomial p * q^shift,
# with shift large enough to clear every negative exponent.

SHIFT = 12


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def _poly(sp, p, shift=SHIFT):
    """sympy.Poly of p * q^shift over QQ."""
    terms = {(e + shift,): sp.Rational(c.numerator, c.denominator) for e, c in p.terms()}
    return sp.Poly.from_dict(terms, sp.Symbol("q"), domain=sp.QQ)


def _assert_primitive_form(p):
    assert type(p.val) is int and type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.nums)
    if not p.nums:
        assert (p.val, p.nums, p.den) == (0, (), 1)
        return
    assert p.nums[0] and p.nums[-1]
    assert math.gcd(p.den, *p.nums) == 1
    for c in p.coeffs:
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


@settings(max_examples=150)
@given(polys, polys, st.integers(min_value=-9, max_value=9) | rationals)
def test_ring_ops_match_sympy(sp, a, b, s):
    pa, pb = _poly(sp, a), _poly(sp, b)
    c = sp.Rational(s.numerator, s.denominator)
    ps = sp.Poly(c * sp.Symbol("q") ** SHIFT, sp.Symbol("q"), domain=sp.QQ)
    for result, expected in ((a + b, pa + pb), (a - b, pa - pb), (-a, -pa),
                             (a + s, pa + ps), (s + a, pa + ps), (a - s, pa - ps),
                             (s - a, ps - pa), (a * s, pa * c), (s * a, pa * c)):
        _assert_primitive_form(result)
        assert _poly(sp, result) == expected
    product = a * b
    _assert_primitive_form(product)
    assert _poly(sp, product, 2 * SHIFT) == pa * pb


@settings(max_examples=60)
@given(polys, st.integers(min_value=0, max_value=12))  # up to the catalogue's nmax ceiling
def test_pow_matches_sympy(sp, a, n):
    result = a**n
    _assert_primitive_form(result)
    assert _poly(sp, result, n * SHIFT) == _poly(sp, a) ** n


@settings(max_examples=150)
@given(polys, polys.filter(bool), st.booleans())
def test_exact_div_matches_sympy(sp, a, b, multiple):
    if multiple:
        a = a * b
    if not a:
        assert a.exact_div(b) == ZERO
        return
    # Dividing the q-free parts decides divisibility; the quotient's
    # valuation is the difference of the valuations.
    quo, rem = sp.div(_poly(sp, a, -a.val), _poly(sp, b, -b.val))
    if rem.is_zero:
        result = a.exact_div(b)
        _assert_primitive_form(result)
        assert _poly(sp, result, b.val - a.val) == quo
    else:
        assert not multiple
        with pytest.raises(InexactDivisionError):
            a.exact_div(b)


nonzero_rationals = rationals.filter(bool)


@settings(max_examples=150)
@given(polys, nonzero_rationals)
def test_evaluate_at_fraction_matches_sympy(sp, p, q0):
    value = p.evaluate(q0)
    assert type(value) is Fraction
    expected = _poly(sp, p).eval(sp.Rational(q0.numerator, q0.denominator))
    assert value == Fraction(int(expected.p), int(expected.q)) / q0**SHIFT


def _horner_over_fractions(p, q0):
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * q0 + c
    return acc * q0**p.val


float_qs = st.floats(min_value=0.05, max_value=3.0) | st.floats(min_value=-3.0, max_value=-0.05)


@settings(max_examples=200)
@given(polys, polys, float_qs)
def test_float_evaluate_is_bit_identical_to_fraction_horner(a, b, q0):
    p = a * b + a
    assume(p)
    assert p.evaluate(q0).hex() == float(_horner_over_fractions(p, q0)).hex()


@settings(max_examples=100)
@given(rationals, polys)
def test_constants_hash_like_their_value(c, p):
    for const in (LaurentPoly.constant(c), p - p + c, (p + c) - p):
        _assert_primitive_form(const)
        assert const == c and hash(const) == hash(c)
    # A scalar compares with any polynomial as its constant polynomial does.
    for value in (c, int(c), p.coefficient(0)):
        const = LaurentPoly.constant(value)
        assert (p == value) is (value == p) is (p == const)
        assert hash(const) == hash(value)
