"""The fused `sum_of_products` of each exact mode against the plain loop,
`divide_exact`, the domain guards, and each mode's `parse` and report-point data."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwhitney.errors import DomainError
from qwhitney.identities import check_nmax
from qwhitney.laurent import ZERO, LaurentPoly, q_monomial
from qwhitney.modes import SYMBOLIC, FloatQ, RationalQ, canonical_text, divide_exact


class _Opaque(int):
    """An int whose denominator must not be read: the factor of a skipped term."""

    @property
    def denominator(self):
        raise AssertionError("a term with a zero leading factor was not skipped")


def _plain_sum(terms):
    """acc = acc + the product of each term's factors, left to right from 0."""
    acc = 0
    for term in terms:
        product = term[0]
        for factor in term[1:]:
            product = product * factor
        acc = acc + product
    return acc


#: Denominators with shared factors (2, 4, 6, 12, 9) and coprime ones (5, 7, 11).
denominators = st.sampled_from([1, 2, 3, 4, 6, 9, 12, 5, 7, 11, 25])
fractions = st.builds(Fraction, st.integers(min_value=-30, max_value=30), denominators)
rationals = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(min_value=-9, max_value=9),
                      fractions)
polys = st.one_of(
    st.just(ZERO),
    st.dictionaries(st.integers(min_value=-6, max_value=6), fractions, max_size=4)
    .map(LaurentPoly.from_terms),
)


def _terms(factors, zeros=(0,)):
    """Lists of terms of 1 to 4 factors, empty lists included, plus terms led
    by one of `zeros` whose next factor is opaque: an exact mode must skip them
    without reading it."""
    term = st.lists(factors, min_size=1, max_size=4).map(tuple)
    zero = st.sampled_from(zeros)
    skipped = st.one_of(st.tuples(zero, st.just(_Opaque(5))),
                        st.tuples(zero, st.just(_Opaque(3)), factors))
    return st.lists(st.one_of(term, term, term, skipped), max_size=8)


def _assert_same(fused, plain):
    assert fused == plain
    assert canonical_text(fused) == canonical_text(plain)


@settings(max_examples=300)
@given(_terms(rationals), st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(3, 7)]))
def test_rational_sum_of_products_matches_the_plain_loop(terms, q0):
    fused = RationalQ(q0).sum_of_products(terms)
    assert type(fused) is Fraction
    _assert_same(fused, _plain_sum(terms))


@settings(max_examples=300)
@given(_terms(st.one_of(polys, polys, rationals), zeros=(0, ZERO)))
def test_symbolic_sum_of_products_matches_the_plain_loop(terms):
    fused = SYMBOLIC.sum_of_products(terms)
    assert type(fused) is LaurentPoly
    _assert_same(fused, _plain_sum(terms))


def test_only_the_exact_modes_sum_products():
    # Identities are checked by exact equality only, so float mode needs no fused sum.
    assert hasattr(RationalQ, "sum_of_products") and hasattr(type(SYMBOLIC), "sum_of_products")
    assert not hasattr(FloatQ, "sum_of_products")


def test_sum_of_products_examples():
    half, third = Fraction(1, 2), Fraction(1, 3)
    mode = RationalQ(half)
    assert mode.sum_of_products([]) == 0
    assert mode.sum_of_products([(half, third), (third, half, 3)]) == Fraction(2, 3)
    assert mode.sum_of_products([(half, 2), (-1, 1)]) == 0
    q = SYMBOLIC.q_power(1)
    p = SYMBOLIC.sum_of_products([(q, half), (SYMBOLIC.q_power(-1), q, third), (ZERO, q)])
    assert str(p) == "1/3 + 1/2*q^1"
    zero = SYMBOLIC.sum_of_products([(q, -q), (q, q)])
    assert (zero.val, zero.nums, zero.den) == (0, (), 1)


def test_symbolic_q_powers_are_the_monomials():
    for e in range(-6, 7):
        assert SYMBOLIC.q_power(e) == q_monomial(e)


@pytest.mark.parametrize("mode, values", [
    (SYMBOLIC, [ZERO, Fraction(-7, 12) * q_monomial(-3) + Fraction(10**40, 3) * q_monomial(5)]),
    (RationalQ(Fraction(-1, 2)), [Fraction(0), Fraction(-7, 12), Fraction(10**40 + 1, 3)]),
    (FloatQ(0.5), [0.0, -1 / 3, 0.1, 5e-324, 1.7976931348623157e308]),
], ids=["symbolic", "rational", "float"])
def test_each_mode_parses_its_canonical_text_and_copies_keep_its_data(mode, values):
    for value in values:
        parsed = mode.parse(canonical_text(value))
        assert type(parsed) is type(value) and parsed == value
    for clone in (copy.copy(mode), copy.deepcopy(mode), pickle.loads(pickle.dumps(mode))):
        assert type(clone) is type(mode) and clone == mode
        assert (clone.q0, clone.point, clone.parse) == (mode.q0, mode.point, mode.parse)


def test_divide_exact_on_ints():
    # An exact quotient of two ints is an int; an inexact one is the Fraction.
    for num, den, quotient in ((6, 3, 2), (-6, 3, -2), (6, -3, -2), (0, 5, 0), (-7, -7, 1)):
        got = divide_exact(num, den)
        assert (got, type(got)) == (quotient, int), (num, den)
    got = divide_exact(7, 2)
    assert (got, type(got)) == (Fraction(7, 2), Fraction)
    assert divide_exact(-7, 2) == Fraction(-7, 2)


def test_divide_exact_off_ints_is_the_values_own_division():
    got = divide_exact(Fraction(6), Fraction(3))
    assert (got, type(got)) == (2, Fraction)
    assert divide_exact(q_monomial(3) * 6, 3) == q_monomial(3) * 2
    assert divide_exact(q_monomial(3), q_monomial(1)) == q_monomial(2)
    assert divide_exact(1.5, 0.5) == 3.0


def test_divide_exact_by_int_zero_keeps_its_message():
    # The messages `Fraction` division gives; cli.main prints "qwhitney: <message>".
    for num, message in ((1, "Fraction(1, 0)"), (0, "Fraction(0, 0)"), (-3, "Fraction(-1, 0)")):
        with pytest.raises(ZeroDivisionError) as info:
            divide_exact(num, 0)
        assert str(info.value) == message


@pytest.mark.parametrize("guard, message", [
    (lambda: RationalQ(0), "rational mode needs q0 != 0"),
    (lambda: FloatQ(0.0), "float mode needs q0 != 0"),
    (lambda: check_nmax(-1), "nmax must be >= 0"),
    (lambda: check_nmax(13), "nmax 13 exceeds the ceiling 12"),
], ids=["rational", "float", "negative nmax", "nmax ceiling"])
def test_the_guards_a_command_reaches_raise_a_domain_error(guard, message):
    # A package error, so the CLI exits 2; any other exception is a fault (exit 3).
    with pytest.raises(DomainError) as info:
        guard()
    assert str(info.value) == message
