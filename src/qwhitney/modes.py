"""Scalar modes: symbolic q, exact rational q, and floating-point q.

A mode supplies the handful of primitives the generic algorithms need
(powers of q, q-integers and injection of exact rational constants) so that
every higher-level computation runs unchanged over Laurent polynomials,
Fractions, or floats.  All three share one fixed-q base: symbolic q is q
fixed at the formal variable (the monomial q), so q-powers and q-factorials
have one implementation.  The exact modes also supply `sum_of_products`, the
sum of the products of tuples of factors, fused: numerators are accumulated
over a common denominator and reduced once per sum (Knuth, TAOCP vol. 2,
section 4.5.1).  Only exact modes check identities, so float mode has no
such sum.  Values from different modes never mix silently:
LaurentPoly arithmetic rejects floats, and the exact modes reject float
constants with a TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import laurent, qcore
from .errors import DomainError
from .laurent import LaurentPoly, parse_laurent, q_monomial
from .record import Record

Scalar = int | Fraction | float | LaurentPoly


def _exact_fraction(x, what: str) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"{what} must be an int or Fraction, got {type(x).__name__}")
    return Fraction(x)


class _FixedQ(Record):
    """q fixed to q0, a nonzero number or the formal variable; every value has q0's type.

    A mode's differences are data: `point`, its part of a report point as
    (key, value) pairs; `parse`, the inverse of `canonical_text` for its values;
    `is_exact`; and `of`, which injects a constant.  q-powers and q-integers
    are memoised per instance, keyed by the int.
    """

    __slots__ = ("q0", "point", "_powers", "_ints")
    _fields = ("q0",)
    is_exact = True

    def __init__(self, q0, point: tuple):
        self._set(q0=q0, point=point, _powers={}, _ints={})

    def of(self, x) -> Fraction:
        return _exact_fraction(x, "exact-mode constant")

    def q_power(self, e: int):
        p = self._powers.get(e)
        if p is None:
            p = self._powers[e] = self.q0**e
        return p

    def q_int(self, n: int):
        v = self._ints.get(n)
        if v is None:
            v = self._ints[n] = qcore.q_int_at(n, self.q0)
        return v

    def q_factorial(self, n: int):
        """[n]_q! = [1]_q ... [n]_q from this mode's own q-integers; 1 for n <= 0."""
        return qcore.q_int_products(range(1, n + 1), self)[-1]

    def q_binomial(self, n: int, k: int):
        return qcore.q_binomial(n, k).evaluate(self.q0)


class _SymbolicQ(_FixedQ):
    """q kept as a formal variable: q0 is the monomial q, every value a LaurentPoly.

    [n]_q and the Gaussian binomials come from the cached `qcore` polynomials.
    """

    __slots__ = ()

    parse = staticmethod(parse_laurent)

    def q_int(self, n: int) -> LaurentPoly:
        return qcore.q_integer(n)

    def q_binomial(self, n: int, k: int) -> LaurentPoly:
        return qcore.q_binomial(n, k)

    sum_of_products = staticmethod(laurent.sum_of_products)

    def __repr__(self):
        return "SYMBOLIC"

    def __reduce__(self):
        return "SYMBOLIC"  # copy and pickle keep the singleton


SYMBOLIC = _SymbolicQ(q_monomial(1), (("qmode", "symbolic"),))


class RationalQ(_FixedQ):
    """q fixed to a nonzero exact rational; every value is a Fraction."""

    __slots__ = ()

    parse = Fraction

    def __init__(self, q0):
        q0 = _exact_fraction(q0, "rational q0")
        if q0 == 0:
            raise DomainError("rational mode needs q0 != 0")
        super().__init__(q0, (("qmode", "rational"), ("q0", str(q0))))

    @staticmethod
    def sum_of_products(terms) -> Fraction:
        """Sum over terms (tuples of ints and Fractions) of the products of their factors.

        One running numerator over a common denominator; a term is skipped as
        soon as its running numerator is zero, and the sum is reduced once, at
        the end.
        """
        num, den = 0, 1
        for term in terms:
            n = d = 1
            for f in term:
                n *= f.numerator
                if not n:
                    break
                d *= f.denominator
            else:
                if den % d:
                    g = d // gcd(den, d)
                    num *= g
                    den *= g
                num += n * (den // d)
        return Fraction(num, den)


class FloatQ(_FixedQ):
    """q fixed to a nonzero float; every value is a float."""

    __slots__ = ()

    parse = of = float
    is_exact = False

    def __init__(self, q0):
        q0 = float(q0)
        if q0 == 0.0:
            raise DomainError("float mode needs q0 != 0")
        super().__init__(q0, (("qmode", "float"), ("q0", q0)))


QMode = _SymbolicQ | RationalQ | FloatQ


def parse_qmode(text: str) -> QMode:
    """'symbolic' or a rational literal like '1/2' or '-3'."""
    text = text.strip()
    if text == "symbolic":
        return SYMBOLIC
    return RationalQ(Fraction(text))


def canonical_text(value: Scalar) -> str:
    """Render a scalar in its canonical text form."""
    if isinstance(value, (LaurentPoly, int, Fraction)):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    raise TypeError(f"cannot render {type(value).__name__}")


def divide_exact(num: Scalar, den: Scalar):
    """num / den, exact in exact modes; a whole quotient of two ints is an int."""
    if type(num) is int and type(den) is int:
        if den:
            quo, rem = divmod(num, den)
            if not rem:
                return quo
        return Fraction(num) / Fraction(den)
    return num / den
