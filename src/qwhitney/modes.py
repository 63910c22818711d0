"""Scalar modes: symbolic q, exact rational q, and floating-point q.

A mode supplies the handful of primitives the generic algorithms need
(powers of q, q-integers, injection of exact rational constants, and
`sum_of_products`, the sum of the products of tuples of factors) so that every
higher-level computation runs unchanged over Laurent polynomials,
Fractions, or floats.  All three share one fixed-q base: symbolic q is q
fixed at the formal variable (the monomial q), so q-powers and q-factorials
have one implementation.  The exact modes fuse a sum of products: numerators
are accumulated over a common denominator and reduced once per sum (Knuth,
TAOCP vol. 2, section 4.5.1); float mode adds left to right, as `acc + a*b*...`
does.  Values from different modes never mix silently:
LaurentPoly arithmetic rejects floats, and the exact modes reject float
constants with a TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from . import laurent, qcore
from .laurent import LaurentPoly, as_laurent, parse_laurent, q_monomial
from .record import Record

Scalar = int | Fraction | float | LaurentPoly


def _exact_fraction(x, what: str) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"{what} must be an int or Fraction, got {type(x).__name__}")
    return Fraction(x)


class _FixedQ(Record):
    """q fixed to q0, a nonzero number or the formal variable; every value has q0's type.

    q-powers and q-integers are memoised per instance, keyed by the int.
    """

    __slots__ = ("q0", "_powers", "_ints")
    _fields = ("q0",)

    def __init__(self, q0):
        self._set(q0=q0, _powers={}, _ints={})

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

    tag = "symbolic"
    is_exact = True

    def q_int(self, n: int) -> LaurentPoly:
        return qcore.q_integer(n)

    def q_binomial(self, n: int, k: int) -> LaurentPoly:
        return qcore.q_binomial(n, k)

    sum_of_products = staticmethod(laurent.sum_of_products)

    def of(self, x) -> Fraction:
        return _exact_fraction(x, "symbolic-mode constant")

    def describe(self) -> dict:
        return {"qmode": self.tag}

    def __repr__(self):
        return "SYMBOLIC"

    def __reduce__(self):
        return "SYMBOLIC"  # copy and pickle keep the singleton


SYMBOLIC = _SymbolicQ(q_monomial(1))


class RationalQ(_FixedQ):
    """q fixed to a nonzero exact rational; every value is a Fraction."""

    __slots__ = ()

    def __init__(self, q0):
        q0 = _exact_fraction(q0, "rational q0")
        if q0 == 0:
            raise ValueError("rational mode needs q0 != 0")
        super().__init__(q0)

    tag = "rational"
    is_exact = True

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

    def of(self, x) -> Fraction:
        return _exact_fraction(x, "rational-mode constant")

    def describe(self) -> dict:
        return {"qmode": self.tag, "q0": str(self.q0)}


class FloatQ(_FixedQ):
    """q fixed to a nonzero float; every value is a float."""

    __slots__ = ()

    def __init__(self, q0):
        q0 = float(q0)
        if q0 == 0.0:
            raise ValueError("float mode needs q0 != 0")
        super().__init__(q0)

    tag = "float"
    is_exact = False

    @staticmethod
    def sum_of_products(terms) -> float:
        """acc = acc + prod(term) left to right from 0, rounding as that loop does."""
        acc = 0
        for term in terms:
            acc = acc + prod(term)
        return acc

    def of(self, x) -> float:
        return float(x)

    def describe(self) -> dict:
        return {"qmode": self.tag, "q0": self.q0}


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


def parse_scalar(text: str, mode: QMode) -> Scalar:
    """Inverse of canonical_text for values produced under the given mode."""
    if mode.tag == "symbolic":
        return parse_laurent(text)
    if mode.tag == "rational":
        return Fraction(text)
    return float(text)


def divide_exact(num: Scalar, den: Scalar):
    """Division that is exact in exact modes and plain / on floats."""
    if type(num) is int and type(den) is int and den:
        quo, rem = divmod(num, den)
        if not rem:
            return quo
    if isinstance(num, LaurentPoly) or isinstance(den, LaurentPoly):
        return as_laurent(num).exact_div(den)
    if isinstance(num, float) or isinstance(den, float):
        return num / den
    q = Fraction(num) / Fraction(den)
    return q.numerator if q.denominator == 1 else q
