"""Exact Laurent polynomials in a single variable q.

A polynomial is stored in primitive form: a valuation `val`, a tuple `nums`
of `int` numerators for the exponents val, val+1, ..., and one shared
denominator `den` > 0, so the value is sum_i nums[i] / den * q^(val+i).  The
form is normalised: neither end of `nums` is zero and
gcd(den, *nums) == 1; the zero polynomial is (0, (), 1).  Being canonical,
equality is a tuple comparison.

The ring operations, division and rational evaluation all run on ints
(content and primitive part, Knuth, TAOCP vol. 2, section 4.6.1).  Each ring
operation is one fused sum: `sum_of_products` adds int products of factors
over their common denominator, and one variadic gcd restores the form.
a + b sums the terms (a,) and (b,), a - b the terms (a,) and (-1, b), a * b
the one term (a, b), -a the term (-1, a), p ** n the one term (1, p, ..., p).
`exact_div` long-divides primitive parts, as an exact quotient of those has
int digits (Gauss's lemma), and p ** -n is 1 exact_div p ** n; `evaluate` at
q0 = a/b runs Horner's rule on a and b.  `==` and `/` take an int or
Fraction via `_coerce`; `coeffs` gives rational coefficients on demand,
`int` where integral and a reduced `fractions.Fraction` otherwise.  All
operations are pure.

The canonical text form lists terms by ascending exponent as
``<num>/<den>*q^<exp>`` joined by `` + ``, omitting ``/<den>`` when the
denominator is 1 and ``*q^0`` entirely, e.g. ``-1*q^-1 + 2 + 1/3*q^2``.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .errors import EvalAtZeroError, InexactDivisionError

Rational = int | Fraction


class LaurentPoly:
    """A Laurent polynomial with exact rational coefficients.

    >>> p = q_monomial(-1, -1) + 2 + Fraction(1, 3) * q_monomial(2)
    >>> str(p)
    '-1*q^-1 + 2 + 1/3*q^2'
    >>> (p.val, p.nums, p.den)
    (-1, (-3, 6, 0, 1), 3)
    >>> p.evaluate(Fraction(1, 2))
    Fraction(1, 12)
    """

    __slots__ = ("val", "nums", "den")

    def __init__(self, val: int, coeffs: Iterable[Rational]):
        coeffs = list(coeffs)
        den = lcm(*(c.denominator for c in coeffs))
        _fill(self, val, [c.numerator * (den // c.denominator) for c in coeffs], den)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return LaurentPoly, (self.val, self.coeffs)

    @classmethod
    def _from_ints(cls, val: int, nums: list, den: int) -> "LaurentPoly":
        """sum_i nums[i] / den * q^(val+i) from int numerators and an int den > 0."""
        return _fill(_new(cls), val, nums, den)

    @classmethod
    def from_terms(cls, terms: dict[int, Rational]) -> "LaurentPoly":
        """Build from an exponent -> coefficient mapping."""
        live = {e: c for e, c in terms.items() if c}
        if not live:
            return ZERO
        lo = min(live)
        hi = max(live)
        return cls(lo, [live.get(e, 0) for e in range(lo, hi + 1)])

    @classmethod
    def constant(cls, c: Rational) -> "LaurentPoly":
        return cls._from_ints(0, [c.numerator], c.denominator)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Coefficients from exponent val upward: int if integral, else Fraction."""
        den = self.den
        if den == 1:
            return self.nums
        return tuple([_rational(c, den) for c in self.nums])

    def __bool__(self) -> bool:
        return bool(self.nums)

    @property
    def degree(self) -> int:
        """Highest exponent (-1 for the zero polynomial, by convention)."""
        return self.val + len(self.nums) - 1 if self.nums else -1

    def terms(self) -> list[tuple[int, Rational]]:
        """(exponent, coefficient) pairs, ascending, zero coefficients skipped."""
        return [(e, c) for e, c in enumerate(self.coeffs, self.val) if c]

    def coefficient(self, exponent: int) -> Rational:
        i = exponent - self.val
        if 0 <= i < len(self.nums):
            return _rational(self.nums[i], self.den)
        return 0

    # -- equality / hashing --------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.val == other.val and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # Constant polynomials hash like their value so == stays hash-consistent.
        if not self.nums:
            return hash(0)
        if self.val == 0 and len(self.nums) == 1:
            return hash(self.nums[0] if self.den == 1 else Fraction(self.nums[0], self.den))
        return hash((self.val, self.nums, self.den))

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(other)
        return None

    def __add__(self, other):
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        return sum_of_products(((self,), (other,)))

    __radd__ = __add__

    def __neg__(self):
        return sum_of_products(((-1, self),))

    def __sub__(self, other):
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        return sum_of_products(((self,), (-1, other)))

    def __rsub__(self, other):
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        return sum_of_products(((other,), (-1, self)))

    def __mul__(self, other):
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        return sum_of_products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return ONE.exact_div(self ** -n)
        return sum_of_products(((ONE,) + (self,) * n,))

    def exact_div(self, other) -> "LaurentPoly":
        """Exact quotient c with c*other == self, other a LaurentPoly, int or Fraction.

        Raises ZeroDivisionError when other is zero and InexactDivisionError
        when no Laurent quotient exists.
        """
        other = as_laurent(other)
        if not other.nums:
            raise ZeroDivisionError("Laurent division by zero")
        if not self.nums:
            return ZERO
        ca, cb = gcd(*self.nums), gcd(*other.nums)
        rem, div = [c // ca for c in self.nums], [c // cb for c in other.nums]
        n, lead = len(div) - 1, div[-1]
        # Digits replace rem from the top, leaving the remainder in rem[:n].
        for i in range(len(rem) - 1 - n, -1, -1):
            f, r = divmod(rem[i + n], lead)
            if r:
                raise InexactDivisionError(f"{self} is not divisible by {other}")
            for j, d in enumerate(div, i):
                rem[j] -= f * d
            rem[i + n] = f
        if any(rem[:n]):
            raise InexactDivisionError(f"{self} is not divisible by {other}")
        return LaurentPoly._from_ints(  # (ca / cb) * quotient * (other.den / self.den)
            self.val - other.val, [f * ca * other.den for f in rem[n:]], cb * self.den)

    def __truediv__(self, other):
        if isinstance(other, (LaurentPoly, int, Fraction)):
            return self.exact_div(other)
        return NotImplemented

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q0):
        """Value at q = q0, exact for rational q0, float for float q0.

        Raises EvalAtZeroError when q0 = 0 and a negative exponent is present.
        """
        if isinstance(q0, int):
            q0 = Fraction(q0)
        nums, den = self.nums, self.den
        if not nums:
            return q0 - q0
        if q0 == 0:
            if self.val < 0:
                raise EvalAtZeroError("pole at q = 0")
            return self.coefficient(0) + q0 * 0
        acc = 0
        if isinstance(q0, Fraction):
            a, b, scale = q0.numerator, q0.denominator, 1
            for c in reversed(nums):  # acc / scale is sum_i nums[i] * q0^i
                scale *= b
                acc = acc * a + c * scale
            a, b, e = (a, b, self.val) if self.val >= 0 else (b, a, -self.val)
            return Fraction(acc * a**e, den * scale * b**e)
        # Float q0: int true division rounds correctly, exactly as
        # float(Fraction(c, den)) does, so each step matches a Horner loop
        # over the rational coefficients bit for bit.
        for c in reversed(nums):
            acc = acc * q0 + c / den
        return acc * q0**self.val

    # -- text ----------------------------------------------------------------

    def __str__(self):
        if not self.nums:
            return "0"
        den = self.den
        parts = []
        for e, c in enumerate(self.nums, self.val):
            if not c:
                continue
            g = gcd(c, den)
            text = str(c // g) if g == den else f"{c // g}/{den // g}"
            parts.append(text if e == 0 else f"{text}*q^{e}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self!s})"


_new = object.__new__
_set_val = LaurentPoly.val.__set__
_set_nums = LaurentPoly.nums.__set__
_set_den = LaurentPoly.den.__set__


def _fill(p: LaurentPoly, val: int, nums: list | tuple, den: int) -> LaurentPoly:
    """Store nums / den * q^val in p in primitive form; den > 0."""
    lo, hi = 0, len(nums)
    while lo < hi and not nums[lo]:
        lo += 1
    while lo < hi and not nums[hi - 1]:
        hi -= 1
    if lo or hi < len(nums):
        nums = nums[lo:hi]
    if den != 1:
        g = gcd(den, *nums)  # den itself when nums is empty, so zero gets den 1
        if g != 1:
            den //= g
            nums = [c // g for c in nums]
    _set_val(p, val + lo if nums else 0)
    _set_nums(p, tuple(nums))
    _set_den(p, den)
    return p


def _convolve(a, b) -> list:
    """Product of two nonempty int coefficient sequences (a factor (1,) returns the other)."""
    if len(a) == 1:
        c = a[0]
        return b if c == 1 else [c * x for x in b]
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else [c * x for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        for j, cj in enumerate(b, i):
            out[j] += ci * cj
    return out


def sum_of_products(terms: Iterable[tuple]) -> LaurentPoly:
    """Sum over terms of the product of each term's factors, normalised once.

    A factor is a LaurentPoly, an int or a Fraction.  Each product is an int
    convolution over the product of the factors' denominators, left
    unreduced; a term with a zero factor is skipped.  The products are added
    into one dense int list over their least common denominator (a lone
    product goes straight on), and one `_fill` restores the primitive form,
    where a chain of ring operations would reduce after every one.
    """
    parts = []
    lo = hi = None
    den = 1
    for term in terms:
        val, nums, d = 0, None, 1
        for f in term:
            if type(f) is LaurentPoly:
                fn = f.nums
                if not fn:
                    break
                val += f.val
                d *= f.den
                nums = fn if nums is None else _convolve(nums, fn)
            else:
                if not f:
                    break
                c = f.numerator
                d *= f.denominator
                if nums is None:
                    nums = (c,)
                elif c != 1:
                    nums = [c * x for x in nums]
        else:
            parts.append((val, nums, d))
            if den % d:
                den = den // gcd(den, d) * d
            top = val + len(nums)
            if lo is None:
                lo, hi = val, top
            elif val < lo:
                lo = val
            if top > hi:
                hi = top
    if len(parts) < 2:
        return _fill(_new(LaurentPoly), *parts[0]) if parts else ZERO
    out = [0] * (hi - lo)
    for val, nums, d in parts:
        off = val - lo
        end = off + len(nums)
        scale = den // d
        out[off:end] = map(add, out[off:end], nums if scale == 1 else [c * scale for c in nums])
    return _fill(_new(LaurentPoly), lo, out, den)


def _rational(c: int, den: int) -> Rational:
    return c // den if c % den == 0 else Fraction(c, den)


ZERO = LaurentPoly(0, ())
ONE = LaurentPoly(0, (1,))


def q_monomial(e: int, coeff: Rational = 1) -> LaurentPoly:
    """The single-term polynomial coeff * q^e."""
    return LaurentPoly(e, (coeff,))


def as_laurent(x) -> LaurentPoly:
    """Coerce an exact scalar (int, Fraction, LaurentPoly) to a LaurentPoly."""
    p = LaurentPoly._coerce(x)
    if p is None:
        raise TypeError(f"cannot interpret {type(x).__name__} as a Laurent polynomial")
    return p


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the canonical text form back into a polynomial.

    >>> parse_laurent("-1*q^-1 + 2 + 1/3*q^2") == (
    ...     q_monomial(-1, -1) + 2 + q_monomial(2, Fraction(1, 3)))
    True
    """
    text = text.strip()
    if text == "0":
        return ZERO
    terms: dict[int, Rational] = {}
    for token in text.split(" + "):
        token = token.strip()
        if "*q^" in token:
            cs, es = token.split("*q^")
            e = int(es)
        else:
            cs, e = token, 0
        if e in terms:
            raise ValueError(f"duplicate exponent {e} in {text!r}")
        terms[e] = Fraction(cs)
    return LaurentPoly.from_terms(terms)
