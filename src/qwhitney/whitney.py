"""(q,r)-Whitney numbers of both kinds, by several independent algorithms.

The first kind w(n,k) and second kind W(n,k) are the connection coefficients
between the bases {m^k [x]_q [x-1]_q ... [x-k+1]_q} and {(m[x]_q + r)^k}.
Everything here is driven by the weight sequence weight(i) = m [i]_q + r:

* triangle builders use the two-term recurrences, one `_STEPS` entry per
  kind (the production path): on symbolic q an integer-row kernel on
  U(n,k) = q^-C(n) d^(n-k) T(n,k), in the other modes the scalar recurrence;
* explicit forms (elementary-symmetric, composition enumeration,
  complete-homogeneous, alternating q-binomial sum) recompute single entries
  and exist to cross-check the recurrences;
* specializations: q-Stirling numbers (m=1, r=0), Dowling numbers and
  polynomials (row sums of the second kind).

A `shift` of s replaces the parameter pair (m, r) by (m q^s, m [s]_q + r),
which is the same as sliding the weight sequence: the shifted family's i-th
weight is weight(s + i).  The convolution identities need these families.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, combinations
from math import comb, lcm
from operator import add, mul, sub

from .errors import ZeroMError
from .laurent import LaurentPoly
from .modes import SYMBOLIC, FloatQ, QMode, Scalar, divide_exact
from .qcore import (
    complete_homogeneous,
    elementary_symmetric,
    powers,
    q_falling_factorial,
    q_falling_factorials,
    q_int_products,
)
from .record import Record
from .report import IdentityReport, checked


class WhitneyParams(Record):
    """The (m, r, q-mode) triple that fixes one Whitney family.

    m and r are stored as exact Fractions in every mode; float inputs are
    accepted only in float mode (converted exactly).  Weights and the report
    point's (m, r, q) part are memoised per instance.
    """

    __slots__ = ("m", "r", "qmode", "_weights", "_prefix")
    _fields = ("m", "r", "qmode")

    def __init__(self, m, r, qmode: QMode = SYMBOLIC):
        allow_float = isinstance(qmode, FloatQ)
        m = _as_fraction(m, allow_float, "m")
        r = _as_fraction(r, allow_float, "r")
        self._set(m=m, r=r, qmode=qmode, _weights={},
                  _prefix={"m": str(m), "r": str(r), **qmode.describe()})

    def weight(self, i: int) -> Scalar:
        """m [i]_q + r in this mode's scalars."""
        w = self._weights.get(i)
        if w is None:
            mode = self.qmode
            w = self._weights[i] = mode.of(self.m) * mode.q_int(i) + mode.of(self.r)
        return w

    def point(self, **indices) -> dict:
        """Parameter-point dict used in reports."""
        return {**self._prefix, **indices}


def _as_fraction(x, allow_float: bool, name: str) -> Fraction:
    if isinstance(x, bool):
        raise TypeError(f"{name} must be a number, not bool")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float) and allow_float:
        return Fraction(x)
    raise TypeError(f"{name} must be an int or Fraction (float only in float mode)")


class Triangle(Record):
    """Rows n = 0..nmax of Whitney numbers of one kind, "first" or "second", for one params."""

    __slots__ = _fields = ("kind", "params", "nmax", "rows")

    def __init__(self, kind: str, params: WhitneyParams, nmax: int, rows: tuple):
        self._set(kind=kind, params=params, nmax=nmax, rows=rows)

    def value(self, n: int, k: int) -> Scalar:
        """Entry at (n, k); 0 outside 0 <= k <= n, per the usual convention."""
        if 0 <= k <= n <= self.nmax:
            return self.rows[n][k]
        return 0


@lru_cache(maxsize=512)
def _first_rows(params: WhitneyParams, nmax: int, shift: int) -> tuple:
    build = _rows_integer if params.qmode is SYMBOLIC else _rows_recurrence
    return build("first", params, nmax, shift)


@lru_cache(maxsize=512)
def _second_rows(params: WhitneyParams, nmax: int, shift: int) -> tuple:
    build = _rows_integer if params.qmode is SYMBOLIC else _rows_recurrence
    return build("second", params, nmax, shift)


# Each kind's two-term recurrence, as (sign, j, a, c) in
# T(n+1,k) = q^c(n) (q^a(k) T(n,k-1) + sign weight(s + j(n,k)) T(n,k)).
_STEPS = {
    "first": (-1, lambda n, k: n, lambda k: 0, lambda n: -n),
    "second": (1, lambda n, k: k, lambda k: k - 1, lambda n: 0),
}


# -- integer-row kernel (symbolic q) -------------------------------------------
#
# Both kinds are homogeneous of degree n - k in the weights m[i]_q + r, so
# with d = lcm(den m, den r), M = d m, R = d r and C(n) = c(0) + ... + c(n-1)
# the scaled entries U(n,k) = q^-C(n) d^(n-k) T(n,k) are polynomials in q with
# integer coefficients, satisfying
#
#     U(n+1,k) = q^a(k) U(n,k-1) + sign (M[s+j(n,k)]_q + R) U(n,k).
#
# Cells are dense int lists indexed by exponent from 0; one step computes each
# cell k = 0..n+1, a missing neighbour k-1 or k being the empty list (zero).
# Each finished row is handed to LaurentPoly at once, as int numerators over
# d^(n-k) from valuation C(n); only the previous integer row is kept.


def _times_weight(poly: list, j: int, big_m: int, big_r: int) -> list:
    """(M [j]_q + R) * poly: one running window sum of width j (0 at j = 0), then R * poly."""
    if not poly:
        return []
    padded = poly + [0] * (j - 1)
    prefix = [0] * j + list(accumulate(padded))
    return [big_m * (hi - lo) + big_r * c for hi, lo, c in zip(prefix[j:], prefix, padded)]


def _combine(a: list, b: list, sign: int, offset: int) -> list:
    """q^offset * a + sign * b on dense int lists, without trailing zeros.

    The trim keeps rows from growing by zeros, as `_times_weight` pads at M = 0.
    """
    out = [0] * offset + a
    if len(out) < len(b):
        out.extend([0] * (len(b) - len(out)))
    for i, c in enumerate(b):
        out[i] += sign * c
    while out and not out[-1]:
        out.pop()
    return out


def _rows_integer(kind: str, params: WhitneyParams, nmax: int, shift: int) -> tuple:
    sign, j, a, c = _STEPS[kind]
    m, r = params.m, params.r
    d = lcm(m.denominator, r.denominator)
    big_m, big_r = m.numerator * (d // m.denominator), r.numerator * (d // r.denominator)
    dpow = [d**e for e in range(nmax + 1)]
    ints = [[1]]
    rows = [(LaurentPoly(0, (1,)),)]
    val = 0
    for n in range(nmax):
        ints = [_combine(diag, _times_weight(above, shift + j(n, k), big_m, big_r), sign, a(k))
                for k, (diag, above) in enumerate(zip([[]] + ints, ints + [[]]))]
        val += c(n)
        rows.append(tuple(LaurentPoly._from_ints(val, ints[k], dpow[n + 1 - k])
                          for k in range(n + 2)))
    return tuple(rows)


# -- scalar recurrence (rational and float q; the reference for the kernel) ----


def _rows_recurrence(kind: str, params: WhitneyParams, nmax: int, shift: int) -> tuple:
    sign, j, a, c = _STEPS[kind]
    op = add if sign > 0 else sub
    mode = params.qmode
    weights = [params.weight(shift + i) for i in range(nmax)]
    qa = [mode.q_power(a(k)) if a(k) else None for k in range(nmax + 1)]  # None: q^0, no product
    rows = [(mode.q_power(0),)]
    for n in range(nmax):
        prev = rows[n]
        edge = weights[j(n, 0)] * prev[0]
        row = [edge if sign > 0 else -edge]
        for k in range(1, n + 2):
            left = prev[k - 1] if qa[k] is None else qa[k] * prev[k - 1]
            row.append(op(left, weights[j(n, k)] * prev[k]) if k <= n else left)
        if c(n):
            qc = mode.q_power(c(n))
            row = [qc * x for x in row]
        rows.append(tuple(row))
    return tuple(rows)


def whitney_first_triangle(params: WhitneyParams, nmax: int, shift: int = 0) -> Triangle:
    """First kind via w(n+1,k) = q^-n (w(n,k-1) - (m[n]_q + r) w(n,k))."""
    if nmax < 0 or shift < 0:
        raise ValueError("nmax and shift must be >= 0")
    return Triangle("first", params, nmax, _first_rows(params, nmax, shift))


def whitney_second_triangle(params: WhitneyParams, nmax: int, shift: int = 0) -> Triangle:
    """Second kind via W(n+1,k) = q^(k-1) W(n,k-1) + (m[k]_q + r) W(n,k)."""
    if nmax < 0 or shift < 0:
        raise ValueError("nmax and shift must be >= 0")
    return Triangle("second", params, nmax, _second_rows(params, nmax, shift))


def _check_nk(n: int, k: int):
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got (n, k) = ({n}, {k})")


def whitney_first_elementary(params: WhitneyParams, n: int, k: int) -> Scalar:
    """First kind as (-1)^(n-k) q^-C(n,2) e_{n-k} over weights i = 0..n-1."""
    _check_nk(n, k)
    sign = -1 if (n - k) % 2 else 1
    weights = [params.weight(i) for i in range(n)]
    return params.qmode.q_power(-comb(n, 2)) * elementary_symmetric(weights, n - k) * sign


def whitney_second_multisets(params: WhitneyParams, n: int, k: int) -> Scalar:
    """Second kind as q^C(k,2) h_{n-k} over weights j = 0..k."""
    _check_nk(n, k)
    weights = [params.weight(j) for j in range(k + 1)]
    return params.qmode.q_power(comb(k, 2)) * complete_homogeneous(weights, n - k)


def whitney_second_compositions(params: WhitneyParams, n: int, k: int) -> Scalar:
    """Second kind by enumerating compositions c_0 + ... + c_k = n - k.

    Each composition contributes prod_j weight(j)^(c_j); the shared prefix
    products are reused along the enumeration tree, but every composition is
    visited explicitly (this is the slow verification path on purpose).
    """
    _check_nk(n, k)
    weights = [params.weight(j) for j in range(k + 1)]
    s = n - k
    table = [[1] for _ in range(k + 1)]  # table[j][c] = weight(j)**c, lazily grown

    def power(j: int, c: int):
        col = table[j]
        while len(col) <= c:
            col.append(col[-1] * weights[j])
        return col[c]

    total = 0

    def descend(j: int, left: int, partial):
        nonlocal total
        if j == k:
            total = total + (partial if left == 0 else partial * power(k, left))
            return
        descend(j + 1, left, partial)
        for c in range(1, left + 1):
            descend(j + 1, left - c, partial * power(j, c))

    descend(0, s, params.qmode.q_power(comb(k, 2)))
    return total


def whitney_second_alternating(params: WhitneyParams, n: int, k: int) -> Scalar:
    """Second kind as (1 / (m^k [k]_q!)) sum_l (-1)^(k-l) q^C(k-l,2) C(k,l)_q (m[l]_q+r)^n.

    The sum always divides exactly; a failed division signals an internal
    fault, not bad input.  Requires m != 0.
    """
    _check_nk(n, k)
    if params.m == 0:
        raise ZeroMError("the alternating form divides by m^k; m must be nonzero")
    mode = params.qmode
    acc = 0
    for ell in range(k + 1):
        sign = -1 if (k - ell) % 2 else 1
        term = mode.q_power(comb(k - ell, 2)) * mode.q_binomial(k, ell) * params.weight(ell) ** n
        acc = acc + term * sign
    denom = mode.of(params.m) ** k * mode.q_factorial(k)
    if not denom:
        raise ZeroDivisionError(f"[{k}]_q! vanishes at this q")
    return divide_exact(acc, denom)


# -- specializations ---------------------------------------------------------


def q_stirling_first(n: int, k: int, qmode: QMode = SYMBOLIC) -> Scalar:
    """Unsigned q-Stirling number of the first kind, q^-C(n,2) e_{n-k}([i]_q).

    Equals (-1)^(n-k) w(n,k) at (m, r) = (1, 0); reduces to the classical
    unsigned Stirling cycle number at q = 1.
    """
    params = WhitneyParams(Fraction(1), Fraction(0), qmode)
    sign = -1 if (n - k) % 2 else 1
    return whitney_first_elementary(params, n, k) * sign


def q_stirling_first_complement(n: int, k: int, qmode: QMode = SYMBOLIC) -> Scalar:
    """Cross-check form: q^-C(n,2) [n-1]_q! sum over complements of 1/prod [l]_q.

    The subsets {i_1 < ... < i_{n-k}} of {1..n-1} are traded for their
    (k-1)-element complements, so each summand is [n-1]_q! divided exactly by
    the product of the complement's q-integers.  Defined for 1 <= k <= n.
    """
    if not 1 <= k <= n:
        raise ValueError("complement form needs 1 <= k <= n")
    mode = qmode
    fact = mode.q_factorial(n - 1)
    acc = 0
    for complement in combinations(range(1, n), k - 1):
        acc = acc + divide_exact(fact, q_int_products(complement, mode)[-1])
    return mode.q_power(-comb(n, 2)) * acc


def q_stirling_second(n: int, k: int, qmode: QMode = SYMBOLIC) -> Scalar:
    """q-Stirling number of the second kind: W(n,k) at (m, r) = (1, 0)."""
    params = WhitneyParams(Fraction(1), Fraction(0), qmode)
    return whitney_second_triangle(params, n).value(n, k)


def dowling_number(params: WhitneyParams, n: int) -> Scalar:
    """Row sum of the second-kind triangle."""
    return reduce(add, whitney_second_triangle(params, n).rows[n])


def dowling_polynomial(params: WhitneyParams, n: int, x) -> Scalar:
    """sum_k W(n,k) x^k; equals dowling_number at x = 1 and r^n at x = 0."""
    row = whitney_second_triangle(params, n).rows[n]
    return reduce(add, map(mul, row, powers(params.qmode.of(x), n)))


def dowling_sequence(params: WhitneyParams, nmax: int) -> tuple:
    """(D(0), ..., D(nmax)) computed from a single triangle."""
    return tuple(reduce(add, row) for row in whitney_second_triangle(params, nmax).rows)


# -- defining relations -------------------------------------------------------


def defining_first(params: WhitneyParams, ell: int, n: int) -> tuple[Scalar, Scalar]:
    """First kind, as (lhs, rhs): m^n [ell]_q ... [ell-n+1]_q = sum_k w(n,k) (m[ell]_q + r)^k."""
    if ell < 0 or n < 0:
        raise ValueError("ell and n must be >= 0")
    mode = params.qmode
    w = whitney_first_triangle(params, n)
    lhs = mode.of(params.m)**n * q_falling_factorial(ell, n, mode)
    return lhs, mode.sum_of_products(list(zip(w.rows[n], powers(params.weight(ell), n))))


def defining_second(params: WhitneyParams, ell: int, n: int) -> tuple[Scalar, Scalar]:
    """Second kind, as (lhs, rhs): (m[ell]_q + r)^n = sum_k m^k W(n,k) [ell]_q ... [ell-k+1]_q."""
    if ell < 0 or n < 0:
        raise ValueError("ell and n must be >= 0")
    mode = params.qmode
    W = whitney_second_triangle(params, n)
    lhs = params.weight(ell)**n
    falling = q_falling_factorials(ell, n, mode)
    return lhs, mode.sum_of_products(list(zip(powers(mode.of(params.m), n), W.rows[n], falling)))


def defining_relation_check(params: WhitneyParams, ell: int, n: int) -> list[IdentityReport]:
    """Check both connection-coefficient relations at integer argument ell.

    Returns one report per relation; failures are reported, never raised.
    """
    return [checked(relation.__name__, params, {"ell": ell, "n": n}, *relation(params, ell, n))
            for relation in (defining_first, defining_second)]
