"""q-combinatorial primitives.

Symbolic building blocks ([n]_q, [n]_q!, Gaussian binomials, q-falling
factorials) return exact Laurent polynomials.  The symmetric-polynomial
evaluators are generic over any scalar supporting ring arithmetic, and the
q-exponential pair e_q / ehat_q works in floating point for 0 < q < 1.
The float series here and in `qdist` share one q check, `check_series_args`,
one stopping tolerance, SERIES_TOL, and one term cap, TERM_CAP: constants
that no caller sets.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from itertools import accumulate, repeat
from math import isfinite
from operator import mul

from .errors import DivergentSeriesError, DomainError, NonConvergenceError
from .laurent import ONE, ZERO, LaurentPoly

#: Terms (or outcomes) after which a float series raises NonConvergenceError.
TERM_CAP = 10**6

#: A float series stops once a term falls below this times its partial sum.
SERIES_TOL = 1e-12


@lru_cache(maxsize=None)
def q_integer(n: int) -> LaurentPoly:
    """[n]_q = 1 + q + ... + q^(n-1); [0]_q = 0; [n]_q = -(q^n + ... + q^-1) for n < 0."""
    if n < 0:
        return LaurentPoly(n, (-1,) * -n)
    return LaurentPoly(0, (1,) * n)


@lru_cache(maxsize=None)
def q_factorial(n: int) -> LaurentPoly:
    """[n]_q! = [1]_q [2]_q ... [n]_q, with the empty product equal to 1."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    return q_int_products(range(1, n + 1))[-1]


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> LaurentPoly:
    """Gaussian binomial coefficient; 0 outside 0 <= k <= n.

    Computed as [n]_q! / ([k]_q! [n-k]_q!) by exact division; an inexact
    quotient here would be an internal inconsistency, never a caller error.
    """
    if k < 0 or k > n:
        return ZERO
    return q_factorial(n).exact_div(q_factorial(k) * q_factorial(n - k))


def powers(x, n: int) -> list:
    """[x^0, x^1, ..., x^n] by n running products, with x^0 = x**0."""
    return list(accumulate(repeat(x, n), mul, initial=x**0))


def q_int_products(indices: Iterable[int], mode=None) -> list:
    """Running products [1, [i1]_q, [i1]_q [i2]_q, ...] over the indices.

    In the scalars of mode (any object with q_power and q_int: SYMBOLIC,
    RationalQ, FloatQ), or as Laurent polynomials when mode is None.
    """
    acc, q_int = (ONE, q_integer) if mode is None else (mode.q_power(0), mode.q_int)
    out = [acc]
    for i in indices:
        acc = acc * q_int(i)
        out.append(acc)
    return out


def q_falling_factorials(x: int, n: int, mode=None) -> list:
    """[F_0, ..., F_n] with F_k = [x]_q [x-1]_q ... [x-k+1]_q, for integer x >= 0.

    At most n products; [0]_q ends them, so F_k is that zero for k > x.
    """
    if x < 0 or n < 0:
        raise ValueError("q_falling_factorial needs x >= 0 and n >= 0")
    out = q_int_products(range(x, max(x - n, -1), -1), mode)
    return out + out[-1:] * (n + 1 - len(out))


def q_falling_factorial(x: int, n: int, mode=None):
    """[x]_q [x-1]_q ... [x-n+1]_q for integer x >= 0; zero factor kills it."""
    return q_falling_factorials(x, n, mode)[n]


def elementary_symmetric(weights: Sequence, k: int):
    """e_k over the weights: sum of products over strict index subsets.

    One pass per weight; e_0 is 1 even for an empty list, and k beyond the
    list length gives 0.  Works for any ring scalar.
    """
    if k < 0:
        raise ValueError("elementary_symmetric needs k >= 0")
    table = [1] + [0] * k
    for w in weights:
        for i in range(k, 0, -1):
            prev = table[i - 1]
            if prev:
                table[i] = table[i] + w * prev
    return table[k]


def complete_homogeneous(weights: Sequence, k: int):
    """h_k over the weights: sum of products over weak (multiset) selections."""
    if k < 0:
        raise ValueError("complete_homogeneous needs k >= 0")
    table = [1] + [0] * k
    for w in weights:
        for i in range(1, k + 1):
            prev = table[i - 1]
            if prev:
                table[i] = table[i] + w * prev
    return table[k]


def q_int_at(n: int, q0):
    """[n]_q at a fixed q0 (a Fraction or a float): (1 - q0^n) / (1 - q0), or n at q0 = 1."""
    return n * q0**0 if q0 == 1 else (1 - q0**n) / (1 - q0)


def check_series_args(q: float) -> None:
    """Raise DomainError unless 0 < q < 1 (a nan fails)."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")


def _series(term_step: Callable[[int, float], float]) -> float:
    total = 0.0
    term = 1.0
    k = 0
    while True:
        total += term
        if not isfinite(total):
            raise DomainError(f"q-exponential series left the float range after {k + 1} terms")
        k += 1
        if k > TERM_CAP:
            raise NonConvergenceError(f"series did not settle within {TERM_CAP} terms")
        term = term_step(k, term)
        if abs(term) < SERIES_TOL * abs(total):
            return total


def q_exp(t: float, q: float) -> float:
    """e_q(t) = sum_k t^k / [k]_q!, for 0 < q < 1.

    The series converges only for |t|(1-q) < 1.  Negative arguments are
    routed through 1 / ehat_q(-t), which avoids the alternating sum.
    """
    check_series_args(q)
    if t < 0:
        return 1.0 / q_exp_hat(-t, q)
    if t * (1.0 - q) >= 1.0:
        raise DivergentSeriesError(f"e_q series diverges: |t|(1-q) = {t * (1 - q)}")
    return _series(lambda k, term: term * t / q_int_at(k, q))


def q_exp_hat(t: float, q: float) -> float:
    """ehat_q(t) = sum_k q^C(k,2) t^k / [k]_q!, for 0 < q < 1.

    Entire in t; for t >= 0 the direct series is used.  Negative arguments
    go through 1 / e_q(-t) (so e_q(x) ehat_q(-x) = 1 holds by construction),
    which requires (-t)(1-q) < 1.
    """
    check_series_args(q)
    if t < 0:
        return 1.0 / q_exp(-t, q)
    # q^C(k,2) gains a factor q^(k-1) at step k.
    return _series(lambda k, term: term * t * q ** (k - 1) / q_int_at(k, q))
