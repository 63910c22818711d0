from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwhitney import qcore
from qwhitney.errors import DivergentSeriesError, DomainError, NonConvergenceError
from qwhitney.laurent import ONE, ZERO, LaurentPoly, q_monomial
from qwhitney.modes import SYMBOLIC, FloatQ, RationalQ
from qwhitney.qcore import (
    complete_homogeneous,
    elementary_symmetric,
    q_binomial,
    q_exp,
    q_exp_hat,
    q_factorial,
    q_falling_factorial,
    q_falling_factorials,
    q_integer,
)


def naive_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def test_q_integer_examples():
    assert q_integer(0) == ZERO
    assert q_integer(1) == ONE
    assert q_integer(3) == LaurentPoly(0, (1, 1, 1))


def test_q_integer_at_one_is_n():
    for n in range(51):
        assert q_integer(n).evaluate(1) == n


def test_q_factorial_against_naive_convolution():
    # Independent oracle: dict-based convolution of the q-integers.
    expected = {0: 1}
    for n in range(1, 9):
        expected = naive_mul(expected, dict(q_integer(n).terms()))
        assert q_factorial(n) == LaurentPoly.from_terms(expected)
    assert q_factorial(0) == ONE
    assert q_factorial(2) == LaurentPoly(0, (1, 1))
    assert q_factorial(3) == LaurentPoly(0, (1, 2, 2, 1))


def test_q_factorial_is_the_product_of_q_integers():
    expected = ONE
    for n in range(1, 21):
        expected = expected * q_integer(n)
        assert q_factorial(n) == expected


def q_pascal(n: int, k: int) -> LaurentPoly:
    # Independent oracle: C(n,k)_q = C(n-1,k-1)_q + q^k C(n-1,k)_q.
    if k < 0 or k > n:
        return ZERO
    if n == 0:
        return ONE
    return q_pascal(n - 1, k - 1) + q_monomial(k) * q_pascal(n - 1, k)


def test_q_binomial_against_pascal_recurrence():
    for n in range(9):
        for k in range(-1, n + 2):
            assert q_binomial(n, k) == q_pascal(n, k), (n, k)


def test_q_binomial_examples():
    assert q_binomial(5, 0) == ONE
    assert q_binomial(2, 1) == LaurentPoly(0, (1, 1))
    assert q_binomial(4, 2) == LaurentPoly(0, (1, 1, 2, 1, 1))
    assert q_binomial(3, 5) == ZERO
    assert q_binomial(3, -1) == ZERO


def test_q_binomial_at_one_is_classical():
    for n in range(21):
        for k in range(n + 1):
            assert q_binomial(n, k).evaluate(1) == comb(n, k)


def test_q_falling_factorial():
    assert q_falling_factorial(5, 0) == ONE
    assert q_falling_factorial(2, 3) == ZERO
    assert q_falling_factorial(3, 2) == q_integer(3) * q_integer(2)


def _loop_falling(mode, x, k):
    """Reference: the product factor by factor in mode scalars, stopping at [0]_q."""
    acc = mode.q_power(0)
    for i in range(k):
        if x - i == 0:
            return acc * 0
        acc = acc * mode.q_int(x - i)
    return acc


@pytest.mark.parametrize("q0", [Fraction(1, 2), Fraction(-1, 2), Fraction(2)], ids=str)
def test_q_falling_factorial_agrees_across_modes(q0):
    rational, floating = RationalQ(q0), FloatQ(float(q0))
    for x in range(8):
        prefixes = {mode: q_falling_factorials(x, 8, mode)
                    for mode in (None, SYMBOLIC, rational, floating)}
        for k in range(9):
            symbolic = q_falling_factorial(x, k)
            exact = symbolic.evaluate(q0)
            assert q_falling_factorial(x, k, SYMBOLIC) == symbolic
            assert q_falling_factorial(x, k, rational) == exact
            assert q_falling_factorial(x, k, floating) == pytest.approx(float(exact), rel=1e-12)
            assert q_falling_factorial(x, k, floating) == _loop_falling(floating, x, k)
            assert (prefixes[None][k], prefixes[SYMBOLIC][k]) == (symbolic, symbolic)
            assert (prefixes[rational][k], prefixes[floating][k]) == (
                exact, q_falling_factorial(x, k, floating))
            if k > x:
                assert symbolic == ZERO and exact == 0 == q_falling_factorial(x, k, floating)


@pytest.mark.parametrize("q0", [Fraction(1, 2), Fraction(-1, 2), Fraction(2)], ids=str)
def test_q_factorial_agrees_across_modes(q0):
    rational, floating = RationalQ(q0), FloatQ(float(q0))
    loop = 1.0
    for n in range(9):
        if n:
            loop *= floating.q_int(n)  # the plain float loop, for bit equality
        exact = q_factorial(n).evaluate(q0)
        assert SYMBOLIC.q_factorial(n) == q_factorial(n) == q_falling_factorial(n, n)
        assert rational.q_factorial(n) == exact
        assert floating.q_factorial(n) == pytest.approx(float(exact), rel=1e-12)
        assert floating.q_factorial(n) == loop


@pytest.mark.parametrize("mode", [None, SYMBOLIC, RationalQ(Fraction(1, 2)), FloatQ(0.5)],
                         ids=repr)
def test_q_falling_factorial_rejects_negative_arguments(mode):
    for x, n in ((-1, 0), (0, -1), (-2, 3)):
        with pytest.raises(ValueError, match="x >= 0 and n >= 0"):
            q_falling_factorial(x, n, mode)
        with pytest.raises(ValueError, match="x >= 0 and n >= 0"):
            q_falling_factorials(x, n, mode)


def test_symmetric_evaluator_examples():
    r, m = Fraction(5), Fraction(3)
    ws = [r, m + r]
    assert elementary_symmetric(ws, 0) == 1
    assert elementary_symmetric(ws, 1) == m + 2 * r
    assert elementary_symmetric(ws, 2) == r * (m + r)
    assert elementary_symmetric(ws, 3) == 0
    assert complete_homogeneous(ws, 0) == 1
    assert complete_homogeneous(ws, 1) == m + 2 * r
    assert complete_homogeneous(ws, 2) == r**2 + r * (m + r) + (m + r) ** 2
    assert elementary_symmetric([], 0) == 1
    assert elementary_symmetric([], 2) == 0


def test_symmetric_evaluators_match_enumeration():
    from itertools import combinations, combinations_with_replacement

    ws = [q_integer(i) + 1 for i in range(4)]
    for k in range(5):
        expect_e = 0
        for idx in combinations(range(4), k):
            prod = ONE
            for i in idx:
                prod = prod * ws[i]
            expect_e = expect_e + prod
        expect_h = 0
        for idx in combinations_with_replacement(range(4), k):
            prod = ONE
            for i in idx:
                prod = prod * ws[i]
            expect_h = expect_h + prod
        assert elementary_symmetric(ws, k) == expect_e
        assert complete_homogeneous(ws, k) == expect_h


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=60)
@given(st.lists(rationals, min_size=1, max_size=5), st.data())
def test_newton_consistency_rational_weights(ws, data):
    k = data.draw(st.integers(min_value=1, max_value=len(ws)))
    total = 0
    for i in range(k + 1):
        term = elementary_symmetric(ws, i) * complete_homogeneous(ws, k - i)
        total = total + (term if i % 2 == 0 else -term)
    assert total == 0


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=5),
       st.data())
def test_newton_consistency_symbolic_weights(idx, data):
    ws = [q_integer(i) + Fraction(1, 2) for i in idx]
    k = data.draw(st.integers(min_value=1, max_value=len(ws)))
    total = 0
    for i in range(k + 1):
        term = elementary_symmetric(ws, i) * complete_homogeneous(ws, k - i)
        total = total + (term if i % 2 == 0 else -term)
    assert total == 0


def test_q_exp_trivial_values():
    assert q_exp(0.0, 0.5) == 1.0
    assert q_exp_hat(0.0, 0.5) == 1.0


def test_q_exp_euler_identity_grid():
    for q in (0.3, 0.5, 0.9):
        for t in (0.1, 0.5, 1.0):
            if t * (1 - q) >= 1:
                continue
            prod = q_exp(t, q) * q_exp_hat(-t, q, direct=True)
            assert abs(prod - 1.0) <= 10 * qcore.SERIES_TOL


def test_q_exp_reciprocal_path():
    val = q_exp(-0.7, 0.5)
    assert val == pytest.approx(1.0 / q_exp_hat(0.7, 0.5))
    # hat at a negative argument routes through 1/e_q
    assert q_exp_hat(-0.7, 0.5) == pytest.approx(1.0 / q_exp(0.7, 0.5))


def test_q_exp_divergence_and_domain():
    with pytest.raises(DivergentSeriesError):
        q_exp(3.0, 0.5)
    with pytest.raises(DivergentSeriesError):
        q_exp(-3.0, 0.5, direct=True)
    with pytest.raises(DivergentSeriesError):
        q_exp_hat(-3.0, 0.5)
    with pytest.raises(DomainError):
        q_exp(0.5, 1.2)
    with pytest.raises(DomainError):
        q_exp_hat(0.5, 0.0)


def test_q_exp_term_cap(monkeypatch):
    monkeypatch.setattr(qcore, "TERM_CAP", 3)
    with pytest.raises(NonConvergenceError, match="within 3 terms"):
        q_exp(0.5, 0.5)


@pytest.mark.parametrize("t", [1e100, float("nan"), float("inf")])
def test_q_exp_hat_outside_the_float_range(t):
    # The partial sum overflows or turns nan within a few terms; the series
    # stops there instead of running to the term cap.
    with pytest.raises(DomainError, match="left the float range"):
        q_exp_hat(t, 0.5)


@pytest.mark.parametrize("f", [q_exp, q_exp_hat])
def test_q_exp_takes_no_tolerance(f):
    # The stopping tolerance is the constant qcore.SERIES_TOL.
    with pytest.raises(TypeError):
        f(0.5, 0.5, 1e-12)
