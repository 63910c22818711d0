"""Input guards that no other in-process test reaches: each bad input gives
its own exception type and message, and the two non-raising guards (`==`
against a foreign type, a float scalar in float mode) return their value."""

from fractions import Fraction

import pytest

from qwhitney import (
    FloatQ,
    RationalQ,
    WhitneyParams,
    binomial_inverse,
    canonical_text,
    complete_homogeneous,
    elementary_symmetric,
    enumerate_distinct,
    enumerate_weak,
    hankel_transform,
    parse_laurent,
    q_factorial,
    q_factorial_moment,
    q_monomial,
    q_stirling_first_complement,
    series_moment,
    tableau_sum_first,
    tableau_sum_second,
    whitney_first_elementary,
    whitney_moment,
    whitney_second_alternating,
)
from qwhitney.errors import DomainError
from qwhitney.modes import parse_scalar
from qwhitney.qdist import QDistSpec
from qwhitney.whitney import defining_first

Q = q_monomial(1)
P = WhitneyParams(Fraction(3, 2), Fraction(5, 2))
SPEC = QDistSpec("heine", 0.5, 0.7)
K_RANGE = "need 0 <= k <= n"

GUARDS = {
    "binomial_inverse": (lambda: binomial_inverse([]),
                         ValueError("binomial_inverse needs a nonempty sequence")),
    "hankel_order": (lambda: hankel_transform([1, 2, 3], -1),
                     ValueError("order must be >= 0")),
    "parse_duplicate": (lambda: parse_laurent("1*q^2 + 3*q^2"),
                        ValueError("duplicate exponent 2 in '1*q^2 + 3*q^2'")),
    "immutable": (lambda: setattr(Q, "val", 3), AttributeError("LaurentPoly is immutable")),
    "pow_float": (lambda: Q ** 0.5, TypeError(
        "unsupported operand type(s) for ** or pow(): 'LaurentPoly' and 'float'")),
    "div_str": (lambda: Q / "x",
                TypeError("unsupported operand type(s) for /: 'LaurentPoly' and 'str'")),
    "eq_str": (lambda: Q == "x", False),
    "canonical_text": (lambda: canonical_text(object()), TypeError("cannot render object")),
    "parse_scalar_float": (lambda: parse_scalar("0.5", FloatQ(0.5)), 0.5),
    "q_factorial": (lambda: q_factorial(-1), ValueError("q_factorial needs n >= 0")),
    "elementary_symmetric": (lambda: elementary_symmetric([1, 2], -1),
                             ValueError("elementary_symmetric needs k >= 0")),
    "complete_homogeneous": (lambda: complete_homogeneous([1, 2], -1),
                             ValueError("complete_homogeneous needs k >= 0")),
    "q_factorial_moment": (lambda: q_factorial_moment(SPEC, -1),
                           DomainError("order must be >= 0")),
    "whitney_moment": (lambda: whitney_moment(SPEC, 1.0, 0.0, -1),
                       DomainError("n must be >= 0")),
    "series_moment": (lambda: series_moment(SPEC, 1.0, 0.0, -1),
                      DomainError("n must be >= 0")),
    "enumerate_distinct": (lambda: list(enumerate_distinct(3, -1)),
                           ValueError("count must be >= 0")),
    "enumerate_weak": (lambda: list(enumerate_weak(3, -1)), ValueError("count must be >= 0")),
    "tableau_sum_first": (lambda: tableau_sum_first(P, 2, 3), ValueError(K_RANGE)),
    "tableau_sum_second": (lambda: tableau_sum_second(P, 2, 3), ValueError(K_RANGE)),
    "whitney_first_elementary": (lambda: whitney_first_elementary(P, 2, 3),
                                 ValueError(K_RANGE + ", got (n, k) = (2, 3)")),
    "alternating_pole": (
        lambda: whitney_second_alternating(WhitneyParams(1, 0, RationalQ(-1)), 3, 2),
        ZeroDivisionError("[2]_q! vanishes at this q")),
    "stirling_complement": (lambda: q_stirling_first_complement(3, 0),
                            ValueError("complement form needs 1 <= k <= n")),
    "defining_first": (lambda: defining_first(P, -1, 2), ValueError("ell and n must be >= 0")),
}


@pytest.mark.parametrize("call, outcome", GUARDS.values(), ids=GUARDS.keys())
def test_input_guard(call, outcome):
    if isinstance(outcome, Exception):
        with pytest.raises(Exception) as caught:
            call()
        assert type(caught.value) is type(outcome)
        assert str(caught.value) == str(outcome)
    else:
        value = call()
        assert type(value) is type(outcome) and value == outcome
