"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Everything here recomputes its expectations through an
independent route (enumeration, classical recurrences, direct series) and
compares at the stated tolerance; exact checks use exact equality.
"""

import math
import time
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from qwhitney.cli import main as cli_main
from qwhitney.identities import DEFAULT_GRID, IdentityId, hankel_probe, verify
from qwhitney.laurent import q_monomial
from qwhitney.modes import FloatQ
from qwhitney.qdist import (
    QDistSpec,
    direct_moment_oracle,
    series_moment,
    q_factorial_moment,
    sample,
    whitney_moment,
)
from qwhitney.qcore import q_exp_hat
from qwhitney.tableaux import enumerate_distinct, enumerate_weak, tableau_sum_first, tableau_sum_second
from qwhitney.whitney import (
    WhitneyParams,
    dowling_polynomial,
    q_stirling_first,
    q_stirling_second,
    whitney_first_elementary,
    whitney_first_triangle,
    whitney_second_alternating,
    whitney_second_compositions,
    whitney_second_multisets,
    whitney_second_triangle,
)


class _criterion:
    def __init__(self, number, name, budget_s):
        self.number, self.name, self.budget = number, name, budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number} {self.name}: {status} ({elapsed:.1f}s, budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} overran its budget"
        return False


def test_criterion_1_algorithm_agreement():
    with _criterion(1, "ALGORITHM AGREEMENT", 60):
        for m, r in DEFAULT_GRID:
            params = WhitneyParams(m, r)
            w = whitney_first_triangle(params, 12)
            W = whitney_second_triangle(params, 12)
            for n in range(13):
                for k in range(n + 1):
                    assert whitney_first_elementary(params, n, k) == w.value(n, k)
                    rec = W.value(n, k)
                    assert whitney_second_compositions(params, n, k) == rec
                    assert whitney_second_multisets(params, n, k) == rec
                    assert whitney_second_alternating(params, n, k) == rec


def test_criterion_2_tableau_oracle():
    with _criterion(2, "TABLEAU ORACLE", 120):
        for n in range(13):
            for k in range(n + 1):
                assert sum(1 for _ in enumerate_distinct(n - 1, n - k)) == comb(n, k)
                assert sum(1 for _ in enumerate_weak(k, n - k)) == comb(n, k)
        for m, r in product((1, 2), (0, 1)):
            params = WhitneyParams(m, r)
            w = whitney_first_triangle(params, 10)
            W = whitney_second_triangle(params, 10)
            for n in range(11):
                sign_base = q_monomial(comb(n, 2))
                for k in range(n + 1):
                    expect = sign_base * w.value(n, k)
                    if (n - k) % 2:
                        expect = -expect
                    assert tableau_sum_first(params, n, k) == expect
                    assert tableau_sum_second(params, n, k) == \
                        q_monomial(-comb(k, 2)) * W.value(n, k)


def test_criterion_3_identity_suite():
    with _criterion(3, "IDENTITY SUITE", 300):
        assert cli_main(["verify", "--suite", "all", "--nmax", "10"]) == 0
        # generating function checked to degree 12 on the full grid
        for m, r in DEFAULT_GRID:
            reports = verify(IdentityId.GENFUNC_SECOND, WhitneyParams(m, r), 12)
            assert all(rep.passed for rep in reports)


def _classical_stirling_second(n, k, memo={}):
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    if (n, k) not in memo:
        memo[(n, k)] = (_classical_stirling_second(n - 1, k - 1)
                        + k * _classical_stirling_second(n - 1, k))
    return memo[(n, k)]


def _classical_stirling_first_unsigned(n, k, memo={}):
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    if (n, k) not in memo:
        memo[(n, k)] = (_classical_stirling_first_unsigned(n - 1, k - 1)
                        + (n - 1) * _classical_stirling_first_unsigned(n - 1, k))
    return memo[(n, k)]


def test_criterion_4_classical_limits():
    with _criterion(4, "CLASSICAL LIMITS", 60):
        assert q_stirling_second(4, 2).evaluate(1) == 7
        assert q_stirling_first(4, 2).evaluate(1) == 11
        for n in range(9):
            for k in range(n + 1):
                assert q_stirling_second(n, k).evaluate(1) == _classical_stirling_second(n, k)
                assert q_stirling_first(n, k).evaluate(1) == _classical_stirling_first_unsigned(n, k)
        # elementary-symmetric form of the q -> 1 limit at (m, r) = (2, 1):
        # w(n,k) evaluated at q = 1 equals (-1)^(n-k) e_{n-k} over {r + i m}.
        m, r = Fraction(2), Fraction(1)
        tri = whitney_first_triangle(WhitneyParams(m, r), 8)
        for n in range(9):
            weights = [r + i * m for i in range(n)]
            for k in range(n + 1):
                expect = sum(math.prod(weights[i] for i in subset)
                             for subset in combinations(range(n), n - k))
                if (n - k) % 2:
                    expect = -expect
                assert tri.value(n, k).evaluate(1) == expect


def test_criterion_5_hankel_probe():
    with _criterion(5, "HANKEL PROBE", 60):
        for q0 in (Fraction(1), Fraction(1, 2)):
            for m, r in product((1, 2), (0, 1)):
                rows = list(hankel_probe(m, [r, r + 1], q0, 4).values())
                assert all(row == rows[0] for row in rows), (q0, m, r)


def test_criterion_6_distributions():
    with _criterion(6, "DISTRIBUTIONS", 120):
        def qint(n, q):
            return (1.0 - q**n) / (1.0 - q)

        # normalization over the grid
        for q in (0.3, 0.5, 0.9):
            for lam in (0.1, 0.7, 0.9 / (1.0 - q)):
                for family in ("heine", "euler"):
                    if family == "euler" and lam * (1.0 - q) >= 1.0:
                        continue
                    spec = QDistSpec(family, q, lam)
                    assert abs(direct_moment_oracle(spec, lambda x: 1.0) - 1.0) <= 1e-10

        def falling(q, order):
            def g(x):
                if x < order:
                    return 0.0 if order else 1.0
                out = 1.0
                for i in range(order):
                    out *= qint(x - i, q)
                return out
            return g

        # Euler factorial moments: exactly lambda^order, and 1e-9 to the oracle
        spec = QDistSpec("euler", 0.5, 0.4)
        for order in range(6):
            closed = q_factorial_moment(spec, order)
            assert closed == spec.lam**order
            oracle = direct_moment_oracle(spec, falling(spec.q, order))
            assert abs(closed - oracle) <= 1e-9 * max(1.0, abs(oracle))

        # Heine closed form within 1e-9 of the oracle
        spec = QDistSpec("heine", 0.5, 0.7)
        for order in range(6):
            closed = q_factorial_moment(spec, order)
            oracle = direct_moment_oracle(spec, falling(spec.q, order))
            assert abs(closed - oracle) <= 1e-9 * max(1.0, abs(oracle))

        # Whitney moments vs oracle, and the Euler Dowling-polynomial identity
        for family, q, lam in (("heine", 0.5, 0.7), ("euler", 0.5, 0.4)):
            spec = QDistSpec(family, q, lam)
            for m, r in ((1.0, 0.0), (2.0, 1.0), (1.5, 2.5)):
                for n in range(7):
                    value = whitney_moment(spec, m, r, n)
                    oracle = direct_moment_oracle(
                        spec, lambda x: (m * qint(x, q) + r) ** n)
                    assert abs(value - oracle) <= 1e-9 * max(1.0, abs(oracle))
                    if family == "euler":
                        dp = dowling_polynomial(WhitneyParams(m, r, FloatQ(q)), n, m * lam)
                        assert abs(value - dp) <= 1e-9 * max(1.0, abs(dp))

        # the finite-upper-limit display differs (documented, not asserted equal)
        spec = QDistSpec("euler", 0.5, 0.4)
        truncated = series_moment(spec, 1.0, 0.0, 1, upper="truncated")
        extended = series_moment(spec, 1.0, 0.0, 1, upper="extended")
        assert abs(extended - spec.lam) <= 1e-9
        assert abs(truncated - q_exp_hat(-spec.lam, spec.q) * spec.lam) <= 1e-9
        assert abs(truncated - extended) > 1e-3


def _heine_million_draws():
    spec = QDistSpec("heine", 0.5, 0.7)
    return spec, sample(spec, 10**6, 2024)


def _mean_and_se(values):
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


@pytest.mark.xfail(strict=True, reason=(
    "lambda/(1+lambda(1-q)) is the first q-factorial moment E[[Y]_q], not the "
    "arithmetic mean E[Y] (oracle: E[Y]=0.5737, E[[Y]_q]=0.5185=phi at "
    "q=0.5, lambda=0.7), so the raw sample mean of a correct sampler cannot "
    "match phi; the q-transformed check below carries the intent"))
def test_criterion_6_sampler_raw_mean():
    with _criterion(6, "SAMPLER RAW MEAN vs phi", 120):
        spec, draws = _heine_million_draws()
        mean, se = _mean_and_se(draws)
        assert abs(mean - spec.q_mean) <= 3 * se, (mean, spec.q_mean, se)


def test_criterion_6_sampler_mean():
    with _criterion(6, "SAMPLER MEAN vs E[Y]", 120):
        spec, draws = _heine_million_draws()
        mean_y = direct_moment_oracle(spec, lambda x: x)
        var_y = direct_moment_oracle(spec, lambda x: x * x) - mean_y**2
        se = math.sqrt(var_y / len(draws))
        mean = sum(draws) / len(draws)
        assert abs(mean - mean_y) <= 5 * se, (mean, mean_y, se)


def test_criterion_6_sampler_q_mean():
    with _criterion(6, "SAMPLER q-MEAN vs phi", 120):
        spec, draws = _heine_million_draws()
        q = spec.q
        values = [(1.0 - q**d) / (1.0 - q) for d in draws]
        mean, se = _mean_and_se(values)
        assert abs(mean - spec.q_mean) <= 3 * se, (mean, spec.q_mean, se)
