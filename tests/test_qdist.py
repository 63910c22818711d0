import math
import random
from bisect import bisect_right
from functools import cache
from itertools import accumulate, repeat

import pytest

from qwhitney import qdist
from qwhitney.errors import DomainError, NonConvergenceError
from qwhitney.modes import FloatQ
from qwhitney.qdist import (
    MASS_FLOOR,
    SAMPLE_BATCH,
    QDistSpec,
    direct_moment_oracle,
    moment_pairs,
    pmf,
    pmf_walk,
    q_factorial_moment,
    sample,
    sample_batches,
    series_moment,
    whitney_moment,
)
from qwhitney.qcore import q_exp, q_exp_hat
from qwhitney.whitney import WhitneyParams, dowling_polynomial, q_stirling_second


def _qint(n, q):
    return (1.0 - q**n) / (1.0 - q)


def grid_specs():
    for q in (0.3, 0.5, 0.9):
        for lam in (0.1, 0.7, 0.9 / (1.0 - q)):
            yield QDistSpec("heine", q, lam)
            if lam * (1.0 - q) < 1.0:
                yield QDistSpec("euler", q, lam)


def test_spec_validation():
    with pytest.raises(DomainError):
        QDistSpec("euler", 0.5, 3.0)  # lam (1-q) = 1.5
    with pytest.raises(DomainError):
        QDistSpec("heine", 1.0, 0.5)
    with pytest.raises(DomainError):
        QDistSpec("heine", 0.5, -1.0)
    with pytest.raises(DomainError):
        QDistSpec("poisson", 0.5, 0.5)
    for x in (-1, 2.5, float("inf"), float("nan")):
        with pytest.raises(DomainError, match="outcomes are nonnegative integers"):
            pmf(QDistSpec("heine", 0.5, 0.5), x)


def test_q_mean_accessor():
    spec = QDistSpec("heine", 0.5, 0.7)
    assert spec.q_mean == pytest.approx(0.7 / 1.35)
    assert QDistSpec("euler", 0.5, 0.7).q_mean == 0.7
    # q_mean is E[[X]_q], not E[X]
    assert direct_moment_oracle(spec, lambda x: _qint(x, spec.q)) == \
        pytest.approx(spec.q_mean, rel=1e-9)
    assert direct_moment_oracle(spec, float) > spec.q_mean


def test_pmf_zero_matches_normalizer():
    spec = QDistSpec("heine", 0.5, 0.7)
    assert pmf(spec, 0) == pytest.approx(1.0 / q_exp_hat(0.7, 0.5), rel=1e-12)
    eul = QDistSpec("euler", 0.5, 0.7)
    assert pmf(eul, 0) == pytest.approx(1.0 / q_exp(0.7, 0.5), rel=1e-12)


def test_normalization_grid():
    for spec in grid_specs():
        total = direct_moment_oracle(spec, lambda x: 1.0)
        assert abs(total - 1.0) <= 1e-10, spec


def test_oracle_indicator_recovers_pmf():
    spec = QDistSpec("euler", 0.5, 0.7)
    value = direct_moment_oracle(spec, lambda x: 1.0 if x == 0 else 0.0)
    assert value == pytest.approx(pmf(spec, 0), rel=1e-12)


def test_pmf_sums_to_one_with_tail_cutoff():
    spec = QDistSpec("heine", 0.5, 0.7)
    total = 0.0
    x = 0
    while True:
        p = pmf(spec, x)
        total += p
        if p < 1e-15:
            break
        x += 1
    assert abs(total - 1.0) <= 1e-10


def test_euler_factorial_moments_are_lambda_powers():
    spec = QDistSpec("euler", 0.5, 0.4)
    assert q_factorial_moment(spec, 3) == 0.4**3 == pytest.approx(0.064)
    for order in range(6):
        closed = q_factorial_moment(spec, order)
        assert closed == spec.lam**order

        def g(x, order=order):
            if x < order:
                return 0.0 if order else 1.0
            out = 1.0
            for i in range(order):
                out *= _qint(x - i, spec.q)
            return out

        oracle = direct_moment_oracle(spec, g)
        assert abs(closed - oracle) <= 1e-9 * max(1.0, abs(oracle))


def _q_falling(order, q):
    def g(x):
        if x < order:
            return 0.0 if order else 1.0
        out = 1.0
        for i in range(order):
            out *= _qint(x - i, q)
        return out
    return g


def test_oracle_high_order_euler():
    # g vanishes on x < 10; those ten exactly-zero terms must not end the sum.
    spec = QDistSpec("euler", 0.5, 0.4)
    oracle = direct_moment_oracle(spec, _q_falling(10, spec.q))
    assert oracle == pytest.approx(1.048576e-4, rel=1e-9)
    assert oracle == pytest.approx(q_factorial_moment(spec, 10), rel=1e-9)


@pytest.mark.parametrize("order", [10, 11, 12])
def test_oracle_high_order_heine(order):
    spec = QDistSpec("heine", 0.5, 0.7)
    oracle = direct_moment_oracle(spec, _q_falling(order, spec.q))
    assert oracle != 0.0
    assert oracle == pytest.approx(q_factorial_moment(spec, order), rel=1e-9)


def test_oracle_zero_function_sums_to_zero():
    for spec in (QDistSpec("euler", 0.5, 0.4), QDistSpec("euler", 0.3, 0.8),
                 QDistSpec("heine", 0.5, 0.7)):
        assert direct_moment_oracle(spec, lambda x: 0.0) == 0.0


@pytest.mark.parametrize("q,lam,top", [(0.5, 0.7, 45), (0.7, 0.5, 60)])
def test_oracle_refuses_subnormal_pmf_terms_that_matter(q, lam, top):
    # The factorial moment of order top is a normal float (5.4e-306, 3.6e-293),
    # but the pmf terms it sums are subnormal; the closed form and the oracle
    # disagreed past 1e-9 relative.
    with pytest.raises(DomainError, match="float range"):
        list(moment_pairs(QDistSpec("heine", q, lam), 1.0, 0.0, top))


def test_heine_factorial_moment_closed_form():
    q, lam = 0.5, 0.7
    spec = QDistSpec("heine", q, lam)
    expect = q * lam**2 / ((1 + lam * (1 - q)) * (1 + lam * (1 - q) * q))
    assert q_factorial_moment(spec, 2) == pytest.approx(expect, rel=1e-12)
    for order in range(6):
        def g(x, order=order):
            if x < order:
                return 0.0 if order else 1.0
            out = 1.0
            for i in range(order):
                out *= _qint(x - i, q)
            return out

        oracle = direct_moment_oracle(spec, g)
        closed = q_factorial_moment(spec, order)
        assert abs(closed - oracle) <= 1e-9 * max(1.0, abs(oracle))


@pytest.mark.parametrize("family,q,lam", [("heine", 0.5, 0.7), ("euler", 0.5, 0.4),
                                          ("heine", 0.3, 1.5), ("euler", 0.9, 2.0)])
def test_whitney_moment_against_oracle(family, q, lam):
    spec = QDistSpec(family, q, lam)
    for m, r in ((1.0, 0.0), (2.0, 1.0), (1.5, 2.5)):
        for n in range(5):
            value = whitney_moment(spec, m, r, n)
            oracle = direct_moment_oracle(spec, lambda x: (m * _qint(x, q) + r) ** n)
            assert abs(value - oracle) <= 1e-9 * max(1.0, abs(oracle)), (m, r, n)


def test_whitney_moment_trivial():
    spec = QDistSpec("euler", 0.5, 0.4)
    assert whitney_moment(spec, 2.0, 1.0, 0) == 1.0


def test_euler_moment_equals_dowling_polynomial():
    q, lam = 0.5, 0.4
    spec = QDistSpec("euler", q, lam)
    for m, r in ((1.0, 0.0), (2.0, 1.0), (1.5, 2.5)):
        params = WhitneyParams(m, r, FloatQ(q))
        for n in range(6):
            lhs = whitney_moment(spec, m, r, n)
            rhs = dowling_polynomial(params, n, m * lam)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_euler_q_bell_consistency():
    q, lam = 0.5, 0.4
    spec = QDistSpec("euler", q, lam)
    for n in range(6):
        lhs = whitney_moment(spec, 1.0, 0.0, n)
        rhs = sum(q_stirling_second(n, k).evaluate(q) * lam**k for k in range(n + 1))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_series_moment_truncation_discrepancy():
    q, lam = 0.5, 0.4
    spec = QDistSpec("euler", q, lam)
    truncated = series_moment(spec, 1.0, 0.0, 1, upper="truncated")
    extended = series_moment(spec, 1.0, 0.0, 1, upper="extended")
    assert extended == pytest.approx(lam, rel=1e-9)
    assert truncated == pytest.approx(q_exp_hat(-lam, q) * lam, rel=1e-9)
    assert abs(truncated - extended) > 1e-3  # the truncation is visibly wrong
    # even n = 0 shows the truncation: the displayed sum stops at l = 0,
    # leaving a bare normalizer instead of 1
    assert series_moment(spec, 1.0, 0.0, 0, upper="truncated") == \
        pytest.approx(q_exp_hat(-0.4, 0.5))
    assert series_moment(spec, 1.0, 0.0, 0, upper="extended") == pytest.approx(1.0)


def test_series_moment_extended_matches_oracle():
    for family in ("euler", "heine"):
        spec = QDistSpec(family, 0.5, 0.4)
        for n in range(6):
            value = series_moment(spec, 2.0, 1.0, n, upper="extended")
            oracle = direct_moment_oracle(spec, lambda x: (2.0 * _qint(x, 0.5) + 1.0) ** n)
            assert abs(value - oracle) <= 1e-9 * max(1.0, abs(oracle)), (family, n)


def test_series_moment_heine_truncated_differs():
    spec = QDistSpec("heine", 0.5, 0.4)
    truncated = series_moment(spec, 1.0, 0.0, 2, upper="truncated")
    oracle = direct_moment_oracle(spec, lambda x: _qint(x, 0.5) ** 2)
    assert abs(truncated - oracle) > 1e-3 * max(1.0, abs(oracle))


def test_series_moment_rejects_bad_upper():
    spec = QDistSpec("euler", 0.5, 0.4)
    with pytest.raises(ValueError):
        series_moment(spec, 1.0, 0.0, 1, upper="nope")


def test_sampler_determinism_and_edges():
    spec = QDistSpec("heine", 0.5, 0.7)
    assert sample(spec, 0, 1) == []
    a = sample(spec, 1000, 42)
    b = sample(spec, 1000, 42)
    assert a == b
    assert sample(spec, 1000, 43) != a
    assert all(isinstance(v, int) and v >= 0 for v in a)


def test_sampler_q_mean_close_to_formula():
    # lambda/(1+lambda(1-q)) is E[[Y]_q], so compare against the q-transformed
    # draws; the raw sample mean estimates the larger E[Y].
    spec = QDistSpec("heine", 0.5, 0.7)
    draws = sample(spec, 100_000, 7)
    values = [_qint(d, spec.q) for d in draws]
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    se = math.sqrt(var / n)
    assert abs(mean - spec.q_mean) <= 3 * se
    raw_mean = sum(draws) / n
    assert raw_mean - spec.q_mean > 10 * se  # E[Y] is visibly larger than phi


def test_oracle_term_cap(monkeypatch):
    monkeypatch.setattr(qdist, "TERM_CAP", 5)
    spec = QDistSpec("heine", 0.5, 0.7)
    with pytest.raises(NonConvergenceError, match="within 5 terms"):
        direct_moment_oracle(spec, lambda x: 1.0)


# -- sampler against the clamped table search -----------------------------------
#
# The reference is the sampler as first written: a cumulative table of pmf
# values cut off at 1 - 1e-12, one bisect per draw, and an explicit clamp of
# draws past the cutoff to the last tabulated outcome.

#: The heine and euler (q, lambda) pairs the benchmark samples from.
SAMPLER_SPECS = [QDistSpec("heine", q, lam)
                 for q, lam in ((0.3, 0.9), (0.4, 1.2), (0.5, 0.7), (0.6, 0.5))] + \
                [QDistSpec("euler", q, lam)
                 for q, lam in ((0.3, 0.8), (0.4, 1.0), (0.5, 0.4), (0.6, 1.5))]


@cache
def _reference_cdf(spec):
    cdf = []
    cumulative = 0.0
    x = 0
    while not cdf or cdf[-1] < 1.0 - 1e-12:
        cumulative += pmf(spec, x)
        cdf.append(cumulative)
        x += 1
    return cdf


def _reference_sample(spec, count, seed):
    cdf = _reference_cdf(spec)
    rng = random.Random(seed)
    top = len(cdf) - 1
    return [min(bisect_right(cdf, rng.random()), top) for _ in range(count)]


#: Long-tailed specs: 22-100% of the cells of their byte tables need the
#: exact search, and euler 0.99/90 has more outcomes than a byte holds.
LONG_TAIL_SPECS = [QDistSpec("heine", 0.999, 400.0), QDistSpec("euler", 0.99, 90.0),
                   QDistSpec("euler", 0.9, 9.0)]


def _spec_id(spec):
    return f"{spec.family}-{spec.q}-{spec.lam}"


@pytest.mark.parametrize("spec", SAMPLER_SPECS + LONG_TAIL_SPECS, ids=_spec_id)
def test_sampler_matches_clamped_table_search(spec):
    for seed in (0, 1, 7, 2024):
        for count in (0, 1, 10_000):
            assert sample(spec, count, seed) == _reference_sample(spec, count, seed)


def test_sampler_one_outcome_table():
    spec = QDistSpec("heine", 0.5, 1e-13)
    assert pmf(spec, 0) >= 1.0 - 1e-12
    assert len(_reference_cdf(spec)) == 1
    for seed in (0, 3):
        assert sample(spec, 1000, seed) == [0] * 1000 == _reference_sample(spec, 1000, seed)


class _DrawStub:
    """Stands in for random.Random: serves the given draws, each a multiple of
    2**-53 in [0, 1), to getrandbits as the two 32-bit words random() would
    have read, with their dropped low bits set."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def getrandbits(self, bits):
        assert bits % 64 == 0
        out = 0
        for i in range(bits // 64):
            u = next(self.draws) * 2**53
            assert u == int(u)
            u = int(u)
            a, b = (u >> 26) << 5 | 31, (u & (2**26 - 1)) << 6 | 63
            out |= (a | b << 32) << (64 * i)
        return out


def _sample_from(monkeypatch, spec, draws):
    monkeypatch.setattr(qdist.random, "Random", lambda seed: _DrawStub(draws))
    return sample(spec, len(draws), 0)


def test_sampler_clamps_draws_at_and_past_the_cutoff(monkeypatch):
    # This table ends below the largest double under 1, so both of the last
    # two draws fall past it and must clamp to the last outcome.  cdf[0] is
    # not a multiple of 2**-53, so random() never returns it: the two draws
    # next to it take its place.
    spec = QDistSpec("euler", 0.3, 0.8)
    cdf = _reference_cdf(spec)
    top = len(cdf) - 1
    between = (cdf[1] + cdf[2]) / 2
    below, above = (math.floor(cdf[0] * 2**53) / 2**53, math.ceil(cdf[0] * 2**53) / 2**53)
    draws = [0.0, below, above, between, cdf[-1], 0.9999999999999999]
    assert below < cdf[0] < above and cdf[-1] < 0.9999999999999999
    assert _sample_from(monkeypatch, spec, draws) == [0, 0, 1, 2, top, top]


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 2**70])
def test_random_is_built_from_the_words_of_getrandbits(seed):
    # sample_batches relies on this layout.
    words = random.Random(seed).getrandbits(64 * 3)
    draw = random.Random(seed).random
    for i in range(3):
        word = words >> (64 * i) & (2**64 - 1)
        a, b = word & 0xFFFFFFFF, word >> 32
        assert ((a >> 5) * 2**26 + (b >> 6)) / 2**53 == draw()


@pytest.mark.parametrize("spec", SAMPLER_SPECS + [QDistSpec("heine", 0.5, 1e-13),
                                                  LONG_TAIL_SPECS[1]], ids=_spec_id)
def test_sampler_at_every_cdf_step_and_byte_edge(monkeypatch, spec):
    # Draws on both sides of every cdf step and of every edge between two
    # top-byte cells; euler 0.99/90 has more outcomes than a byte holds.
    cdf = _reference_cdf(spec)
    draws, expect = _edge_draws(cdf)
    assert _sample_from(monkeypatch, spec, draws) == expect


def _edge_draws(cdf):
    """Draws u / 2**53 next to every step of cdf and every top-byte cell edge,
    with their outcomes under the clamped table search."""
    ints = {0, 2**53 - 1}
    for c in cdf:
        ints.update({math.ceil(c * 2**53), math.ceil(c * 2**53) - 1})
    for v in range(1, 256):
        ints.update({v * 2**45, v * 2**45 - 1})
    ints = sorted(u for u in ints if 0 <= u < 2**53)
    return [u / 2**53 for u in ints], [min(bisect_right(cdf, u / 2**53), len(cdf) - 1)
                                       for u in ints]


def test_sampler_with_cdf_steps_on_the_last_double_of_a_cell(monkeypatch):
    # 0.5 - 2**-53 is the last double of the cell [127/256, 128/256) and 0.75
    # the first of [192/256, 193/256): only the first of the two cells is split.
    pmfs = [0.25, 0.25 - 2**-53, 0.25 + 2**-53, 0.25]
    cdf = list(accumulate(pmfs))
    assert cdf == [0.25, 0.5 - 2**-53, 0.75, 1.0]
    monkeypatch.setattr(qdist, "pmf_walk", lambda spec: iter(pmfs))
    draws, expect = _edge_draws(cdf)
    assert _sample_from(monkeypatch, SAMPLER_SPECS[0], draws) == expect


# -- the pmf walk shared by the sampler and `dist --op pmf` ---------------------


@pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=_spec_id)
def test_pmf_walk_stops_at_the_mass_floor_or_at_n(spec):
    walk = list(pmf_walk(spec))
    assert walk == [pmf(spec, x) for x in range(len(walk))]
    cumulative = list(accumulate(walk))
    assert cumulative == _reference_cdf(spec)
    assert cumulative[-1] >= MASS_FLOOR > cumulative[-2]
    longer = list(pmf_walk(spec, len(walk) + 4))
    assert longer[:len(walk)] == walk and len(longer) == len(walk) + 5
    assert list(pmf_walk(spec, 0)) == walk[:1]


def test_pmf_walk_stops_at_the_term_cap(monkeypatch):
    # A stream whose mass never reaches the floor: the walk to the floor
    # gives up after TERM_CAP outcomes, and a walk to an explicit n stops
    # short of TERM_CAP.
    monkeypatch.setattr(qdist, "_pmf_stream", lambda spec: repeat(1e-3))
    monkeypatch.setattr(qdist, "TERM_CAP", 50)
    spec = QDistSpec("heine", 0.5, 0.7)
    seen = []
    with pytest.raises(NonConvergenceError, match="cutoff"):
        seen.extend(pmf_walk(spec))
    assert len(seen) == 50
    assert len(list(pmf_walk(spec, 49))) == 50
    with pytest.raises(DomainError, match="term cap 50"):
        list(pmf_walk(spec, 50))
    with pytest.raises(NonConvergenceError, match="cutoff"):
        sample(spec, 1, 0)


@pytest.mark.parametrize("n", [-1, -5])
def test_pmf_walk_rejects_a_negative_n(n):
    with pytest.raises(DomainError, match=f"^n must be >= 0, got {n}$"):
        list(pmf_walk(QDistSpec("heine", 0.5, 0.7), n))


@pytest.mark.parametrize("x", [qdist.TERM_CAP, 10**20])
def test_pmf_past_the_term_cap_is_a_domain_error(x):
    with pytest.raises(DomainError, match=f"^outcome {x} lies past the term cap "):
        pmf(QDistSpec("heine", 0.5, 0.7), x)


@pytest.mark.parametrize("count", [0, 1, SAMPLE_BATCH, 2 * SAMPLE_BATCH + 5])
def test_sample_batches_are_the_sample_in_order(count):
    spec = SAMPLER_SPECS[0]
    batches = list(sample_batches(spec, count, 11))
    assert [len(b) for b in batches] == [SAMPLE_BATCH] * (count // SAMPLE_BATCH) + (
        [count % SAMPLE_BATCH] if count % SAMPLE_BATCH else [])
    assert [x for b in batches for x in b] == sample(spec, count, 11) == _reference_sample(
        spec, count, 11)
