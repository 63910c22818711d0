"""Heine and Euler discrete q-distributions.

PMFs (for 0 < q < 1, lambda > 0):

    heine:  f(y) ~ q^C(y,2) lambda^y / [y]_q!      normalizer 1/ehat_q(lambda)
    euler:  f(z) ~ lambda^z / [z]_q!               normalizer 1/e_q(lambda)

The Euler family needs lambda (1-q) < 1 or the normalizing series diverges.
Normalizers always go through the reciprocal identity e_q(x) ehat_q(-x) = 1,
never through an alternating series.

Moments connect back to the exact triangles: E[(m[X]_q + r)^n] expands over
the second-kind Whitney numbers with the closed-form q-factorial moments, the
Whitney values coming from the exact symbolic triangle evaluated at the float
q only in the last step.  A direct series summation over the PMF serves as
the independent oracle for every moment formula.
"""

from __future__ import annotations

import random
import re
import sys
from bisect import bisect_right
from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import accumulate, chain, islice
from math import ceil, comb, inf, isfinite
from operator import mul

from .errors import DomainError, NonConvergenceError
from .modes import SYMBOLIC, FloatQ
from .qcore import (SERIES_TOL, TERM_CAP, check_series_args, q_exp, q_exp_hat,
                    q_falling_factorial, q_int_at, q_int_products)
from .record import Record
from .whitney import WhitneyParams, whitney_second_triangle

FAMILIES = ("heine", "euler")

#: `pmf_walk` stops at the first outcome where the cumulative mass reaches this.
MASS_FLOOR = 1.0 - 1e-12

#: Draws per list yielded by `sample_batches`.
SAMPLE_BATCH = 4096

#: Byte-table code of a cell whose draws need the exact search.
_EXACT = 255
_EXACT_CELL = re.compile(bytes([_EXACT]))

#: Where a draw's 8 little-endian bytes from getrandbits go to form a << 32 | b
#: as a native 64-bit integer.
_KEY_LANES = (4, 5, 6, 7, 0, 1, 2, 3) if sys.byteorder == "little" else (3, 2, 1, 0, 7, 6, 5, 4)

#: Clears the five low bits of a byte; in the low byte of a, random() drops them.
_DROP_LOW5 = bytes(x & ~31 for x in range(256))


class QDistSpec(Record):
    """Distribution family and parameters; its series stop at qcore.SERIES_TOL."""

    __slots__ = _fields = ("family", "q", "lam")

    def __init__(self, family: str, q: float, lam: float):
        if family not in FAMILIES:
            raise DomainError(f"family must be one of {FAMILIES}, got {family!r}")
        check_series_args(q)
        if not lam > 0.0:
            raise DomainError(f"lambda must be positive, got {lam}")
        if lam == inf:
            raise DomainError(f"lambda must be finite, got {lam}")
        if family == "euler" and lam * (1.0 - q) >= 1.0:
            raise DomainError(f"euler needs lambda (1-q) < 1, got {lam * (1.0 - q)}")
        self._set(family=family, q=q, lam=lam)

    @property
    def q_mean(self) -> float:
        """First q-factorial moment E[[X]_q]: lambda/(1 + lambda(1-q)) for
        heine, lambda for euler (`q_factorial_moment` of order 1).

        This is the distribution's location parameter in the q sense; the
        arithmetic mean E[X] is a different (larger) quantity.
        """
        return q_factorial_moment(self, 1)


def _normalizer(spec: QDistSpec) -> float:
    if spec.family == "heine":
        return 1.0 / q_exp_hat(spec.lam, spec.q)
    return 1.0 / q_exp(spec.lam, spec.q)


def _pmf_stream(spec: QDistSpec) -> Iterator[float]:
    """pmf(0), pmf(1), ... computed incrementally."""
    value = _normalizer(spec)
    x = 0
    while True:
        yield value
        x += 1
        step = spec.lam / q_int_at(x, spec.q)
        if spec.family == "heine":
            step *= spec.q ** (x - 1)
        value *= step


def pmf_walk(spec: QDistSpec, n: int | None = None) -> Iterator[float]:
    """pmf(0), pmf(1), ...: through pmf(n), or, with n None, through the first
    outcome where the cumulative mass reaches MASS_FLOOR.

    Raises NonConvergenceError if TERM_CAP outcomes do not reach it, and
    DomainError for a negative n or one at or past TERM_CAP: every walk
    honours the cap.
    """
    stream = _pmf_stream(spec)
    if n is not None:
        if n < 0:
            raise DomainError(f"n must be >= 0, got {n}")
        if n >= TERM_CAP:
            raise DomainError(f"outcome {n} lies past the term cap {TERM_CAP}")
        yield from islice(stream, n + 1)
        return
    cumulative = 0.0
    for p in islice(stream, TERM_CAP):
        yield p
        cumulative += p
        if cumulative >= MASS_FLOOR:
            return
    raise NonConvergenceError("cumulative distribution did not reach its cutoff")


def pmf(spec: QDistSpec, x: int) -> float:
    """Probability of the outcome x."""
    if not (0 <= x < inf and x == int(x)):  # nan and inf fail the range test
        raise DomainError("outcomes are nonnegative integers")
    *_, value = pmf_walk(spec, int(x))
    return value


def q_factorial_moment(spec: QDistSpec, order: int) -> float:
    """E[[X]_q [X-1]_q ... [X-order+1]_q] in closed form.

    heine: q^C(order,2) lambda^order / prod_{i=1..order} (1 + lambda(1-q) q^(i-1))
    euler: lambda^order
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    if spec.family == "euler":
        return spec.lam**order
    return spec.q ** comb(order, 2) * spec.lam**order / _heine_products(spec, order)[order]


def _heine_products(spec: QDistSpec, n: int) -> list[float]:
    """[P_0, ..., P_n], P_k = prod_{i=1..k} (1 + lambda(1-q) q^(i-1)), as running products."""
    lam, q = spec.lam, spec.q
    return list(accumulate((1.0 + lam * (1.0 - q) * q ** (i - 1) for i in range(1, n + 1)),
                           mul, initial=1.0))


def whitney_moment(spec: QDistSpec, m: float, r: float, n: int) -> float:
    """E[(m [X]_q + r)^n] via the second-kind expansion.

    Expands over m^k W(n,k) E[[X]_q ... [X-k+1]_q], with the W values taken
    from the exact symbolic triangle and evaluated at the float q last.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    return _second_kind_expansion(spec, m, _symbolic_rows(m, r, n)[n])


def _symbolic_rows(m: float, r: float, top: int) -> tuple:
    """Rows 0..top of the symbolic second-kind triangle at (m, r)."""
    return whitney_second_triangle(WhitneyParams(Fraction(m), Fraction(r), SYMBOLIC), top).rows


def _second_kind_expansion(spec: QDistSpec, m: float, row: tuple) -> float:
    """sum_k m^k W(n,k) E[[X]_q ... [X-k+1]_q] over the symbolic row n of W."""
    total = 0.0
    for k, w in enumerate(row):
        total += float(m) ** k * w.evaluate(spec.q) * q_factorial_moment(spec, k)
    return total


#: Relative bound |closed - oracle| <= MOMENT_REL_TOL * max(|closed|, |oracle|)
#: that a moment formula must meet against the direct series.
MOMENT_REL_TOL = 1e-9

#: Highest order `dist --op moments --n` accepts.  One symbolic second-kind
#: triangle built to that order is most of the cost, which grows steeply with
#: it: the `--n 40` table takes 0.14 s in-process, 0.11 s of it in the
#: triangle (heine q 0.5, lambda 0.7, (m, r) = (3/2, 5/2); 2-core x86_64 VM,
#: Python 3.11, median of 21 fresh processes).
MOMENT_NMAX = 40


def moment_pairs(spec: QDistSpec, m: float, r: float,
                 top: int) -> Iterator[tuple[str, int, float, float]]:
    """(kind, k, closed form, direct oracle) for k = 0..top of each kind.

    kind "factorial" is E[[X]_q [X-1]_q ... [X-k+1]_q] from
    q_factorial_moment; kind "whitney" is E[(m [X]_q + r)^k] by the
    expansion of whitney_moment, every row read from one triangle built to
    top.  Each oracle is direct_moment_oracle over the pmf.
    """
    q = spec.q
    mode = FloatQ(q)
    for k in range(top + 1):
        yield ("factorial", k, q_factorial_moment(spec, k),
               direct_moment_oracle(spec, lambda x, k=k: q_falling_factorial(x, k, mode)))
    rows = _symbolic_rows(m, r, max(top, 0))
    for n in range(top + 1):
        yield ("whitney", n, _second_kind_expansion(spec, m, rows[n]),
               direct_moment_oracle(spec, lambda x, n=n: (m * q_int_at(x, q) + r) ** n))


def direct_moment_oracle(spec: QDistSpec, g: Callable[[int], float],
                         tol: float | None = None) -> float:
    """Reference sum_x pmf(x) g(x).

    Stops once pmf(x) |g(x)| < tol |partial| for 10 consecutive outcomes;
    raises NonConvergenceError at the term cap.  While the partial sum is
    still exactly 0 and pmf(x) is a normal float, an outcome is not counted
    as quiet: g may vanish on a leading run (a q-factorial moment of order k
    is 0 for x < k) with the mass still ahead.  Once pmf(x) is subnormal the
    tail is negligible, so an identically-zero g still sums to 0.0.  A partial
    sum that is no longer finite (an overflow) is returned at once.  Raises
    DomainError when a term with a subnormal pmf(x), whose low bits are lost,
    exceeds tol |sum|.  tol None, the package's only value, means SERIES_TOL;
    the parameter stays because bench/tracing.py's stand-in oracle passes one.
    """
    tol = SERIES_TOL if tol is None else tol
    total = 0.0
    quiet = 0
    lost = 0.0  # largest |pmf(x) g(x)| with pmf(x) subnormal
    for x, p in enumerate(islice(_pmf_stream(spec), TERM_CAP)):
        contribution = p * g(x)
        total += contribution
        if not isfinite(total):
            return total
        if p < sys.float_info.min:
            lost = max(lost, abs(contribution))
        elif total == 0.0:
            continue
        if abs(contribution) < tol * max(abs(total), 1e-300):
            quiet += 1
            if quiet >= 10:
                if lost > tol * abs(total):
                    raise DomainError("moment series: pmf terms below the normal float "
                                      "range are not negligible")
                return total
        else:
            quiet = 0
    raise NonConvergenceError(f"moment series did not settle within {TERM_CAP} terms")


def series_moment(spec: QDistSpec, m: float, r: float, n: int,
                  upper: str = "extended") -> float:
    """E[(m[X]_q + r)^n] by series summation, with two limit conventions.

    upper="extended" is the convergent form: for euler,
    ehat_q(-lambda) sum_l lambda^l/[l]_q! (m[l]_q+r)^n taken to the
    truncation tolerance; for heine, the exact finite double sum over
    0 <= l <= n, 0 <= i <= n-l with summand
    (-1)^i q^(C(l,2)+2C(i,2)+l*i) lambda^(l+i) (m[l]_q+r)^n
    / ([l]_q! [i]_q! prod_{j<=l+i}(1+lambda(1-q)q^(j-1))),
    which regroups the factorial-moment expansion term by term.

    upper="truncated" instead cuts every limit at n (and flips the heine
    exponent to q^(-C(l,2)-l*i)); that variant does NOT equal the moment
    and exists so the discrepancy can be measured and reported.
    """
    if upper not in ("truncated", "extended"):
        raise ValueError("upper must be 'truncated' or 'extended'")
    if n < 0:
        raise DomainError("n must be >= 0")
    q, lam = spec.q, spec.lam

    if spec.family == "euler":
        norm = q_exp_hat(-lam, q)
        total = 0.0
        fact = 1.0
        quiet = 0
        for ell in range(n + 1 if upper == "truncated" else TERM_CAP + 1):
            term = lam**ell / fact * (m * q_int_at(ell, q) + r) ** n
            total += term
            quiet = quiet + 1 if abs(term) < SERIES_TOL * max(abs(total), 1e-300) else 0
            if quiet >= 10 and upper == "extended":
                return norm * total
            fact *= q_int_at(ell + 1, q)
        if upper == "truncated":
            return norm * total
        raise NonConvergenceError("euler moment series did not settle")

    facts = q_int_products(range(1, n + 1), FloatQ(q))
    products = _heine_products(spec, 2 * n)
    total = 0.0
    for ell in range(n + 1):
        inner_cap = n if upper == "truncated" else n - ell
        for i in range(inner_cap + 1):
            if upper == "truncated":
                factor = (-lam) ** i * q ** (-comb(ell, 2) - ell * i)
            else:
                sign = -1.0 if i % 2 else 1.0
                factor = sign * lam**i * q ** (comb(ell, 2) + 2 * comb(i, 2) + ell * i)
            den = facts[ell] * facts[i]
            total += (factor * lam**ell / den * (m * q_int_at(ell, q) + r) ** n
                      / products[ell + i])
    return total


def sample_batches(spec: QDistSpec, count: int, seed: int) -> Iterator[list[int]]:
    """The draws of `sample`, SAMPLE_BATCH at a time (the last list shorter).

    Inverse-CDF draws from one random.Random(seed), so the concatenated
    batches do not depend on the batch size.  The cumulative table `cdf` is
    the running sum of `pmf_walk(spec)`, cut off at the mass floor; draws past
    the cutoff clamp to the last tabulated outcome.  Draw i's outcome is
    min(bisect_right(cdf, u_i / 2**53), len(cdf) - 1) for the double u_i / 2**53
    that the generator's random() would return.

    random() reads two 32-bit Mersenne Twister words a, b and returns
    u / 2**53 with u = (a >> 5) * 2**26 + (b >> 6).  getrandbits(64 k) reads
    the same 2 k words in the same order and puts each draw's a in the low
    half of its 64 bits, so in its little-endian bytes raw[8i:8i+8] holds the
    words of draw i.  The key (a >> 5) << 37 | b orders draws as u does, and
    `_least_key` turns each cdf entry into the least key that reaches it; the
    last becomes 2**64, above every key, which is the clamp.  raw[8i+3], the
    top byte v of a, places the draw in [v/256, (v+1)/256).  `_byte_table`
    gives the outcome of each such cell, so one bytes.translate of raw[3::8]
    maps a whole batch.  A cell that a cdf step splits, or whose outcome is
    255 or more, holds the sentinel 255; each draw there is searched by key.
    """
    if count < 0:
        raise DomainError("count must be >= 0")
    cuts = [_least_key(c) for c in accumulate(pmf_walk(spec))]
    cuts[-1] = 2**64
    table = _byte_table(cuts)
    rng = random.Random(seed)
    for start in range(0, count, SAMPLE_BATCH):
        k = min(SAMPLE_BATCH, count - start)
        raw = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        codes = raw[3::8].translate(table)
        batch = list(codes)
        keys = _draw_keys(raw)
        for match in _EXACT_CELL.finditer(codes):
            i = match.start()
            batch[i] = bisect_right(cuts, keys[i])
        yield batch


def _least_key(c: float) -> int:
    """The least key (a >> 5) << 37 | b whose draw u / 2**53 is at least c."""
    u = ceil(c * 2**53)
    return u >> 26 << 37 | (u & (2**26 - 1)) << 6


def _draw_keys(raw: bytes) -> memoryview:
    """The key (a >> 5) << 37 | b of every draw in raw, as native 64-bit
    integers: a << 32 | b with the five low bits of a cleared."""
    buf = bytearray(len(raw))
    for lane, source in enumerate(_KEY_LANES):
        buf[lane::8] = raw[source::8].translate(_DROP_LOW5) if source == 0 else raw[source::8]
    return memoryview(buf).cast("Q")


def _byte_table(cuts: list[int]) -> bytes:
    """For v = 0..255, the outcome of every key whose top byte is v, or
    _EXACT when the cell's first and last key search to different outcomes
    or the outcome does not fit below _EXACT."""
    cells = []
    for v in range(256):
        first = bisect_right(cuts, v << 56)
        last = bisect_right(cuts, (v + 1 << 56) - 1)
        cells.append(first if first == last and first < _EXACT else _EXACT)
    return bytes(cells)


def sample(spec: QDistSpec, count: int, seed: int) -> list[int]:
    """Inverse-CDF draws, deterministic for a fixed seed: `sample_batches` in one list."""
    return list(chain.from_iterable(sample_batches(spec, count, seed)))


def sample_by_search(spec: QDistSpec, count: int, seed: int) -> list[int]:
    """The first count draws of `sample` by the route `sample_batches`
    replaces, and the one `dist --op sample` checks its first batch against:
    one random() and one bisect of the cumulative table per draw, clamped to
    the last tabulated outcome.  It shares only `pmf_walk` with the batches."""
    cdf = list(accumulate(pmf_walk(spec)))
    cdf[-1] = inf  # a draw at or past the cutoff lands on the last outcome
    draw = random.Random(seed).random
    return [bisect_right(cdf, draw()) for _ in range(count)]
