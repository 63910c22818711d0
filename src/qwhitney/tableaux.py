"""Brute-force column-tableau enumeration oracle.

A tableau here is just its list of column lengths, drawn from {0..universe_max},
kept in decreasing order; the `distinct` flag says whether lengths must be
strictly decreasing (sets) or only weakly (multisets).  Column geometry and
fillings carry no extra information for the weight sums and are omitted.

Weighting a column of length L by m [L]_q + r (`tableau_weight`) and summing
over a whole enumeration reproduces Whitney numbers.  `tableau_sum_first` and
`tableau_sum_second` sum over `enumerate_distinct` and `enumerate_weak`:

* distinct lengths from {0..n-1}, n-k columns  ->  (-1)^(n-k) q^C(n,2) w(n,k)
* weak lengths from {0..k}, n-k columns        ->  q^-C(k,2) W(n,k)

These sums are exponential-time on purpose; they are the independent oracle
for the triangle recurrences.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations, combinations_with_replacement

from .modes import Scalar
from .record import Record
from .whitney import WhitneyParams


class ATableau(Record):
    """Column lengths in decreasing order, with their enumeration context."""

    __slots__ = _fields = ("lengths", "distinct", "universe_max")

    def __init__(self, lengths: tuple[int, ...], distinct: bool, universe_max: int):
        if any(c < 0 or c > universe_max for c in lengths):
            raise ValueError("column lengths must lie in 0..universe_max")
        pairs = zip(lengths, lengths[1:])
        if distinct:
            if not all(a > b for a, b in pairs):
                raise ValueError("distinct tableau lengths must strictly decrease")
        elif not all(a >= b for a, b in pairs):
            raise ValueError("tableau lengths must weakly decrease")
        self._set(lengths=lengths, distinct=distinct, universe_max=universe_max)


def enumerate_distinct(universe_max: int, count: int) -> Iterator[ATableau]:
    """All tableaux with `count` distinct column lengths from {0..universe_max}.

    Yields exactly C(universe_max + 1, count) tableaux, in lexicographic
    order of the increasing length vector.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    for combo in combinations(range(universe_max + 1), count):
        yield ATableau(combo[::-1], True, universe_max)


def enumerate_weak(universe_max: int, count: int) -> Iterator[ATableau]:
    """All tableaux with `count` weakly decreasing lengths from {0..universe_max}.

    Yields exactly C(universe_max + count, count) tableaux (multisets), in
    lexicographic order of the increasing length vector.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    for combo in combinations_with_replacement(range(universe_max + 1), count):
        yield ATableau(combo[::-1], False, universe_max)


def tableau_weight(params: WhitneyParams, tableau: ATableau) -> Scalar:
    """Product over columns of m [length]_q + r; empty tableau weighs 1."""
    acc = 1
    for length in tableau.lengths:
        acc = params.weight(length) * acc
    return acc


def tableau_sum_first(params: WhitneyParams, n: int, k: int) -> Scalar:
    """Weight sum over distinct tableaux: {0..n-1} lengths, n-k columns.

    Equals (-1)^(n-k) q^C(n,2) w(n,k) exactly.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return sum(tableau_weight(params, t) for t in enumerate_distinct(n - 1, n - k))


def tableau_sum_second(params: WhitneyParams, n: int, k: int) -> Scalar:
    """Weight sum over weak tableaux: {0..k} lengths, n-k columns.

    Equals q^-C(k,2) W(n,k) exactly.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return sum(tableau_weight(params, t) for t in enumerate_weak(k, n - k))
