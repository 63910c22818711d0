"""Catalogue of checkable identities, plus binomial and Hankel transforms.

Every identity in the catalogue compares a left side against an independently
computed right side at explicit index/parameter points.  Each is a module-level
generator cells(params, nmax) that yields one (indices, lhs, rhs) per check,
indices being a dict such as {"n": n, "k": k}; a generator that serves several
identities takes a table key first.  `_CHECKERS` binds each key and wraps each
generator in `_checker`, whose `report.Checks` judges each check as it is made.

The convolution identities internally use shifted parameter families: the
summand triangles belong to (m q^s, m [s]_q + r) for a shift s derived from
the indices, never supplied by callers.

Each checker reads one triangle per (kind, params, shift), built to the rows it
reads, and each power sequence from one list per point.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from enum import Enum
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, product
from math import comb, lcm
from operator import add, mul, sub

from .errors import (
    DomainError,
    IncompatibleModeError,
    InsufficientSequenceError,
    UnknownIdentityError,
)
from .modes import RationalQ, Scalar, divide_exact
from .qcore import powers
from .report import Checks, IdentityReport
from .whitney import (
    WhitneyParams,
    defining_sides,
    dowling_sequence,
    whitney_first_triangle,
    whitney_second_triangle,
)


class IdentityId(str, Enum):
    VERTICAL_FIRST = "vertical_first"
    VERTICAL_SECOND = "vertical_second"
    HORIZONTAL_FIRST = "horizontal_first"
    HORIZONTAL_SECOND = "horizontal_second"
    GENFUNC_SECOND = "genfunc_second"
    BOUNDARY = "boundary"
    R_DECOMP_FIRST = "r_decomp_first"
    R_DECOMP_SECOND = "r_decomp_second"
    R_SHIFT = "r_shift"
    CONVO_FIRST_A = "convo_first_a"
    CONVO_FIRST_B = "convo_first_b"
    CONVO_SECOND_A = "convo_second_a"
    CONVO_SECOND_B = "convo_second_b"
    DOWLING_BINOMIAL_FWD = "dowling_binomial_fwd"
    DOWLING_BINOMIAL_INV = "dowling_binomial_inv"
    ORTHOGONALITY = "orthogonality"
    PRIVAULT_Q = "privault_q"
    DEFINING_FIRST = "defining_first"
    DEFINING_SECOND = "defining_second"


#: (m, r) lattice used by the CLI and the acceptance suite.
DEFAULT_GRID: tuple[tuple[Fraction, Fraction], ...] = tuple(
    (Fraction(m), Fraction(r))
    for m, r in product((1, 2, Fraction(3, 2)), (0, 1, Fraction(5, 2)))
)

#: Row cap applied to orthogonality and to p+j in the convolutions.
HEAVY_CAP = 10

#: Argument cap for the defining relations.
DEFINING_ELL_CAP = 6

#: x values probed by the Dowling polynomial identity.
PRIVAULT_X_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3))

DEFAULT_NMAX_CEILING = 12


def _checker(identity: IdentityId, cells: Callable) -> Callable:
    """The checker of identity: the Checks of the cells(params, nmax) stream."""
    name = identity.value

    def check(params, nmax):
        return Checks(name, params, list(cells(params, nmax)))

    return check


#: The recurrence identities, first-order Horner sums in w = weight(i(n, k)):
#: (kind, layout, op, i(n, k), q-exponent b(n, k), q-exponent s(n, k)), where
#:   vertical:    T(n+1, k+1) = q^s A_n(k) for n < nmax, with
#:                A_n(k) = op(q^b T(n, k), w A_(n-1)(k)) down column k and A_(k-1)(k) = 0;
#:   horizontal:  T(n, k) = q^s B(k) for n <= nmax, with
#:                B(k) = op(q^b T(n+1, k+1), w B(k+1)) along row n+1 and B(n+1) = 0.
_RECURRENCES = {
    IdentityId.VERTICAL_FIRST: ("first", "vertical", sub, lambda n, k: n,
                                lambda n, k: comb(n, 2), lambda n, k: -comb(n + 1, 2)),
    IdentityId.VERTICAL_SECOND: ("second", "vertical", add, lambda n, k: k + 1,
                                 lambda n, k: 0, lambda n, k: k),
    IdentityId.HORIZONTAL_FIRST: ("first", "horizontal", add, lambda n, k: n,
                                  lambda n, k: 0, lambda n, k: n),
    IdentityId.HORIZONTAL_SECOND: ("second", "horizontal", sub, lambda n, k: k + 1,
                                   lambda n, k: -comb(k + 1, 2), lambda n, k: comb(k, 2)),
}


def _recurrence(identity: IdentityId, params, nmax):
    kind, layout, op, index, b, s = _RECURRENCES[identity]
    vertical = layout == "vertical"
    build = whitney_first_triangle if kind == "first" else whitney_second_triangle
    last = nmax if vertical else nmax + 1
    # A horizontal left side on row n needs row n+1: one extra base row.
    rows = build(params, last).rows
    mode = params.qmode
    acc = []
    for n in range(last):
        if vertical:
            acc.append(0)
        else:
            acc = [0] * (n + 2)
        for k in range(n + 1) if vertical else range(n, -1, -1):
            t = rows[n][k] if vertical else rows[n + 1][k + 1]
            e = b(n, k)
            acc[k] = op(mode.q_power(e) * t if e else t,
                        params.weight(index(n, k)) * acc[k if vertical else k + 1])
        for k in range(n + 1):
            yield ({"n": n, "k": k}, rows[n + 1][k + 1] if vertical else rows[n][k],
                   mode.q_power(s(n, k)) * acc[k])


def _genfunc_second(params, nmax):
    tri = whitney_second_triangle(params, nmax)
    mode = params.qmode
    den = [mode.q_power(0)]
    for k in range(nmax + 1):
        # Denominator prod_{i=0..k} (1 - weight(i) t) as coefficients in t:
        # the one for k - 1 times (1 - weight(k) t).
        w = params.weight(k)
        den = [den[0]] + [high - w * low for high, low in zip(den[1:] + [0], den)]
        # Multiply through and equate coefficients: c_n solves the recurrence.
        coeffs = []
        for n in range(nmax + 1):
            terms = [(-1, den[j], coeffs[n - j]) for j in range(1, min(n, k + 1) + 1)]
            if n == k:
                terms.append((mode.q_power(comb(k, 2)),))
            c = mode.sum_of_products(terms)
            coeffs.append(c)
            yield {"k": k, "n": n}, c, tri.value(n, k)


def _boundary(params, nmax):
    w = whitney_first_triangle(params, nmax)
    W = whitney_second_triangle(params, nmax)
    mode = params.qmode
    prod = mode.q_power(0)
    for n in range(nmax + 1):
        qneg = mode.q_power(-comb(n, 2))
        yield ({"n": n, "entry": "first_k0"}, w.value(n, 0),
               qneg * prod if n % 2 == 0 else -(qneg * prod))
        yield {"n": n, "entry": "first_kn"}, w.value(n, n), qneg
        yield ({"n": n, "entry": "second_k0"}, W.value(n, 0),
               mode.of(params.r) ** n * mode.q_power(0))
        yield {"n": n, "entry": "second_kn"}, W.value(n, n), mode.q_power(comb(n, 2))
        prod = prod * params.weight(n)


def _r_splits(params) -> list[tuple[Fraction, Fraction]]:
    r1_values = {Fraction(0), Fraction(1), params.r - 1}
    return sorted((r1, params.r - r1) for r1 in r1_values)


def _r_decomposition(params, kind: str, r1: Fraction, nmax: int):
    """Yield (n, k, T_r(n,k), rhs) splitting r = r1 + r2 for one kind.

    With B_x(a,b) = C(a,b) x^(a-b), the first kind is w_r = w_r1 B_(-r2) and
    the second kind is W_r = B_r2 W_r1, as products of lower triangles.
    """
    build = whitney_first_triangle if kind == "first" else whitney_second_triangle
    tri = build(params, nmax)
    part = build(WhitneyParams(params.m, r1, params.qmode), nmax)
    x = r1 - params.r if kind == "first" else params.r - r1
    binom = [[comb(a, b) * x ** (a - b) for b in range(a + 1)] for a in range(nmax + 1)]
    rows = part.rows
    total = params.qmode.sum_of_products
    for n in range(nmax + 1):
        for k in range(n + 1):
            if kind == "first":
                rhs = total([(rows[n][j], binom[j][k]) for j in range(k, n + 1)])
            else:
                rhs = total([(binom[n][j], rows[j][k]) for j in range(n, k - 1, -1)])
            yield n, k, tri.value(n, k), rhs


def _r_decomp(kind: str, params, nmax):
    for r1, r2 in _r_splits(params):
        for n, k, lhs, rhs in _r_decomposition(params, kind, r1, nmax):
            yield {"r1": str(r1), "r2": str(r2), "n": n, "k": k}, lhs, rhs


def _r_shift(params, nmax):
    # The r1 = r - 1 split of both kinds, interleaved cell by cell.
    kinds = ("first", "second")
    streams = [_r_decomposition(params, kind, params.r - 1, nmax) for kind in kinds]
    for cells in zip(*streams):
        for kind, (n, k, lhs, rhs) in zip(kinds, cells):
            yield {"kind": kind, "n": n, "k": k}, lhs, rhs


#: The convolution identities, one A-tableau argument per row:
#: (kind, layout, shift s(p, k), outer q-exponent in (p, j), inner q-exponent
#: in (n, k)), where S is the kind's triangle of the family shifted by s and
#:   row:     T(p+j, n)     = q^outer sum_k q^inner T(p, k) S(j, n-k)
#:   column:  T(n+1, p+j+1) = q^outer sum_k q^inner T(k, p) S(n-k, j).
_CONVOLUTIONS = {
    IdentityId.CONVO_FIRST_A: ("first", "row", lambda p, k: p,
                               lambda p, j: -p * j, lambda n, k: 0),
    IdentityId.CONVO_FIRST_B: ("first", "column", lambda p, k: k + 1,
                               lambda p, j: 0, lambda n, k: k * k - n * k - n),
    IdentityId.CONVO_SECOND_A: ("second", "column", lambda p, k: p + 1,
                                lambda p, j: p + p * j + j, lambda n, k: 0),
    IdentityId.CONVO_SECOND_B: ("second", "row", lambda p, k: k,
                                lambda p, j: 0, lambda n, k: n * k - k * k),
}


def _convolution(identity: IdentityId, params, nmax):
    kind, layout, shift, outer, inner = _CONVOLUTIONS[identity]
    row = layout == "row"
    build = whitney_first_triangle if kind == "first" else whitney_second_triangle
    cap = min(nmax, HEAVY_CAP)
    # A column layout's left side lives on row n+1: one extra base row,
    # also asked for in the row layout, so tri is the shift-0 cache entry.
    tri = build(params, cap + 1)
    # Shift s is read to row cap - s in a row layout (row j <= cap - p, with
    # s = p in first_a and s = k <= p in second_b) and to row cap + 1 - s in
    # a column layout (row n - k <= cap - k, with s = k + 1 in first_b and
    # s = p + 1 <= k + 1 in second_a); s <= cap + 1, so cap + 1 - s serves all four.
    shifts = sorted({shift(p, k) for p in range(cap + 1) for k in range(cap + 1)})
    shifted = {s: build(params, cap + 1 - s, shift=s).rows for s in shifts}
    rows = tri.rows
    mode = params.qmode
    for p in range(cap + 1):
        for j in range(cap - p + 1):
            for n in range(p + j + 1) if row else range(p + j, cap + 1):
                # Only the k where both factors lie inside their triangles,
                # so the rows are indexed directly.
                band = range(max(0, n - j), min(n, p) + 1) if row else range(p, n - j + 1)
                terms = []
                for k in band:
                    a = rows[p][k] if row else rows[k][p]
                    if a:
                        s = shifted[shift(p, k)]
                        b = s[j][n - k] if row else s[n - k][j]
                        e = inner(n, k)
                        terms.append((mode.q_power(e), a, b) if e else (a, b))
                rhs = mode.sum_of_products(terms)
                e = outer(p, j)
                if e:
                    rhs = mode.q_power(e) * rhs
                lhs = tri.value(p + j, n) if row else tri.value(n + 1, p + j + 1)
                yield {"p": p, "j": j, "n": n}, lhs, rhs


def _dowling_binomial(inverse: bool, params, nmax):
    # D_(r+1) is the binomial transform of D_r; the inverse recovers D_r.
    seq = dowling_sequence(params, nmax)
    up = dowling_sequence(WhitneyParams(params.m, params.r + 1, params.qmode), nmax)
    lhs, rhs = (seq, binomial_inverse(up)) if inverse else (up, binomial_transform(seq))
    yield from zip([{"n": n} for n in range(nmax + 1)], lhs, rhs)


def _orthogonality(params, nmax):
    cap = min(nmax, HEAVY_CAP)
    w = whitney_first_triangle(params, cap).rows
    W = whitney_second_triangle(params, cap).rows
    mode = params.qmode
    one = mode.q_power(0)
    for n in range(cap + 1):
        for j in range(n + 1):
            target = one if n == j else 0
            for direction, a, b in (("wW", w, W), ("Ww", W, w)):
                lhs = mode.sum_of_products([(a[n][k], b[k][j]) for k in range(j, n + 1)])
                yield {"n": n, "j": j, "direction": direction}, lhs, target


def _privault_q(params, nmax):
    cap = min(nmax, HEAVY_CAP)
    mode = params.qmode
    rows = whitney_second_triangle(params, cap).rows
    stirling = whitney_second_triangle(
        WhitneyParams(Fraction(1), Fraction(0), mode), cap)
    mpow, rpow = powers(mode.of(params.m), cap), powers(mode.of(params.r), cap)
    # inner[x][k] = sum_j m^(k-j) S(k,j) x^j does not depend on n.
    inner, xpows = {}, {}
    for x in PRIVAULT_X_VALUES:
        xpow = xpows[x] = powers(mode.of(x), cap)
        inner[x] = [mode.sum_of_products([(mpow[k - j], s, xpow[j])
                                          for j, s in enumerate(row) if s])
                    for k, row in enumerate(stirling.rows)]
    for n in range(cap + 1):
        for x in PRIVAULT_X_VALUES:
            rhs = mode.sum_of_products([(comb(n, k), rpow[n - k], acc)
                                        for k, acc in enumerate(inner[x][:n + 1])])
            lhs = reduce(add, map(mul, rows[n], xpows[x]))
            yield {"n": n, "x": str(x)}, lhs, rhs


def _defining(kind: str, params, nmax):
    for ell in range(DEFINING_ELL_CAP + 1):
        for n, sides in enumerate(defining_sides(kind, params, ell, nmax)):
            yield ({"ell": ell, "n": n}, *sides)


_CHECKERS = {identity: _checker(identity, cells) for identity, cells in [
    *[(identity, partial(_recurrence, identity)) for identity in _RECURRENCES],
    (IdentityId.GENFUNC_SECOND, _genfunc_second),
    (IdentityId.BOUNDARY, _boundary),
    (IdentityId.R_DECOMP_FIRST, partial(_r_decomp, "first")),
    (IdentityId.R_DECOMP_SECOND, partial(_r_decomp, "second")),
    (IdentityId.R_SHIFT, _r_shift),
    *[(identity, partial(_convolution, identity)) for identity in _CONVOLUTIONS],
    (IdentityId.DOWLING_BINOMIAL_FWD, partial(_dowling_binomial, False)),
    (IdentityId.DOWLING_BINOMIAL_INV, partial(_dowling_binomial, True)),
    (IdentityId.ORTHOGONALITY, _orthogonality),
    (IdentityId.PRIVAULT_Q, _privault_q),
    (IdentityId.DEFINING_FIRST, partial(_defining, "first")),
    (IdentityId.DEFINING_SECOND, partial(_defining, "second")),
]}


def identity_id(name) -> IdentityId:
    """The catalogue entry called name; UnknownIdentityError if there is none."""
    try:
        return IdentityId(name)
    except ValueError:
        raise UnknownIdentityError(f"unknown identity {name!r}") from None


def check_nmax(nmax: int) -> None:
    """DomainError unless 0 <= nmax <= DEFAULT_NMAX_CEILING, the range `verify` takes."""
    if nmax < 0:
        raise DomainError("nmax must be >= 0")
    if nmax > DEFAULT_NMAX_CEILING:
        raise DomainError(f"nmax {nmax} exceeds the ceiling {DEFAULT_NMAX_CEILING}")


def verify(identity, params: WhitneyParams, nmax: int = DEFAULT_NMAX_CEILING) -> Checks:
    """Check one identity at one parameter point over its index lattice.

    Each check is judged here, by exact equality, so an inexact mode raises
    IncompatibleModeError before any triangle is built.  The result is a
    sequence of IdentityReport whose reports are built when they are read,
    by indexing or iterating.
    """
    identity = identity_id(identity)
    check_nmax(nmax)
    if not params.qmode.is_exact:
        raise IncompatibleModeError(f"verify needs an exact mode, not {params.qmode!r}")
    return _CHECKERS[identity](params, nmax)


def verify_all(params: WhitneyParams,
               nmax: int = DEFAULT_NMAX_CEILING) -> list[IdentityReport]:
    """Run the whole catalogue at one parameter point."""
    reports = []
    for identity in IdentityId:
        reports.extend(verify(identity, params, nmax))
    return reports


# -- sequence transforms -------------------------------------------------------


def binomial_transform(seq: Sequence[Scalar]) -> list[Scalar]:
    """f_n = sum_j C(n,j) g_j."""
    if not seq:
        raise ValueError("binomial_transform needs a nonempty sequence")
    return [sum(comb(n, j) * seq[j] for j in range(n + 1)) for n in range(len(seq))]


def binomial_inverse(seq: Sequence[Scalar]) -> list[Scalar]:
    """g_n = sum_j (-1)^(n-j) C(n,j) f_j; inverse of binomial_transform."""
    if not seq:
        raise ValueError("binomial_inverse needs a nonempty sequence")
    return [sum((-1) ** (n - j) * comb(n, j) * seq[j] for j in range(n + 1))
            for n in range(len(seq))]


def _eliminate(m: list[list], col: int, prev) -> None:
    """One Bareiss step on pivot m[col][col]: rows and columns past col, in place."""
    pivot = m[col][col]
    row_c = m[col]
    for i in range(col + 1, len(m)):
        row_i = m[i]
        ric = row_i[col]
        for j in range(col + 1, len(m)):
            num = row_i[j] * pivot - ric * row_c[j]
            row_i[j] = num if prev == 1 else divide_exact(num, prev)
        row_i[col] = 0


def _on_ints(matrix: list[list]) -> tuple[list[list], list | None]:
    """A copy of matrix to eliminate in place, and its leading minors' denominators.

    A matrix of ints and Fractions (exact types, so bool, float and
    LaurentPoly entries are copied as they are, with None) becomes the int
    matrix N = R M C with R = diag(r_i), C = diag(c_j): r_i is the lcm of the
    denominators in row i at columns <= i and c_j that of column j at rows
    < j, so every r_i m_ij c_j is an int.  Each leading minor of size n of M
    is N's over prod_(i<n) r_i c_i, and det N = det R det M det C survives row
    swaps.  The denominators are None for an all-int matrix.
    """
    types = {type(x) for row in matrix for x in row}
    if Fraction not in types or not types <= {int, Fraction}:
        return [list(row) for row in matrix], None
    size = len(matrix)
    r = [lcm(*(matrix[i][j].denominator for j in range(i + 1))) for i in range(size)]
    c = [lcm(*(matrix[i][j].denominator for i in range(j))) for j in range(size)]
    scaled = [[x.numerator * (r[i] * c[j] // x.denominator) for j, x in enumerate(row)]
              for i, row in enumerate(matrix)]
    return scaled, list(accumulate(map(mul, r, c), mul))


def _det_fraction_free(matrix: list[list]) -> Scalar:
    """Bareiss one-step fraction-free elimination; exact in any exact scalar.

    Rational matrices are eliminated on ints through `_on_ints`; the result is
    a Fraction if any entry is one.
    """
    n = len(matrix)
    m, dens = _on_ints(matrix)
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot_row = next((i for i in range(col, n) if m[i][col]), None)
        if pivot_row is None:
            return 0 if dens is None else Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        _eliminate(m, col, prev)
        prev = m[col][col]
    out = m[n - 1][n - 1] if dens is None else Fraction(m[n - 1][n - 1], dens[-1])
    return out if sign == 1 else -out


def hankel_transform(seq: Sequence[Scalar], order: int) -> list[Scalar]:
    """Determinants of the leading Hankel matrices [seq_(i+j)], sizes 1..order.

    One Bareiss pass without pivoting yields them all: after step col - 1 the
    pivot m[col][col] is the leading minor of size col + 1, formed by the same
    operations as `_det_fraction_free` on that leading block (Bareiss 1968,
    Sylvester's identity).  From the first zero pivot on, the pass cannot go
    on without a row swap, so each larger size is eliminated on its own.
    A rational sequence is scaled to ints once, by `_on_ints`, and both the
    pass and the larger sizes run on the int matrix; every minor is then a
    Fraction if any term is one.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if len(seq) < 2 * order - 1:
        raise InsufficientSequenceError(
            f"need at least {2 * order - 1} terms for order {order}, got {len(seq)}")
    full, dens = _on_ints([[seq[i + j] for j in range(order)] for i in range(order)])
    m = [list(row) for row in full]
    out = []
    prev = 1
    for col in range(order):
        pivot = m[col][col]
        out.append(pivot)
        if not pivot:
            break
        _eliminate(m, col, prev)
        prev = pivot
    out.extend(_det_fraction_free([row[:size] for row in full[:size]])
               for size in range(len(out) + 1, order + 1))
    return out if dens is None else [Fraction(x, d) for x, d in zip(out, dens)]


def hankel_probe(m, r_values: Sequence, q0, order: int) -> dict:
    """Hankel transforms of (D(n))_n at each r value: {Fraction(r): minors}.

    D at r + c is the binomial transform with parameter c of D at r (the
    row sums of r_decomp_second), and Hankel determinants are invariant
    under it (Layman, "The Hankel transform and some of its properties",
    J. Integer Seq. 4, 2001).  So the transforms coincide for any rational
    r values; the probe computes each independently, in the order of
    r_values, for the caller to compare.  m, each r and q0 are ints or
    Fractions, as `WhitneyParams` and `RationalQ` take them; a repeated r
    value is a DomainError, since its row would replace the earlier one.
    """
    mode = RationalQ(q0)
    rows = {}
    for r in r_values:
        params = WhitneyParams(m, r, mode)
        if params.r in rows:
            raise DomainError(f"repeated r value {params.r}")
        seq = dowling_sequence(params, 2 * order - 2 if order else 0)
        rows[params.r] = tuple(hankel_transform(seq, order))
    return rows
