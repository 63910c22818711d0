import copy
import hashlib
import pickle
from fractions import Fraction
from math import comb

import pytest

from qwhitney import whitney
from qwhitney.errors import ZeroMError
from qwhitney.laurent import ONE, LaurentPoly, q_monomial
from qwhitney.modes import SYMBOLIC, FloatQ, RationalQ
from qwhitney.qcore import q_integer
from qwhitney.whitney import (
    WhitneyParams,
    defining_relation_check,
    dowling_number,
    dowling_polynomial,
    dowling_sequence,
    q_stirling_first,
    q_stirling_first_complement,
    q_stirling_second,
    whitney_first_elementary,
    whitney_first_triangle,
    whitney_second_alternating,
    whitney_second_compositions,
    whitney_second_multisets,
    whitney_second_triangle,
)

M, R = Fraction(7, 3), Fraction(2)
PARAMS = WhitneyParams(M, R)
GRID = [(Fraction(1), Fraction(0)), (Fraction(2), Fraction(1)),
        (Fraction(3, 2), Fraction(5, 2))]


@pytest.mark.parametrize("q0", [Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1)])
def test_rational_q_tables_hold_exact_values(q0):
    mode = RationalQ(q0)
    for _ in range(2):  # the second pass reads the tables
        for e in range(-6, 7):
            assert mode.q_power(e) == q0**e
            assert type(mode.q_power(e)) is Fraction
        for n in range(-3, 8):
            assert mode.q_int(n) == (Fraction(n) if q0 == 1 else (q0**n - 1) / (q0 - 1))
    params = WhitneyParams(M, R, mode)
    for _ in range(2):
        for i in range(8):
            assert params.weight(i) == M * sum(q0**j for j in range(i)) + R


@pytest.mark.parametrize("q0", [Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(1)])
def test_modes_agree_on_q_integers_of_either_sign(q0):
    for n in range(-4, 5):
        exact = RationalQ(q0).q_int(n)
        assert SYMBOLIC.q_int(n).evaluate(q0) == exact
        assert FloatQ(float(q0)).q_int(n) == pytest.approx(float(exact), rel=1e-12)
    assert q_integer(-3) == LaurentPoly(-3, (-1, -1, -1))  # -(q^-3 + q^-2 + q^-1)
    assert WhitneyParams(M, R).weight(-1) == M * q_integer(-1) + R


def test_symbolic_tables_hold_exact_values():
    for _ in range(2):
        for e in range(-6, 7):
            assert SYMBOLIC.q_power(e) == q_monomial(e)
        for i in range(8):
            assert PARAMS.weight(i) == M * q_integer(i) + R


@pytest.mark.parametrize("mode", [RationalQ(Fraction(-1, 2)), SYMBOLIC, FloatQ(0.5)],
                         ids=["rational", "symbolic", "float"])
def test_warm_tables_leave_equality_hash_and_repr_alone(mode):
    fresh_mode = RationalQ(mode.q0) if isinstance(mode, RationalQ) else mode
    warm = WhitneyParams(Fraction(3, 2), Fraction(5, 2), mode)
    for i in range(-3, 9):
        mode.q_power(i)
        warm.weight(max(i, 0))
        warm.point(n=i)
    fresh = WhitneyParams(Fraction(3, 2), Fraction(5, 2), fresh_mode)
    assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
    for clone in (copy.copy(warm), copy.deepcopy(warm), pickle.loads(pickle.dumps(warm))):
        # A copy is rebuilt from the fields, so its memo tables start empty.
        assert clone == fresh and hash(clone) == hash(fresh) and not clone._weights
    assert mode == fresh_mode and hash(mode) == hash(fresh_mode)
    assert repr(mode) == repr(fresh_mode)
    assert repr(RationalQ(Fraction(-1, 2))) == "RationalQ(q0=Fraction(-1, 2))"
    assert repr(fresh).startswith("WhitneyParams(m=Fraction(3, 2), r=Fraction(5, 2), qmode=")


def test_point_is_a_fresh_dict_per_report():
    params = WhitneyParams(Fraction(3, 2), Fraction(5, 2), RationalQ(Fraction(-1, 2)))
    first = params.point(n=1, k=0)
    assert first == {"m": "3/2", "r": "5/2", "qmode": "rational", "q0": "-1/2", "n": 1, "k": 0}
    assert list(first) == ["m", "r", "qmode", "q0", "n", "k"]
    first["m"] = "changed"
    assert params.point(n=2) == {"m": "3/2", "r": "5/2", "qmode": "rational", "q0": "-1/2",
                                 "n": 2}


def test_triangle_cache_hits_for_a_fresh_equal_params():
    def make():
        return WhitneyParams(Fraction(11, 7), Fraction(3, 5), RationalQ(Fraction(2, 9)))

    warm = make()
    warm.weight(4)
    before = whitney._first_rows.cache_info()
    whitney_first_triangle(warm, 4)
    whitney_first_triangle(make(), 4)
    after = whitney._first_rows.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)


def test_params_validation():
    with pytest.raises(TypeError):
        WhitneyParams(1.5, 0)  # float m needs float mode
    with pytest.raises(ValueError):
        RationalQ(Fraction(0))
    p = WhitneyParams(1.5, 0.25, FloatQ(0.5))
    assert p.m == Fraction(3, 2) and p.r == Fraction(1, 4)


def test_first_kind_small_entries():
    tri = whitney_first_triangle(PARAMS, 3)
    assert tri.value(0, 0) == ONE
    assert tri.value(1, 0) == -R
    assert tri.value(3, 3) == q_monomial(-3)
    assert tri.value(2, 1) == q_monomial(-1, -(M + 2 * R))
    assert tri.value(5, 2) == 0  # outside the built range
    assert tri.value(2, 3) == 0 and tri.value(2, -1) == 0


def test_second_kind_small_entries():
    tri = whitney_second_triangle(PARAMS, 3)
    assert tri.value(3, 0) == R**3
    assert tri.value(2, 2) == q_monomial(1)
    assert tri.value(3, 1) == M**2 + 3 * M * R + 3 * R**2


def test_first_boundaries():
    tri = whitney_first_triangle(PARAMS, 6)
    for n in range(7):
        assert tri.value(n, n) == q_monomial(-comb(n, 2))
        prod = ONE
        for i in range(n):
            prod = prod * PARAMS.weight(i)
        expect = q_monomial(-comb(n, 2)) * prod
        assert tri.value(n, 0) == (expect if n % 2 == 0 else -expect)


def test_algorithm_agreement_small():
    for m, r in GRID:
        p = WhitneyParams(m, r)
        w = whitney_first_triangle(p, 7)
        W = whitney_second_triangle(p, 7)
        for n in range(8):
            for k in range(n + 1):
                assert whitney_first_elementary(p, n, k) == w.value(n, k)
                assert whitney_second_compositions(p, n, k) == W.value(n, k)
                assert whitney_second_multisets(p, n, k) == W.value(n, k)
                assert whitney_second_alternating(p, n, k) == W.value(n, k)


def test_elementary_form_examples():
    p = PARAMS
    assert whitney_first_elementary(p, 4, 4) == q_monomial(-comb(4, 2))
    assert whitney_first_elementary(p, 2, 0) == q_monomial(-1) * R * (M + R)
    assert whitney_first_elementary(p, 2, 1) == q_monomial(-1, -(M + 2 * R))


def test_composition_form_examples():
    p = PARAMS
    assert whitney_second_compositions(p, 3, 3) == q_monomial(comb(3, 2))
    assert whitney_second_compositions(p, 2, 1) == M + 2 * R
    assert whitney_second_compositions(p, 2, 0) == R**2


def test_multiset_form_examples():
    p = PARAMS
    assert whitney_second_multisets(p, 4, 4) == q_monomial(comb(4, 2))
    assert whitney_second_multisets(p, 2, 0) == R**2
    assert whitney_second_multisets(p, 3, 1) == M**2 + 3 * M * R + 3 * R**2


def test_alternating_form_requires_nonzero_m():
    p = WhitneyParams(Fraction(0), Fraction(2))
    with pytest.raises(ZeroMError):
        whitney_second_alternating(p, 2, 1)
    # the other algorithms are fine at m = 0
    assert whitney_second_multisets(p, 2, 1) == 2 * Fraction(2)


def test_rational_mode_matches_symbolic_evaluation():
    q0 = Fraction(3, 5)
    sym = WhitneyParams(M, R)
    rat = WhitneyParams(M, R, RationalQ(q0))
    ws = whitney_first_triangle(sym, 6)
    wr = whitney_first_triangle(rat, 6)
    for n in range(7):
        for k in range(n + 1):
            assert ws.value(n, k).evaluate(q0) == wr.value(n, k)


def test_float_mode_runs():
    p = WhitneyParams(2, 1, FloatQ(0.5))
    tri = whitney_second_triangle(p, 4)
    sym = whitney_second_triangle(WhitneyParams(2, 1), 4)
    for n in range(5):
        for k in range(n + 1):
            assert tri.value(n, k) == pytest.approx(sym.value(n, k).evaluate(0.5))


def test_shifted_family_matches_reparameterization():
    # shift s is the same family as (m q^s, m [s]_q + r); at rational q that
    # reparameterization can be built directly.
    q0 = Fraction(2, 7)
    mode = RationalQ(q0)
    base = WhitneyParams(M, R, mode)
    s = 3
    mbar = M * q0**s
    rbar = M * sum(q0**i for i in range(s)) + R
    direct = whitney_first_triangle(WhitneyParams(mbar, rbar, mode), 5)
    shifted = whitney_first_triangle(base, 5, shift=s)
    for n in range(6):
        for k in range(n + 1):
            assert direct.value(n, k) == shifted.value(n, k)


# (m, r) pairs whose common denominator d is 1, 2, 3 and 6, with m = 0 and
# negative m among them.
KERNEL_PARAMS = [
    (Fraction(0), Fraction(0)), (Fraction(0), Fraction(-5, 2)),
    (Fraction(1), Fraction(0)), (Fraction(-2), Fraction(3)),
    (Fraction(3, 2), Fraction(5, 2)), (Fraction(-3, 2), Fraction(2)),
    (Fraction(-1), Fraction(1, 3)), (Fraction(2, 3), Fraction(-4, 3)),
    (Fraction(-7, 6), Fraction(1, 2)), (Fraction(5, 6), Fraction(-1, 3)),
]


def _exact_form(cell):
    """Canonical text plus the stored valuation and coefficient types.

    Canonical text alone prints Fraction(3, 1) as "3", so the types are
    compared too; a stray zero coefficient changes the stored run.
    """
    return str(cell), cell.val, [(type(c), c) for c in cell.coeffs]


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("m,r", KERNEL_PARAMS)
def test_symbolic_kernel_matches_generic_recurrence(kind, m, r):
    # Both builders read the same step table, so this checks how the integer
    # kernel represents the rows: denominators cleared, q^-C(n) taken out and
    # put back, trailing zeros trimmed.  The recurrence coefficients are
    # checked by the closed forms, the tableau sums and `verify`.
    params = WhitneyParams(m, r)
    build = whitney_first_triangle if kind == "first" else whitney_second_triangle
    for shift, nmax in ((0, 12), (1, 9), (2, 7), (3, 12)):
        rows = build(params, nmax, shift=shift).rows
        expect = whitney._rows_recurrence(kind, params, nmax, shift)
        assert rows == expect
        for n in range(nmax + 1):
            assert len(rows[n]) == n + 1
            for k in range(n + 1):
                assert _exact_form(rows[n][k]) == _exact_form(expect[n][k]), (shift, n, k)


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("r", [Fraction(5, 2), Fraction(0)])
def test_integer_kernel_keeps_no_trailing_zeros_at_zero_m(monkeypatch, kind, r):
    # At M = 0 the weight is the constant R, but `_times_weight` still pads its
    # product by j - 1 zeros; the kept rows must not carry them forward.
    kept = []
    combine = whitney._combine

    def recording(*args):
        kept.append(combine(*args))
        return kept[-1]

    monkeypatch.setattr(whitney, "_combine", recording)
    for shift in (0, 3):
        whitney._rows_integer(kind, WhitneyParams(Fraction(0), r), 12, shift)
    assert kept
    assert not [cell for cell in kept if cell and not cell[-1]]


@pytest.mark.parametrize("mode", [SYMBOLIC, RationalQ(Fraction(1, 2)), FloatQ(0.5)],
                         ids=["symbolic", "rational", "float"])
@pytest.mark.parametrize("build", [whitney_first_triangle, whitney_second_triangle])
@pytest.mark.parametrize("shift", [-1, -3])
def test_negative_shift_is_rejected(mode, build, shift):
    # A shifted family's weights are weight(s + i); [s + i]_q with s + i < 0
    # has negative exponents, which the integer kernel cannot hold, so every
    # mode refuses them rather than return numbers that are wrong somewhere.
    with pytest.raises(ValueError, match="shift"):
        build(WhitneyParams(Fraction(3, 2), Fraction(5, 2), mode), 5, shift=shift)


#: sha256 of the repr of every cell, joined by newlines, over FLOAT_PIN_POINTS
#: and shifts 0 then 2 at nmax 12; recorded before the two kinds shared one
#: step table.  repr keeps the signed zeros of the first kind at r = 0.
FLOAT_PIN_POINTS = [(Fraction(3, 2), Fraction(5, 2)), (Fraction(1), Fraction(0)),
                    (Fraction(-3, 2), Fraction(-1))]
FLOAT_TRIANGLE_SHA256 = {
    (0.5, "first"): "7e4e944c1b2f12eb2504ee5ba024e7da5557b0c81e830a26868b3318c12f3271",
    (0.5, "second"): "bba4e5c84789b22406c48215c39259313ee04bb97b2d25bdf298691078a79141",
    (-0.7, "first"): "63e8362fc7d209ec250469f31dc4b9cf3bdbb687b99b1a72578bcbe94f060e57",
    (-0.7, "second"): "d8262e8120ca83ddcc973d1c21ff7ce36412ed198f6ee7cf98187a777eb57c81",
}


@pytest.mark.parametrize("q,kind", sorted(FLOAT_TRIANGLE_SHA256))
def test_float_triangles_are_pinned_bit_for_bit(q, kind):
    build = whitney_first_triangle if kind == "first" else whitney_second_triangle
    text = "\n".join(repr(cell) for m, r in FLOAT_PIN_POINTS for shift in (0, 2)
                     for row in build(WhitneyParams(m, r, FloatQ(q)), 12, shift).rows
                     for cell in row)
    assert hashlib.sha256(text.encode()).hexdigest() == FLOAT_TRIANGLE_SHA256[q, kind]


def classical_stirling_second(n, k):
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    return classical_stirling_second(n - 1, k - 1) + k * classical_stirling_second(n - 1, k)


def classical_stirling_first_unsigned(n, k):
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    return (classical_stirling_first_unsigned(n - 1, k - 1)
            + (n - 1) * classical_stirling_first_unsigned(n - 1, k))


def test_q_stirling_classical_limits():
    assert q_stirling_first(4, 2).evaluate(1) == 11
    assert q_stirling_second(4, 2).evaluate(1) == 7
    for n in range(7):
        for k in range(n + 1):
            assert q_stirling_first(n, k).evaluate(1) == classical_stirling_first_unsigned(n, k)
            assert q_stirling_second(n, k).evaluate(1) == classical_stirling_second(n, k)


def test_q_stirling_second_diagonal():
    for n in range(6):
        assert q_stirling_second(n, n) == q_monomial(comb(n, 2))


def test_q_stirling_first_complement_form_agrees():
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert q_stirling_first_complement(n, k) == q_stirling_first(n, k), (n, k)


def test_q_stirling_first_unsigned_has_nonnegative_coefficients():
    for n in range(7):
        for k in range(n + 1):
            value = q_stirling_first(n, k)
            if isinstance(value, LaurentPoly):
                assert all(c >= 0 for _, c in value.terms())


def test_first_kind_sign_support():
    # (-1)^(n-k) q^C(n,2) w(n,k) is a weight sum, so nonnegative for m, r >= 0.
    for m, r in GRID:
        p = WhitneyParams(m, r)
        tri = whitney_first_triangle(p, 8)
        for n in range(9):
            for k in range(n + 1):
                v = q_monomial(comb(n, 2)) * tri.value(n, k)
                if (n - k) % 2:
                    v = -v
                assert all(c >= 0 for _, c in v.terms())


def test_dowling_values():
    p = PARAMS
    assert dowling_number(p, 0) == 1
    assert dowling_number(p, 2) == R**2 + M + 2 * R + q_monomial(1)
    for n in range(6):
        assert dowling_polynomial(p, n, 0) == R**n
        assert dowling_polynomial(p, n, 1) == dowling_number(p, n)
    assert dowling_sequence(p, 5)[3] == dowling_number(p, 3)
    # The three folds add the same row entries in the same order, so even
    # float values agree exactly.
    for mode in (RationalQ(Fraction(-1, 2)), FloatQ(0.5), FloatQ(-0.7)):
        p = WhitneyParams(M, R, mode)
        seq = dowling_sequence(p, 6)
        for n in range(7):
            assert dowling_number(p, n) == dowling_polynomial(p, n, 1) == seq[n], (mode, n)
            assert dowling_polynomial(p, n, 0) == R**n, (mode, n)


def test_defining_relation_examples():
    p = WhitneyParams(Fraction(2), Fraction(1))
    for rep in defining_relation_check(p, 0, 3):
        assert rep.passed
    for rep in defining_relation_check(p, 3, 0):
        assert rep.passed and rep.lhs == rep.rhs == 1
    first, second = defining_relation_check(p, 3, 2)
    assert first.passed and second.passed
    assert first.identity == "defining_first"
    assert second.identity == "defining_second"
    # ell = 0 forces the first-kind LHS to zero
    first0, _ = defining_relation_check(p, 0, 4)
    assert first0.lhs == 0 and first0.rhs == 0


def test_orthogonality_small():
    for m, r in GRID:
        p = WhitneyParams(m, r)
        w = whitney_first_triangle(p, 6)
        W = whitney_second_triangle(p, 6)
        for n in range(7):
            for j in range(n + 1):
                acc = 0
                for k in range(j, n + 1):
                    acc = acc + w.value(n, k) * W.value(k, j)
                assert acc == (1 if n == j else 0), (m, r, n, j)


@pytest.mark.parametrize("mode", [SYMBOLIC, RationalQ(Fraction(-1, 2)), FloatQ(0.5)],
                         ids=["symbolic", "rational", "float"])
def test_oracles_do_not_use_the_fused_sum(monkeypatch, mode):
    # The triangle builders, the closed forms, the tableau sums and the
    # Dowling functions check or feed the checkers that use sum_of_products,
    # so they must not share it: each still runs with the primitive removed.
    from qwhitney.tableaux import tableau_sum_first, tableau_sum_second

    def forbidden(terms):
        raise AssertionError("sum_of_products called")

    monkeypatch.setattr(type(mode), "sum_of_products", staticmethod(forbidden))
    params = WhitneyParams(Fraction(3, 2), Fraction(5, 2), mode)
    for build in (whitney._first_rows, whitney._second_rows):
        build.__wrapped__(params, 5, 0)
        build.__wrapped__(params, 5, 2)
    for n, k in ((4, 2), (5, 1)):
        whitney_first_elementary(params, n, k)
        whitney_second_multisets(params, n, k)
        whitney_second_compositions(params, n, k)
        whitney_second_alternating(params, n, k)
        tableau_sum_first(params, n, k)
        tableau_sum_second(params, n, k)
        q_stirling_first_complement(n, k, mode)
    dowling_number(params, 5)
    dowling_polynomial(params, 5, Fraction(1, 2))
    dowling_sequence(params, 5)
