import hashlib
import json
import random
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwhitney import identities, report, whitney
from qwhitney.errors import (
    IncompatibleModeError,
    InsufficientSequenceError,
    UnknownIdentityError,
)
from qwhitney.identities import (
    DEFAULT_GRID,
    DEFINING_ELL_CAP,
    IdentityId,
    _det_fraction_free,
    binomial_inverse,
    binomial_transform,
    hankel_probe,
    hankel_transform,
    verify,
    verify_all,
)
from qwhitney.laurent import ZERO, LaurentPoly, q_monomial
from qwhitney.modes import SYMBOLIC, FloatQ, RationalQ, canonical_text
from qwhitney.whitney import (
    WhitneyParams,
    defining_first,
    defining_relation_check,
    defining_second,
    dowling_polynomial,
    dowling_sequence,
    whitney_first_triangle,
)

SMALL_GRID = [(Fraction(1), Fraction(0)), (Fraction(2), Fraction(1)),
              (Fraction(3, 2), Fraction(5, 2))]


@pytest.mark.parametrize("identity", list(IdentityId))
def test_identity_passes_on_small_grid(identity):
    for m, r in SMALL_GRID:
        params = WhitneyParams(m, r)
        reports = verify(identity, params, 5)
        assert reports, identity
        bad = [rep for rep in reports if not rep.passed]
        assert not bad, (identity, bad[:3])


def test_identity_passes_at_rational_q():
    mode = RationalQ(Fraction(4, 7))
    params = WhitneyParams(Fraction(2), Fraction(1), mode)
    for identity in IdentityId:
        assert all(rep.passed for rep in verify(identity, params, 4))


def test_convo_first_a_hand_example():
    # p = j = n = 1: w(2,1) = q^-1 (w(1,0) wbar(1,1) + w(1,1) wbar(1,0))
    # with wbar over the family (m q, m + r), so the right side is
    # q^-1 (-r - (m + r)).
    m, r = Fraction(7, 3), Fraction(2)
    params = WhitneyParams(m, r)
    tri = whitney_first_triangle(params, 2)
    lhs = tri.value(2, 1)
    assert lhs == q_monomial(-1, -(m + 2 * r))
    reports = verify(IdentityId.CONVO_FIRST_A, params, 2)
    rep = next(r_ for r_ in reports if r_.point["p"] == 1 and r_.point["j"] == 1
               and r_.point["n"] == 1)
    assert rep.passed and rep.lhs == lhs


#: Failures per identity at (m, r) = (3/2, 5/2), symbolic q, nmax 4, with the
#: [first, second] kind's triangles corrupted by the corrupt_rows fixture.
CORRUPTED_FAILURES = {
    IdentityId.VERTICAL_FIRST: [9, 0],
    IdentityId.VERTICAL_SECOND: [0, 8],
    IdentityId.HORIZONTAL_FIRST: [14, 0],
    IdentityId.HORIZONTAL_SECOND: [0, 14],
    IdentityId.GENFUNC_SECOND: [0, 12],
    IdentityId.BOUNDARY: [6, 6],
    IdentityId.R_DECOMP_FIRST: [25, 0],
    IdentityId.R_DECOMP_SECOND: [0, 21],
    IdentityId.R_SHIFT: [7, 7],
    IdentityId.CONVO_FIRST_A: [26, 0],
    IdentityId.CONVO_FIRST_B: [34, 0],
    IdentityId.CONVO_SECOND_A: [0, 34],
    IdentityId.CONVO_SECOND_B: [0, 26],
    IdentityId.DOWLING_BINOMIAL_FWD: [0, 2],
    IdentityId.DOWLING_BINOMIAL_INV: [0, 2],
    IdentityId.ORTHOGONALITY: [24, 24],
    IdentityId.PRIVAULT_Q: [0, 15],
    IdentityId.DEFINING_FIRST: [21, 0],
    IdentityId.DEFINING_SECOND: [0, 21],
}


@pytest.mark.parametrize("kind", ["first", "second"])
def test_checkers_fail_on_corrupted_triangles(corrupt_rows, kind):
    corrupt_rows(kind)
    params = WhitneyParams(Fraction(3, 2), Fraction(5, 2))
    pick = 0 if kind == "first" else 1
    failures = {identity: sum(not rep.passed for rep in verify(identity, params, 4))
                for identity in IdentityId}
    assert failures == {identity: pair[pick]
                        for identity, pair in CORRUPTED_FAILURES.items()}


#: sha256 of each convolution's right sides at (m, r) = (3/2, 5/2), nmax 6, as
#: canonical text one per line in report order.  Pinned from sums over every k
#: in 0..n, so summing over the nonzero band only must give the same text.
CONVOLUTION_RHS_SHA256 = {
    ("1/2", IdentityId.CONVO_FIRST_A):
        "7eb9e549a35652f7c1b7c6dce0cea9ad61f8370ba5a8762354b75103d05c2a98",
    ("1/2", IdentityId.CONVO_FIRST_B):
        "7ef216d9507b710deb56e773a1c7202a6190e951f3a050001ab51d0b7e96a19b",
    ("1/2", IdentityId.CONVO_SECOND_A):
        "277b82fcc96cd62c613e8a47de3febc2b5d2357459a90d0c9542920b6c86fec3",
    ("1/2", IdentityId.CONVO_SECOND_B):
        "2b2d20fa4530e7b019baf5bb57a67ad84c8a2cc2aab70ec00b10e9064df0c301",
    ("symbolic", IdentityId.CONVO_FIRST_A):
        "35bfed2f361c8671a60d40704a2ae16f27091f5970297d05d3045313f5cc218e",
    ("symbolic", IdentityId.CONVO_FIRST_B):
        "71ed09af7f7ba25e72ca79d30834fbe4e5136d04da08cd812608a1f99e6b7722",
    ("symbolic", IdentityId.CONVO_SECOND_A):
        "95206ebe5de5cb49b790045ed41a43519494827c73e7735af7794bb9214c0d00",
    ("symbolic", IdentityId.CONVO_SECOND_B):
        "76925aa80dc82390fe6da99e57fd0c47a909b247f7a8a914ebe0ddfa664e8563",
}


def _rhs_digest(q: str, identity: IdentityId, side: str = "rhs") -> str:
    """sha256 of one identity's right sides at (3/2, 5/2), nmax 6; all must pass.

    q is "symbolic", a rational like "-1/2", or a float like "0.5" (float mode).
    side "lhs" digests the left sides instead.
    """
    if q == "symbolic":
        mode = SYMBOLIC
    elif "." in q:
        mode = FloatQ(float(q))
    else:
        mode = RationalQ(Fraction(q))
    reports = verify(identity, WhitneyParams(Fraction(3, 2), Fraction(5, 2), mode), 6)
    assert all(rep.passed for rep in reports)
    text = "".join(canonical_text(getattr(rep, side)) + "\n" for rep in reports)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("q, identity", list(CONVOLUTION_RHS_SHA256))
def test_convolution_right_sides_are_pinned(q, identity):
    assert _rhs_digest(q, identity) == CONVOLUTION_RHS_SHA256[q, identity]


#: sha256 of the canonical-text right sides at (3/2, 5/2), nmax 6, recorded when
#: these checkers still summed growing powers and ratios term by term; the
#: Horner and hoisted forms must give the same exact values.
HORNER_RHS_SHA256 = {
    ("1/2", IdentityId.VERTICAL_FIRST):
        "eb816d4beb340f7e9b52a5f647f57dfa9080ec4306fb462830a5079161804b22",
    ("1/2", IdentityId.VERTICAL_SECOND):
        "b8f44a1414255e7f9d3d4df26845e65bb997640d18682d3d73668d50787d80e1",
    ("1/2", IdentityId.HORIZONTAL_FIRST):
        "a2b30e6d48da25e8a3ad8d5436df726c5b448e6c0dba78a489b3b00bba9eae91",
    ("1/2", IdentityId.HORIZONTAL_SECOND):
        "902975f0864e65bf02d617d72ca01aacca7ad4e54153e5c737d0ff26c40ae59b",
    ("1/2", IdentityId.PRIVAULT_Q):
        "c0b3c2286baa492c777fbb4a2a75f57bb61181e645c366ad1d372279188903ec",
    ("symbolic", IdentityId.VERTICAL_FIRST):
        "37dd71c3d30eb6deef47a1729cad92fd30df9f3d0dfabe5a08cd09b55b0f9a66",
    ("symbolic", IdentityId.VERTICAL_SECOND):
        "2181b1d2b2e0b05a819037c6522f24881605e91531269761b6281f4fad6560d7",
    ("symbolic", IdentityId.HORIZONTAL_FIRST):
        "665a057405fa0c5f4df73fe050fd15ebc984d8e514d4b9717e5434af04cd2dfd",
    ("symbolic", IdentityId.HORIZONTAL_SECOND):
        "2abfa008f3608b8c84adf99c08c6b29aa50cc0497c96bd6c8ad0234f6797a69f",
    ("symbolic", IdentityId.PRIVAULT_Q):
        "c41a3b389a539b9b611ee2b234edb50221d2570818239cfb40657f3ffa0cb0bc",
}


@pytest.mark.parametrize("q, identity", list(HORNER_RHS_SHA256))
def test_horner_right_sides_are_pinned(q, identity):
    assert _rhs_digest(q, identity) == HORNER_RHS_SHA256[q, identity]


RECURRENCE_FAULTS = {
    "op-swapped": lambda entry: (*entry[:2], sub if entry[2] is add else add, *entry[3:]),
    "b-shifted": lambda entry: (*entry[:4], lambda n, k, b=entry[4]: b(n, k) + 1, entry[5]),
}


@pytest.mark.parametrize("fault", list(RECURRENCE_FAULTS))
@pytest.mark.parametrize("identity", list(identities._RECURRENCES))
def test_each_recurrence_entry_is_load_bearing(monkeypatch, identity, fault):
    # A fault in one table entry must change a right side and fail the identity.
    params = WhitneyParams(Fraction(3, 2), Fraction(5, 2))
    clean = verify(identity, params, 4)
    faulty = RECURRENCE_FAULTS[fault](identities._RECURRENCES[identity])
    monkeypatch.setitem(identities._RECURRENCES, identity, faulty)
    monkeypatch.setitem(identities._CHECKERS, identity, identities._check_recurrence(identity))
    patched = verify(identity, params, 4)
    assert [rep.point for rep in patched] == [rep.point for rep in clean]
    assert any(a.rhs != b.rhs for a, b in zip(patched, clean))
    assert not all(rep.passed for rep in patched)


#: sha256 of the canonical-text right sides at (3/2, 5/2), nmax 6, recorded when
#: these sums still ran term by term through Fraction and LaurentPoly `+` and
#: `*`; the fused `sum_of_products` must give the same exact values.  At
#: q = -1/2 negative numerators go through the fused sums.
FUSED_RHS_SHA256 = {
    ("1/2", IdentityId.R_DECOMP_FIRST):
        "66a197819aee31f6114233343282079c90c5fde1adedce862fd66fc57039cb2e",
    ("1/2", IdentityId.R_DECOMP_SECOND):
        "a57604e7b4c756333682a87137c4be7a4da7a55695687bf2c5302e5de6f29c81",
    ("1/2", IdentityId.R_SHIFT):
        "4c5b45ef4cd2ae607f9e38440d8018a461394365da74268ae2688569a9bdff48",
    ("1/2", IdentityId.ORTHOGONALITY):
        "594aca5d5b840a0e0c7f1b27ebc2f31139e5697bb0c5e044a19784c3bd711607",
    ("1/2", IdentityId.DEFINING_FIRST):
        "9ad69d8a59beab55fa5b792043d1bff0292c9ea4317cab457640756dd1b20d54",
    ("1/2", IdentityId.DEFINING_SECOND):
        "beb72b417685935c489f8e4431c151ce6e095f108051487f17eab3bae826c383",
    ("-1/2", IdentityId.R_DECOMP_FIRST):
        "ce2542286040b8e43648bfa124eea7f46350af81fe2497171eaff3ec87b5dcc7",
    ("-1/2", IdentityId.R_DECOMP_SECOND):
        "c766cbb418ea798e0f9073ba37267e3bba32a371d9ebe7c19cb896082497e4df",
    ("-1/2", IdentityId.R_SHIFT):
        "6576653cf0c7495dc988c29009aadfa5b114f565bfd6f2797003eb0723267590",
    ("-1/2", IdentityId.ORTHOGONALITY):
        "594aca5d5b840a0e0c7f1b27ebc2f31139e5697bb0c5e044a19784c3bd711607",
    ("-1/2", IdentityId.DEFINING_FIRST):
        "371854e997d49c60b93841521420de240d87ffe708000cec4ebb50f665dfdffa",
    ("-1/2", IdentityId.DEFINING_SECOND):
        "c787e752423441ec25d85741a28546313f783fa82e18d01841a2b13c417456dd",
    ("-1/2", IdentityId.CONVO_FIRST_A):
        "a1d09e81ad8dc47576e64181feb16762cf53ea535491de3a447f1f18ddd153b2",
    ("-1/2", IdentityId.CONVO_FIRST_B):
        "2a71be6d74c80506c524eb8fd0d8787fe5bbad6dd572dab7c5f597c6c2132848",
    ("-1/2", IdentityId.CONVO_SECOND_A):
        "f85ed55271ff046c6171d2e25a6417a411b264fe61653a496d19963b9b85227a",
    ("-1/2", IdentityId.CONVO_SECOND_B):
        "9e70ae54426518caadd7d3a8258d5dad6c8dd94341a2578e5a262e0d573fb117",
    ("symbolic", IdentityId.R_DECOMP_FIRST):
        "2e1da6ecacad02b449421f20d055a9ba29254387431495b03be9de77e766106e",
    ("symbolic", IdentityId.R_DECOMP_SECOND):
        "9c7d048723cfc9b7bd32923c2c1dfef078cb7747e04faf0955203ea6b2768b9a",
    ("symbolic", IdentityId.R_SHIFT):
        "4c653aec220de88e92e5631e9d402c44494c3bbb0b997d66d0ab2a6138b9ad8c",
    ("symbolic", IdentityId.ORTHOGONALITY):
        "594aca5d5b840a0e0c7f1b27ebc2f31139e5697bb0c5e044a19784c3bd711607",
    ("symbolic", IdentityId.DEFINING_FIRST):
        "2c4bf8dc60f8f336f451f8d4311cb0f4adbc25a5652afc8f0e7d7ddab5bcdbcf",
    ("symbolic", IdentityId.DEFINING_SECOND):
        "2943e24edbcf503bebe3bb8297fe2e88dcc42f10fbd53b2bc060fec3f8517bcd",
}


@pytest.mark.parametrize("q, identity", list(FUSED_RHS_SHA256))
def test_fused_right_sides_are_pinned(q, identity):
    assert _rhs_digest(q, identity) == FUSED_RHS_SHA256[q, identity]


#: The same in float mode, where the sums must stay bit-identical to the
#: left-to-right loops they replace (format .17g, signed zeros included).
#: Orthogonality's summed side is its left side.
FUSED_FLOAT_SHA256 = {
    ("0.5", IdentityId.R_DECOMP_FIRST):
        "fa4b3ce49809382f6790f0076a3aa548af4bdb0bf16d895c6ffdc1316edc5523",
    ("0.5", IdentityId.R_DECOMP_SECOND):
        "781527f4f3658f852043d069659e68d52fb1be9a733216c00b6a56240ecfe1be",
    ("0.5", IdentityId.R_SHIFT):
        "0ccf6bc62190e360cf757412bfa2dbea49f35f0426352323c41196f9f704bb6e",
    ("0.5", IdentityId.CONVO_FIRST_A):
        "135e09c408016460be341573159d2b1fbae4945cbe30a4fde8b69df71bca5b24",
    ("0.5", IdentityId.CONVO_FIRST_B):
        "7ef216d9507b710deb56e773a1c7202a6190e951f3a050001ab51d0b7e96a19b",
    ("0.5", IdentityId.CONVO_SECOND_A):
        "464ed37cf9af4edec6214df9f882618d5db2d8aab191633121071da77046a962",
    ("0.5", IdentityId.CONVO_SECOND_B):
        "b1a4d3d63dbb92b6a6f31b03f5c104284a943489e1c25edc72cc37e6a309a641",
    ("0.5", IdentityId.ORTHOGONALITY):
        "594aca5d5b840a0e0c7f1b27ebc2f31139e5697bb0c5e044a19784c3bd711607",
    ("0.5", IdentityId.PRIVAULT_Q):
        "dcb97b39d0bff8048f940d39fe3b537f38090d4a893c6bea09cfc1552d11a359",
    ("0.5", IdentityId.DEFINING_FIRST):
        "91d2135dd49966bf2b32d59f6c2e01602ec297b85cf77014b4023cc13918265c",
    ("0.5", IdentityId.DEFINING_SECOND):
        "3b44ea3a32be9c202414f57a231c6d6e88b28a39cec29a4bf8987c4f16ea820c",
    ("-0.5", IdentityId.R_DECOMP_FIRST):
        "34cb46a84fff46d420ed3b0ea0f9d35d5c25d4e3bee21e57e048d4b012c25da0",
    ("-0.5", IdentityId.R_DECOMP_SECOND):
        "f9570a6149253b2f0702a94e3ca0737dfdb7f69313051d76c808beed675b6fd4",
    ("-0.5", IdentityId.R_SHIFT):
        "8bb4f1c725766423b42bad8ddd079346395df5d4597dcea2e373a14b4d4cf09a",
    ("-0.5", IdentityId.CONVO_FIRST_A):
        "2aeac5205db5086a683f3617378947294a93b37da25e4be7971a1fc8185dbbee",
    ("-0.5", IdentityId.CONVO_FIRST_B):
        "2a71be6d74c80506c524eb8fd0d8787fe5bbad6dd572dab7c5f597c6c2132848",
    ("-0.5", IdentityId.CONVO_SECOND_A):
        "c28abeac5e1e91dc20e864ae1344672c876b142ef7b15698316d55d1acd00b10",
    ("-0.5", IdentityId.CONVO_SECOND_B):
        "2b10f1646b1dd760595fbbfd2672d60bbb4b83616f73452d166e8a64bc136a41",
    ("-0.5", IdentityId.ORTHOGONALITY):
        "594aca5d5b840a0e0c7f1b27ebc2f31139e5697bb0c5e044a19784c3bd711607",
    ("-0.5", IdentityId.PRIVAULT_Q):
        "ca2227e1d4d7468e9a357a6468045968b10dfc793e0f86bcfcb6f8b62be5acbd",
    ("-0.5", IdentityId.DEFINING_FIRST):
        "221b0ef6c24239b787b3414674d53ea4703ba3a18374ab59c6903c8d45a18286",
    ("-0.5", IdentityId.DEFINING_SECOND):
        "976520fcf41a49a0bbd9c8c067d5161b1eef465ac7aab9a8d5cb4f0d0918bba3",
}


@pytest.mark.parametrize("q, identity", list(FUSED_FLOAT_SHA256))
def test_fused_float_sums_are_pinned(q, identity):
    side = "lhs" if identity is IdentityId.ORTHOGONALITY else "rhs"
    assert _rhs_digest(q, identity, side) == FUSED_FLOAT_SHA256[q, identity]


#: sha256 of the canonical-text left sides at (3/2, 5/2), nmax 6, recorded when
#: privault_q summed each Dowling polynomial from its own size-n triangle,
#: genfunc_second subtracted one product at a time and the defining relations
#: built one triangle per n; reading every row of one triangle, and summing
#: genfunc_second once per coefficient, must give the same text.
LHS_SHA256 = {
    ("symbolic", IdentityId.PRIVAULT_Q):
        "c41a3b389a539b9b611ee2b234edb50221d2570818239cfb40657f3ffa0cb0bc",
    ("1/2", IdentityId.PRIVAULT_Q):
        "c0b3c2286baa492c777fbb4a2a75f57bb61181e645c366ad1d372279188903ec",
    ("-1/2", IdentityId.PRIVAULT_Q):
        "cb7bdfd816ee2756eab3bae54794d39a501214dbf34e0e598ec8a0529f4e761a",
    ("0.5", IdentityId.PRIVAULT_Q):
        "dcb97b39d0bff8048f940d39fe3b537f38090d4a893c6bea09cfc1552d11a359",
    ("-0.5", IdentityId.PRIVAULT_Q):
        "ca2227e1d4d7468e9a357a6468045968b10dfc793e0f86bcfcb6f8b62be5acbd",
    ("symbolic", IdentityId.GENFUNC_SECOND):
        "d6b201580e9bdb6ce5f522da17c80957e2a69d54b3e76eb8ec51c898cf94d999",
    ("1/2", IdentityId.GENFUNC_SECOND):
        "a2a000d050b84adc328adfed19e33dbb743bb65a5f8d3ace5c84a3638ba3699b",
    ("-1/2", IdentityId.GENFUNC_SECOND):
        "fec932124e3bdf19210d3906ad563d8062264bf5fd6ae84a9b17c3430bec9ff3",
    ("symbolic", IdentityId.DEFINING_FIRST):
        "2c4bf8dc60f8f336f451f8d4311cb0f4adbc25a5652afc8f0e7d7ddab5bcdbcf",
    ("1/2", IdentityId.DEFINING_FIRST):
        "9ad69d8a59beab55fa5b792043d1bff0292c9ea4317cab457640756dd1b20d54",
    ("-1/2", IdentityId.DEFINING_FIRST):
        "371854e997d49c60b93841521420de240d87ffe708000cec4ebb50f665dfdffa",
    ("0.5", IdentityId.DEFINING_FIRST):
        "91d2135dd49966bf2b32d59f6c2e01602ec297b85cf77014b4023cc13918265c",
    ("-0.5", IdentityId.DEFINING_FIRST):
        "221b0ef6c24239b787b3414674d53ea4703ba3a18374ab59c6903c8d45a18286",
    ("symbolic", IdentityId.DEFINING_SECOND):
        "2943e24edbcf503bebe3bb8297fe2e88dcc42f10fbd53b2bc060fec3f8517bcd",
    ("1/2", IdentityId.DEFINING_SECOND):
        "beb72b417685935c489f8e4431c151ce6e095f108051487f17eab3bae826c383",
    ("-1/2", IdentityId.DEFINING_SECOND):
        "c787e752423441ec25d85741a28546313f783fa82e18d01841a2b13c417456dd",
    ("0.5", IdentityId.DEFINING_SECOND):
        "3b44ea3a32be9c202414f57a231c6d6e88b28a39cec29a4bf8987c4f16ea820c",
    ("-0.5", IdentityId.DEFINING_SECOND):
        "976520fcf41a49a0bbd9c8c067d5161b1eef465ac7aab9a8d5cb4f0d0918bba3",
}


@pytest.mark.parametrize("q, identity", list(LHS_SHA256))
def test_left_sides_are_pinned(q, identity):
    assert _rhs_digest(q, identity, "lhs") == LHS_SHA256[q, identity]


def _bits(value):
    """value itself in an exact mode; its exact bits, as .hex(), in float mode."""
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("mode", [SYMBOLIC, RationalQ(Fraction(1, 2)), RationalQ(Fraction(-1, 2)),
                                  FloatQ(0.5), FloatQ(-0.5)],
                         ids=["symbolic", "1/2", "-1/2", "float 0.5", "float -0.5"])
def test_per_cell_functions_give_the_checkers_sides(mode):
    # The checkers read rows of one triangle; the public per-cell functions
    # build a triangle per n.  Both must give the same sides, bit for bit.
    params = WhitneyParams(Fraction(3, 2), Fraction(5, 2), mode)
    relations = {IdentityId.DEFINING_FIRST: (0, defining_first),
                 IdentityId.DEFINING_SECOND: (1, defining_second)}
    for identity, (pick, relation) in relations.items():
        reports = verify(identity, params, 8)
        assert len(reports) == (DEFINING_ELL_CAP + 1) * 9
        for rep in reports:
            ell, n = rep.point["ell"], rep.point["n"]
            sides = [_bits(rep.lhs), _bits(rep.rhs)]
            assert [_bits(side) for side in relation(params, ell, n)] == sides
            check = defining_relation_check(params, ell, n)[pick]
            assert [_bits(check.lhs), _bits(check.rhs)] == sides
    reports = verify(IdentityId.PRIVAULT_Q, params, 8)
    assert len(reports) == 9 * len(identities.PRIVAULT_X_VALUES)
    for rep in reports:
        x = Fraction(rep.point["x"])
        assert _bits(rep.lhs) == _bits(dowling_polynomial(params, rep.point["n"], x))


#: (nmax, triangles built of the (first, second) kind, cells built of each kind)
#: by one `verify_all` at (3/2, 5/2) from cold row caches.  With one size-n
#: triangle per defining and Dowling cell and every shifted triangle built to
#: the cap, it was (26, 28) triangles and (1288, 1420) cells at q = 1/2, and
#: (16, 18) and (273, 315) at symbolic q.
TRIANGLE_BUILDS = {
    "1/2": (10, (16, 18), (628, 760)),
    "symbolic": (5, (11, 13), (168, 210)),
}


@pytest.mark.parametrize("q", list(TRIANGLE_BUILDS))
def test_verify_all_builds_each_triangle_once(monkeypatch, q):
    nmax, triangles, cells = TRIANGLE_BUILDS[q]
    built = {"first": 0, "second": 0}
    for name in ("_rows_integer", "_rows_recurrence"):
        def counted(kind, params, size, shift, kernel=getattr(whitney, name)):
            built[kind] += (size + 1) * (size + 2) // 2
            return kernel(kind, params, size, shift)

        monkeypatch.setattr(whitney, name, counted)
    caches = (whitney._first_rows, whitney._second_rows)
    for cache in caches:
        cache.cache_clear()
    mode = SYMBOLIC if q == "symbolic" else RationalQ(Fraction(q))
    assert all(rep.passed for rep in
               verify_all(WhitneyParams(Fraction(3, 2), Fraction(5, 2), mode), nmax))
    assert tuple(cache.cache_info().misses for cache in caches) == triangles
    assert (built["first"], built["second"]) == cells


def test_boundary_trivial_at_nmax_zero():
    for m, r in SMALL_GRID:
        reports = verify(IdentityId.BOUNDARY, WhitneyParams(m, r), 0)
        assert len(reports) == 4
        assert all(rep.passed for rep in reports)


def test_dowling_binomial_forward_example():
    params1 = WhitneyParams(Fraction(1), Fraction(1))
    params2 = WhitneyParams(Fraction(1), Fraction(2))
    lhs = dowling_sequence(params2, 2)[2]
    rhs = sum(__import__("math").comb(2, j) * dowling_sequence(params1, 2)[j]
              for j in range(3))
    assert lhs == rhs
    assert all(rep.passed for rep in
               verify(IdentityId.DOWLING_BINOMIAL_FWD, params1, 6))


def test_unknown_identity():
    with pytest.raises(UnknownIdentityError):
        verify("nosuch", WhitneyParams(1, 0), 3)


def test_nmax_ceiling():
    with pytest.raises(ValueError):
        verify(IdentityId.BOUNDARY, WhitneyParams(1, 0), 13)


@pytest.mark.parametrize("qmode", [SYMBOLIC, RationalQ(Fraction(1, 2))],
                         ids=["symbolic", "1/2"])
@pytest.mark.parametrize("r", [1, 0, Fraction(5, 2), -1], ids=str)
def test_orthogonality_holds_at_zero_m(qmode, r):
    # Each checked sum is a polynomial in m that vanishes for every m != 0.
    reports = verify(IdentityId.ORTHOGONALITY, WhitneyParams(0, r, qmode), 6)
    assert reports and all(rep.passed for rep in reports)


def test_genfunc_requires_exact_mode():
    with pytest.raises(IncompatibleModeError):
        verify(IdentityId.GENFUNC_SECOND, WhitneyParams(1, 1, FloatQ(0.5)), 4)


def test_float_mode_smoke():
    params = WhitneyParams(2, 1, FloatQ(0.37))
    for identity in (IdentityId.VERTICAL_SECOND, IdentityId.BOUNDARY,
                     IdentityId.DEFINING_SECOND, IdentityId.CONVO_SECOND_B):
        assert all(rep.passed for rep in verify(identity, params, 4))


@pytest.mark.parametrize("mode", [SYMBOLIC, RationalQ(Fraction(-1, 2)), FloatQ(0.5)],
                         ids=["symbolic", "q=-1/2", "float 0.5"])
def test_defining_relation_check_gives_the_catalogue_reports(mode):
    # The public per-point check and the catalogue reach the defining relations
    # by two routes; both must give the same identity, point, sides and verdict.
    params = WhitneyParams(Fraction(3, 2), Fraction(5, 2), mode)
    nmax = 5 if mode.is_exact else 10  # float rounding fails some checks by nmax 10
    catalogue = [rep for identity in (IdentityId.DEFINING_FIRST, IdentityId.DEFINING_SECOND)
                 for rep in verify(identity, params, nmax)]
    direct = [rep for ell in range(DEFINING_ELL_CAP + 1) for n in range(nmax + 1)
              for rep in defining_relation_check(params, ell, n)]
    # repr shows every field, the point's key order included.
    assert sorted(map(repr, direct)) == sorted(map(repr, catalogue))
    assert len(direct) == 2 * (DEFINING_ELL_CAP + 1) * (nmax + 1)
    if not mode.is_exact:
        assert {rep.passed for rep in direct} == {True, False}


def test_report_json_shape():
    reports = verify(IdentityId.BOUNDARY, WhitneyParams(Fraction(3, 2), Fraction(5, 2)), 2)
    blob = json.dumps([rep.as_json_dict() for rep in reports])
    parsed = json.loads(blob)
    assert {"id", "point", "lhs", "rhs", "pass"} == set(parsed[0])
    assert parsed[0]["id"] == "boundary"
    assert parsed[0]["point"]["m"] == "3/2"


def test_verify_all_small():
    reports = verify_all(WhitneyParams(Fraction(2), Fraction(1)), 3)
    ids = {rep.identity for rep in reports}
    assert ids == {identity.value for identity in IdentityId}
    assert all(rep.passed for rep in reports)
    assert type(reports) is list
    assert reports == [rep for identity in IdentityId
                       for rep in verify(identity, WhitneyParams(Fraction(2), Fraction(1)), 3)]


PARITY_MODES = {"symbolic": SYMBOLIC, "1/2": RationalQ(Fraction(1, 2)),
                "-1/2": RationalQ(Fraction(-1, 2)), "float 0.5": FloatQ(0.5),
                "float 0.9": FloatQ(0.9)}


def _assert_verdict_parity(identity, params, nmax) -> int:
    """verify's judged checks against the reports `checked` builds from its cells;
    returns the number of failing checks."""
    result = verify(identity, params, nmax)
    reports = list(result)
    assert len(result) == len(reports) == len(result.cells)
    assert result.failing == [i for i, rep in enumerate(reports) if not rep.passed]

    def fields(reps):
        return [(rep.identity, rep.point, _bits(rep.lhs), _bits(rep.rhs), rep.passed)
                for rep in reps]

    direct = [report.checked(identity.value, params, *cell) for cell in result.cells]
    assert fields(reports) == fields(direct) == fields(result[:])
    assert fields(result[i] for i in result.failing) == fields(
        rep for rep in direct if not rep.passed)
    return len(result.failing)


def _parity_identities(mode):
    return [identity for identity in IdentityId
            if mode.is_exact or identity is not IdentityId.GENFUNC_SECOND]


@pytest.mark.parametrize("mode", list(PARITY_MODES.values()), ids=list(PARITY_MODES))
def test_judged_checks_match_their_reports(mode):
    params = WhitneyParams(Fraction(3, 2), Fraction(5, 2), mode)
    for nmax in range(7):
        for identity in _parity_identities(mode):
            assert _assert_verdict_parity(identity, params, nmax) == 0


@pytest.mark.parametrize("mode", list(PARITY_MODES.values()), ids=list(PARITY_MODES))
def test_judged_failures_match_their_reports(corrupt_rows, mode):
    corrupt_rows("second")
    params = WhitneyParams(Fraction(3, 2), Fraction(5, 2), mode)
    assert sum(_assert_verdict_parity(identity, params, 4)
               for identity in _parity_identities(mode)) > 0


def test_judged_rounding_failures_match_their_reports():
    # At q = 0.9 rounding alone fails some orthogonality and defining_first checks.
    params = WhitneyParams(Fraction(3, 2), Fraction(5, 2), FloatQ(0.9))
    assert sum(_assert_verdict_parity(identity, params, 10)
               for identity in _parity_identities(params.qmode)) == 58


def test_default_grid_contents():
    assert len(DEFAULT_GRID) == 9
    assert (Fraction(3, 2), Fraction(5, 2)) in DEFAULT_GRID


def test_binomial_transform_examples():
    assert binomial_transform([1, 0, 0, 0]) == [1, 1, 1, 1]
    assert binomial_inverse([1, 1, 1, 1]) == [1, 0, 0, 0]
    with pytest.raises(ValueError):
        binomial_transform([])


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=100)
@given(st.lists(rationals, min_size=1, max_size=16))
def test_binomial_round_trip(seq):
    assert binomial_inverse(binomial_transform(seq)) == seq
    assert binomial_transform(binomial_inverse(seq)) == seq


def test_dowling_binomial_shift_as_transform():
    params = WhitneyParams(Fraction(2), Fraction(1))
    up = WhitneyParams(Fraction(2), Fraction(2))
    assert binomial_transform(list(dowling_sequence(params, 8))) == \
        list(dowling_sequence(up, 8))


def test_hankel_examples():
    assert hankel_transform([1, 1, 1, 1, 1], 2) == [1, 0]
    assert hankel_transform([1, 0, 1, 0, 2], 2) == [1, 1]
    with pytest.raises(InsufficientSequenceError):
        hankel_transform([1, 2], 3)


def test_hankel_symbolic_entries():
    seq = [q_monomial(0), q_monomial(1), q_monomial(2), q_monomial(3), q_monomial(4)]
    dets = hankel_transform(seq, 2)
    assert dets[0] == 1
    assert dets[1] == 0  # geometric sequence: rank 1


# -- Bareiss against sympy's determinant ----------------------------------------
#
# sympy's division-free Berkowitz determinant is the independent route.  A
# Laurent matrix is compared after multiplying every entry by q^shift, which
# clears the negative exponents and multiplies an order-n determinant by
# q^(n * shift).


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def _hankel(seq, size):
    return [[seq[i + j] for j in range(size)] for i in range(size)]


def _hankel_sizes(seq):
    return range(1, (len(seq) + 1) // 2 + 1)


def _sympy_entry(sp, value, shift=0):
    """value * q^shift as a sympy expression; value is a rational or LaurentPoly."""
    terms = value.terms() if isinstance(value, LaurentPoly) else [(0, value)]
    q = sp.Symbol("q")
    return sum((sp.Rational(c.numerator, c.denominator) * q ** (e + shift) for e, c in terms),
               sp.Integer(0))


def test_bareiss_rational_hankel_matches_sympy(sp):
    rng = random.Random(11)
    # Leading zeros force row swaps, and a zero column ends in det 0.
    sequences = [[0, 1, 0, 2, 0, 5, 0], [0, 0, 1, 1, 2, 3, 5]]
    sequences += [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(9)]
                  for _ in range(8)]
    sequences.append(dowling_sequence(
        WhitneyParams(Fraction(2), Fraction(-1, 3), RationalQ(Fraction(-1, 2))), 8))
    for seq in sequences:
        for size in _hankel_sizes(seq):
            matrix = _hankel(seq, size)
            expected = sp.Matrix([[_sympy_entry(sp, c) for c in row] for row in matrix]) \
                .det(method="berkowitz")
            assert _det_fraction_free(matrix) == Fraction(int(expected.p), int(expected.q))


def test_bareiss_laurent_hankel_matches_sympy(sp):
    rng = random.Random(12)

    def laurent():
        val = rng.randint(-3, 2)
        return sum((q_monomial(val + i, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    for i in range(rng.randint(1, 3))), ZERO)

    sequences = [[laurent() for _ in range(7)] for _ in range(4)]
    sequences.append([ZERO, q_monomial(-1), q_monomial(1, 2), ZERO, q_monomial(-2, -1),
                      q_monomial(0, Fraction(1, 3)), q_monomial(3)])
    sequences.append(dowling_sequence(WhitneyParams(Fraction(3, 2), Fraction(5, 2)), 6))
    q = sp.Symbol("q")
    for seq in sequences:
        shift = max([0] + [-p.val for p in seq if p])
        for size in _hankel_sizes(seq):
            matrix = _hankel(seq, size)
            expected = sp.Matrix([[_sympy_entry(sp, p, shift) for p in row] for row in matrix]) \
                .det(method="berkowitz")
            ours = _sympy_entry(sp, _det_fraction_free(matrix), size * shift)
            assert sp.Poly(ours, q, domain=sp.QQ) == sp.Poly(expected, q, domain=sp.QQ)


# -- Hankel minors from one elimination ------------------------------------------
#
# hankel_transform reads every leading minor off one unpivoted Bareiss pass and,
# from the first zero pivot on, eliminates each larger size on its own.  Each
# size must equal, in value and type, _det_fraction_free on its leading block.

#: Sequences whose leading minor is 0 at size 1 or at a middle size, followed
#: by a nonzero minor, so the per-size elimination decides the later sizes.
ZERO_PIVOT_SEQUENCES = [
    [0, 1, 0, 2, 0, 5, 0],
    [0, 0, 1, 1, 2, 3, 5],
    [1, 1, 1, 2, 5, 14, 42, 132, 429],
    [Fraction(2), 1, Fraction(1, 2), Fraction(-3, 4), 0, 7, Fraction(1, 3)],
    [q_monomial(0), q_monomial(1), q_monomial(2), q_monomial(3, 2), q_monomial(4)],
]


def _minor_test_sequences():
    rng = random.Random(13)
    rational = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(11)]
                for _ in range(6)]
    rational.append(list(dowling_sequence(
        WhitneyParams(Fraction(-3, 2), Fraction(1), RationalQ(Fraction(1, 2))), 10)))

    def laurent():
        val = rng.randint(-3, 2)
        return sum((q_monomial(val + i, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    for i in range(rng.randint(1, 3))), ZERO)

    laurents = [[laurent() for _ in range(7)] for _ in range(3)]
    laurents.append(list(dowling_sequence(WhitneyParams(Fraction(3, 2), Fraction(5, 2)), 6)))
    return rational + ZERO_PIVOT_SEQUENCES + laurents


def test_hankel_transform_equals_per_size_bareiss():
    for seq in _minor_test_sequences():
        order = (len(seq) + 1) // 2
        expected = [_det_fraction_free(_hankel(seq, size)) for size in range(1, order + 1)]
        got = hankel_transform(seq, order)
        assert got == expected, seq
        assert [type(v) for v in got] == [type(v) for v in expected], seq


def test_hankel_zero_pivot_sequences_need_the_fallback():
    for seq in ZERO_PIVOT_SEQUENCES:
        minors = hankel_transform(seq, (len(seq) + 1) // 2)
        first_zero = next(i for i, v in enumerate(minors) if not v)
        assert any(minors[first_zero + 1:]), minors


def test_hankel_transform_matches_sympy(sp):
    for seq in _minor_test_sequences():
        shift = max([0] + [-p.val for p in seq if isinstance(p, LaurentPoly) and p])
        order = (len(seq) + 1) // 2
        for size, minor in enumerate(hankel_transform(seq, order), start=1):
            expected = sp.Matrix([[_sympy_entry(sp, c, shift) for c in row]
                                  for row in _hankel(seq, size)]).det(method="berkowitz")
            ours = _sympy_entry(sp, minor, size * shift)
            assert sp.expand(ours - expected) == 0, (seq, size)


# -- rational minors on ints -------------------------------------------------------
#
# A matrix of ints and Fractions is scaled to an int matrix on both sides and
# eliminated there.  The references below never scale: sympy's Berkowitz
# determinant, and Bareiss on Fractions throughout.


def _fraction_bareiss(matrix):
    """Bareiss with row swaps, every entry a Fraction; the integer route's reference."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    sign, prev = 1, Fraction(1)
    for col in range(n - 1):
        pivot_row = next((i for i in range(col, n) if m[i][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                m[i][j] = (m[i][j] * m[col][col] - m[i][col] * m[col][j]) / prev
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def _minor_type(entries):
    return Fraction if any(type(x) is Fraction for x in entries) else int


def test_bareiss_general_rational_matrices_match_sympy(sp):
    rng = random.Random(29)
    # Denominators are products of 2, 3, 5 and 7, so row and column lcms share factors.
    dens = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 21, 35, 49, 210]

    def entry():
        return Fraction(rng.randint(-9, 9), rng.choice(dens))

    matrices = [[[5]], [[-7]], [[0]], [[Fraction(-3, 14)]], [[Fraction(0)]], [[Fraction(4, 2)]]]
    for size in range(2, 7):
        for _ in range(5):
            matrix = [[entry() for _ in range(size)] for _ in range(size)]
            matrices.append(matrix)
            # Zeros in the leading column force a row swap; a zero column, det 0.
            swapped = [list(row) for row in matrix]
            for i in range(rng.randint(1, size - 1)):
                swapped[i][0] = rng.choice([0, Fraction(0)])
            matrices.append(swapped)
            matrices.append([[Fraction(0)] + row[1:] for row in matrix])
            matrices.append([[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)])
            matrices.append([[x if (i + j) % 2 else x.numerator for j, x in enumerate(row)]
                             for i, row in enumerate(matrix)])
    for matrix in matrices:
        expected = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row]
                              for row in matrix]).det(method="berkowitz")
        got = _det_fraction_free(matrix)
        assert got == Fraction(int(expected.p), int(expected.q)), matrix
        assert type(got) is _minor_type(x for row in matrix for x in row), matrix


_terms = st.one_of(st.just(0), st.integers(min_value=-6, max_value=6),
                   st.builds(Fraction, st.integers(min_value=-20, max_value=20),
                             st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12, 35])))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda order: st.tuples(st.just(order),
                            st.lists(_terms, min_size=2 * order - 1, max_size=2 * order - 1))))
def test_rational_hankel_transform_equals_fraction_bareiss(case):
    order, seq = case
    got = hankel_transform(seq, order)
    assert got == [_fraction_bareiss(_hankel(seq, size)) for size in range(1, order + 1)]
    assert {type(v) for v in got} == {_minor_type(seq)}


def test_hankel_transform_result_types():
    # One type per call: Fractions if any term is one, ints if every term is an int.
    mixed = ZERO_PIVOT_SEQUENCES[3]
    assert hankel_transform(mixed, 4) == [2, 0, -2, Fraction(-8333, 768)]
    ones = [Fraction(1), 2, 3, 5, 8, 13, 21]
    assert hankel_transform(ones, 4) == [1, -1, 0, 0]
    for seq in (mixed, ones, [0, 1, 0, 2, 0, 5, Fraction(1, 2)]):
        assert {type(v) for v in hankel_transform(seq, 4)} == {Fraction}, seq
    assert {type(v) for v in hankel_transform([1, 2, 3, 5, 8, 13, 21], 4)} == {int}


def test_float_and_bool_entries_are_not_scaled():
    # The integer route is taken by exact type: a float or a bool entry keeps
    # the whole matrix, and the minors, as they are.
    assert identities._on_ints([[0.5, Fraction(1, 3)], [1, 2]])[1] is None
    assert identities._on_ints([[True, Fraction(1, 2)], [1, 2]])[1] is None
    got = hankel_transform([0.5, Fraction(1, 4), 2], 2)
    assert (got, [type(v) for v in got]) == ([0.5, 0.9375], [float, float])


def test_rational_hankel_transform_divides_only_ints(monkeypatch):
    seq = dowling_sequence(
        WhitneyParams(Fraction(3, 2), Fraction(5, 2), RationalQ(Fraction(1, 2))), 14)
    operands = set()
    divide = identities.divide_exact

    def spy(num, den):
        operands.add((type(num), type(den)))
        return divide(num, den)

    monkeypatch.setattr(identities, "divide_exact", spy)
    expected = [_fraction_bareiss(_hankel(seq, size)) for size in range(1, 9)]
    assert hankel_transform(seq, 8) == expected
    # The zero-pivot fallback eliminates on ints too.
    hankel_transform(ZERO_PIVOT_SEQUENCES[3], 4)
    assert operands == {(int, int)}


def test_hankel_probe_classical():
    rows = hankel_probe(1, [0, 1, 2], 1, 3)
    assert list(rows) == [Fraction(0), Fraction(1), Fraction(2)]
    values = list(rows.values())
    assert values[0] == values[1] == values[2]


def test_hankel_probe_rational_q():
    rows = hankel_probe(2, [1, 2], Fraction(1, 2), 4)
    assert rows[Fraction(1)] == rows[Fraction(2)]
    assert isinstance(rows[Fraction(1)], tuple) and len(rows[Fraction(1)]) == 4
    assert hankel_probe(1, [0, 1], Fraction(1, 2), 2) == {
        Fraction(0): (Fraction(1), Fraction(1, 2)), Fraction(1): (Fraction(1), Fraction(1, 2))}


def test_hankel_probe_singleton_trivial():
    rows = hankel_probe(2, [1], Fraction(1, 2), 3)
    assert list(rows) == [Fraction(1)] and len(rows[Fraction(1)]) == 3
