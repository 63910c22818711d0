"""The immutable records and the CLI's import path.

The records used to be frozen dataclasses; these tests pin the behaviour
callers relied on (equality, hashing, repr, immutability, copy and pickle,
validation messages) and that `import qwhitney.cli` stays free of the slow
stdlib modules.
"""

import copy
import pathlib
import pickle
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from qwhitney.errors import DomainError
from qwhitney.modes import SYMBOLIC, FloatQ, RationalQ
from qwhitney.qdist import QDistSpec
from qwhitney.report import IdentityReport
from qwhitney.tableaux import ATableau
from qwhitney.whitney import Triangle, WhitneyParams, whitney_first_triangle

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _loaded_by_cli_import(names):
    """Those of names that `import qwhitney.cli` loads in a fresh interpreter."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qwhitney.cli; "
            f"print(sorted({sorted(names)!r} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    return out.strip()


def test_cli_import_loads_no_dataclasses_typing_or_inspect():
    assert _loaded_by_cli_import({"dataclasses", "typing", "inspect"}) == "[]"


def test_cli_import_loads_no_traceback():
    # Only an internal error (exit 3) needs it, so `main` imports it there.
    assert _loaded_by_cli_import({"traceback"}) == "[]"


def test_cli_import_loads_no_pickle_multiprocessing_or_concurrent():
    # `verify` forks its workers itself and imports pickle only when it runs.
    assert _loaded_by_cli_import({"pickle", "multiprocessing", "concurrent"}) == "[]"


def test_cli_import_loads_no_array_or_struct():
    # The sampler works on bytes and ints; neither module may add to cold start.
    assert _loaded_by_cli_import({"array", "struct", "_struct"}) == "[]"


def _triangle():
    return whitney_first_triangle(WhitneyParams(Fraction(3, 2), Fraction(5, 2)), 2)


#: (factory of one record, its repr as the dataclass version printed it).
RECORDS = {
    "WhitneyParams": (
        lambda: WhitneyParams(Fraction(3, 2), Fraction(5, 2), RationalQ(Fraction(-1, 2))),
        "WhitneyParams(m=Fraction(3, 2), r=Fraction(5, 2), "
        "qmode=RationalQ(q0=Fraction(-1, 2)))"),
    "WhitneyParams-symbolic": (
        lambda: WhitneyParams(1, 0),
        "WhitneyParams(m=Fraction(1, 1), r=Fraction(0, 1), qmode=SYMBOLIC)"),
    "WhitneyParams-float": (
        lambda: WhitneyParams(0.5, 1, FloatQ(0.5)),
        "WhitneyParams(m=Fraction(1, 2), r=Fraction(1, 1), qmode=FloatQ(q0=0.5))"),
    "Triangle": (
        _triangle,
        "Triangle(kind='first', params=WhitneyParams(m=Fraction(3, 2), r=Fraction(5, 2), "
        "qmode=SYMBOLIC), nmax=2, rows=((LaurentPoly(1),), (LaurentPoly(-5/2), "
        "LaurentPoly(1)), (LaurentPoly(10*q^-1), LaurentPoly(-13/2*q^-1), "
        "LaurentPoly(1*q^-1))))"),
    "RationalQ": (lambda: RationalQ(Fraction(1, 2)), "RationalQ(q0=Fraction(1, 2))"),
    "FloatQ": (lambda: FloatQ(0.5), "FloatQ(q0=0.5)"),
    "IdentityReport": (
        lambda: IdentityReport("boundary", {"n": 1}, Fraction(1, 2), Fraction(1, 2), True),
        "IdentityReport(identity='boundary', point={'n': 1}, lhs=Fraction(1, 2), "
        "rhs=Fraction(1, 2), passed=True)"),
    "QDistSpec": (lambda: QDistSpec("euler", 0.5, 0.3),
                  "QDistSpec(family='euler', q=0.5, lam=0.3)"),
    "ATableau": (lambda: ATableau((2, 1, 0), True, 3),
                 "ATableau(lengths=(2, 1, 0), distinct=True, universe_max=3)"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_semantics(name):
    make, expected_repr = RECORDS[name]
    a, b = make(), make()
    assert a == b and not a != b
    if isinstance(a, IdentityReport):
        with pytest.raises(TypeError):  # a dict field, as with the dataclasses
            hash(a)
    else:
        assert hash(a) == hash(b)
    values = tuple(getattr(a, field) for field in a._fields)
    assert a != values and not a == values
    assert repr(a) == expected_repr
    field = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) == getattr(b, field)
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is type(a) and clone == a and repr(clone) == expected_repr


def test_equality_needs_the_same_class_and_fields():
    assert RationalQ(Fraction(1, 2)) != FloatQ(0.5)
    t = _triangle()
    assert Triangle("first", t.params, t.nmax, t.rows) == t
    assert Triangle("second", t.params, t.nmax, t.rows) != t


def test_copies_keep_the_symbolic_singleton():
    params = WhitneyParams(1, 0)
    for clone in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
        assert clone.qmode is SYMBOLIC
    for clone in (copy.copy(SYMBOLIC), copy.deepcopy(SYMBOLIC),
                  pickle.loads(pickle.dumps(SYMBOLIC))):
        assert clone is SYMBOLIC
    assert repr(SYMBOLIC) == "SYMBOLIC"


@pytest.mark.parametrize("build,exc,message", [
    (lambda: QDistSpec("poisson", 0.5, 1.0), DomainError,
     "family must be one of ('heine', 'euler'), got 'poisson'"),
    (lambda: QDistSpec("heine", 1.0, 1.0), DomainError, "q must lie in (0, 1), got 1.0"),
    (lambda: QDistSpec("heine", 0.5, 0.0), DomainError, "lambda must be positive, got 0.0"),
    (lambda: QDistSpec("euler", 0.5, 2.0), DomainError, "euler needs lambda (1-q) < 1, got 1.0"),
    (lambda: ATableau((4, 1), True, 3), ValueError, "column lengths must lie in 0..universe_max"),
    (lambda: ATableau((1, 1), True, 3), ValueError,
     "distinct tableau lengths must strictly decrease"),
    (lambda: ATableau((1, 2), False, 3), ValueError, "tableau lengths must weakly decrease"),
    (lambda: RationalQ(0.5), TypeError, "rational q0 must be an int or Fraction, got float"),
    (lambda: RationalQ(True), TypeError, "rational q0 must be an int or Fraction, got bool"),
    (lambda: RationalQ(0), ValueError, "rational mode needs q0 != 0"),
    (lambda: FloatQ(0), ValueError, "float mode needs q0 != 0"),
    (lambda: FloatQ("x"), ValueError, "could not convert string to float: 'x'"),
    (lambda: WhitneyParams(True, 0), TypeError, "m must be a number, not bool"),
    (lambda: WhitneyParams(Fraction(1), 0.5), TypeError,
     "r must be an int or Fraction (float only in float mode)"),
    (lambda: WhitneyParams(0.5, 0, RationalQ(Fraction(1, 2))), TypeError,
     "m must be an int or Fraction (float only in float mode)"),
])
def test_validation_messages_are_unchanged(build, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        build()
