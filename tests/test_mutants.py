"""Planted faults in the shared Laurent kernels must make `verify` fail.

Each mutant is one line of a kernel changed in its own source and bound in
place with monkeypatch.  A test checks that the mutant changes a value, then
that `verify --suite all` at symbolic q exits 1.  The triangle and
q-polynomial caches are cleared around each test, so no value built under a
mutant outlives it.
"""

import inspect
from fractions import Fraction

import pytest

from qwhitney import cli, laurent, qcore, whitney
from qwhitney.laurent import LaurentPoly, q_monomial
from qwhitney.modes import SYMBOLIC

VERIFY = ["verify", "--suite", "all", "--nmax", "4", "--q", "symbolic"]


@pytest.fixture(autouse=True)
def fresh_caches():
    caches = (whitney._first_rows, whitney._second_rows,
              qcore.q_integer, qcore.q_factorial, qcore.q_binomial)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _mutant(func, old: str, new: str):
    """func recompiled from its source with the one occurrence of old replaced by new."""
    source = inspect.getsource(func)
    assert source.count(old) == 1
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(func), "exec"),
         func.__globals__, namespace)
    return namespace[func.__name__]


def _verify_exit(capsys) -> int:
    code = cli.main(VERIFY)
    capsys.readouterr()
    return code


def test_unaligned_denominators_in_the_fused_sum(monkeypatch, capsys):
    mutant = _mutant(laurent.sum_of_products, "scale = den // d", "scale = 1")
    expected = LaurentPoly(0, (Fraction(1, 3), Fraction(1, 2)))
    assert q_monomial(1, Fraction(1, 2)) + Fraction(1, 3) == expected
    monkeypatch.setattr(laurent, "sum_of_products", mutant)
    monkeypatch.setattr(type(SYMBOLIC), "sum_of_products", staticmethod(mutant))
    assert q_monomial(1, Fraction(1, 2)) + Fraction(1, 3) != expected
    assert _verify_exit(capsys) == 1


def test_convolution_dropping_its_last_coefficient(monkeypatch, capsys):
    mutant = _mutant(laurent._convolve, "return out", "return out[:-1]")
    expected = LaurentPoly(0, (1, 2, 1))
    assert qcore.q_integer(2) * qcore.q_integer(2) == expected
    monkeypatch.setattr(laurent, "_convolve", mutant)
    assert qcore.q_integer(2) * qcore.q_integer(2) != expected
    assert _verify_exit(capsys) == 1
