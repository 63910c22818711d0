"""Planted faults in the shared kernels must make `verify` or `dist` fail.

Each mutant is one line of a kernel changed in its own source, or one field
of the Whitney step table or one constant, bound in place with monkeypatch.
A test checks that the mutant changes a value, then that `verify --suite all`
exits 1 in the mode whose path the mutant sits on, or, for the q-distribution
layer, that `dist --op moments` exits 1 for the family it touches, or, for
the batch sampler, that `dist --op sample` exits 1.  Under a step-table
fault, two more tests count the reports a failing `verify` builds and pin
its outputs.  The triangle and q-polynomial caches are cleared around each
test, so no value built under a mutant outlives it.
"""

import hashlib
import inspect
import sys
from fractions import Fraction

import pytest

from qwhitney import cli, laurent, qcore, qdist, report, whitney
from qwhitney.laurent import LaurentPoly, q_monomial
from qwhitney.modes import SYMBOLIC, RationalQ
from qwhitney.qdist import QDistSpec
from qwhitney.whitney import WhitneyParams

VERIFY = ["verify", "--suite", "all", "--nmax", "4", "--q", "symbolic"]
VERIFY_HALF = ["verify", "--suite", "all", "--nmax", "6", "--q", "1/2"]


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


def _verify_exit(capsys, argv=VERIFY) -> int:
    code = cli.main(argv)
    capsys.readouterr()
    return code


def _rows(kind: str, mode) -> tuple:
    """Uncached rows 0..5 of one kind at (m, r) = (3/2, 5/2), shift 1."""
    build = whitney._first_rows if kind == "first" else whitney._second_rows
    return build.__wrapped__(WhitneyParams(Fraction(3, 2), Fraction(5, 2), mode), 5, 1)


def test_unaligned_denominators_in_the_fused_sum(monkeypatch, capsys):
    mutant = _mutant(laurent.sum_of_products, "scale = den // d", "scale = 1")
    expected = LaurentPoly(0, (Fraction(1, 3), Fraction(1, 2)))
    assert q_monomial(1, Fraction(1, 2)) + Fraction(1, 3) == expected
    monkeypatch.setattr(laurent, "sum_of_products", mutant)
    monkeypatch.setattr(type(SYMBOLIC), "sum_of_products", staticmethod(mutant))
    assert q_monomial(1, Fraction(1, 2)) + Fraction(1, 3) != expected
    assert _verify_exit(capsys) == 1


@pytest.mark.parametrize("fault", ["*parts[0][:2], 1)", "0, *parts[0][1:])"],
                         ids=["denominator", "valuation"])
def test_one_part_sum_dropping_a_field(monkeypatch, capsys, fault):
    mutant = _mutant(laurent.sum_of_products, "*parts[0])", fault)
    expected = LaurentPoly(1, (Fraction(-1, 2),))
    assert -q_monomial(1, Fraction(1, 2)) == expected
    monkeypatch.setattr(laurent, "sum_of_products", mutant)
    monkeypatch.setattr(type(SYMBOLIC), "sum_of_products", staticmethod(mutant))
    assert -q_monomial(1, Fraction(1, 2)) != expected
    assert _verify_exit(capsys) == 1


def test_q_integer_three_with_a_doubled_top_coefficient(monkeypatch, capsys):
    # The integer kernel forms M [j]_q itself, while params.weight takes [j]_q
    # from q_integer, so the triangles and the checkers' weight(3) disagree.
    mutant = _mutant(qcore.q_integer.__wrapped__, "(1,) * n)",
                     "(1,) * n if n != 3 else (1, 1, 2))")
    before = qcore.q_integer(3)
    monkeypatch.setattr(qcore, "q_integer", mutant)
    assert qcore.q_integer(3) != before
    assert _verify_exit(capsys) == 1


def test_convolution_dropping_its_last_coefficient(monkeypatch, capsys):
    mutant = _mutant(laurent._convolve, "return out", "return out[:-1]")
    expected = LaurentPoly(0, (1, 2, 1))
    assert qcore.q_integer(2) * qcore.q_integer(2) == expected
    monkeypatch.setattr(laurent, "_convolve", mutant)
    assert qcore.q_integer(2) * qcore.q_integer(2) != expected
    assert _verify_exit(capsys) == 1


#: One field of a kind's (sign, j, a, c) step replaced: name -> (kind, field index, fault).
STEP_FAULTS = {
    "first sign": ("first", 0, 1),
    "first weight index": ("first", 1, lambda n, k: k),
    "first row power": ("first", 3, lambda n: 1 - n),
    "second sign": ("second", 0, -1),
    "second weight index": ("second", 1, lambda n, k: n),
    "second diagonal power": ("second", 2, lambda k: k),
}


def _step_fault(monkeypatch, name):
    """Plant STEP_FAULTS[name] in whitney._STEPS."""
    kind, field, fault = STEP_FAULTS[name]
    step = list(whitney._STEPS[kind])
    step[field] = fault
    monkeypatch.setitem(whitney._STEPS, kind, tuple(step))


@pytest.mark.parametrize("name", list(STEP_FAULTS))
def test_step_table_fault(monkeypatch, capsys, name):
    kind = STEP_FAULTS[name][0]
    modes = (SYMBOLIC, RationalQ(Fraction(1, 2)))
    before = [_rows(kind, mode) for mode in modes]
    _step_fault(monkeypatch, name)
    after = [_rows(kind, mode) for mode in modes]
    assert after[0] != before[0] and after[1] != before[1]
    assert _verify_exit(capsys) == 1
    assert _verify_exit(capsys, VERIFY_HALF) == 1


def test_verify_names_the_first_failure(monkeypatch, capsys):
    assert cli.main(VERIFY_HALF) == 0
    assert capsys.readouterr().err == ""
    whitney._first_rows.cache_clear()
    _step_fault(monkeypatch, "first row power")
    assert cli.main(VERIFY_HALF) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith("FAIL\t") and "first failure" not in out
    # The first failure in count-table order: identity, grid point, then the checker's order.
    assert err == ('qwhitney: first failure: vertical_first at {"m": "1", "r": "0", '
                   '"qmode": "rational", "q0": "1/2", "n": 0, "k": 0}: lhs - rhs = -1/2\n')


def _count_checked(monkeypatch) -> list:
    """Wrap report.checked wherever a qwhitney module binds it; returns the list
    of identities it is called for."""
    calls = []

    def counted(identity, *args):
        calls.append(identity)
        return original(identity, *args)

    original = report.checked
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qwhitney" and vars(module).get("checked") is original:
            monkeypatch.setattr(module, "checked", counted)
    return calls


@pytest.mark.parametrize("fault", [None, "first row power"], ids=["clean", "faulty"])
def test_verify_builds_a_report_only_for_the_first_failure(monkeypatch, capsys, fault):
    if fault is not None:
        _step_fault(monkeypatch, fault)
    code = cli.main(VERIFY)
    expected = capsys.readouterr()
    assert code == (0 if fault is None else 1)
    whitney._first_rows.cache_clear()
    calls = _count_checked(monkeypatch)
    assert cli.main(VERIFY) == code
    assert capsys.readouterr() == expected
    assert calls == ([] if fault is None else ["vertical_first"])


#: sha256 of stdout, of the stderr line and of the --report stream of `verify
#: --suite all --nmax 4 --q 1/2` under the "first row power" fault, recorded
#: when `verify` built every report of every check.
FAILING_REPORTS_SHA256 = {
    "stdout": "fc085ed223abed8788969e49bbde3206f0f53ea83d970047c0ff25238eba9051",
    "stderr": "56d6665a76e6c1cef1f92b84512939fdf5e00e9c00d0c1a39f580e625b6b794f",
    "report": "332edb8e27a0c2e8a4bb824fe6deacd1cbf3cbfe8af8e365ee3c890348212cf8",
}


def test_failing_reports_are_pinned(monkeypatch, capsys, tmp_path):
    _step_fault(monkeypatch, "first row power")
    stream = tmp_path / "reports.jsonl"
    code = cli.main(["verify", "--suite", "all", "--nmax", "4", "--q", "1/2",
                     "--report", str(stream)])
    out, err = capsys.readouterr()
    assert code == 1 and out.endswith("FAIL\t4680\t899\n")
    assert err.startswith("qwhitney: first failure: vertical_first at ") and err.count("\n") == 1
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in (("stdout", out.encode()), ("stderr", err.encode()),
                                  ("report", stream.read_bytes()))}
    assert digests == FAILING_REPORTS_SHA256


def test_integer_kernel_weight_index_off_by_one(monkeypatch, capsys):
    mutant = _mutant(whitney._rows_integer, "shift + j(n, k)", "shift + j(n, k) + 1")
    before = _rows("second", SYMBOLIC)
    monkeypatch.setattr(whitney, "_rows_integer", mutant)
    assert _rows("second", SYMBOLIC) != before
    assert _verify_exit(capsys) == 1


def test_scalar_recurrence_doubling_the_diagonal(monkeypatch, capsys):
    mutant = _mutant(whitney._rows_recurrence, "if k <= n else left", "if k <= n else 2 * left")
    mode = RationalQ(Fraction(1, 2))
    before = _rows("first", mode)
    monkeypatch.setattr(whitney, "_rows_recurrence", mutant)
    assert _rows("first", mode) != before
    assert _verify_exit(capsys, VERIFY_HALF) == 1


HEINE = QDistSpec("heine", 0.5, 0.7)
EULER = QDistSpec("euler", 0.5, 0.4)

#: A fault in the q-distribution layer: name -> (function, old text, new text,
#: a value it changes, the family whose `dist --op moments` must catch it).  The
#: mutant replaces the function in `qcore` and `qdist`, wherever it is bound.
DIST_FAULTS = {
    "heine pmf step power": (qdist._pmf_stream, "spec.q ** (x - 1)", "spec.q ** x",
                             lambda: qdist.pmf(HEINE, 3), HEINE),
    "pmf step q-integer": (qdist._pmf_stream, "q_int_at(x, spec.q)", "q_int_at(x + 1, spec.q)",
                           lambda: qdist.pmf(EULER, 3), EULER),
    "heine normalizer": (qdist._normalizer, "q_exp_hat(spec.lam", "q_exp(spec.lam",
                         lambda: qdist.pmf(HEINE, 3), HEINE),
    "euler normalizer": (qdist._normalizer, "1.0 / q_exp(spec.lam", "1.0 / q_exp_hat(spec.lam",
                         lambda: qdist.pmf(EULER, 3), EULER),
    "heine closed form": (qdist.q_factorial_moment, "comb(order, 2)", "comb(order + 1, 2)",
                          lambda: qdist.q_factorial_moment(HEINE, 3), HEINE),
    "euler closed form": (qdist.q_factorial_moment, "return spec.lam**order",
                          "return spec.lam**order * (2 if order == 3 else 1)",
                          lambda: qdist.q_factorial_moment(EULER, 3), EULER),
    "heine products": (qdist._heine_products, "q ** (i - 1)", "q ** i",
                       lambda: qdist.q_factorial_moment(HEINE, 3), HEINE),
    # `verify --q 1/2` misses this one: its identities hold for any weights
    # m u_i + r, and its defining relations stop short of [7]_q.
    "q-integer at 7": (qcore.q_int_at, "(1 - q0**n) / (1 - q0)",
                       "(1 - q0**n) / (1 - q0) + (n == 7)",
                       lambda: qdist.q_int_at(7, 0.5), EULER),
}


@pytest.mark.parametrize("name", list(DIST_FAULTS))
def test_q_distribution_fault(monkeypatch, capsys, name):
    func, old, new, value, spec = DIST_FAULTS[name]
    mutant = _mutant(func, old, new)
    before = value()
    for module in (qcore, qdist):
        if vars(module).get(func.__name__) is func:
            monkeypatch.setattr(module, func.__name__, mutant)
    assert value() != before
    code = cli.main(["dist", "--family", spec.family, "--q", str(spec.q),
                     "--lambda", str(spec.lam), "--op", "moments", "--n", "12",
                     "--m", "3/2", "--r", "5/2"])
    capsys.readouterr()
    assert code == 1


#: A fault in the batch sampler: name -> (function, old text, new text), or
#: (None, name of a constant, its faulty value).  The mutant replaces the
#: name in `qdist`, and in `cli` where `cli` binds it too.
SAMPLER_FAULTS = {
    "byte table one cell too late": (qdist._byte_table, "cuts, v << 56)", "cuts, v + 1 << 56)"),
    "split-cell search skipped": (qdist.sample_batches, "_EXACT_CELL.finditer(codes)", "()"),
    "two high key lanes swapped": (
        None, "_KEY_LANES",
        (4, 5, 6, 7, 0, 1, 3, 2) if sys.byteorder == "little" else (2, 3, 1, 0, 7, 6, 5, 4)),
}


@pytest.mark.parametrize("name", list(SAMPLER_FAULTS))
def test_sampler_fault(monkeypatch, capsys, name):
    func, old, new = SAMPLER_FAULTS[name]
    mutant = new if func is None else _mutant(func, old, new)
    attr = old if func is None else func.__name__
    before = qdist.sample(HEINE, qdist.SAMPLE_BATCH, 2024)
    for module in (qdist, cli):
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, mutant)
    after = qdist.sample(HEINE, qdist.SAMPLE_BATCH, 2024)
    assert after != before
    code = cli.main(["dist", "--family", "heine", "--q", "0.5", "--lambda", "0.7",
                     "--op", "sample", "--count", str(qdist.SAMPLE_BATCH), "--seed", "2024"])
    out, err = capsys.readouterr()
    assert code == 1
    # The output is still what the faulty sampler drew; stderr names its first wrong draw.
    assert out == "".join(f"{x}\n" for x in after)
    i = next(i for i, (x, y) in enumerate(zip(after, before)) if x != y)
    assert err == (f"qwhitney: draw {i} is {after[i]}, but the per-draw search gives "
                   f"{before[i]}\n")
