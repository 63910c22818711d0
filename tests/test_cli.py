import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwhitney import cli, identities, qdist
from qwhitney.cli import main, parse_table_document, render_table_csv, table_document
from qwhitney.errors import InexactDivisionError
from qwhitney.modes import RationalQ
from qwhitney.qdist import SAMPLE_BATCH
from qwhitney.whitney import WhitneyParams, whitney_second_triangle

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_csv_example(capsys):
    code, out, _ = run(capsys, "table", "--kind", "second", "--nmax", "2",
                       "--m", "1", "--r", "1", "--q", "symbolic", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1"
    assert lines[1] == "1,1"
    assert lines[2] == "1,3,1*q^1"


def test_table_nmax_zero(capsys):
    code, out, _ = run(capsys, "table", "--kind", "first", "--nmax", "0",
                       "--m", "2", "--r", "1", "--q", "symbolic", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["1"]


def test_table_rejects_negative_nmax(capsys):
    code, out, err = run(capsys, "table", "--kind", "first", "--nmax", "-1",
                         "--m", "1", "--r", "0", "--q", "symbolic")
    assert (code, out, err) == (2, "", "qwhitney: --nmax must be >= 0\n")


def test_table_rejects_q_zero(capsys):
    code, _, err = run(capsys, "table", "--kind", "second", "--nmax", "2",
                       "--m", "1", "--r", "1", "--q", "0")
    assert code == 2
    assert err


def test_table_rejects_bad_rational(capsys):
    code, _, _ = run(capsys, "table", "--kind", "second", "--nmax", "2",
                     "--m", "3/-2", "--r", "1", "--q", "symbolic")
    assert code == 2


def test_table_json_round_trip(capsys):
    code, out, _ = run(capsys, "table", "--kind", "second", "--nmax", "3",
                       "--m", "3/2", "--r", "5/2", "--q", "symbolic")
    assert code == 0
    doc = parse_table_document(out)
    assert doc["format_version"] == "1"
    assert doc["m"] == "3/2" and doc["qmode"] == "symbolic"
    params = WhitneyParams(Fraction(3, 2), Fraction(5, 2))
    tri = whitney_second_triangle(params, 3)
    for (n, k), value in doc["parsed_values"].items():
        assert value == tri.value(n, k)
    # encode -> decode -> encode is stable
    again = json.loads(out)
    assert json.loads(json.dumps(again)) == again


def test_table_rational_mode_document(capsys):
    code, out, _ = run(capsys, "table", "--kind", "first", "--nmax", "2",
                       "--m", "1", "--r", "0", "--q", "1/2")
    assert code == 0
    doc = parse_table_document(out)
    assert doc["qmode"] == "rational" and doc["q0"] == "1/2"
    params = WhitneyParams(1, 0, RationalQ(Fraction(1, 2)))
    from qwhitney.whitney import whitney_first_triangle

    tri = whitney_first_triangle(params, 2)
    assert doc["parsed_values"][(2, 1)] == tri.value(2, 1)


def test_csv_and_json_share_canonical_values(capsys):
    params = WhitneyParams(Fraction(2), Fraction(1))
    doc = table_document(whitney_second_triangle(params, 3))
    csv_cells = [cell for line in render_table_csv(doc).splitlines()
                 for cell in line.split(",")]
    json_cells = [row["value"] for row in doc["rows"]]
    assert csv_cells == json_cells


def test_table_out_file(tmp_path, capsys):
    path = tmp_path / "tri.json"
    code, out, _ = run(capsys, "table", "--kind", "second", "--nmax", "1",
                       "--m", "1", "--r", "1", "--q", "symbolic", "--out", str(path))
    assert code == 0 and out == ""
    doc = parse_table_document(path.read_text())
    assert doc["nmax"] == 1


#: At q = 1/3**2800 the second-kind cells at nmax 4 run to 9,354 digits, past
#: the interpreter's default cap of 4,300 on int <-> decimal text conversion.
TINY_Q = Fraction(1, 3**2800)
TINY_ARGS = ("--nmax", "4", "--m", "1", "--r", "0", "--q", str(TINY_Q))


def test_table_prints_and_parses_values_past_the_int_digit_cap(capsys):
    code, out, _ = run(capsys, "table", "--kind", "second", *TINY_ARGS)
    assert code == 0
    doc = parse_table_document(out)
    assert max(len(cell["value"]) for cell in doc["rows"]) > 4300
    tri = whitney_second_triangle(WhitneyParams(1, 0, RationalQ(TINY_Q)), 4)
    assert all(value == tri.value(n, k) for (n, k), value in doc["parsed_values"].items())
    code, csv, _ = run(capsys, "table", "--kind", "second", *TINY_ARGS, "--format", "csv")
    assert (code, csv) == (0, render_table_csv(doc))


def test_verify_reports_values_past_the_int_digit_cap(tmp_path, capsys):
    report = tmp_path / "reports.jsonl"
    code, out, _ = run(capsys, "verify", "--suite", "boundary", "--nmax", "4",
                       "--q", str(TINY_Q), "--report", str(report))
    assert (code, out) == (0, "boundary\t180\t0\nPASS\t180\t0\n")
    lines = report.read_text().splitlines()
    assert len(lines) == 180 and max(map(len, lines)) > 4300


def test_a_q_past_the_int_digit_cap_is_a_rational(capsys):
    q = "1/1" + "0" * 4400  # a 4,401-digit denominator
    code, out, _ = run(capsys, "table", "--kind", "first", "--nmax", "1",
                       "--m", "1", "--r", "0", "--q", q, "--format", "csv")
    assert (code, out) == (0, "1\n0,1\n")


@pytest.mark.parametrize("argv, expected", [
    (["table", "--kind", "first", "--nmax", "1", "--m", "1", "--r", "0", "--q", "1/2"], 0),
    (["table", "--kind", "first", "--nmax", "-1", "--m", "1", "--r", "0", "--q", "1/2"], 2),
    (["table", "--kind", "first"], 2),
])
def test_main_restores_the_int_digit_cap(capsys, argv, expected):
    cap = getattr(sys, "get_int_max_str_digits", int)
    before = cap()
    assert run(capsys, *argv)[0] == expected
    assert cap() == before


def test_verify_boundary_trivial(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "boundary", "--nmax", "0")
    assert code == 0
    assert out.splitlines()[-1].startswith("PASS")


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nosuch", "--nmax", "2")
    assert code == 2
    assert "nosuch" in err
    # Every name is parsed before any check runs, so a valid one first prints nothing.
    code, out, err = run(capsys, "verify", "--suite", "boundary,nosuch")
    assert (code, out) == (2, "")
    assert "nosuch" in err


@pytest.mark.parametrize("suite", ["boundary,boundary", "boundary,orthogonality, boundary"])
def test_verify_rejects_a_repeated_identity(capsys, suite):
    # Run twice, a repeated identity would count each of its checks twice.
    code, out, err = run(capsys, "verify", "--suite", suite, "--nmax", "1")
    assert (code, out, err) == (2, "", "qwhitney: --suite: repeated identity 'boundary'\n")


@pytest.mark.parametrize("nmax", ["13", "-1"])
def test_a_bad_nmax_leaves_the_report_file_as_it_was(tmp_path, capsys, nmax):
    # --nmax is checked before the report file is opened for writing.
    report = tmp_path / "reports.jsonl"
    report.write_bytes(b"kept\r\n\0\n")
    plain = run(capsys, "verify", "--nmax", nmax)
    assert plain[:2] == (2, "") and plain[2].startswith("qwhitney: nmax ")
    assert run(capsys, "verify", "--nmax", nmax, "--report", str(report)) == plain
    assert report.read_bytes() == b"kept\r\n\0\n"


def test_verify_small_all_with_report(tmp_path, capsys):
    report = tmp_path / "reports.jsonl"
    code, out, _ = run(capsys, "verify", "--suite", "all", "--nmax", "3",
                       "--report", str(report))
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert {"id", "point", "lhs", "rhs", "pass"} == set(first)
    assert all(json.loads(line)["pass"] for line in lines)


def test_verify_subset_and_rational_q(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "boundary,orthogonality",
                       "--nmax", "4", "--q", "2/3")
    assert code == 0
    ids = [line.split("\t")[0] for line in out.splitlines()[:-1]]
    assert ids == ["boundary", "orthogonality"]


def test_verify_custom_grid(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([["1", "0"], ["3/2", "5/2"]]))
    code, out, _ = run(capsys, "verify", "--suite", "boundary", "--nmax", "3",
                       "--grid", str(grid))
    assert code == 0
    # 2 grid points x 4 rows x 4 boundary entries, no failures
    assert out.splitlines()[0] == "boundary\t32\t0"


@pytest.mark.parametrize("q", ["symbolic", "1/2"])
def test_verify_passes_on_a_zero_m_grid(tmp_path, capsys, q):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([["0", r] for r in ("1", "0", "5/2", "-1")]))
    code, out, err = run(capsys, "verify", "--suite", "all", "--nmax", "6", "--q", q,
                         "--grid", str(grid))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 20 and lines[-1].startswith("PASS\t")


@pytest.mark.parametrize("q, digest", [
    ("symbolic", "f03646cc12e7c508bb673f5f5f1c7e2be20e7bd8d8b305929b4f9134c27f22b1"),
    ("1/2", "e11c4f524f4f50e720161f2d305829d19a7978dad820dd3d56440aeb24bd8c7b"),
])
def test_verify_report_stream_is_pinned(tmp_path, capsys, q, digest):
    report = tmp_path / "reports.jsonl"
    code, out, _ = run(capsys, "verify", "--suite", "all", "--nmax", "5", "--q", q,
                       "--report", str(report))
    assert code == 0
    assert out.splitlines()[-1] == "PASS\t6732\t0"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "edca9e747b4aecc3c6a0d1f89a3e9ffeccd097fac03ed369ec2800a239a6c5d5")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_verify_report_order_with_two_digit_indices_is_pinned(tmp_path, capsys):
    # Points sort by their values as text, so n = 10 and 11 come before n = 2.
    report = tmp_path / "reports.jsonl"
    code, out, _ = run(capsys, "verify", "--suite", "boundary,genfunc_second,r_shift",
                       "--nmax", "11", "--q", "1/2", "--report", str(report))
    assert code == 0
    assert out == "boundary\t432\t0\ngenfunc_second\t1296\t0\nr_shift\t1404\t0\nPASS\t3132\t0\n"
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "99bafe33abcc40c4f2d1f5fac4b5a2feb6873065f414d315fafc241e50488214")


def test_verify_count_table_without_report_is_pinned(capsys):
    # Reports are sorted only for the --report stream; the counts are the same.
    code, out, _ = run(capsys, "verify", "--suite", "all", "--nmax", "5", "--q", "1/2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "edca9e747b4aecc3c6a0d1f89a3e9ffeccd097fac03ed369ec2800a239a6c5d5")


def test_convolutions_above_the_heavy_cap_are_pinned(tmp_path, capsys):
    # At nmax 12 the convolutions stop at HEAVY_CAP = 10 and read each shifted
    # triangle to fewer rows than the cap; recorded when every shifted
    # triangle was built to the cap.
    report = tmp_path / "reports.jsonl"
    code, out, err = run(capsys, "verify", "--suite",
                         "convo_first_a,convo_first_b,convo_second_a,convo_second_b",
                         "--nmax", "12", "--q", "-1/2", "--report", str(report))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "PASS\t14256\t0"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1d793046815e4844490ae5d6780378b78972bce7d6f9413fc0268e9c9a6a668d")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "8debba1ae98bc2ae05bb884bad5ca8c6df98bd7d60101604f74502b247ef5753")


@pytest.mark.parametrize("argv, digest", [
    (("table", "--kind", "first", "--nmax", "12", "--m", "3/2", "--r", "5/2", "--q", "symbolic"),
     "62797baa52933dd866532143940cac8a9513b580e040b7e846872c89b76ff823"),
    (("table", "--kind", "second", "--nmax", "12", "--m", "3/2", "--r", "5/2", "--q", "symbolic"),
     "485b4ab610df9ece5456f6816269c87450bb151c1e849d194806b48ddc4dd785"),
    (("table", "--kind", "second", "--nmax", "12", "--m", "3/2", "--r", "5/2", "--q", "-1/2",
      "--format", "csv"),
     "91f3f50ebaece5db030f6b61b0899a3f329a37fc7a4cc3eb6f0d34a89d936b53"),
    (("hankel", "--m", "3/2", "--r-values", "0,1,2", "--q", "1/2", "--order", "12"),
     "8ca8395478339dd347c2c0bdadf2ba03f6bb61317ec629085709611127c83197"),
    (("hankel", "--m", "3/2", "--r-values", "0,1,2", "--q", "1/2", "--order", "16"),
     "78805b190e33c313d98675d096fc09dfa4bb99ab52667a4140847fb0605149e1"),
    (("hankel", "--m=-3/2", "--r-values", "1,2,3", "--q", "1/2", "--order", "16"),
     "d2c2cbfbbe4030b206fa5a755b7c44222c67aab721c7d2433f36f9daa6322359"),
], ids=["table-first-symbolic", "table-second-symbolic", "table-second-csv", "hankel",
        "hankel-order-16", "hankel-order-16-negative-m"])
def test_exact_output_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("grid", ["5", "[5]", "[[1]]", "[[1, 0, 2]]", "{\"1\": 0}", "[]"])
def test_verify_rejects_malformed_grid(tmp_path, capsys, grid):
    path = tmp_path / "grid.json"
    path.write_text(grid)
    code, out, err = run(capsys, "verify", "--suite", "boundary", "--nmax", "2",
                         "--grid", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("qwhitney: ")


@pytest.mark.parametrize("entry, text", [
    ('"1/0"', "1/0"), ('"x"', "x"), ("true", "True"), ("1e400", "inf"),
], ids=["zero-den", "word", "bool", "overflow"])
def test_verify_reads_grid_entries_as_rationals(tmp_path, capsys, entry, text):
    # Each entry goes through the one rational parser, as str(value).
    path = tmp_path / "grid.json"
    path.write_text(f"[[{entry}, 0]]")
    code, out, err = run(capsys, "verify", "--suite", "boundary", "--nmax", "2",
                         "--grid", str(path))
    assert (code, out) == (2, "")
    assert err == f"qwhitney: --grid {path}: not a rational: {text!r}\n"


def test_verify_rejects_a_repeated_grid_point(tmp_path, capsys):
    # Points are compared as parsed rationals, so "2/2" repeats 1 and "0/5" repeats 0.
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([[1, 0], ["3/2", "5/2"], ["2/2", "0/5"]]))
    code, out, err = run(capsys, "verify", "--suite", "boundary", "--nmax", "1",
                         "--grid", str(path))
    assert (code, out, err) == (2, "", f"qwhitney: --grid {path}: repeated [m, r] pair [1, 0]\n")


@pytest.mark.parametrize("values, repeat", [("0,0", "0"), ("0,1,0/3", "0"), ("1/2,2/4", "1/2")])
def test_hankel_rejects_a_repeated_r_value(capsys, values, repeat):
    code, out, err = run(capsys, "hankel", "--m", "1", "--r-values", values,
                         "--q", "1/2", "--order", "2")
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --r-values: repeated value {repeat} in {values!r}\n")


def test_internal_fault_exits_three_with_its_traceback(capsys, monkeypatch):
    # Exit 1 means a check found a violation, and exit 2 a usage or domain error.
    def broken(params, nmax):
        raise TypeError("checker fault")

    monkeypatch.setitem(identities._CHECKERS, identities.IdentityId.BOUNDARY, broken)
    code, out, err = run(capsys, "verify", "--suite", "boundary", "--nmax", "1")
    assert (code, out) == (3, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("TypeError: checker fault\nqwhitney: internal error\n")


def test_verify_violation_exits_one(tmp_path, capsys, corrupt_rows):
    corrupt_rows("second")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([["3/2", "5/2"]]))
    code, out, _ = run(capsys, "verify", "--suite", "all", "--nmax", "4",
                       "--grid", str(grid))
    assert code == 1
    lines = out.splitlines()
    assert lines[:2] == ["vertical_first\t10\t0", "vertical_second\t10\t8"]
    assert lines[-1].startswith("FAIL\t")


def test_dist_moments_deltas_small(capsys):
    code, out, _ = run(capsys, "dist", "--family", "euler", "--q", "0.5",
                       "--lambda", "0.4", "--op", "moments", "--n", "3",
                       "--m", "1", "--r", "0")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert {row[0] for row in rows} == {"factorial", "whitney"}
    for row in rows:
        assert float(row[4]) < 1e-9
    lam_rows = [row for row in rows if row[0] == "factorial"]
    assert float(lam_rows[3][2]) == 0.4**3


def _moment_rows(spec, m, r, top):
    """The rows `dist --op moments` prints, composed from the public qdist functions."""
    def qint(n):
        return (1.0 - spec.q**n) / (1.0 - spec.q)

    def falling(order):
        def g(x):
            out = 1.0
            for i in range(order):
                out *= qint(x - i)
            return out if x >= order else 0.0
        return g

    rows = []
    for k in range(top + 1):
        a, b = qdist.q_factorial_moment(spec, k), qdist.direct_moment_oracle(spec, falling(k))
        rows.append(("factorial", k, a, b))
    for n in range(top + 1):
        a = qdist.whitney_moment(spec, m, r, n)
        b = qdist.direct_moment_oracle(spec, lambda x: (m * qint(x) + r) ** n)
        rows.append(("whitney", n, a, b))
    fmt = "{:.17g}".format
    return "".join(f"{kind}\t{k}\t{fmt(a)}\t{fmt(b)}\t{fmt(abs(a - b))}\n"
                   for kind, k, a, b in rows)


@pytest.mark.parametrize("family,q,lam,m,r", [
    ("heine", "0.5", "0.7", "3/2", "5/2"),
    ("euler", "0.3", "0.8", "2", "1"),
])
def test_dist_moments_rows_at_order_12(capsys, family, q, lam, m, r):
    code, out, err = run(capsys, "dist", "--family", family, "--q", q, "--lambda", lam,
                         "--op", "moments", "--n", "12", "--m", m, "--r", r)
    assert (code, err) == (0, "")
    spec = qdist.QDistSpec(family, float(q), float(lam))
    assert out == _moment_rows(spec, float(Fraction(m)), float(Fraction(r)), 12)


def test_dist_moments_violation_exits_one(capsys, monkeypatch):
    oracle = qdist.direct_moment_oracle
    monkeypatch.setattr(qdist, "direct_moment_oracle",
                        lambda spec, g, tol=None: oracle(spec, g, tol) * (1.0 + 1e-6))
    code, out, err = run(capsys, "dist", "--family", "euler", "--q", "0.5",
                         "--lambda", "0.4", "--op", "moments", "--n", "3")
    assert code == 1
    assert len(out.splitlines()) == 8
    assert err.startswith("qwhitney: factorial moment 0: closed form 1 and oracle ")
    assert len(err.splitlines()) == 1


def test_dist_has_no_tol_option(capsys):
    # Every series stops at the constant qcore.SERIES_TOL.
    code, out, err = run(capsys, "dist", "--family", "euler", "--q", "0.5", "--lambda", "0.3",
                         "--op", "moments", "--tol", "1e-12")
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --tol 1e-12\n")


def test_dist_rejects_an_infinite_lambda_before_any_series(capsys, monkeypatch):
    # An infinite lambda would run the whole term cap; it is refused before
    # any series work.
    def no_series(*args, **kwargs):
        raise AssertionError("series evaluated")

    monkeypatch.setattr(qdist, "q_exp", no_series)
    monkeypatch.setattr(qdist, "q_exp_hat", no_series)
    code, out, err = run(capsys, "dist", "--family", "heine", "--q", "0.5", "--lambda", "inf",
                         "--op", "pmf")
    assert (code, out, err) == (2, "", "qwhitney: lambda must be finite, got inf\n")


def test_dist_divergent_euler(capsys):
    code, _, err = run(capsys, "dist", "--family", "euler", "--q", "0.5",
                       "--lambda", "3", "--op", "pmf")
    assert code == 2
    assert "euler" in err


def test_dist_nonconvergence_exits_two(capsys):
    # e_q(lambda) converges too slowly at lambda (1-q) just below 1 to settle
    # within the term cap; the package error is reported on one line, not as
    # a traceback with exit 1.
    code, out, err = run(capsys, "dist", "--family", "euler", "--q", "0.5",
                         "--lambda", "1.999999", "--op", "pmf")
    assert code == 2
    assert out == ""
    assert err.startswith("qwhitney: ") and len(err.splitlines()) == 1


def test_dist_normalizer_outside_the_float_range_exits_two(capsys):
    # ehat_q(1e100) overflows within a few terms; the series stops there
    # instead of running the whole term cap.
    code, out, err = run(capsys, "dist", "--family", "heine", "--q", "0.5",
                         "--lambda", "1e100", "--op", "pmf", "--n", "2")
    assert (code, out) == (2, "")
    assert err.startswith("qwhitney: ") and err.count("\n") == 1
    assert "float range" in err


def test_package_arithmetic_error_exits_two(capsys, monkeypatch):
    def inexact(*args):
        raise InexactDivisionError("not divisible")

    monkeypatch.setattr(cli, "hankel_probe", inexact)
    code, _, err = run(capsys, "hankel", "--m", "1", "--r-values", "0,1",
                       "--q", "1/2", "--order", "2")
    assert code == 2
    assert err == "qwhitney: not divisible\n"


@pytest.mark.parametrize("op", ["pmf", "moments"])
def test_dist_negative_n_exits_two(capsys, op):
    code, out, err = run(capsys, "dist", "--family", "heine", "--q", "0.5",
                         "--lambda", "0.7", "--op", op, "--n", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("qwhitney: ")


@pytest.mark.parametrize("extra", [["--m", "1e400"], ["--r", "1e400", "--n", "2"],
                                   ["--m", "1e200", "--n", "3"], ["--m=-1e200", "--n", "2"],
                                   ["--m", "1e308", "--n", "1"],
                                   # A later --q or --lambda replaces the one below.
                                   # Subnormal moments: closed form 1.6066e-317
                                   # against oracle 1.5981e-317, 1.934e-320 against 0.
                                   ["--q", "0.3", "--n", "35"],
                                   ["--q", "0.25", "--lambda", "0.9", "--n", "33"],
                                   # A normal 5.8535e-304 whose oracle sums subnormal
                                   # pmf terms.
                                   ["--q", "0.35", "--lambda", "3.0", "--n", "38"]])
def test_dist_moments_outside_the_float_range_exit_two(capsys, extra):
    code, out, err = run(capsys, "dist", "--family", "heine", "--q", "0.5", "--lambda", "0.7",
                         "--op", "moments", *extra)
    assert (code, out) == (2, "")
    assert err.startswith("qwhitney: ") and err.count("\n") == 1
    assert "float range" in err


@pytest.mark.parametrize("op,n,ceiling", [("pmf", "99999999999999999999", 999999),
                                          ("pmf", "1000000", 999999),
                                          ("moments", "41", 40), ("moments", "100000", 40)])
def test_dist_n_above_its_ceiling_exits_two(capsys, monkeypatch, op, n, ceiling):
    # The pmf walk ends at the term cap and the moment table at order 40; a
    # larger --n is refused before any distribution work.
    def no_work(*args, **kwargs):
        raise AssertionError("distribution evaluated")

    monkeypatch.setattr(cli, "pmf_walk", no_work)
    monkeypatch.setattr(cli, "moment_pairs", no_work)
    code, out, err = run(capsys, "dist", "--family", "heine", "--q", "0.5", "--lambda", "0.7",
                         "--op", op, "--n", n)
    assert (code, out, err) == (2, "", f"qwhitney: --op {op} needs --n <= {ceiling}, got {n}\n")


def test_dist_pmf_sums_to_one(capsys):
    code, out, _ = run(capsys, "dist", "--family", "heine", "--q", "0.5",
                       "--lambda", "0.7", "--op", "pmf")
    assert code == 0
    total = sum(float(line.split("\t")[1]) for line in out.splitlines())
    assert abs(total - 1.0) <= 1e-10


def test_dist_sample_deterministic(capsys):
    args = ("dist", "--family", "heine", "--q", "0.5", "--lambda", "0.7",
            "--op", "sample", "--count", "5", "--seed", "9")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 5


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 10_000, 2 * SAMPLE_BATCH + 5])
def test_dist_sample_output_is_one_line_per_draw(capsys, count):
    code, out, err = run(capsys, "dist", "--family", "euler", "--q", "0.4",
                         "--lambda", "1.0", "--op", "sample", "--count", str(count),
                         "--seed", "5")
    assert (code, err) == (0, "")
    draws = qdist.sample(qdist.QDistSpec("euler", 0.4, 1.0), count, 5)
    assert out == "".join(f"{d}\n" for d in draws)


@pytest.mark.parametrize("spec", [qdist.QDistSpec("heine", 0.99, 60.0),
                                  qdist.QDistSpec("heine", 0.999, 400.0)],
                         ids=["two-digit-draws", "draws-past-255"])
def test_dist_sample_long_tail_prints_the_sample(capsys, spec):
    count = 2 * SAMPLE_BATCH + 5
    code, out, err = run(capsys, "dist", "--family", spec.family, "--q", str(spec.q),
                         "--lambda", str(spec.lam), "--op", "sample", "--count", str(count),
                         "--seed", "2024")
    assert (code, err) == (0, "")
    assert out == "".join(f"{d}\n" for d in qdist.sample(spec, count, 2024))


def _lines(batch):
    return "".join(f"{x}\n" for x in batch)


@pytest.mark.parametrize("batch", [
    [], [0, 9, 10, 99, 100, 255], [255, 100, 99, 10, 9, 0] * 3, [10, 99, 100, 255] * 7,
    [0, 9, 10, 99, 100, 255, 256, 1000], [1000, 256, 256],
], ids=["empty", "digit-edges", "digit-edges-descending", "all-multi-digit",
        "past-255", "all-past-255"])
def test_draw_lines_is_one_decimal_line_per_draw(batch):
    assert cli._draw_lines(batch, []) == _lines(batch)


def test_draw_lines_reuses_labels_across_batches():
    labels = []
    for batch in ([1000, 3], [7, 256], [5, 0], [1001]):
        assert cli._draw_lines(batch, labels) == _lines(batch)
    assert labels == [f"{x}\n" for x in range(1002)]


@settings(deadline=None)
@given(st.lists(st.integers(0, 255), max_size=600) | st.lists(st.integers(0, 1100)))
def test_draw_lines_of_random_batches(batch):
    assert cli._draw_lines(batch, []) == _lines(batch)


def test_dist_sample_writes_bounded_batches(monkeypatch):
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(cli.sys, "stdout", Recorder())
    assert main(["dist", "--family", "heine", "--q", "0.5", "--lambda", "0.7",
                 "--op", "sample", "--count", "10000"]) == 0
    assert [text.count("\n") for text in writes] == [4096, 4096, 1808]


def _sample_peak_kib(count: int) -> int:
    """High-water RSS of a fresh interpreter that runs `dist --op sample --count count`."""
    code = ("import os, sys; sys.path.insert(0, sys.argv[1]); from qwhitney import cli; "
            "sys.stdout = open(os.devnull, 'w'); "
            "cli.main(['dist', '--family', 'heine', '--q', '0.5', '--lambda', '0.7', "
            "'--op', 'sample', '--count', sys.argv[2]]); "
            "sys.stderr.write(open('/proc/self/status').read())")
    status = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC), str(count)],
                            capture_output=True, text=True, check=True).stderr
    return int(next(line for line in status.splitlines() if line.startswith("VmHWM:")).split()[1])


@pytest.mark.skipif(not pathlib.Path("/proc/self/status").exists(), reason="needs procfs")
def test_dist_sample_memory_does_not_grow_with_count():
    # Holding every draw costs about 7.6 MB per million; batches cost nothing per draw.
    assert _sample_peak_kib(1_200_000) - _sample_peak_kib(200_000) < 2048


def test_dist_sample_negative_count_exits_two(capsys):
    code, out, err = run(capsys, "dist", "--family", "heine", "--q", "0.5",
                         "--lambda", "0.7", "--op", "sample", "--count", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("qwhitney: ")


def test_hankel_equal_rows(capsys):
    code, out, _ = run(capsys, "hankel", "--m", "1", "--r-values", "0,1,2",
                       "--q", "1/2", "--order", "3")
    assert code == 0
    rows = [line.split("\t")[1:] for line in out.splitlines()]
    assert rows[0] == rows[1] == rows[2]


def test_hankel_rows_agree_for_any_rational_r(capsys):
    # D at r + c is the binomial transform with parameter c of D at r, and Hankel
    # determinants are invariant under it, so the r values need not be integers apart.
    code, out, _ = run(capsys, "hankel", "--m", "1", "--r-values", "0,1/3,5/2,-7/4",
                       "--q", "1/2", "--order", "6")
    assert code == 0
    rows = [line.split("\t")[1:] for line in out.splitlines()]
    assert len(rows) == 4 and len(rows[0]) == 6
    assert rows[0] == rows[1] == rows[2] == rows[3]


def test_hankel_degenerate_sequence_takes_the_zero_pivot_fallback(capsys, monkeypatch):
    # lambda_1 = m + q - 1 = 0 here, so the second leading minor vanishes and
    # every larger size is eliminated on its own by `_det_fraction_free`.
    sizes = []
    det = identities._det_fraction_free

    def spy(matrix):
        sizes.append(len(matrix))
        return det(matrix)

    monkeypatch.setattr(identities, "_det_fraction_free", spy)
    code, out, err = run(capsys, "hankel", "--m", "3/2", "--r-values", "0,1/3",
                         "--q", "-1/2", "--order", "6")
    assert (code, err) == (0, "")
    assert out == "0\t1\t0\t0\t0\t0\t0\n1/3\t1\t0\t0\t0\t0\t0\n"
    assert sizes == [3, 4, 5, 6] * 2


def test_hankel_mismatch_exits_one(capsys, monkeypatch):
    # The rows always agree for real inputs (the sequences are binomial
    # shifts of each other), so force the mismatch branch.
    def fake_probe(m, r_values, q0, order):
        return {Fraction(0): (1,), Fraction(1): (2,)}

    monkeypatch.setattr(cli, "hankel_probe", fake_probe)
    code, out, err = run(capsys, "hankel", "--m", "1", "--r-values", "0,1",
                         "--q", "1/2", "--order", "1")
    assert (code, out) == (1, "0\t1\n1\t2\n")
    assert err == "qwhitney: the Hankel minors of size 1 differ at r = 0 and r = 1\n"


def test_hankel_mismatch_names_the_smallest_size_and_both_r_values(capsys, monkeypatch):
    # The third r value's minors of size 3 and 5 are off by one; the rows
    # are printed as computed, and stderr names the smaller size only.
    argv = ("hankel", "--m", "3/2", "--r-values", "0,1,5/2", "--q", "1/2", "--order", "5")
    clean, clean_out, _ = run(capsys, *argv)
    assert clean == 0
    calls = []
    transform = identities.hankel_transform

    def fault(seq, order):
        out = transform(seq, order)
        calls.append(order)
        if len(calls) == 3:
            out[2] += 1
            out[4] += 1
        return out

    monkeypatch.setattr(identities, "hankel_transform", fault)
    code, out, err = run(capsys, *argv)
    lines = clean_out.splitlines(keepends=True)
    fields = lines[2].rstrip("\n").split("\t")
    for i in (3, 5):
        fields[i] = str(Fraction(fields[i]) + 1)
    lines[2] = "\t".join(fields) + "\n"
    assert (code, out) == (1, "".join(lines))
    assert err == "qwhitney: the Hankel minors of size 3 differ at r = 0 and r = 5/2\n"


def test_hankel_usage_errors(capsys):
    code, _, _ = run(capsys, "hankel", "--m", "1", "--r-values", "0,1",
                     "--q", "0", "--order", "2")
    assert code == 2
    code, _, _ = run(capsys, "hankel", "--m", "1", "--r-values", "0,1",
                     "--q", "1/2", "--order", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    "table --kind first --nmax 2 --m {} --r 0 --q 1/2",
    "table --kind first --nmax 2 --m 1 --r 0 --q {}",
    "verify --suite boundary --nmax 2 --q {}",
    "hankel --m 1 --r-values 0,{} --q 1/2 --order 2",
    "hankel --m 1 --r-values 0,1 --q {} --order 2",
])
@pytest.mark.parametrize("bad", ["1/0", "x"])
def test_every_rational_option_rejects_a_bad_rational_alike(capsys, argv, bad):
    code, out, err = run(capsys, *argv.format(bad).split())
    assert (code, out) == (2, "")
    assert f"not a rational: '{bad}'" in err


@pytest.mark.parametrize("spaced, joined", [
    ("table --kind second --nmax 3 --m -3/2 --r -1/2 --q -1/2",
     "table --kind second --nmax 3 --m=-3/2 --r=-1/2 --q=-1/2"),
    ("table --kind first --nmax 3 --m -3 --r -5/2 --q symbolic --format csv",
     "table --kind first --nmax 3 --m=-3 --r=-5/2 --q symbolic --format csv"),
    ("verify --suite boundary,r_shift --nmax 3 --q -1/2",
     "verify --suite boundary,r_shift --nmax 3 --q=-1/2"),
    ("hankel --m -3/2 --r-values -1/2,1/2 --q -1/2 --order 3",
     "hankel --m=-3/2 --r-values=-1/2,1/2 --q=-1/2 --order 3"),
], ids=["table-rational", "table-symbolic", "verify", "hankel"])
def test_negative_rationals_as_separate_arguments(capsys, spaced, joined):
    code, out, err = run(capsys, *spaced.split())
    assert (code, err) == (0, "")
    assert run(capsys, *joined.split()) == (0, out, "")
    if spaced.startswith("table --kind second"):
        doc = json.loads(out)
        assert (doc["m"], doc["r"], doc["q0"]) == ("-3/2", "-1/2", "-1/2")


def test_usage_error_exit_code(capsys):
    assert main(["table", "--kind", "third"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0


# -- fuzzed argv: every input ends in exit 0, 1 or 2, never in a traceback ------

#: Per subcommand and option: values the option accepts, then values it rejects.
_FUZZ_OPTIONS = {
    "table": {"kind": (["first", "second"], ["third"]),
              "nmax": (["0", "1", "3", "5"], ["-1", "2.5", "x"]),
              "m": (["1", "-3/2", "5/2", "0", "1e400"], ["1/0", "0.5", "x", ""]),
              "r": (["0", "1", "-1/2", "-1e400"], ["1/-2", "--"]),
              "q": (["symbolic", "1/2", "-1/2", "1", "-1", "2"], ["0", "1/0", "x"]),
              "format": (["json", "csv"], ["xml"])},
    "verify": {"suite": (["all", "boundary", "privault_q,convo_first_b", "genfunc_second"],
                         ["nosuch", ""]),
               "nmax": (["0", "1", "2"], ["-1", "x"]),
               "q": (["symbolic", "1/2", "-1/2", "1", "-1", "2"], ["0", "1/0", "x"]),
               "grid": (["default"], ["no/such/grid.json"])},
    "dist": {"family": (["heine", "euler"], ["poisson"]),
             "q": (["0.3", "0.5", "0.9"], ["-0.5", "0", "1", "2", "nan", "inf", "x"]),
             "lambda": (["0.3", "1", "5"], ["0", "-1", "nan", "1e100", "x"]),
             "op": (["pmf", "moments", "sample"], ["cdf"]),
             "n": (["0", "1", "4"], ["-1", "x"]),
             "m": (["1", "3/2", "-1/2", "1e200", "1e400", "-1e400"], ["1/0", "x"]),
             "r": (["0", "5/2", "1e200", "1e400"], ["x"]),
             "count": (["0", "1", "50"], ["-1", "x"]),
             "seed": (["0", "7"], ["x"])},
    "hankel": {"m": (["1", "3/2", "-2", "1e400"], ["1/0", "x"]),
               "r-values": (["0,1", "-1/2,1/2", "0,1/2", "1"], ["", "x,1", "0,1/0"]),
               "q": (["1/2", "-1/2", "1", "2"], ["0", "x"]),
               "order": (["1", "2", "4"], ["0", "-1", "x"])},
}


@st.composite
def _fuzz_argv(draw):
    """One subcommand; each option is mostly valid, sometimes rejected or left out."""
    command = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    argv = [command]
    for name, (accepted, rejected) in _FUZZ_OPTIONS[command].items():
        # verify's default --nmax (10) would make one case take seconds.
        pick = draw(st.integers(int((command, name) == ("verify", "nmax")), 11))
        if pick:
            argv += [f"--{name}", draw(st.sampled_from(rejected if pick == 1 else accepted))]
    return argv


@settings(max_examples=200, deadline=None)
@given(_fuzz_argv())
def test_fuzzed_argv_exits_with_a_contract_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    # table, verify and dist have no violation to report: every identity and
    # moment formula is a theorem.  Only hankel compares values that may differ.
    assert code in ((0, 1, 2) if argv[0] == "hankel" else (0, 2))
