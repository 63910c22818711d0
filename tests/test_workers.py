"""`verify` spreads its grid points over forked workers; the output must not
depend on how many.

`cli._worker_count` is replaced to force 1, 2, 3 or 9 processes over the
9-point DEFAULT_GRID.  With N processes this one checks points[0::N], so at
N = 2 the point at index 1 belongs to a worker.  After every run no child
process may be left, reaped or not.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from qwhitney import cli, identities, qcore, report, whitney
from qwhitney.errors import DomainError
from qwhitney.identities import DEFAULT_GRID, IdentityId
from qwhitney.report import Checks
from test_mutants import _step_fault

RUNS = {
    "rational": ["verify", "--suite", "all", "--nmax", "6", "--q", "1/2"],
    "symbolic": ["verify", "--suite", "all", "--nmax", "4", "--q", "symbolic"],
}
#: (m, r) of the points at index 1, a worker's at N = 2, and 2, this process's.
WORKER_POINT, OWN_POINT = DEFAULT_GRID[1:3]


@pytest.fixture(autouse=True)
def fresh_caches():
    caches = (whitney._first_rows, whitney._second_rows,
              qcore.q_integer, qcore.q_factorial, qcore.q_binomial)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(monkeypatch, capsys, argv, workers) -> tuple:
    """(exit code, stdout, stderr) of cli.main(argv) over `workers` processes."""
    monkeypatch.setattr(cli, "_worker_count", lambda points: workers)
    for cache in (whitney._first_rows, whitney._second_rows):
        cache.cache_clear()
    code = cli.main(argv)
    out, err = capsys.readouterr()
    _no_child_left()
    return code, out, err


def _at(points, identity, change):
    """The checker of identity with change(params, result) applied at the (m, r) in points."""
    original = identities._CHECKERS[identity]

    def checker(params, nmax):
        result = original(params, nmax)
        if (params.m, params.r) in points:
            return change(params, result)
        return result

    return checker


def _raise(error, message):
    def change(params, result):
        raise error(message)
    return change


@pytest.mark.parametrize("fault", [None, "first row power"], ids=["clean", "faulty"])
@pytest.mark.parametrize("run", list(RUNS))
def test_the_worker_count_changes_no_output(monkeypatch, capsys, tmp_path, run, fault):
    if fault is not None:
        _step_fault(monkeypatch, fault)
    stream = tmp_path / "reports.jsonl"
    outputs = []
    for workers in (1, 2, 3, 9):
        plain = _run(monkeypatch, capsys, RUNS[run], workers)
        with_report = _run(monkeypatch, capsys, RUNS[run] + ["--report", str(stream)], workers)
        outputs.append((plain, with_report, stream.read_bytes()))
    assert outputs[0][0][0] == (0 if fault is None else 1)
    assert all(output == outputs[0] for output in outputs[1:])


def test_an_internal_error_at_a_worker_point_exits_three_as_one_process_does(
        monkeypatch, capsys):
    fault = _raise(TypeError, "checker fault")
    monkeypatch.setitem(identities._CHECKERS, IdentityId.BOUNDARY,
                        _at({WORKER_POINT}, IdentityId.BOUNDARY, fault))
    argv = ["verify", "--suite", "vertical_first,boundary,r_shift", "--nmax", "3", "--q", "1/2"]
    serial = _run(monkeypatch, capsys, argv, 1)
    code, out, err = serial
    assert (code, out) == (3, "vertical_first\t54\t0\n")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("TypeError: checker fault\nqwhitney: internal error\n")
    assert _run(monkeypatch, capsys, argv, 2) == serial


@pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
def test_a_plain_value_or_zero_division_error_exits_three(monkeypatch, capsys, error):
    # Only the package's own errors are usage errors; a standard one is a fault.
    monkeypatch.setitem(identities._CHECKERS, IdentityId.BOUNDARY,
                        _at({WORKER_POINT}, IdentityId.BOUNDARY, _raise(error, "checker fault")))
    argv = ["verify", "--suite", "vertical_first,boundary", "--nmax", "3", "--q", "1/2"]
    serial = _run(monkeypatch, capsys, argv, 1)
    code, out, err = serial
    assert (code, out) == (3, "vertical_first\t54\t0\n")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith(f"{error.__name__}: checker fault\nqwhitney: internal error\n")
    assert _run(monkeypatch, capsys, argv, 2) == serial


def test_a_domain_error_at_a_worker_point_exits_two_as_one_process_does(monkeypatch, capsys):
    # The internal error at index 2, this process's, comes after it in point order.
    for point, fault in ((WORKER_POINT, _raise(DomainError, "no such point")),
                         (OWN_POINT, _raise(TypeError, "checker fault"))):
        monkeypatch.setitem(identities._CHECKERS, IdentityId.R_SHIFT,
                            _at({point}, IdentityId.R_SHIFT, fault))
    argv = ["verify", "--suite", "boundary,r_shift", "--nmax", "3", "--q", "symbolic"]
    serial = _run(monkeypatch, capsys, argv, 1)
    assert serial == (2, "boundary\t144\t0\n", "qwhitney: no such point\n")
    assert _run(monkeypatch, capsys, argv, 2) == serial


def test_an_interrupt_in_this_process_leaves_no_worker(monkeypatch, capsys):
    original = identities._CHECKERS[IdentityId.BOUNDARY]

    def interrupted(params, nmax):
        if (params.m, params.r) == DEFAULT_GRID[0]:
            raise KeyboardInterrupt
        return original(params, nmax)

    monkeypatch.setitem(identities._CHECKERS, IdentityId.BOUNDARY, interrupted)
    monkeypatch.setattr(cli, "_worker_count", lambda points: 3)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["verify", "--suite", "boundary", "--nmax", "3"])
    _no_child_left()


def test_an_interrupt_is_never_checked_again(monkeypatch, capsys):
    # Only the first call in this process raises: a run that checked the
    # identity again after the interrupt would pass and exit 3.
    original = identities._CHECKERS[IdentityId.BOUNDARY]
    here, calls = os.getpid(), []

    def interrupted_once(params, nmax):
        if os.getpid() == here:
            calls.append((params.m, params.r))
            if len(calls) == 1:
                raise KeyboardInterrupt
        return original(params, nmax)

    monkeypatch.setitem(identities._CHECKERS, IdentityId.BOUNDARY, interrupted_once)
    monkeypatch.setattr(cli, "_worker_count", lambda points: 2)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["verify", "--suite", "boundary", "--nmax", "3"])
    _no_child_left()
    assert calls == [DEFAULT_GRID[0]]


def test_a_worker_that_ends_without_its_list_exits_three(monkeypatch, capsys):
    here = os.getpid()

    def vanish(params, result):
        if os.getpid() != here:
            os._exit(0)
        return result

    monkeypatch.setitem(identities._CHECKERS, IdentityId.R_SHIFT,
                        _at({WORKER_POINT}, IdentityId.R_SHIFT, vanish))
    code, out, err = _run(monkeypatch, capsys,
                          ["verify", "--suite", "boundary,r_shift", "--nmax", "3"], 2)
    assert (code, out) == (3, "boundary\t144\t0\n")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: a share of the r_shift points raised or sent no results, "
                        "but checking every point again here raised nothing\n"
                        "qwhitney: internal error\n")


def test_a_first_failure_at_a_worker_point_builds_one_report_here(
        monkeypatch, capsys, tmp_path):
    # r_shift fails at index 1, a worker's, and at index 2, this process's.
    def off_by_one(params, result):
        return Checks(result.identity, params,
                      [(indices, lhs + 1, rhs) for indices, lhs, rhs in result.cells])

    monkeypatch.setitem(identities._CHECKERS, IdentityId.R_SHIFT,
                        _at({WORKER_POINT, OWN_POINT}, IdentityId.R_SHIFT, off_by_one))
    # Every process appends its pid to the log for each report it builds.
    log = tmp_path / "checked.log"
    original = report.checked

    def logged(*args):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(*args)

    monkeypatch.setattr(report, "checked", logged)
    monkeypatch.setattr(cli, "checked", logged)
    code, out, err = _run(monkeypatch, capsys,
                          ["verify", "--suite", "all", "--nmax", "3", "--q", "1/2"], 2)
    assert code == 1 and out.endswith("FAIL\t3072\t40\n")
    assert err.startswith('qwhitney: first failure: r_shift at {"m": "1", "r": "1", ')
    assert log.read_text(encoding="ascii") == f"{os.getpid()}\n"


def test_a_failed_fork_leaves_its_points_to_this_process(monkeypatch, capsys):
    argv = RUNS["rational"]
    serial = _run(monkeypatch, capsys, argv, 1)
    real_fork, forks = os.fork, []

    def fork():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    assert _run(monkeypatch, capsys, argv, 3) == serial
    assert len(forks) == 1


def test_the_worker_count_is_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("no fork here"), raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert [cli._worker_count(points) for points in (1, 2, 3, 9)] == [1, 2, 3, 3]


def test_without_fork_the_worker_count_is_one(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert cli._worker_count(9) == 1


@pytest.mark.parametrize("cpus, expected", [(4, [1, 3, 4]), (None, [1, 1, 1])])
def test_without_an_affinity_the_worker_count_is_the_cpu_count(monkeypatch, cpus, expected):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("no fork here"), raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert [cli._worker_count(points) for points in (1, 3, 9)] == expected


#: Run in a child interpreter as CHILD <fault> <argv...> over 2 forced processes.
#: fault "raise" makes r_shift raise at WORKER_POINT in every process, "vanish"
#: ends the worker there without its list, and "none" changes nothing.
CHILD = """
import gc, os, sys
from qwhitney import cli, identities
from qwhitney.identities import DEFAULT_GRID, IdentityId

fault, argv = sys.argv[1], sys.argv[2:]
here, original = os.getpid(), identities._CHECKERS[IdentityId.R_SHIFT]

def checker(params, nmax):
    if (params.m, params.r) == DEFAULT_GRID[1]:
        if fault == "raise":
            raise TypeError("checker fault")
        if fault == "vanish" and os.getpid() != here:
            os._exit(0)
    return original(params, nmax)

identities._CHECKERS[IdentityId.R_SHIFT] = checker
cli._worker_count = lambda points: 2
code = cli.main(argv)
gc.collect()
sys.exit(code)
"""


@pytest.mark.parametrize("fault, code, last", [
    ("none", 0, "PASS\t"),
    ("raise", 3, "TypeError: checker fault"),
    ("vanish", 3, "RuntimeError: a share of the r_shift points"),
])
def test_the_worker_paths_leak_no_file(tmp_path, fault, code, last):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    argv = ["verify", "--suite", "boundary,r_shift", "--nmax", "3", "--q", "1/2",
            "--report", str(tmp_path / "reports.jsonl")]
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-c", CHILD, fault, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == code, proc.stderr
    assert last in (proc.stdout if code == 0 else proc.stderr)
    assert "ResourceWarning" not in proc.stderr and "Exception ignored" not in proc.stderr
