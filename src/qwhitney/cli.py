"""Command-line front end.

Subcommands:

    table    emit one Whitney triangle as JSON or CSV
    verify   run identity suites over a parameter grid
    dist     probe the Heine/Euler distributions (pmf, moments, sampling)
    hankel   compare Hankel transforms of Dowling sequences across r values

Exit codes: 0 success / all checks pass, 1 a verified violation, 2 bad
arguments or domain errors, 3 an internal error (its traceback goes to
stderr).  Rationals are written `p`, `-p`, or `p/q` with q > 0; floats are
printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from math import inf
from operator import itemgetter

from .errors import DomainError, QWhitneyError
from .identities import (
    DEFAULT_GRID,
    IdentityId,
    check_nmax,
    hankel_probe,
    identity_id,
    verify,
)
from .modes import SYMBOLIC, canonical_text, parse_qmode, parse_scalar
from .qcore import TERM_CAP
from .qdist import (MOMENT_NMAX, MOMENT_REL_TOL, QDistSpec, moment_pairs, pmf_walk,
                    sample_batches, sample_by_search)
from .report import checked
from .whitney import WhitneyParams, whitney_first_triangle, whitney_second_triangle

FORMAT_VERSION = "1"

#: A negative number such as -3, -3/2 or -.5.  argparse takes "-3/2" for a flag.
_NEGATIVE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join an option and a following negative value: ["--m", "-3/2"] -> ["--m=-3/2"]."""
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (_NEGATIVE.match(tok) and prev.startswith("--") and "=" not in prev
                and prev != "--help"):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _repeat(items: list):
    """The first entry of items equal to an earlier one, or None."""
    return next((item for i, item in enumerate(items) if item in items[:i]), None)


def _rationals(text: str) -> list[Fraction]:
    """A comma-separated list of distinct rationals, each read by `_rational`."""
    values = [_rational(tok) for tok in text.split(",")]
    repeat = _repeat(values)
    if repeat is not None:
        raise argparse.ArgumentTypeError(f"repeated value {repeat} in {text!r}")
    return values


def _qmode_text(text: str) -> str:
    """'symbolic', or a rational that `_rational` reads; `parse_qmode` builds the mode."""
    if text.strip() != "symbolic":
        _rational(text)
    return text


@contextmanager
def _unlimited_int_text():
    """Lift the interpreter's cap on int <-> decimal text conversion, then restore it."""
    old = getattr(sys, "get_int_max_str_digits", int)()  # 0: no cap, or none to lift
    if old:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old:
            sys.set_int_max_str_digits(old)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qwhitney", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit a Whitney triangle")
    p.add_argument("--kind", required=True, choices=("first", "second"))
    p.add_argument("--nmax", required=True, type=int)
    p.add_argument("--m", required=True, type=_rational)
    p.add_argument("--r", required=True, type=_rational)
    p.add_argument("--q", required=True, type=_qmode_text,
                   help="symbolic or a rational like 1/2")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=run_table)

    p = sub.add_parser("verify", help="run identity suites over a grid")
    p.add_argument("--suite", default="all", help="all or comma-separated identity ids")
    p.add_argument("--nmax", default=10, type=int)
    p.add_argument("--grid", default="default", help="default or a JSON file of [m, r] pairs")
    p.add_argument("--q", default="symbolic", type=_qmode_text)
    p.add_argument("--report", default=None, help="write one JSON report per line here")
    p.set_defaults(func=run_verify)

    p = sub.add_parser("dist", help="Heine/Euler distribution operations")
    p.add_argument("--family", required=True, choices=("heine", "euler"))
    p.add_argument("--q", required=True, type=float)
    p.add_argument("--lambda", required=True, type=float, dest="lam")
    p.add_argument("--op", required=True, choices=("pmf", "moments", "sample"))
    p.add_argument("--n", default=None, type=int)
    p.add_argument("--m", default=Fraction(1), type=_rational)
    p.add_argument("--r", default=Fraction(0), type=_rational)
    p.add_argument("--count", default=10, type=int)
    p.add_argument("--seed", default=0, type=int)
    p.set_defaults(func=run_dist)

    p = sub.add_parser("hankel", help="Dowling-sequence Hankel probe")
    p.add_argument("--m", required=True, type=_rational)
    p.add_argument("--r-values", required=True, dest="r_values", type=_rationals,
                   help="comma-separated rationals")
    p.add_argument("--q", required=True, type=_rational)
    p.add_argument("--order", required=True, type=int)
    p.set_defaults(func=run_hankel)

    return parser


def table_document(triangle) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": triangle.kind,
        **triangle.params.point(),
        "nmax": triangle.nmax,
        "rows": [{"n": n, "k": k, "value": canonical_text(triangle.value(n, k))}
                 for n in range(triangle.nmax + 1) for k in range(n + 1)],
    }


def render_table_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def render_table_csv(doc: dict) -> str:
    rows: dict[int, list[str]] = {}
    for cell in doc["rows"]:
        rows.setdefault(cell["n"], []).append(cell["value"])
    return "".join(",".join(rows[n]) + "\n" for n in sorted(rows))


def parse_table_document(text: str) -> dict:
    """Parse a JSON table back; adds parsed scalars under 'parsed_values'."""
    doc = json.loads(text)
    with _unlimited_int_text():
        mode = SYMBOLIC if doc["qmode"] == "symbolic" else parse_qmode(str(doc["q0"]))
        doc["parsed_values"] = {
            (cell["n"], cell["k"]): parse_scalar(cell["value"], mode) for cell in doc["rows"]
        }
    return doc


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def run_table(args) -> int:
    if args.nmax < 0:
        raise DomainError("--nmax must be >= 0")
    mode = parse_qmode(args.q)
    params = WhitneyParams(args.m, args.r, mode)
    build = whitney_first_triangle if args.kind == "first" else whitney_second_triangle
    doc = table_document(build(params, args.nmax))
    render = render_table_json if args.format == "json" else render_table_csv
    _emit(render(doc), args.out)
    return 0


def _load_grid(source: str) -> list[tuple[Fraction, Fraction]]:
    if source == "default":
        return list(DEFAULT_GRID)
    with open(source, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not all(
            isinstance(entry, list) and len(entry) == 2 for entry in raw):
        raise DomainError(f"--grid {source}: expected a JSON list of [m, r] pairs")
    if not raw:
        raise DomainError(f"--grid {source}: no [m, r] pairs, so nothing to verify")
    try:
        grid = [(_rational(str(m)), _rational(str(r))) for m, r in raw]
    except argparse.ArgumentTypeError as exc:
        raise DomainError(f"--grid {source}: {exc}") from None
    repeat = _repeat(grid)
    if repeat is not None:
        raise DomainError(f"--grid {source}: repeated [m, r] pair [{repeat[0]}, {repeat[1]}]")
    return grid


def _report_order(reports: list):
    """Sort key: the point's values as text, in the order of its sorted keys.

    Every report of one identity carries the same point keys, so this orders
    them as comparing the sorted (key, text) pairs would.
    """
    values = itemgetter(*sorted(reports[0].point))
    return lambda rep: tuple(map(str, values(rep.point)))


def _worker_count(points: int) -> int:
    """The processes `verify` spreads its points over: one per CPU this process
    may run on, at most one per point, and one where there is no os.fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(points, cpus)


def _share_results(identity, points, share, nmax: int, full: bool) -> list:
    """One identity checked at the point indices in share, one entry per point:
    (index, checks, failing, first failing cell or None, every cell if full else None)."""
    entries = []
    for i in share:
        result = verify(identity, points[i], nmax)
        failing = result.failing
        entries.append((i, len(result), len(failing),
                        result.cells[failing[0]] if failing else None,
                        result.cells if full else None))
        del result, failing  # before the next point's checks are made
    return entries


def _spread(identities, points, nmax: int, full: bool):
    """Yield (identity, entries of every point in point order), identity by identity.

    The points are shared out over `_worker_count` processes: this one checks
    points[0::N], and a forked worker each other share, sending one pickled
    entry list per identity.  A worker never returns: the caller's output and
    exit handlers run once, in this process.  If a share raises, or a worker
    ends without its list, every point of the identity is checked again here
    in point order, so the exception and its traceback are a one-process
    run's.  Closing the generator kills and reaps every worker.  The package
    starts no threads, so a forked worker inherits no held lock.
    """
    import pickle
    import signal

    n = _worker_count(len(points))
    shares = [range(w, len(points), n) for w in range(n)]
    pids, pipes = [], []
    try:
        for share in shares[1:]:
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: this one takes the shares left
                os.close(rfd)
                os.close(wfd)
                break
            if pid == 0:  # a worker leaves through os._exit, never into the caller
                try:
                    os.close(rfd)
                    with open(wfd, "wb") as out:
                        for identity in identities:
                            pickle.dump(_share_results(identity, points, share, nmax, full), out)
                            out.flush()
                finally:
                    os._exit(0)
            os.close(wfd)
            pids.append(pid)
            pipes.append(open(rfd, "rb"))
        own = sorted(chain(shares[0], *shares[1 + len(pids):]))
        for identity in identities:
            try:
                entries = _share_results(identity, points, own, nmax, full)
                for pipe in pipes:
                    entries += pickle.load(pipe)
            except Exception:  # checked again below, so no traceback is chained to it
                entries = None
            if entries is None:
                _share_results(identity, points, range(len(points)), nmax, full)
                raise RuntimeError(f"a share of the {identity.value} points raised or sent no "
                                   "results, but checking every point again here raised nothing")
            entries.sort(key=itemgetter(0))
            yield identity, entries
            del entries  # before the next identity's checks are made
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def run_verify(args) -> int:
    if args.suite == "all":
        identities = list(IdentityId)
    else:
        identities = [identity_id(name.strip()) for name in args.suite.split(",")]
        repeat = _repeat(identities)
        if repeat is not None:
            raise DomainError(f"--suite: repeated identity {repeat.value!r}")
    mode = parse_qmode(args.q)
    points = [WhitneyParams(m, r, mode) for m, r in _load_grid(args.grid)]

    failures = 0
    total = 0
    first = None  # the first failing report, in count-table order
    check_nmax(args.nmax)  # before the report file is opened or any worker forked
    stream = open(args.report, "w", encoding="utf-8") if args.report else None
    results = _spread(identities, points, args.nmax, stream is not None)
    try:
        for identity, entries in results:
            checks = bad = 0
            reports = []  # every report of the identity, built only for the stream
            for i, point_checks, point_bad, first_cell, cells in entries:
                checks += point_checks
                bad += point_bad
                if first is None and first_cell is not None:
                    first = checked(identity.value, points[i], *first_cell)
                if cells is not None:
                    reports += [checked(identity.value, points[i], *cell) for cell in cells]
            total += checks
            failures += bad
            print(f"{identity.value}\t{checks}\t{bad}")
            if reports:
                # The count line does not depend on order; the stream does.
                reports.sort(key=_report_order(reports))
                for rep in reports:
                    stream.write(json.dumps(rep.as_json_dict()) + "\n")
            del entries, reports  # before the next identity's checks are made
    finally:
        results.close()
        if stream is not None:
            stream.close()
    print(f"{'PASS' if failures == 0 else 'FAIL'}\t{total}\t{failures}")
    if first is not None:
        print(f"qwhitney: first failure: {first.identity} at {json.dumps(first.point)}: "
              f"lhs - rhs = {canonical_text(first.lhs - first.rhs)}", file=sys.stderr)
    return 0 if failures == 0 else 1


def run_dist(args) -> int:
    if args.n is not None and args.n < 0:
        raise DomainError("--n must be >= 0")
    ceiling = {"pmf": TERM_CAP - 1, "moments": MOMENT_NMAX}.get(args.op, inf)
    if args.n is not None and args.n > ceiling:
        raise DomainError(f"--op {args.op} needs --n <= {ceiling}, got {args.n}")
    spec = QDistSpec(args.family, args.q, args.lam)
    if args.op == "pmf":
        for x, p in enumerate(pmf_walk(spec, args.n)):
            print(f"{x}\t{canonical_text(p)}")
        return 0
    if args.op == "moments":
        # Every row is computed before any is printed: a moment outside the
        # normal float range (an overflow, or a subnormal value whose low bits
        # are lost) ends the command with exit 2 and no partial table.
        try:
            rows = list(moment_pairs(spec, float(args.m), float(args.r),
                                     3 if args.n is None else args.n))
            in_range = all(v == 0.0 or sys.float_info.min <= abs(v) < inf
                           for *_, closed, oracle in rows for v in (closed, oracle))
        except OverflowError:
            in_range = False
        if not in_range:
            raise DomainError("--op moments: a moment at this --m, --r and --n lies outside "
                              "the float range")
        violation = None
        for kind, k, closed, oracle in rows:
            gap = abs(closed - oracle)
            print("\t".join([kind, str(k), *map(canonical_text, (closed, oracle, gap))]))
            if violation is None and not gap <= MOMENT_REL_TOL * max(abs(closed), abs(oracle)):
                violation = (f"{kind} moment {k}: closed form {canonical_text(closed)} and "
                             f"oracle {canonical_text(oracle)} differ by more than "
                             f"{MOMENT_REL_TOL} relative")
        if violation is not None:
            print(f"qwhitney: {violation}", file=sys.stderr)
            return 1
        return 0
    # Written batch by batch, so memory does not grow with --count.  The
    # first batch is checked against the per-draw search once it is written.
    batches = sample_batches(spec, args.count, args.seed)
    first = next(batches, [])
    labels = []
    for batch in chain([first], batches):
        sys.stdout.write(_draw_lines(batch, labels))
    searched = sample_by_search(spec, len(first), args.seed)
    if first != searched:
        i = next(i for i, pair in enumerate(zip(first, searched)) if pair[0] != pair[1])
        print(f"qwhitney: draw {i} is {first[i]}, but the per-draw search gives {searched[i]}",
              file=sys.stderr)
        return 1
    return 0


#: The hundreds, tens and units digit of each byte value v, in ASCII, with
#: the pad byte 0 where v has no such digit.
_DIGIT_LANES = tuple(bytes(str(v).rjust(3, "\0").encode()[lane] for v in range(256))
                     for lane in range(3))


def _draw_lines(batch: list[int], labels: list[str]) -> str:
    """The draws of batch as text, one decimal number per line.

    Each draw takes four bytes: three digit lanes, each one bytes.translate
    of the batch through `_DIGIT_LANES`, and a newline; deleting the pad
    bytes leaves the text.  A batch with a draw past 255 has no bytes form;
    it joins the lines in labels, extended to cover its largest draw."""
    try:
        draws = bytes(batch)
    except ValueError:
        labels += [f"{x}\n" for x in range(len(labels), max(batch) + 1)]
        return "".join(map(labels.__getitem__, batch))
    text = bytearray(b"\0\0\0\n") * len(batch)
    for lane, digits in enumerate(_DIGIT_LANES):
        text[lane::4] = draws.translate(digits)
    return text.translate(None, b"\0").decode("ascii")


def run_hankel(args) -> int:
    if args.order < 1:
        raise DomainError("--order must be >= 1")
    result = hankel_probe(args.m, args.r_values, args.q, args.order)
    for r in args.r_values:
        row = result.rows[r]
        print(str(r) + "\t" + "\t".join(canonical_text(v) for v in row))
    if not result.equal:
        print("hankel mismatch across r values", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # Exact values have no size limit, in the arguments or in the output.
    with _unlimited_int_text():
        try:
            args = parser.parse_args(_attach_negative_values(argv))
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
        try:
            return args.func(args)
        except (QWhitneyError, ValueError, ZeroDivisionError, OSError) as exc:
            print(f"qwhitney: {exc}", file=sys.stderr)
            return 2
        except Exception:
            import traceback  # here, not at the top: it would slow every start-up
            traceback.print_exc()
            print("qwhitney: internal error", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
