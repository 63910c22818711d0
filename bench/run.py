"""qwhitney benchmark: CLI jobs in fresh interpreters, checked and timed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  --seconds defaults to `run_seconds` in
BENCHMARK.json, the length every recorded run has.  The program is imported
from the checkout's `src/`; nothing is installed.  A run

1. generates the workload's inputs from the seed (values only: sizes are
   fixed per workload, so the cost of a run does not depend on the seed);
2. runs the first job once as a warm-up and discards its timing;
3. repeats passes until the time budget is spent.  A pass runs the
   workload's CLI jobs one after another, each in a fresh `python -I -S`
   child, because CLI users pay cold caches on every invocation.  Only the
   child's lifetime, spawn to exit, is timed; it is a closed loop with one
   client and nothing runs in parallel;
4. checks every job's output outside the timed region;
5. prints a readable report and, as its last line, one JSON object with
   `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones (medians over passes).
Times are wall times scaled to a reference machine speed; see calibrate().
With `--trace 1` untraced and traced passes alternate; traced jobs run under
`tracing.install()`, and the metrics are the per-layer ones plus the tracing
overhead (traced minus untraced median pass time).

See bench/WORKLOADS.md for why each workload exists and what each metric is
predicted to move.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
PYTHON = [sys.executable, "-I", "-S"]

sys.path.insert(0, BENCH_DIR)
import tracing  # noqa: E402
from sweep import summary  # noqa: E402

# -- workload inputs -----------------------------------------------------------

#: qwhitney.identities.DEFAULT_GRID, as the CLI's --grid file spells it.
DEFAULT_GRID = [[m, r] for m in ("1", "2", "3/2") for r in ("0", "1", "5/2")]
VERIFY_SYMBOLIC_NMAX = 5
VERIFY_RATIONAL_NMAX = 10  # the acceptance nmax: its count table has 25,542 checks
RATIONAL_Q = ("1/2", "-1/2")
HANKEL_Q = "1/2"  # at q = -1/2 the order-16 probe for m = 3/2 costs half as much
HANKEL_ORDERS = (12, 16)
HANKEL_M = ("3/2", "-3/2")
HANKEL_R0 = (0, 1)  # --r-values is r0, r0+1, r0+2
TABLE_NMAX = 20
TABLE_PARAMS = (("3/2", "5/2"), ("-3/2", "-5/2"), ("5/2", "3/2"), ("-5/2", "-3/2"))
TABLE_SAMPLED_CELLS = 4
SAMPLE_COUNT = 10**6
SAMPLE_SEED = 2024
HEINE_PARAMS = (("0.5", "0.7"), ("0.3", "0.9"), ("0.6", "0.5"), ("0.4", "1.2"))
EULER_PARAMS = (("0.5", "0.4"), ("0.3", "0.8"), ("0.6", "1.5"), ("0.4", "1.0"))
MOMENT_ORDER = 12
MOMENT_PARAMS = (("1", "0"), ("2", "1"), ("3/2", "5/2"))
MOMENT_REL_TOL = 1e-9
PMF_MASS_FLOOR = 1.0 - 1e-12

IDENTITY_IDS = (
    "vertical_first", "vertical_second", "horizontal_first", "horizontal_second",
    "genfunc_second", "boundary", "r_decomp_first", "r_decomp_second", "r_shift",
    "convo_first_a", "convo_first_b", "convo_second_a", "convo_second_b",
    "dowling_binomial_fwd", "dowling_binomial_inv", "orthogonality", "privault_q",
    "defining_first", "defining_second",
)


def seeded_grid(rng: random.Random, seed: int) -> list:
    """A 3x3 (m, r) grid shaped like DEFAULT_GRID; seed 0 gives DEFAULT_GRID.

    Only signs and one r value vary.  r keeps one zero, one value in {1, 2}
    (where the r-decomposition splits {0, 1, r-1} collapse to two) and one
    non-integer, so every grid yields the same number of checks per identity
    and a similar amount of arithmetic.
    """
    if seed == 0:
        return [list(p) for p in DEFAULT_GRID]
    ms = (rng.choice(("1", "-1")), rng.choice(("2", "-2")), rng.choice(("3/2", "-3/2")))
    rs = ("0", rng.choice(("1", "2")), rng.choice(("5/2", "-5/2")))
    return [[m, r] for m in ms for r in rs]


def pick(rng: random.Random, seed: int, pool):
    return pool[0] if seed == 0 else rng.choice(pool)


class Job:
    """One CLI invocation of a pass."""

    def __init__(self, kind: str, argv: list, ops: int, main: bool, out: str | None = None,
                 key: str | None = None):
        self.kind = kind
        self.argv = argv
        self.ops = ops  # checked outputs this job produces
        self.main = main  # counts towards ops_per_s
        self.out = out  # --out file, if the job writes one
        self.key = key  # reference-digest key, if the output has one


# Each builder returns (inputs, jobs).  The inputs dict is printed in the
# report so a run can be reproduced by hand.

def verify_symbolic(rng, seed, tmp):
    grid = seeded_grid(rng, seed)
    grid_path = _write_json(tmp, "grid.json", grid)
    inputs = {"grid": grid, "q": "symbolic", "nmax": VERIFY_SYMBOLIC_NMAX}
    return inputs, [Job("verify", ["verify", "--suite", "all", "--nmax",
                                   str(VERIFY_SYMBOLIC_NMAX), "--grid", grid_path,
                                   "--q", "symbolic"], 0, True,
                        key=str(VERIFY_SYMBOLIC_NMAX))]


def verify_rational(rng, seed, tmp):
    grid = seeded_grid(rng, seed)
    grid_path = _write_json(tmp, "grid.json", grid)
    q = pick(rng, seed, RATIONAL_Q)
    m = pick(rng, seed, HANKEL_M)
    r_values = hankel_r_values(pick(rng, seed, HANKEL_R0))
    inputs = {"grid": grid, "q": q, "nmax": VERIFY_RATIONAL_NMAX,
              "hankel": {"m": m, "r_values": r_values, "q": HANKEL_Q,
                         "orders": list(HANKEL_ORDERS)}}
    jobs = [Job("verify", ["verify", "--suite", "all", "--nmax", str(VERIFY_RATIONAL_NMAX),
                           "--grid", grid_path, f"--q={q}"], 0, True,
                key=str(VERIFY_RATIONAL_NMAX))]
    for order in HANKEL_ORDERS:
        jobs.append(Job("hankel", ["hankel", f"--m={m}", f"--r-values={r_values}",
                                   f"--q={HANKEL_Q}", "--order", str(order)], 1, False,
                        key=hankel_key(m, r_values, order)))
    return inputs, jobs


def table_symbolic(rng, seed, tmp):
    m, r = pick(rng, seed, TABLE_PARAMS)
    inputs = {"m": m, "r": r, "q": "symbolic", "nmax": TABLE_NMAX, "kinds": ["first", "second"]}
    cells = (TABLE_NMAX + 1) * (TABLE_NMAX + 2) // 2
    jobs = []
    for kind in ("first", "second"):
        out = os.path.join(tmp, f"table-{kind}.json")
        jobs.append(Job("table", ["table", "--kind", kind, "--nmax", str(TABLE_NMAX),
                                  f"--m={m}", f"--r={r}", "--q", "symbolic", "--out", out],
                        cells, True, out=out, key=table_key(kind, m, r)))
    return inputs, jobs


def dist_float(rng, seed, tmp):
    heine = pick(rng, seed, HEINE_PARAMS)
    euler = pick(rng, seed, EULER_PARAMS)
    m, r = pick(rng, seed, MOMENT_PARAMS)
    inputs = {"heine": heine, "euler": euler, "count": SAMPLE_COUNT,
              "sample_seed": SAMPLE_SEED, "moments": {"n": MOMENT_ORDER, "m": m, "r": r}}
    jobs = []
    for family, (q, lam) in (("heine", heine), ("euler", euler)):
        base = ["dist", "--family", family, "--q", q, "--lambda", lam]
        jobs.append(Job("sample", base + ["--op", "sample", "--count", str(SAMPLE_COUNT),
                                          "--seed", str(SAMPLE_SEED)], SAMPLE_COUNT, True,
                        key=sample_key(family, q, lam)))
    for family, (q, lam) in (("heine", heine), ("euler", euler)):
        base = ["dist", "--family", family, "--q", q, "--lambda", lam]
        jobs.append(Job("moments", base + ["--op", "moments", "--n", str(MOMENT_ORDER),
                                           f"--m={m}", f"--r={r}"],
                        2 * (MOMENT_ORDER + 1), False))
        jobs.append(Job("pmf", base + ["--op", "pmf"], 1, False,
                        key=pmf_key(family, q, lam)))
    return inputs, jobs


WORKLOADS = {
    "verify_symbolic": verify_symbolic,
    "verify_rational": verify_rational,
    "table_symbolic": table_symbolic,
    "dist_float": dist_float,
}


def table_key(kind, m, r):
    return f"{kind}|{m}|{r}|{TABLE_NMAX}"


def sample_key(family, q, lam):
    return f"{family}|{q}|{lam}|{SAMPLE_COUNT}|{SAMPLE_SEED}"


def hankel_r_values(r0):
    return ",".join(str(r0 + i) for i in range(3))


def hankel_key(m, r_values, order):
    return f"{m}|{r_values}|{HANKEL_Q}|{order}"


def pmf_key(family, q, lam):
    return f"{family}|{q}|{lam}"


def _write_json(tmp, name, value):
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh)
    return path


# -- running children ------------------------------------------------------------

#: Seconds the calibration loop below takes at the speed the benchmark reports
#: times in: its median on the machine where the benchmark was defined (a
#: 2-core Xeon VM, Python 3.11.7).
CAL_REF_S = 0.030
#: One reading of the loop is noisy (its quartiles lie about 20% apart), while
#: the speed phases last minutes, so a spawn is scaled by the median of the
#: last few readings.
CAL_WINDOW = 5
_readings: collections.deque = collections.deque(maxlen=CAL_WINDOW)


def calibrate() -> float:
    """Seconds this process takes for a fixed loop of Fraction arithmetic.

    On a shared VM the whole machine runs in speed phases: the same work took
    55 ms or 95 ms depending on the minute, so raw wall times of whole runs
    spread by up to 30%.  Every timed spawn is preceded by this loop, and its
    wall time is scaled by CAL_REF_S over the median of the last CAL_WINDOW
    readings: times are reported at the reference speed.  The loop runs
    benchmark code only, so a change to qwhitney moves the scaled time exactly
    as it moves the raw one.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 6000):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def timed_spawn(argv: list, stdout_path: str, stderr_path: str):
    """spawn() preceded by calibrate(); returns (wall, scaled wall, exit code)."""
    _readings.append(calibrate())
    scale = CAL_REF_S / statistics.median(_readings)
    wall, code = spawn(argv, stdout_path, stderr_path)
    return wall, wall * scale, code


def spawn(argv: list, stdout_path: str, stderr_path: str):
    """Run argv to completion; return (wall seconds, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        code = subprocess.call(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                               cwd=ROOT)
        wall = time.perf_counter() - t0
    return wall, code


def cli_argv(argv: list, trace_prefix: str | None, peak_path: str | None = None) -> list:
    return PYTHON + [CHILD, SRC, trace_prefix or "-", peak_path or "-", "--"] + argv


def read_peak_mb(path: str) -> float | None:
    """The peak RSS a child wrote at exit (see bench/child.py), or None."""
    try:
        with open(path, encoding="ascii") as fh:
            return int(fh.read()) / 1024.0
    except (OSError, ValueError):
        return None


def setup_sample(tmp: str) -> tuple:
    """(wall, scaled wall) for a fresh interpreter to finish `import qwhitney`."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import qwhitney"
    wall, scaled, code_ = timed_spawn(PYTHON + ["-c", code],
                                      os.path.join(tmp, "setup.out"),
                                      os.path.join(tmp, "setup.err"))
    if code_ != 0:
        raise RuntimeError("import qwhitney failed in a fresh interpreter")
    return wall, scaled


# -- output checks (never inside a timed region) ---------------------------------

class Checker:
    """Tallies checked outputs; any failure makes the run incorrect.

    Moment pairs inside the known oracle gap are tallied apart, in
    `known_gap`, as neither attempted nor failed operations.
    """

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.known_gap = 0
        self.faults = 0  # benchmark-side inconsistencies, such as a count that does not repeat
        self.problems: list[str] = []

    def tally(self, ops: int, failed: int, problem: str | None = None):
        self.attempted += ops
        self.failed += failed
        if problem:
            self.note(problem)

    def fault(self, problem: str):
        self.faults += 1
        self.note(problem)

    def note(self, problem: str):
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check(self, job: Job, code: int, stdout_path: str, stderr_path: str):
        ops = self.expected_ops(job)
        with open(stderr_path, "rb") as fh:
            stderr = fh.read()
        if code != 0 or stderr:
            self.tally(ops, ops, f"{job.kind}: exit {code}, stderr {stderr[-300:]!r}")
            return
        with open(stdout_path, "rb") as fh:
            stdout = fh.read()
        try:
            getattr(self, "check_" + job.kind)(job, stdout, ops)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            self.tally(ops, ops, f"{job.kind}: unreadable output ({exc})")

    def expected_ops(self, job: Job) -> int:
        if job.kind == "verify":
            last = self.reference["verify_tables"][job.key].splitlines()[-1]
            return int(last.split("\t")[1])
        return job.ops

    def check_verify(self, job, stdout, ops):
        # Same grid shape, so the same per-identity counts and zero failures.
        if stdout.decode() != self.reference["verify_tables"][job.key]:
            self.tally(ops, ops, f"verify table differs from the nmax {job.key} reference")
        else:
            self.tally(ops, 0)

    def check_hankel(self, job, stdout, ops):
        order = int(job.argv[job.argv.index("--order") + 1])
        r_values = next(a for a in job.argv if a.startswith("--r-values="))[11:].split(",")
        rows = [line.split("\t") for line in stdout.decode().splitlines()]
        ok = (len(rows) == len(r_values)
              and [row[0] for row in rows] == r_values
              and all(len(row) == order + 1 and row[1:] == rows[0][1:] for row in rows)
              and rows[0][1] == "1")
        if not ok:
            self.tally(ops, ops, f"hankel {job.key}: rows malformed or differ across r")
        else:
            self.check_digest(job, stdout, ops, "hankel_sha256")

    def check_table(self, job, stdout, ops):
        with open(job.out, "rb") as fh:
            text = fh.read()
        digest = hashlib.sha256(text).hexdigest()
        if stdout or digest != self.reference["table_sha256"][job.key]:
            self.tally(ops, ops, f"table {job.key}: sha256 {digest} differs from reference")
        else:
            self.tally(ops, 0)

    def check_sample(self, job, stdout, ops):
        self.check_digest(job, stdout, ops, "sample_sha256")

    def check_digest(self, job, stdout, ops, table):
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != self.reference[table][job.key]:
            self.tally(ops, ops, f"{job.kind} {job.key}: sha256 {digest} differs from reference")
        else:
            self.tally(ops, 0)

    def check_pmf(self, job, stdout, ops):
        rows = [line.split("\t") for line in stdout.decode().splitlines()]
        probs = [float(p) for _, p in rows]
        ok = ([int(x) for x, _ in rows] == list(range(len(rows)))
              and all(0.0 <= p <= 1.0 for p in probs)
              and sum(probs) >= PMF_MASS_FLOOR)
        if not ok:
            self.tally(ops, ops, f"pmf {job.key}: rows malformed or mass {sum(probs)!r}")
        else:
            self.check_digest(job, stdout, ops, "pmf_sha256")

    def check_moments(self, job, stdout, ops):
        rows = [line.split("\t") for line in stdout.decode().splitlines()]
        expected = [(kind, str(i)) for kind in ("factorial", "whitney")
                    for i in range(MOMENT_ORDER + 1)]
        if [(row[0], row[1]) for row in rows] != expected:
            self.tally(ops, ops, "moments rows malformed")
            return
        for kind, index, closed, oracle, _ in rows:
            a, b = float(closed), float(oracle)
            if abs(a - b) <= MOMENT_REL_TOL * max(abs(a), abs(b)):
                self.tally(1, 0)
            elif kind == "factorial" and int(index) >= 10 and b == 0.0:
                # Known defect: direct_moment_oracle stops after ten exactly-zero
                # terms, so q-factorial moments of order >= 10 read 0.  Reported
                # as the per-layer count qdist.oracle_gap_pairs, not as failed.
                self.known_gap += 1
            else:
                self.tally(1, 1, f"moment {kind} {index}: closed {closed} oracle {oracle}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.faults


def check_table_cells(rng: random.Random, jobs: list, checker: Checker):
    """Recompute a seeded sample of cells through the independent closed forms."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from qwhitney.laurent import parse_laurent
    from qwhitney.whitney import (WhitneyParams, whitney_first_elementary,
                                  whitney_second_multisets)

    for job in jobs:
        if job.kind != "table":
            continue
        try:
            with open(job.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            checker.tally(TABLE_SAMPLED_CELLS, TABLE_SAMPLED_CELLS, f"{job.out} unreadable")
            continue
        params = WhitneyParams(Fraction(doc["m"]), Fraction(doc["r"]))
        closed = whitney_first_elementary if doc["kind"] == "first" else whitney_second_multisets
        cells = {(c["n"], c["k"]): c["value"] for c in doc["rows"]}
        for _ in range(TABLE_SAMPLED_CELLS):
            n = rng.randrange(TABLE_NMAX // 2, TABLE_NMAX + 1)
            k = rng.randrange(n + 1)
            ok = (n, k) in cells and parse_laurent(cells[(n, k)]) == closed(params, n, k)
            checker.tally(1, 0 if ok else 1,
                          None if ok else f"table {doc['kind']} cell ({n},{k}) != closed form")


# -- per-layer metrics from a traced pass ------------------------------------------

COUNT_METRICS = (
    "laurent.mul_calls", "laurent.mul_coeff_products", "laurent.add_calls",
    "laurent.exact_div_calls", "laurent.max_terms", "laurent.max_coeff_bits",
    "whitney.triangle_calls", "whitney.cache_hit_ratio", "whitney.cells_built",
    "identities.checks", "identities.hankel_calls", "qcore.q_binomial_calls",
    "modes.divide_exact_calls", "qdist.oracle_terms", "qdist.oracle_gap_pairs",
    "cli.output_bytes",
)


def layer_metrics(stats: dict, counters: dict, output_bytes: int, gap_pairs: int) -> dict:
    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def top(*names):
        return sum(stats.get(n, {}).get("top_s", 0.0) for n in names)

    def self_of(prefix):
        return sum(s["self_s"] for n, s in stats.items() if n.startswith(prefix))

    def count(key):
        return counters.get(key, 0)

    lookups = count("whitney.cache_lookups")
    out = {
        "laurent.mul_calls": calls("laurent.mul"),
        "laurent.mul_coeff_products": count("laurent.mul_coeff_products"),
        "laurent.add_calls": calls("laurent.add"),
        "laurent.exact_div_calls": calls("laurent.exact_div"),
        "laurent.self_s": self_of("laurent."),
        "laurent.max_terms": count("laurent.max_terms"),
        "laurent.max_coeff_bits": count("laurent.max_coeff_bits"),
        "whitney.triangle_s": top("whitney.whitney_first_triangle",
                                  "whitney.whitney_second_triangle"),
        "whitney.triangle_calls": calls("whitney.whitney_first_triangle")
        + calls("whitney.whitney_second_triangle"),
        "whitney.cache_hit_ratio": count("whitney.cache_hits") / lookups if lookups else 0.0,
        "whitney.cells_built": count("whitney.cells_built"),
        "whitney.dowling_s": top("whitney.dowling_sequence", "whitney.dowling_polynomial"),
        "whitney.defining_s": top("whitney.defining_relation_check"),
    }
    for identity in IDENTITY_IDS:
        out[f"identities.{identity}_s"] = stats.get("identities." + identity, {}).get("self_s", 0.0)
    out.update({
        "identities.checks": count("identities.checks"),
        "identities.hankel_s": top("identities.hankel_transform"),
        "identities.hankel_calls": calls("identities.hankel_transform"),
        "qcore.self_s": self_of("qcore."),
        "qcore.q_binomial_calls": calls("qcore.q_binomial"),
        "modes.divide_exact_calls": calls("modes.divide_exact"),
        "qdist.sample_s": top("qdist.sample"),
        "qdist.pmf_s": top("qdist.pmf_stream"),
        "qdist.oracle_s": top("qdist.direct_moment_oracle"),
        "qdist.oracle_terms": count("qdist.oracle_terms"),
        "qdist.oracle_gap_pairs": gap_pairs,
        "qdist.whitney_moment_s": top("qdist.whitney_moment"),
        "cli.self_s": self_of("cli.main"),
        "cli.output_bytes": output_bytes,
    })
    return out


def merge_job_traces(prefixes: list):
    """Sum span statistics and counters over the jobs of one pass."""
    stats: dict = {}
    counters: dict = {}
    for prefix in prefixes:
        names, job_counters, arrays = tracing.read_trace(prefix)
        for name, entry in tracing.aggregate(names, arrays).items():
            acc = stats.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                acc[key] += value
        for key, value in job_counters.items():
            if key.startswith("laurent.max_"):
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return stats, counters


# -- the run -------------------------------------------------------------------------

MIN_PASSES = 3
SETUP_SAMPLES_FIRST = 3
SETUP_SAMPLES_PER_PASS = 2


def run_pass(jobs, tmp, label, traced, checker):
    raw, walls, main_walls, rss, main_ops, out_bytes, prefixes = [], [], [], [], 0, 0, []
    gap_before = checker.known_gap
    for i, job in enumerate(jobs):
        stem = os.path.join(tmp, f"{label}-{i}")
        prefix = stem + ".trace" if traced else None
        wall, scaled, code = timed_spawn(cli_argv(job.argv, prefix, stem + ".peak"),
                                         stem + ".out", stem + ".err")
        peak = read_peak_mb(stem + ".peak")
        if peak is None:
            checker.fault(f"{job.kind}: no peak RSS written")
            peak = 0.0
        raw.append(wall)
        walls.append(scaled)
        rss.append(peak)
        if job.main:
            main_walls.append(scaled)
            main_ops += checker.expected_ops(job)
        checker.check(job, code, stem + ".out", stem + ".err")
        out_bytes += os.path.getsize(stem + ".out")
        if job.out and os.path.exists(job.out):
            out_bytes += os.path.getsize(job.out)
        if traced:
            prefixes.append(prefix)
    record = {"job_s": sum(walls), "ops_per_s": main_ops / sum(main_walls),
              "peak_rss_mb": max(rss), "raw_job_s": sum(raw)}
    if traced:
        missing = [p for p in prefixes if not os.path.exists(p + ".json")]
        for prefix in missing:  # a job killed before it could write its spans
            checker.fault(f"no trace written by {os.path.basename(prefix)}")
        stats, counters = merge_job_traces([p for p in prefixes if p not in missing])
        record["layers"] = layer_metrics(stats, counters, out_bytes,
                                         checker.known_gap - gap_before)
    return record


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "qwhitney", "__init__.py")):
        print(f"bench: no qwhitney sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    rng = random.Random(f"{workload}:{seed}")
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    tmp = os.path.join(tmp_root, f"{workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        inputs, jobs = WORKLOADS[workload](rng, seed, tmp)
        checker = Checker(reference)
        # Warm-up: the first spawn of a run is checked, its timing discarded.
        run_pass(jobs[:1], tmp, "warmup", False, checker)
        setup = [setup_sample(tmp) for _ in range(SETUP_SAMPLES_FIRST)]
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            tracing_now = trace and len(plain) > len(traced)
            t0 = time.perf_counter()
            record = run_pass(jobs, tmp, f"pass{len(plain) + len(traced)}", tracing_now,
                              checker)
            (traced if tracing_now else plain).append(record)
            setup += [setup_sample(tmp) for _ in range(SETUP_SAMPLES_PER_PASS)]
            last = time.perf_counter() - t0
            done = len(plain) + len(traced)
            enough = done >= (2 * MIN_PASSES if trace else MIN_PASSES)
            if enough and time.perf_counter() - start + last > seconds:
                break
        elapsed = time.perf_counter() - start
        if workload == "table_symbolic":
            check_table_cells(rng, jobs, checker)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print(f"inputs {json.dumps(inputs)}")
    print(f"passes {len(plain)} untraced + {len(traced)} traced in {elapsed:.1f} s "
          f"after one discarded warm-up job; {len(jobs)} jobs per pass")
    metrics = {}
    if not trace:
        units = {"setup_s": "s", "job_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
        samples = {"setup_s": [scaled for _, scaled in setup]}
        for key in ("job_s", "ops_per_s", "peak_rss_mb"):
            samples[key] = [p[key] for p in plain]
        for key, values in samples.items():
            med, lo, hi = summary(values)
            metrics[key] = {"value": med, "unit": units[key]}
            print(f"{key:<14} {med:12.6g} {units[key]:<4} q1 {lo:.6g}  q3 {hi:.6g}  "
                  f"n {len(values)}")
        print(f"unscaled wall medians: setup_s {statistics.median(w for w, _ in setup):.6g} s, "
              f"job_s {statistics.median(p['raw_job_s'] for p in plain):.6g} s")
    else:
        layers = [p["layers"] for p in traced]
        for key in layers[0]:
            values = [layer[key] for layer in layers]
            if key in COUNT_METRICS:
                if len(set(values)) != 1:
                    checker.fault(f"{key} differs between traced passes: {values}")
                value = values[0]
            else:
                value = statistics.median(values)
            metrics[key] = {"value": value, "unit": layer_unit(key)}
        overhead = (statistics.median(p["job_s"] for p in traced)
                    - statistics.median(p["job_s"] for p in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for key, entry in metrics.items():
            print(f"{key:<34} {entry['value']:14.6g} {entry['unit']}")
    print(f"fail_frac {checker.failed}/{checker.attempted}"
          + (f"  (known moment-oracle gap, not counted: {checker.known_gap} pairs)"
             if checker.known_gap
             else ""))
    for problem in checker.problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": checker.correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key == "whitney.cache_hit_ratio":
        return "ratio"
    if key == "laurent.max_coeff_bits":
        return "bits"
    if key == "cli.output_bytes":
        return "bytes"
    return "count"


def main(argv=None) -> int:
    with open(SPEC, encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
