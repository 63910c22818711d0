"""bench/tracing.py rebinds names in the package; one traced child job per
subcommand, and a symbolic `verify` for the Laurent layer, checks that those
names still exist and that their spans and counters are recorded."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("argv, span", [
    (["verify", "--suite", "all", "--nmax", "3", "--q", "1/2"], "identities.verify"),
    (["verify", "--suite", "all", "--nmax", "3", "--q", "symbolic"], "laurent.add"),
    (["table", "--kind", "second", "--nmax", "6", "--m", "3/2", "--r", "5/2",
      "--q", "symbolic"], "whitney.second_rows"),
    (["dist", "--family", "heine", "--q", "0.5", "--lambda", "0.7", "--op", "moments",
      "--n", "3"], "qdist.direct_moment_oracle"),
    (["dist", "--family", "heine", "--q", "0.5", "--lambda", "0.7", "--op", "sample",
      "--count", "5000"], "cli.main"),
    (["hankel", "--m", "1", "--r-values", "0,1", "--q", "1/2", "--order", "4"],
     "identities.hankel_transform"),
], ids=["verify", "verify_symbolic", "table", "dist", "dist_sample", "hankel"])
def test_traced_child_job(tmp_path, argv, span):
    prefix = tmp_path / "trace"
    proc = subprocess.run([sys.executable, "-I", "-S", str(ROOT / "bench" / "child.py"),
                           str(ROOT / "src"), str(prefix), "-", "--", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # A name is listed once it is wrapped; a span in name_ix means it was called.
    names, counters, (name_ix, *_) = tracing.read_trace(str(prefix))
    assert names.index("cli.main") in name_ix and names.index(span) in name_ix
    if argv[0] == "verify":
        checked = int(proc.stdout.splitlines()[-1].split("\t")[1])
        assert counters["identities.checks"] == checked > 0
    if span.startswith("laurent."):
        assert counters["laurent.mul_coeff_products"] > 0
    if "moments" in argv:
        assert counters["qdist.oracle_terms"] > 0
    if "sample" in argv:
        assert proc.stdout.count("\n") == 5000
