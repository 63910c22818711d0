"""bench/tracing.py rebinds names in the package; one traced child job per
subcommand checks that those names still exist and that their spans and
counters are recorded."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, span", [
    (["verify", "--suite", "all", "--nmax", "3", "--q", "1/2"], "identities.verify"),
    (["table", "--kind", "second", "--nmax", "6", "--m", "3/2", "--r", "5/2",
      "--q", "symbolic"], "whitney.second_rows"),
    (["dist", "--family", "heine", "--q", "0.5", "--lambda", "0.7", "--op", "moments",
      "--n", "3"], "qdist.direct_moment_oracle"),
    (["hankel", "--m", "1", "--r-values", "0,1", "--q", "1/2", "--order", "4"],
     "identities.hankel_transform"),
], ids=["verify", "table", "dist", "hankel"])
def test_traced_child_job(tmp_path, argv, span):
    prefix = tmp_path / "trace"
    proc = subprocess.run([sys.executable, "-I", "-S", str(ROOT / "bench" / "child.py"),
                           str(ROOT / "src"), str(prefix), "-", "--", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))
    assert "cli.main" in meta["names"] and span in meta["names"]
    counters = meta["counters"]
    if argv[0] == "verify":
        checked = int(proc.stdout.splitlines()[-1].split("\t")[1])
        assert counters["identities.checks"] == checked > 0
    if argv[0] == "dist":
        assert counters["qdist.oracle_terms"] > 0
