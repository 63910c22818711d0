"""Regenerate bench/reference.json from the program in this checkout.

    python3 bench/make_reference.py

The reference holds outputs that must stay byte-identical while the code
changes: the `verify` count tables at both benchmark nmax values (over
DEFAULT_GRID, symbolic q; at nmax 10 this is the 25,542-check acceptance
table), and the sha256 of every triangle JSON, hankel probe, sampler
output and pmf table the seeds can request.
Regenerate it only when an output format changes on purpose.
"""

import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def cli_output(argv, tmp):
    out, err = os.path.join(tmp, "ref.out"), os.path.join(tmp, "ref.err")
    _, code = run.spawn(run.cli_argv(argv, None), out, err)
    with open(err, "rb") as fh:
        stderr = fh.read()
    if code != 0 or stderr:
        raise SystemExit(f"{argv}: exit {code}: {stderr.decode()}")
    with open(out, "rb") as fh:
        return fh.read()


def main():
    reference = {"verify_tables": {}, "table_sha256": {}, "hankel_sha256": {},
                 "sample_sha256": {}, "pmf_sha256": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        grid = os.path.join(tmp, "grid.json")
        with open(grid, "w", encoding="utf-8") as fh:
            json.dump(run.DEFAULT_GRID, fh)
        for nmax in (run.VERIFY_SYMBOLIC_NMAX, run.VERIFY_RATIONAL_NMAX):
            text = cli_output(["verify", "--suite", "all", "--nmax", str(nmax),
                               "--grid", grid, "--q", "symbolic"], tmp).decode()
            reference["verify_tables"][str(nmax)] = text
            print(f"verify nmax {nmax}: {text.splitlines()[-1]}", flush=True)
        for m, r in run.TABLE_PARAMS:
            for kind in ("first", "second"):
                path = os.path.join(tmp, "table.json")
                cli_output(["table", "--kind", kind, "--nmax", str(run.TABLE_NMAX),
                            f"--m={m}", f"--r={r}", "--q", "symbolic", "--out", path], tmp)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                reference["table_sha256"][run.table_key(kind, m, r)] = digest
                print(f"table {kind} {m} {r}: {digest}", flush=True)
        for m in run.HANKEL_M:
            for r0 in run.HANKEL_R0:
                r_values = run.hankel_r_values(r0)
                for order in run.HANKEL_ORDERS:
                    text = cli_output(["hankel", f"--m={m}", f"--r-values={r_values}",
                                       f"--q={run.HANKEL_Q}", "--order", str(order)], tmp)
                    digest = hashlib.sha256(text).hexdigest()
                    reference["hankel_sha256"][run.hankel_key(m, r_values, order)] = digest
                    print(f"hankel {m} {r_values} {order}: {digest}", flush=True)
        for family, pool in (("heine", run.HEINE_PARAMS), ("euler", run.EULER_PARAMS)):
            for q, lam in pool:
                base = ["dist", "--family", family, "--q", q, "--lambda", lam]
                text = cli_output(base + ["--op", "sample", "--count", str(run.SAMPLE_COUNT),
                                          "--seed", str(run.SAMPLE_SEED)], tmp)
                digest = hashlib.sha256(text).hexdigest()
                reference["sample_sha256"][run.sample_key(family, q, lam)] = digest
                print(f"sample {family} {q} {lam}: {digest}", flush=True)
                digest = hashlib.sha256(cli_output(base + ["--op", "pmf"], tmp)).hexdigest()
                reference["pmf_sha256"][run.pmf_key(family, q, lam)] = digest
                print(f"pmf {family} {q} {lam}: {digest}", flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
