"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/sweep.py --out DIR [--seeds 10] [--workloads a,b] [--trace 0|1|both]

For each workload and each seed 1..N this runs the command in BENCHMARK.json
once, for its `run_seconds`, appends its JSON result to DIR/results.jsonl,
and at the end prints, per
workload and metric, the median, quartiles and sample count over seeds.  For
end-to-end metrics it also prints the spread, (q3 - q1) / median, against the
metric's bound.  Any run whose outputs failed their checks is reported.
DIR then serves as one side of `bench/compare.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_results(directory: str) -> list[dict]:
    with open(os.path.join(directory, "results.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(values: list) -> tuple:
    """(median, q1, q3) with the quartiles Python's statistics.quantiles gives."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values: list) -> float:
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def values_by_metric(results: list, workload: str, trace: int) -> dict:
    out: dict = {}
    for res in results:
        if res["workload"] == workload and res["trace"] == trace:
            for name, entry in res["metrics"].items():
                out.setdefault(name, []).append(entry["value"])
    return out


def run_one(spec: dict, workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable if spec["command"][0] == "python3" else spec["command"][0]]
    command += spec["command"][1:] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(spec["run_seconds"]),
                                      "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith(("fail_frac", "problem")):
            print(f"    {line}")
    return result


def print_summary(spec: dict, results: list):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [r for r in results if r["workload"] == workload]
        if not runs:
            continue
        bad = [r["seed"] for r in runs if not r["correct"]]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n== {workload}: {len(runs)} runs, fail_frac {failed}/{attempted}"
              + (f", INCORRECT seeds {bad}" if bad else ", all correct"))
        for trace in (0, 1):
            for name, values in values_by_metric(results, workload, trace).items():
                med, q1, q3 = summary(values)
                line = (f"  {name:<34} {med:14.6g} {units.get(name, '?'):<6} "
                        f"q1 {q1:<12.6g} q3 {q3:<12.6g} n {len(values)}")
                if name in bounds:
                    bound = bounds[name]["bound"]
                    s = spread(values)
                    verdict = ("steady" if s < bound / 3 else
                               "within bound" if s <= bound else "TOO WIDE")
                    line += f"  spread {s:.3f} / bound {bound} ({verdict})"
                print(line)


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", default="0", choices=("0", "1", "both"))
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "results.jsonl")
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    for workload in args.workloads.split(","):
        for seed in range(1, args.seeds + 1):
            for trace in traces:
                result = run_one(spec, workload, seed, trace)
                record = {"workload": workload, "seed": seed, "trace": trace, **result}
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                         if k in {m["name"] for m in spec["end_to_end"]}}
                print(f"{workload} seed {seed} trace {trace}: correct {result['correct']} "
                      f"{shown}", flush=True)
    print_summary(spec, load_results(args.out))


if __name__ == "__main__":
    main()
