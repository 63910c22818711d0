"""Compare two result sets written by bench/sweep.py.

    python3 bench/compare.py BASE_DIR NEW_DIR

For each workload, prints every metric by name and unit with each side's
median, quartiles and run count, the change of the median, and a verdict:

* end-to-end metrics, under the bounds in BENCHMARK.json:
  better     over at least ten seed-paired runs the new side wins at least
             9 in 10, and its median beats the base median by more than the
             base spread ((q3 - q1) / median);
  worse      the median got worse by more than the metric's bound;
  unresolved the spread of either side exceeds the bound;
  unchanged  otherwise;
* per-layer times (no bound): better or worse by the same paired rule,
  otherwise unresolved ("unchanged (zero)" when the layer is unused);
* exact counts: compared for equality seed by seed and labelled as counts.

Runs are paired by seed; a metric whose two sides share no seed reads
"no common seeds" instead of a verdict.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from sweep import load_results, load_spec, spread, summary  # noqa: E402

COUNT_UNITS = {"count", "bits", "bytes", "ratio"}
MIN_PAIRS = 10  # a gain is claimed only over at least ten seed-paired runs


def by_seed(results, workload, trace, name):
    return {r["seed"]: r["metrics"][name]["value"] for r in results
            if r["workload"] == workload and r["trace"] == trace and name in r["metrics"]}


def paired_wins(base: dict, new: dict, lower_is_better: bool):
    seeds = sorted(set(base) & set(new))
    wins = sum((new[s] < base[s]) if lower_is_better else (new[s] > base[s]) for s in seeds)
    losses = sum((new[s] > base[s]) if lower_is_better else (new[s] < base[s]) for s in seeds)
    return wins, losses, len(seeds)


def verdict(metric: dict, base: dict, new: dict) -> str:
    b, n = list(base.values()), list(new.values())
    lower = metric["better"] == "lower"
    seeds = sorted(set(base) & set(new))
    if not seeds:
        return "no common seeds"
    if metric["unit"] in COUNT_UNITS:
        differ = sum(base[s] != new[s] for s in seeds)
        return "equal (count)" if not differ else f"differs on {differ}/{len(seeds)} seeds (count)"
    b_med, n_med = summary(b)[0], summary(n)[0]
    if not b_med:
        return "unchanged (zero)" if not any(b) and not any(n) else "unresolved"
    gain = (b_med - n_med) / b_med if lower else (n_med - b_med) / b_med
    wins, losses, pairs = paired_wins(base, new, lower)
    enough = pairs >= MIN_PAIRS
    if enough and wins >= 0.9 * pairs and gain > spread(b):
        return "better"
    if "bound" not in metric:
        if enough and losses >= 0.9 * pairs and -gain > spread(b):
            return "worse"
        return "unresolved"
    if -gain > metric["bound"]:
        return "worse"
    if max(spread(b), spread(n)) > metric["bound"]:
        return "unresolved"
    return "unchanged"


def main(argv):
    if len(argv) != 2:
        raise SystemExit("usage: compare.py BASE_DIR NEW_DIR")
    spec = load_spec()
    base, new = load_results(argv[0]), load_results(argv[1])
    for workload in [w["name"] for w in spec["workloads"]]:
        print(f"== {workload}")
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for metric in metrics:
                name = metric["name"]
                bv, nv = by_seed(base, workload, trace, name), by_seed(new, workload, trace, name)
                if not bv or not nv:
                    continue
                bs, ns = summary(list(bv.values())), summary(list(nv.values()))
                change = (ns[0] - bs[0]) / bs[0] if bs[0] else 0.0
                print(f"  {name:<34} {metric['unit']:<6} "
                      f"base {bs[0]:<12.6g} [{bs[1]:.6g}, {bs[2]:.6g}] n {len(bv):<3} "
                      f"new {ns[0]:<12.6g} [{ns[1]:.6g}, {ns[2]:.6g}] n {len(nv):<3} "
                      f"{change:+8.2%}  {verdict(metric, bv, nv)}")
        for label, results in (("base", base), ("new", new)):
            runs = [r for r in results if r["workload"] == workload]
            if runs:
                print(f"  fail_frac {label}: {sum(r['failed'] for r in runs)}/"
                      f"{sum(r['attempted'] for r in runs)}; incorrect runs: "
                      f"{sum(not r['correct'] for r in runs)}")


if __name__ == "__main__":
    main(sys.argv[1:])
