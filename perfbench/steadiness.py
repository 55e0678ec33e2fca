"""Steadiness check: two interleaved sets of benchmark runs per workload.

Run from the repository root::

    python3 perfbench/steadiness.py --runs 10 campaign-lp query-http

For each workload, set A uses seeds 1..N and set B seeds N+1..2N; the runs
alternate A, B, A, B, ... so that host drift reaches both sets alike.  For
every end-to-end metric it prints, per set, the median and the spread
(distance between the first and third quartile as a share of the median),
and the change of B's median against A's.  A metric is steady when both
spreads stay below a third of its bound (``setup_s`` is exempt from the
spread rule) and B's median is not worse than A's by more than the bound;
it is within bound when the spreads only stay within the bound itself.
The exit code is 0 only when every metric is steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path("BENCHMARK.json")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n{done.stderr}")
    return result["metrics"]


def spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text())
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        sets: list[list[dict]] = [[], []]
        for index in range(args.runs):
            for side in (0, 1):
                seed = 1 + index + side * args.runs
                sets[side].append(one_run(workload, seed, seconds))
        print(f"{workload}:")
        for name in sets[0][0]:
            metric = bounds[name]
            values = [[run[name]["value"] for run in side] for side in sets]
            medians = [statistics.median(side) for side in values]
            spreads = [spread(side) for side in values]
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            widest = 0.0 if name == "setup_s" else max(spreads)
            if worse > metric["bound"] or widest > metric["bound"]:
                verdict = "NOT STEADY"
            elif widest >= metric["bound"] / 3:
                verdict = "within bound, spread above a third of it"
            else:
                verdict = "steady"
            steady &= verdict == "steady"
            print(
                f"  {name:18s} median {medians[0]:10.4f} {medians[1]:10.4f}  "
                f"spread {spreads[0]:6.3f} {spreads[1]:6.3f}  worse {worse:+.3f}  "
                f"bound {metric['bound']:.2f}  {verdict}",
                flush=True,
            )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
