#!/usr/bin/env python3
"""Matrix-product campaign on a simulated heterogeneous cluster.

A compact version of the paper's Section 5 experiments: random 11-worker
platforms, ``M`` matrix products of size ``s``, and a comparison of the
``INC_C`` / ``INC_W`` / ``LIFO`` strategies — both their LP-predicted
completion times and the times measured on the (noisy) simulated cluster.

Run with::

    python examples/matrix_cluster_campaign.py [--platforms 10] [--tasks 1000]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core.heuristics import compare_heuristics
from repro.simulation.executor import measure_heuristic
from repro.simulation.noise import default_noise
from repro.workloads.matrices import MatrixProductWorkload
from repro.workloads.platforms import campaign_factors


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--platforms", type=int, default=10, help="number of random platforms")
    parser.add_argument("--tasks", type=int, default=1000, help="matrix products per campaign")
    parser.add_argument("--matrix-size", type=int, default=160, help="matrix dimension")
    parser.add_argument("--seed", type=int, default=2006, help="campaign seed")
    args = parser.parse_args()

    workload = MatrixProductWorkload(args.matrix_size)
    heuristics = ("INC_C", "INC_W", "LIFO")
    predicted: dict[str, list[float]] = {name: [] for name in heuristics}
    measured: dict[str, list[float]] = {name: [] for name in heuristics}

    for index, factors in enumerate(
        campaign_factors("hetero-star", args.platforms, seed=args.seed)
    ):
        platform = factors.platform(workload)
        results = compare_heuristics(platform, heuristics)
        noise = default_noise(args.seed + index)
        for name, heuristic in results.items():
            report = measure_heuristic(heuristic, args.tasks, noise=noise)
            predicted[name].append(report.predicted_makespan)
            measured[name].append(report.measured_makespan)

    print(
        f"{args.platforms} random heterogeneous platforms, "
        f"{args.tasks} products of {args.matrix_size}x{args.matrix_size} matrices"
    )
    print(f"{'strategy':>10s}  {'LP time (s)':>12s}  {'measured (s)':>12s}  {'meas/LP':>8s}")
    reference = np.mean(predicted["INC_C"])
    for name in heuristics:
        lp_time = float(np.mean(predicted[name]))
        real_time = float(np.mean(measured[name]))
        print(
            f"{name:>10s}  {lp_time:12.3f}  {real_time:12.3f}  {real_time / lp_time:8.3f}"
            + ("   <- normalisation reference" if name == "INC_C" else "")
        )
    print(
        "\nTheorem 1 in action: INC_C (serve fast links first) never loses to INC_W "
        f"in LP time ({np.mean(predicted['INC_C']):.3f} vs {np.mean(predicted['INC_W']):.3f} s)."
    )
    print(f"Normalised to the INC_C LP prediction ({reference:.3f} s), as in Figures 10-13.")


if __name__ == "__main__":
    main()
