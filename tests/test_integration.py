"""End-to-end integration tests crossing every layer of the library.

These tests exercise the full pipeline used by the paper's evaluation:
random platform → heuristic (LP) schedule → integer rounding → execution on
the simulated cluster (both through the schedule executor and through the
MPI-style runtime) → comparison against the LP prediction.
"""

from __future__ import annotations

import pytest

from repro import (
    Worker,
    StarPlatform,
    best_schedule_by_enumeration,
    compare_heuristics,
    optimal_bus_throughput,
    optimal_fifo_schedule,
    optimal_lifo_schedule,
)
from repro.core.rounding import integer_load_schedule
from repro.simulation.noise import default_noise
from repro.runtime.matrix_app import campaign_from_schedule
from repro.simulation.executor import execute_schedule, measure_heuristic
from repro.workloads.matrices import MatrixProductWorkload
from repro.workloads.platforms import campaign_factors, participation_platform


class TestEndToEndPipeline:
    def test_lp_rounding_simulation_consistency(self):
        """LP prediction, rounded dispatch and DES measurement line up."""
        workload = MatrixProductWorkload(160)
        factors = campaign_factors("hetero-star", 1, size=6, seed=42)[0]
        platform = factors.platform(workload)
        results = compare_heuristics(platform, ("INC_C", "INC_W", "LIFO"))

        total = 500
        for name, heuristic in results.items():
            report = measure_heuristic(heuristic, total)
            predicted = heuristic.makespan_for(total)
            assert report.predicted_makespan == pytest.approx(predicted)
            # without noise, only the integer rounding separates the two numbers
            assert report.measured_makespan == pytest.approx(predicted, rel=0.05)
            assert report.measured_makespan >= predicted - 1e-9

    def test_executor_and_runtime_agree_for_every_heuristic(self):
        workload = MatrixProductWorkload(120)
        factors = campaign_factors("hetero-star", 1, size=5, seed=7)[0]
        platform = factors.platform(workload)
        total = 300
        for name, heuristic in compare_heuristics(platform, ("INC_C", "LIFO")).items():
            executor_report = measure_heuristic(heuristic, total)
            campaign = campaign_from_schedule(
                workload, factors.comm, factors.comp, heuristic.schedule, total
            )
            assert campaign.makespan == pytest.approx(
                executor_report.measured_makespan, rel=1e-9
            ), name

    def test_lp_ranking_survives_measurement_noise(self):
        """The LP ranks the heuristics; noisy measurements keep the order."""
        workload = MatrixProductWorkload(200)
        factors = campaign_factors("hetero-star", 1, size=8, seed=11)[0]
        platform = factors.platform(workload)
        results = compare_heuristics(platform, ("INC_C", "INC_W"))
        noise = default_noise(3)
        measured = {
            name: measure_heuristic(heuristic, 800, noise=noise).measured_makespan
            for name, heuristic in results.items()
        }
        predicted = {name: heuristic.makespan_for(800) for name, heuristic in results.items()}
        assert predicted["INC_C"] <= predicted["INC_W"] + 1e-9
        # the measured ranking matches the prediction within the noise envelope
        assert measured["INC_C"] <= measured["INC_W"] * 1.2

    def test_participation_pipeline(self):
        """Section 5.3.4 end to end: selection + execution on the runtime."""
        workload = MatrixProductWorkload(400)
        platform = participation_platform(1.0, workload)
        solution = optimal_fifo_schedule(platform)
        assert solution.participants == ["P1", "P2", "P3"]
        campaign = campaign_from_schedule(
            workload, (10.0, 8.0, 8.0, 1.0), (9.0, 9.0, 10.0, 1.0), solution.schedule, 200
        )
        assert campaign.tasks["P4"] == 0
        assert campaign.total_tasks == 200

    def test_theorem2_closed_form_against_simulation(self):
        """A bus schedule built from Theorem 2 completes exactly at its deadline."""
        workload = MatrixProductWorkload(100)
        platform = workload.platform([1.0] * 6, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], name="bus")
        assert platform.is_bus
        rho = optimal_bus_throughput(platform)
        solution = optimal_fifo_schedule(platform)
        assert solution.throughput == pytest.approx(rho, rel=1e-6)
        report = execute_schedule(solution.schedule)
        assert report.measured_makespan <= 1.0 + 1e-7

    def test_rounded_schedule_remains_feasible_under_two_port(self):
        platform = StarPlatform(
            [
                Worker("P1", c=0.002, w=0.05, d=0.001),
                Worker("P2", c=0.004, w=0.03, d=0.002),
                Worker("P3", c=0.003, w=0.08, d=0.0015),
            ]
        )
        solution = optimal_fifo_schedule(platform)
        rounded = integer_load_schedule(solution.schedule.scaled_to_total_load(250), 250)
        report = execute_schedule(rounded)
        assert report.measured_makespan == pytest.approx(rounded.makespan(), rel=1e-9)

    def test_fifo_and_lifo_are_both_dominated_by_best_permutation_pair(self):
        """The open problem of the paper: mixed permutation pairs can win."""
        platform = StarPlatform(
            [
                Worker("P1", c=1.0, w=5.0, d=0.5),
                Worker("P2", c=2.0, w=3.0, d=1.0),
                Worker("P3", c=1.5, w=4.0, d=0.75),
            ]
        )
        fifo = optimal_fifo_schedule(platform).throughput
        lifo = optimal_lifo_schedule(platform).throughput
        best = best_schedule_by_enumeration(platform).throughput
        assert best >= max(fifo, lifo) - 1e-9
