"""Figure 14 and the Section 5.3.4 table — the participation study.

The paper builds a four-worker platform where the first three workers are
fast (communication speed-ups 10, 8, 8 and computation speed-ups 9, 9, 10)
and the fourth is slow (computation speed-up 1, communication speed-up
``x``).  Running the INC_C framework with 1, 2, 3 then 4 available workers,
it records the LP-predicted time, the measured time and the number of
workers the LP actually enrols:

* for ``x = 1`` the fourth worker is never used, even when available;
* for ``x = 3`` the fourth worker is used and improves the completion time
  slightly.

This experiment reproduces both panels: for each ``x`` and each number of
available workers it reports the LP time, the simulated time and the number
of enrolled workers.  :func:`run` stacks the scenario LPs of the *whole*
``x_values`` x available-workers grid into one batched-kernel call
(:func:`repro.core.linear_program.solve_scenarios`) and then measures the
cells through the sweep engine — bit-identical to the per-cell
:func:`run_single` reference path, which the test-suite pins.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from repro.core.fifo import optimal_fifo_order, optimal_fifo_schedule
from repro.core.linear_program import ScenarioSolution, solve_scenarios
from repro.core.makespan import predicted_makespan
from repro.exceptions import ExperimentError
from repro.experiments.common import DEFAULT_TOTAL_TASKS, FigureResult
from repro.experiments.sweep_engine import run_sweep
from repro.simulation.executor import measure_heuristic
from repro.simulation.noise import default_noise
from repro.core.heuristics import HeuristicResult
from repro.workloads.matrices import MatrixProductWorkload
from repro.workloads.platforms import participation_platform

__all__ = ["run", "run_single"]


def _evaluate_cell(
    matrix_size: int,
    total_tasks: int,
    seed: int,
    noisy: bool,
    cell: tuple[float, int],
) -> tuple[float, float, int]:
    """Sweep-engine worker: one (x, available workers) configuration.

    Returns the LP-predicted time, the measured time and the number of
    enrolled workers.  Noise is seeded per configuration exactly as the
    serial implementation did, so the results do not depend on ``jobs``.
    """
    x, available = cell
    workload = MatrixProductWorkload(matrix_size)
    platform = participation_platform(x, workload, available_workers=available)
    solution = optimal_fifo_schedule(platform)
    return _measure_solution(total_tasks, seed, noisy, (cell, solution))


def _measure_solution(
    total_tasks: int,
    seed: int,
    noisy: bool,
    item: tuple[tuple[float, int], ScenarioSolution],
) -> tuple[float, float, int]:
    """Measure one already-solved grid cell (sweep-engine worker).

    The noise seed depends on the available-worker count only — exactly
    the serial implementation's ``seed + available`` — so the measured
    series are independent of both ``jobs`` and the LP batching.
    """
    (_, available), solution = item
    lp_time = predicted_makespan(solution.schedule, total_tasks)
    heuristic = HeuristicResult(
        name="INC_C", schedule=solution.schedule, throughput=solution.throughput
    )
    noise = default_noise(seed + available) if noisy else None
    report = measure_heuristic(heuristic, total_tasks, noise=noise)
    return lp_time, report.measured_makespan, len(solution.schedule.participants)


def _panel_result(x: float, matrix_size: int, total_tasks: int) -> FigureResult:
    return FigureResult(
        figure=f"fig14-x{x:g}",
        title=f"Participating workers on the Section 5.3.4 platform (x={x:g}, matrix size {matrix_size})",
        x_label="available workers",
        parameters={"x": x, "matrix_size": matrix_size, "total_tasks": total_tasks},
    )


def run_single(
    x: float,
    matrix_size: int = 400,
    total_tasks: int = DEFAULT_TOTAL_TASKS,
    seed: int = 14,
    noisy: bool = True,
    jobs: int | None = 1,
) -> FigureResult:
    """Participation study for one value of the slow worker's link speed.

    The scalar reference path: each configuration solves its own scenario
    LP.  :func:`run` batches the LPs of the whole grid instead and is
    pinned bit-identical to this implementation by the test-suite.
    """
    if x <= 0:
        raise ExperimentError("x must be positive")
    result = _panel_result(x, matrix_size, total_tasks)
    cells = [(x, available) for available in range(1, 5)]
    worker = partial(_evaluate_cell, matrix_size, total_tasks, seed, noisy)
    for (_, available), (lp_time, measured, enrolled) in zip(
        cells, run_sweep(worker, cells, jobs=jobs)
    ):
        result.add_point("lp time", available, lp_time)
        result.add_point("real time", available, measured)
        result.add_point("nb of workers", available, enrolled)
    return result


def run(
    x_values: Sequence[float] = (1.0, 3.0),
    matrix_size: int = 400,
    total_tasks: int = DEFAULT_TOTAL_TASKS,
    seed: int = 14,
    noisy: bool = True,
    jobs: int | None = 1,
) -> list[FigureResult]:
    """Reproduce Figure 14 (both panels by default).

    The scenario LPs of the whole ``x_values`` x available-workers grid
    (4 configurations per panel) are solved as one batched-kernel call —
    grouped by worker count, so e.g. the two panels' 4-worker LPs share a
    stack — and only the measurements fan out through the sweep engine.
    ``jobs`` spreads those measurement cells over worker processes; the
    series are identical for every setting, and identical to the per-cell
    :func:`run_single` path.
    """
    for x in x_values:
        if x <= 0:
            raise ExperimentError("x must be positive")
    workload = MatrixProductWorkload(matrix_size)
    cells = [(x, available) for x in x_values for available in range(1, 5)]
    platforms = [
        participation_platform(x, workload, available_workers=available)
        for x, available in cells
    ]
    solutions = solve_scenarios(
        [(platform, optimal_fifo_order(platform), None) for platform in platforms]
    )
    measured = run_sweep(
        partial(_measure_solution, total_tasks, seed, noisy),
        list(zip(cells, solutions)),
        jobs=jobs,
    )

    results: list[FigureResult] = []
    for panel_index, x in enumerate(x_values):
        panel = _panel_result(x, matrix_size, total_tasks)
        start = panel_index * 4
        for (_, available), (lp_time, measured_time, enrolled) in zip(
            cells[start : start + 4], measured[start : start + 4]
        ):
            panel.add_point("lp time", available, lp_time)
            panel.add_point("real time", available, measured_time)
            panel.add_point("nb of workers", available, enrolled)
        results.append(panel)

    for result in results:
        x = result.parameters["x"]
        enrolled_with_all = result.value("nb of workers", 4)
        if x <= 1.0:
            expectation = "the slow fourth worker should never be enrolled"
        else:
            expectation = "the slow fourth worker should be enrolled when available"
        result.notes.append(
            f"workers enrolled when all four are available: {int(enrolled_with_all)} ({expectation})"
        )
    return results
