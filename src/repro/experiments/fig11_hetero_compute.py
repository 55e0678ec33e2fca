"""Figure 11 — campaign with homogeneous links and heterogeneous CPUs.

Fifty random platforms whose communication links are all at the reference
speed while the computation factors are drawn in 1..10 — exactly the bus
platforms covered by Theorem 2.  The paper's observations to reproduce:
INC_C beats INC_W, LIFO beats both, and the LP correctly ranks the three
heuristics even though the measured times deviate from the predictions.

A view over the named scenario space ``fig11``.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    DEFAULT_MATRIX_SIZES,
    DEFAULT_PLATFORM_COUNT,
    DEFAULT_TOTAL_TASKS,
    FigureResult,
    heuristic_campaign,
)

__all__ = ["run"]


def run(
    matrix_sizes: Sequence[int] = DEFAULT_MATRIX_SIZES,
    platform_count: int = DEFAULT_PLATFORM_COUNT,
    workers: int = 11,
    total_tasks: int = DEFAULT_TOTAL_TASKS,
    seed: int = 11,
    jobs: int | None = 1,
) -> FigureResult:
    """Reproduce Figure 11 (homogeneous communication, heterogeneous computation)."""
    result = heuristic_campaign(
        figure="fig11",
        title="Average execution times with homogeneous links and heterogeneous CPUs, normalised by the INC_C LP prediction",
        matrix_sizes=matrix_sizes,
        platform_count=platform_count,
        workers=workers,
        total_tasks=total_tasks,
        seed=seed,
        jobs=jobs,
    )
    result.notes.append(
        "expected ranking (paper): LIFO <= INC_C <= INC_W in LP-predicted time; "
        "these are the bus platforms of Theorem 2"
    )
    return result
