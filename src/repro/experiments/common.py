"""Shared infrastructure of the experiment harness.

Every figure of the paper's evaluation is reproduced by one module in this
package; they all return a :class:`FigureResult` — a set of named series over
a common x-axis — so that reporting, benchmarking and the CLI can treat every
experiment uniformly.  The heavy lifting shared by Figures 10–13 (random
platform campaigns comparing the INC_C / INC_W / LIFO heuristics, normalised
by the INC_C LP prediction) is :func:`heuristic_campaign`, a view over the
figures' named scenario spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.exceptions import ExperimentError

__all__ = [
    "FigureResult",
    "heuristic_campaign",
    "DEFAULT_MATRIX_SIZES",
    "DEFAULT_PLATFORM_COUNT",
    "DEFAULT_TOTAL_TASKS",
]


#: Matrix sizes swept by the paper's campaigns (x-axis of Figures 10–13).
DEFAULT_MATRIX_SIZES: tuple[int, ...] = tuple(range(40, 201, 20))

#: Number of random platforms averaged per point (the paper uses 50).
DEFAULT_PLATFORM_COUNT = 50

#: Number of matrix products per campaign (the paper fixes M = 1000).
DEFAULT_TOTAL_TASKS = 1000


@dataclass
class FigureResult:
    """Series reproducing one figure (or table) of the paper.

    ``series`` maps a series label (e.g. ``"LIFO real/INC_C lp"``) to a list
    of ``(x, y)`` points sharing the x-axis described by ``x_label``.
    """

    figure: str
    title: str
    x_label: str
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    parameters: dict[str, object] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    # Per-series x -> y index backing value()/x_values; rebuilt lazily when
    # the fingerprint shows the series were touched.  Cache-only state:
    # excluded from __init__, __eq__ and repr.
    _index: dict[str, dict[float, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _index_fingerprint: tuple = field(default=(), init=False, repr=False, compare=False)

    def add_point(self, series: str, x: float, y: float) -> None:
        """Append one point to a series (creating the series on first use)."""
        self.series.setdefault(series, []).append((float(x), float(y)))

    def _indexed(self) -> dict[str, dict[float, float]]:
        """The per-series point index, rebuilt only when stale.

        ``series`` is a public mutable mapping, so staleness is detected by
        fingerprinting each series' point count and last point *value* —
        O(#series), versus the O(points) rebuild and the O(points) scans
        the index replaces.  This catches every append and every edit that
        touches a series' tail; swapping a *middle* point of a series for
        a new value of the same length is the one mutation the fingerprint
        cannot see — replace the whole point list instead of editing
        single interior entries.
        """
        fingerprint = tuple(
            (name, len(points), points[-1] if points else None)
            for name, points in self.series.items()
        )
        if fingerprint != self._index_fingerprint:
            index: dict[str, dict[float, float]] = {}
            for name, points in self.series.items():
                mapping: dict[float, float] = {}
                for x, y in points:
                    # first match wins, like the linear scan this replaces
                    mapping.setdefault(x, y)
                index[name] = mapping
            self._index = index
            self._index_fingerprint = fingerprint
        return self._index

    @property
    def x_values(self) -> list[float]:
        """Sorted union of the x values of every series."""
        values: set[float] = set()
        for points in self._indexed().values():
            values.update(points)
        return sorted(values)

    def value(self, series: str, x: float) -> float:
        """Value of ``series`` at ``x`` (exact match required)."""
        try:
            return self._indexed()[series][x]
        except KeyError:
            raise ExperimentError(f"series {series!r} has no point at x={x}") from None

    def format_table(self, float_format: str = "{:.4f}") -> str:
        """Render the result as an aligned text table (one row per x value)."""
        names = list(self.series)
        header = [self.x_label] + names
        rows: list[list[str]] = [header]
        for x in self.x_values:
            row = [f"{x:g}"]
            for name in names:
                try:
                    row.append(float_format.format(self.value(name, x)))
                except ExperimentError:
                    row.append("-")
            rows.append(row)
        widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
        lines = [f"{self.figure}: {self.title}"]
        for index, row in enumerate(rows):
            lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly view of the result."""
        return {
            "figure": self.figure,
            "title": self.title,
            "x_label": self.x_label,
            "parameters": dict(self.parameters),
            "series": {name: list(points) for name, points in self.series.items()},
            "notes": list(self.notes),
        }


def heuristic_campaign(
    figure: str,
    title: str,
    matrix_sizes: Sequence[int] = DEFAULT_MATRIX_SIZES,
    platform_count: int = DEFAULT_PLATFORM_COUNT,
    workers: int = 11,
    total_tasks: int = DEFAULT_TOTAL_TASKS,
    seed: int = 0,
    jobs: int | None = 1,
) -> FigureResult:
    """Run one of the paper's random-platform campaigns (Figures 10–13).

    The campaign is a view over the named scenario space ``figure``
    (``fig10`` … ``fig13b``), derived to ``platform_count`` draws of
    ``workers``-worker platforms over ``matrix_sizes``: the space carries
    the heuristics, the reference, the x10 scalings and the noise model,
    and :class:`~repro.scenarios.spec.ScenarioSpec` validates them.
    For every matrix size and every random platform, each heuristic is
    evaluated twice: its LP-predicted completion time for ``total_tasks``
    matrix products, and the completion time measured on the (noisy)
    simulated cluster after integer rounding.  Both are normalised by the LP
    prediction of the reference heuristic (INC_C), then averaged over the
    platforms — exactly the quantity plotted in the paper.

    The rows come from the scenario runner's chunk evaluator
    (:func:`repro.scenarios.runner.evaluate_rows`, spread over ``jobs``
    processes; ``jobs=None`` uses every CPU) and are identical for every
    ``jobs`` setting, and to the rows ``scenarios run`` persists for the
    same space.

    One caveat on comparing against *pre-fast-kernel* runs: scenario LPs on
    degenerate platforms (notably the homogeneous campaign) have multiple
    optimal vertices, and the default fast kernel deterministically picks
    the exact-simplex vertex where HiGHS could return any of them.  The
    ``lp`` ratio series are unaffected (equal throughput), but the
    simulated ``real`` series can shift by ~1% because a different —
    equally optimal — participant set is executed.

    Returned series: ``"<R> lp"`` (the normalisation baseline of the
    reference ``<R>``, identically 1), ``"<H> lp/<R> lp"`` and
    ``"<H> real/<R> lp"`` for every heuristic ``<H>``.
    """
    # Bound at call time: the runner imports this package, and `import
    # repro.cli` (which loads every driver) stays free of the scenario layer.
    from repro.scenarios.runner import aggregate_figure, evaluate_rows
    from repro.scenarios.spec import named_space
    from repro.scenarios.store import aggregate_rows

    spec = named_space(figure).derive(
        count=platform_count,
        workers=workers,
        matrix_sizes=matrix_sizes,
        total_tasks=total_tasks,
        seed=seed,
    )
    family, reference = spec.family, spec.reference
    result = aggregate_figure(spec, aggregate_rows(evaluate_rows(spec, jobs), quantiles=()))
    labels: dict[str, str] = {}
    for name in spec.heuristics:
        labels[f"{name} lp"] = f"{name} lp" if name == reference else f"{name} lp/{reference} lp"
        labels[f"{name} real"] = f"{name} real/{reference} lp"
    result.series = {label: result.series[series] for series, label in labels.items()}
    result.title = title
    result.parameters = {
        "campaign": _campaign_kind(family),
        "heuristics": list(spec.heuristics),
        "platform_count": family.count,
        "workers": family.workers,
        "total_tasks": spec.total_tasks,
        "comm_scale": family.comm_scale,
        "comp_scale": family.comp_scale,
        "seed": family.seed,
        "matrix_sizes": list(spec.matrix_sizes),
    }
    result.notes.append(
        "every curve is normalised by the LP prediction of the reference heuristic "
        f"({reference}) and averaged over {family.count} random platforms"
    )
    return result


def _campaign_kind(family) -> str:
    """The paper's name for a family's heterogeneity (Section 5.2)."""
    if family.comm.kind == "constant":
        return "homogeneous" if family.comp.kind == "constant" else "hetero-comp"
    return "hetero-star"
