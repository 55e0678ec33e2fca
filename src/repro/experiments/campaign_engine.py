"""Array layer of the random-platform campaigns (Figures 10-13 and beyond).

Every LP-backed campaign — the paper's Figures 10-13, which are views over
their named scenario spaces, and every other scenario space — evaluates
heuristics on raw ``(c, w, d)`` cost tables through this module, driven
chunk by chunk by :mod:`repro.scenarios.runner`:

* :func:`prepare_cells` stacks every LP a batch of cost tables needs into
  **one batched scenario-kernel call** per worker count (one-port through
  :mod:`repro.core.batch_scenario`, two-port through
  :mod:`repro.core.batch_twoport`) and assembles the prepared replays
  straight from the kernel's load vectors — no platform or schedule
  objects; the heuristic order rules and the closed-form LIFO chain come
  from :mod:`repro.core.order_rules`;
* :func:`replay_grouped` replays the one-port measurements of a whole
  chunk vectorised per worker count, :func:`replay_two_port` the
  merge-ordered two-port ones;
* :func:`noise_seed` is the one per-(platform, size) noise-seed formula of
  every campaign, so a chunk's rows do not depend on how the platforms
  are split across chunks or processes.

Everything here is bit-identical to the public reference path —
:func:`repro.core.heuristics.compare_heuristics` plus
:func:`repro.simulation.executor.measure_heuristic` per cell — which the
test-suite pins it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.batch_scenario import scenario_arrays_batch, solve_scenario_arrays_batch
from repro.core.batch_twoport import two_port_arrays_batch
from repro.core.heuristics import HEURISTICS
from repro.core.order_rules import (
    ORDER_RULES,
    TWO_PORT_ORDER_RULES,
    TWO_PORT_REVERSED_RETURN,
    lifo_chain_values,
    sorted_indices,
    worker_names,
)
from repro.core.rounding import round_values
from repro.exceptions import ScheduleError
from repro.simulation.executor import (
    PreparedMeasurement,
    prepare_measurement_arrays,
    timeline_indices,
)
from repro.simulation.fast_twoport import run_fast_twoport
from repro.simulation.noise import NoiseModel, perturb_sequence

__all__ = [
    "PreparedCell",
    "PreparedTwoPortRun",
    "TwoPortCell",
    "noise_seed",
    "prepare_cells",
    "replay_grouped",
    "replay_two_port",
]


def noise_seed(seed: int, platform_index: int, size: int) -> int:
    """The per-(platform, size) noise seed of every campaign."""
    return seed * 100_003 + platform_index * 1_009 + int(size)


@dataclass(frozen=True)
class PreparedCell:
    """One (factor set, size) pair with every noise-independent step done.

    ``lp_ratios`` are the (noise-free) LP ratio entries.  The measurement
    side is the concatenation of the heuristics' prepared replays (see
    :class:`~repro.simulation.executor.PreparedMeasurement`): one batched
    ``perturb_sequence`` call per platform draws the cell's whole noise
    stream — in exactly the order the per-run path would — and the
    heuristics' slices are replayed vectorised across the whole chunk.
    """

    lp_ratios: tuple[tuple[str, float], ...]
    reference_time: float
    prepared: tuple
    durations: np.ndarray
    kinds: tuple[str, ...]
    workers: tuple[str, ...]
    offsets: tuple[int, ...]

    def measure(self, noise: NoiseModel) -> list[float]:
        """Measured makespans of every heuristic, one batched draw.

        Scalar reference path (:func:`replay_grouped` batches the replays
        instead); kept for tests and small callers.
        """
        perturbed = perturb_sequence(noise, self.durations, self.kinds, self.workers)
        return [
            measurement.makespan(perturbed[start:end])
            for measurement, start, end in zip(
                self.prepared, self.offsets, self.offsets[1:]
            )
        ]


def replay_grouped(
    occurrences: list[tuple[int, int, PreparedCell, np.ndarray]],
    heuristic_count: int,
) -> np.ndarray:
    """Replay every (occurrence, heuristic) run, vectorised per q.

    Returns the ``(len(occurrences), heuristic_count)`` makespan matrix.
    The timeline arithmetic is the one-port replay of
    :meth:`PreparedMeasurement.makespan` run row-parallel — cumulative
    sends, computes at send end, returns folded left-to-right with
    ``maximum`` — and produces the same floats (sequential ``cumsum`` and
    elementwise ``maximum``/``add`` match the scalar operations).
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    for index, (_, _, cell, _) in enumerate(occurrences):
        for slot, measurement in enumerate(cell.prepared):
            groups.setdefault(measurement.participant_count, []).append((index, slot))

    makespans = np.empty((len(occurrences), heuristic_count))
    for q, members in groups.items():
        count = len(members)
        perturbed = np.empty((count, 3 * q))
        sigma2_positions = np.empty((count, q), dtype=np.intp)
        for row, (index, slot) in enumerate(members):
            cell = occurrences[index][2]
            perturbed[row] = occurrences[index][3][cell.offsets[slot] : cell.offsets[slot + 1]]
            sigma2_positions[row] = cell.prepared[slot].sigma2_positions
        send_index, compute_index = timeline_indices(q)
        send_end = np.cumsum(perturbed[:, send_index], axis=1)
        compute_end = send_end + perturbed[:, compute_index]
        collected = np.take_along_axis(compute_end, sigma2_positions, axis=1)
        returns = perturbed[:, 2 * q :]
        port_free = send_end[:, q - 1]
        for i in range(q):
            port_free = np.maximum(port_free, collected[:, i]) + returns[:, i]
        rows = np.array([index for index, _ in members])
        slots = np.array([slot for _, slot in members])
        makespans[rows, slots] = port_free
    return makespans


class _WorkerCosts:
    """Per-unit costs of one worker, quacking like a platform entry.

    :func:`~repro.simulation.fast_twoport.run_fast_twoport` only ever does
    ``platform[name].c`` (``.w``, ``.d``), so a plain dict of these stands
    in for a :class:`~repro.core.platform.StarPlatform` — the floats come
    straight from the campaign cost table, which is bit-identical to the
    object path's worker costs.
    """

    __slots__ = ("c", "w", "d")

    def __init__(self, c: float, w: float, d: float) -> None:
        self.c = c
        self.w = w
        self.d = d


@dataclass(frozen=True)
class PreparedTwoPortRun:
    """One heuristic's rounded two-port schedule, ready for noisy replay.

    The two-port timeline has no static draw order — returns interleave
    with pending sends, so the noise stream depends on the realised event
    times.  Measurement therefore replays the merge-ordered state machine
    of :func:`~repro.simulation.fast_twoport.run_fast_twoport` per run
    instead of batching one ``perturb_sequence`` call; rounding, the
    participant filter and the cost lookups are still done once here.
    ``measure`` is bit-identical to ``measure_heuristic(result, total,
    noise=noise, one_port=False).measured_makespan`` — same rounding, same
    filtered sigmas, same merge-ordered draws (pinned by the test-suite).
    """

    costs: dict[str, _WorkerCosts]
    loads: dict[str, float]
    sigma1: tuple[str, ...]
    sigma2: tuple[str, ...]
    participant_count: int

    def measure(self, noise: NoiseModel) -> float:
        """Measured two-port makespan of the prepared schedule."""
        run = run_fast_twoport(
            self.costs, self.loads, self.sigma1, self.sigma2, noise, collect_trace=False
        )
        return run.makespan


@dataclass(frozen=True)
class TwoPortCell:
    """One (factor set, size) pair prepared for two-port evaluation.

    The two-port counterpart of :class:`PreparedCell`: ``lp_ratios`` come
    from the batched two-port kernel (every heuristic is LP-backed —
    two-port LIFO has no closed form), and ``prepared`` holds one
    :class:`PreparedTwoPortRun` per heuristic, measured in sequence from
    one shared noise stream exactly like the serial reference path.
    """

    lp_ratios: tuple[tuple[str, float], ...]
    reference_time: float
    prepared: tuple[PreparedTwoPortRun, ...]

    def measure(self, noise: NoiseModel) -> list[float]:
        """Measured makespans of every heuristic, drawn in sequence."""
        return [run.measure(noise) for run in self.prepared]


def replay_two_port(
    occurrences: list[tuple[int, int, TwoPortCell, NoiseModel]],
    heuristic_count: int,
) -> np.ndarray:
    """Replay every (occurrence, heuristic) two-port run.

    Returns the ``(len(occurrences), heuristic_count)`` makespan matrix.
    Each occurrence carries its own noise model (seeded per (platform,
    size) like the one-port campaigns); its heuristics draw from that one
    stream in slot order, mirroring the serial path that measures each
    heuristic in sequence.  The merge-ordered replay cannot pre-draw its
    noise, so this loops runs instead of vectorising — the LP side of the
    cell is still one batched kernel call.
    """
    makespans = np.empty((len(occurrences), heuristic_count))
    for row, (_, _, cell, noise) in enumerate(occurrences):
        makespans[row] = cell.measure(noise)
    return makespans


def _cost_tables(keyed_tables):
    """Array + list views of the batch's cost tables.

    Arrays feed the stacked kernel; the list views feed the Python-level
    ordering/chain/layout code (same floats).
    """
    return [
        (worker_names(len(c)), c, w, d, c.tolist(), w.tolist(), d.tolist())
        for _, c, w, d in keyed_tables
    ]


def _solve_stacked_orders(
    tables,
    orders: list[list[int]],
    reversed_returns: list[bool] | None = None,
    one_port: bool = True,
) -> list[np.ndarray]:
    """Stack ordered LP scenarios by worker count and solve each group.

    ``orders`` holds one send order per (table, heuristic slot) pair in
    flat order — ``orders[index * slots + offset]`` is slot ``offset`` of
    table ``index``.  ``reversed_returns`` flags the slots whose return
    order is the reverse of the send order (the two-port LIFO); groups
    that end up all-FIFO pass ``rank2=None``, exactly like the scalar
    build.  Returns the kernel's load vector per flat index — the shared
    stacking scaffold of both port models (one batched kernel call per
    worker count either way).
    """
    slots = len(orders) // len(tables) if tables else 0
    groups: dict[int, list[int]] = {}
    for flat, order in enumerate(orders):
        groups.setdefault(len(order), []).append(flat)
    loads_rows: list[np.ndarray] = [None] * len(orders)  # type: ignore[list-item]
    for q, flats in groups.items():
        c_matrix = np.empty((len(flats), q))
        w_matrix = np.empty((len(flats), q))
        d_matrix = np.empty((len(flats), q))
        rank2 = np.empty((len(flats), q), dtype=np.int64)
        identity = np.arange(q)
        fifo_only = True
        for row, flat in enumerate(flats):
            _, c, w, d, _, _, _ = tables[flat // slots]
            order = orders[flat]
            c_matrix[row] = c[order]
            w_matrix[row] = w[order]
            d_matrix[row] = d[order]
            if reversed_returns is not None and reversed_returns[flat]:
                # sigma2 = reversed(sigma1): position i is collected at
                # rank q-1-i, exactly the scalar build's rank vector.
                rank2[row] = identity[::-1]
                fifo_only = False
            else:
                rank2[row] = identity
        if one_port:
            a, b = scenario_arrays_batch(
                c_matrix, w_matrix, d_matrix, rank2=None if fifo_only else rank2
            )
        else:
            a, b = two_port_arrays_batch(
                c_matrix, w_matrix, d_matrix, rank2=None if fifo_only else rank2
            )
        solved = solve_scenario_arrays_batch(
            a, b, kernel="batch_scenario" if one_port else "batch_twoport"
        )
        for row, flat in enumerate(flats):
            loads_rows[flat] = solved.loads[row]
    return loads_rows


def _cell_ratios(evaluated, reference: str, total: int, heuristic_names):
    """Reference time, LP ratios and prepared replays of one cell.

    ``evaluated`` maps each heuristic to its ``(throughput, prepared)``
    pair.  Shared by both port models so the series definition — every
    ratio normalised by the reference heuristic's LP prediction — can
    never diverge between them.
    """
    reference_time = total / evaluated[reference][0]
    lp_ratios = tuple(
        (name, (total / evaluated[name][0]) / reference_time)
        for name in heuristic_names
    )
    prepared = tuple(evaluated[name][1] for name in heuristic_names)
    return reference_time, lp_ratios, prepared


def prepare_cells(
    heuristic_names: Sequence[str],
    reference: str,
    total_tasks: int,
    keyed_tables: Sequence[tuple[tuple, np.ndarray, np.ndarray, np.ndarray]],
    one_port: bool = True,
) -> dict[tuple, PreparedCell] | dict[tuple, TwoPortCell]:
    """Prepare a batch of ``(key, c, w, d)`` cost tables for evaluation.

    Each table is one scenario cell: a platform's cost vectors at one grid
    point of whatever workload produced them — a matrix size, or a bus
    ``w/c`` ratio for a bus-workload space.  Every LP the batch needs —
    one per (table, LP-backed heuristic) pair — is stacked into one batched kernel call per worker
    count; throughputs and prepared replays are assembled straight from
    the kernel's load vectors, no platform or schedule objects at all.
    Everything here is bit-identical to evaluating
    :func:`repro.core.heuristics.compare_heuristics` and
    :func:`repro.simulation.executor.measure_heuristic` per cell — the
    public reference path the test-suite pins this engine against.

    ``one_port=False`` dispatches to the two-port chain: the LPs drop the
    coupling row and run through :mod:`repro.core.batch_twoport`, LIFO
    becomes LP-backed with a reversed return permutation, and the cells
    come back as :class:`TwoPortCell` (merge-ordered replay) instead of
    :class:`PreparedCell` (static-timeline replay) — bit-identical to the
    scalar :mod:`repro.core.twoport` + ``measure_heuristic(one_port=False)``
    reference path.
    """
    if not one_port:
        return _prepare_two_port_cells(heuristic_names, reference, total_tasks, keyed_tables)
    for name in heuristic_names:
        if name not in HEURISTICS:
            raise ScheduleError(
                f"unknown heuristic {name!r}; available: {sorted(HEURISTICS)}"
            )
    lp_names = [name for name in heuristic_names if name in ORDER_RULES]
    total = total_tasks

    tables = _cost_tables(keyed_tables)
    orders = [
        ORDER_RULES[name](names, c_list, w_list, d_list)
        for names, _, _, _, c_list, w_list, d_list in tables
        for name in lp_names
    ]
    loads_rows = _solve_stacked_orders(tables, orders)

    cells: dict[tuple, PreparedCell] = {}
    for index, ((key, _, _, _), table) in enumerate(zip(keyed_tables, tables)):
        names, _, _, _, c_list, w_list, d_list = table
        evaluated: dict[str, tuple[float, PreparedMeasurement]] = {}
        for offset, name in enumerate(lp_names):
            flat = index * len(lp_names) + offset
            order = orders[flat]
            values = loads_rows[flat].tolist()
            ordered_names = [names[i] for i in order]
            # sum(values) is the schedule's total load; the unit deadline
            # makes it the throughput (same float as total_load / 1.0).
            evaluated[name] = (
                sum(values),
                prepare_measurement_arrays(
                    (
                        [c_list[i] for i in order],
                        [w_list[i] for i in order],
                        [d_list[i] for i in order],
                    ),
                    ordered_names,
                    ordered_names,
                    values,
                    total,
                ),
            )
        for name in heuristic_names:
            if name in evaluated:
                continue
            # The only non-LP heuristic: the closed-form optimal LIFO.
            order = sorted_indices(names, c_list)
            values = lifo_chain_values(c_list, w_list, d_list, order)
            ordered_names = [names[i] for i in order]
            evaluated[name] = (
                sum(values),
                prepare_measurement_arrays(
                    (
                        [c_list[i] for i in order],
                        [w_list[i] for i in order],
                        [d_list[i] for i in order],
                    ),
                    ordered_names,
                    list(reversed(ordered_names)),
                    values,
                    total,
                ),
            )

        reference_time, lp_ratios, prepared = _cell_ratios(
            evaluated, reference, total, heuristic_names
        )
        offsets = [0]
        for measurement in prepared:
            offsets.append(offsets[-1] + len(measurement.durations))
        cells[key] = PreparedCell(
            lp_ratios=lp_ratios,
            reference_time=reference_time,
            prepared=prepared,
            durations=np.concatenate([m.durations for m in prepared]),
            kinds=tuple(kind for m in prepared for kind in m.kinds),
            workers=tuple(worker for m in prepared for worker in m.workers),
            offsets=tuple(offsets),
        )
    return cells


def _prepare_two_port_cells(
    heuristic_names: Sequence[str],
    reference: str,
    total_tasks: int,
    keyed_tables: Sequence[tuple[tuple, np.ndarray, np.ndarray, np.ndarray]],
) -> dict[tuple, TwoPortCell]:
    """Two-port cell preparation (see :func:`prepare_cells`).

    Every heuristic is LP-backed here: the FIFO orderings keep their
    one-port rules (Theorem 1's permutation does not depend on the
    coupling row) and LIFO serves by non-decreasing ``c_i`` collecting in
    reverse — the rules of :mod:`repro.core.twoport`, mirrored at the
    array level by :data:`~repro.core.order_rules.TWO_PORT_ORDER_RULES`.
    All the batch's LPs are stacked per worker count into
    :func:`~repro.core.batch_twoport.solve_two_port_batch` calls.
    """
    for name in heuristic_names:
        if name not in TWO_PORT_ORDER_RULES:
            raise ScheduleError(
                f"unknown two-port heuristic {name!r}; "
                f"available: {sorted(TWO_PORT_ORDER_RULES)}"
            )
    total = total_tasks
    heuristic_count = len(heuristic_names)

    tables = _cost_tables(keyed_tables)
    # Every heuristic is a stacked-LP slot here; LIFO rows get the
    # reversed return permutation, everything else is FIFO.
    orders: list[list[int]] = []
    reversed_returns: list[bool] = []
    for names, _, _, _, c_list, w_list, d_list in tables:
        for name in heuristic_names:
            orders.append(TWO_PORT_ORDER_RULES[name](names, c_list, w_list, d_list))
            reversed_returns.append(name in TWO_PORT_REVERSED_RETURN)
    loads_rows = _solve_stacked_orders(
        tables, orders, reversed_returns=reversed_returns, one_port=False
    )

    cells: dict[tuple, TwoPortCell] = {}
    for index, ((key, _, _, _), table) in enumerate(zip(keyed_tables, tables)):
        names, _, _, _, c_list, w_list, d_list = table
        evaluated: dict[str, tuple[float, PreparedTwoPortRun]] = {}
        for offset, name in enumerate(heuristic_names):
            flat = index * heuristic_count + offset
            order = orders[flat]
            values = loads_rows[flat].tolist()
            ordered_names = [names[i] for i in order]
            # Rounding mirrors measure_heuristic's round_loads: integer
            # counts summing to the total, zero-load workers dropped from
            # both sigmas (reversal and filtering commute).
            counts = round_values(values, total)
            active = [k for k, count in enumerate(counts) if count > 0]
            if not active:
                raise ScheduleError("rounded schedule has no participating worker")
            sigma1 = tuple(ordered_names[k] for k in active)
            sigma2 = tuple(reversed(sigma1)) if reversed_returns[flat] else sigma1
            costs = {
                ordered_names[k]: _WorkerCosts(
                    c_list[order[k]], w_list[order[k]], d_list[order[k]]
                )
                for k in active
            }
            loads = {ordered_names[k]: float(counts[k]) for k in active}
            evaluated[name] = (
                sum(values),
                PreparedTwoPortRun(
                    costs=costs,
                    loads=loads,
                    sigma1=sigma1,
                    sigma2=sigma2,
                    participant_count=len(active),
                ),
            )

        reference_time, lp_ratios, prepared = _cell_ratios(
            evaluated, reference, total, heuristic_names
        )
        cells[key] = TwoPortCell(
            lp_ratios=lp_ratios,
            reference_time=reference_time,
            prepared=prepared,
        )
    return cells
