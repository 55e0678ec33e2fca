"""Tests of the generic sweep engine and the batched measurement path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments.campaign_engine import noise_seed as campaign_noise_seed
from repro.experiments.campaign_engine import prepare_cells
from repro.experiments.sweep_engine import (
    SweepTimeoutError,
    resolve_jobs,
    run_chunked,
    run_sweep,
)
from repro.simulation.executor import (
    measure_heuristic,
    prepare_measurement,
)
from repro.core.heuristics import compare_heuristics
from repro.scenarios.runner import evaluate_range
from repro.scenarios.spec import named_space
from repro.simulation.noise import (
    AffineOverhead,
    ComposedNoise,
    GaussianJitter,
    NoJitter,
    UniformJitter,
    default_noise,
    perturb_sequence,
)
from repro.workloads.matrices import MatrixProductWorkload
from repro.workloads.platforms import campaign_factors
from repro.workloads.sampling import base_costs, cost_table


def _double(value):
    return 2 * value


def _indexed_doubler(chunk):
    return [(index, 2 * item) for index, item in chunk]


def _sleepy_doubler(chunk):
    import time

    time.sleep(5.0)
    return [(index, 2 * item) for index, item in chunk]


def _sleep_briefly(value):
    import time

    time.sleep(0.05)
    return 2 * value


class TestResolveJobs:
    def test_none_means_cpu_count(self):
        assert resolve_jobs(None) >= 1

    def test_explicit_count_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_rejects_non_positive(self):
        with pytest.raises(ExperimentError):
            resolve_jobs(0)


class TestRunSweep:
    def test_results_in_item_order(self):
        assert run_sweep(_double, [3, 1, 2]) == [6, 2, 4]

    def test_empty_items(self):
        assert run_sweep(_double, []) == []

    def test_process_pool_matches_serial(self):
        items = list(range(7))
        assert run_sweep(_double, items, jobs=2) == run_sweep(_double, items)

    def test_cache_key_memoises_per_chunk(self):
        calls = []

        def record(item):
            calls.append(item)
            return item

        results = run_sweep(record, [1, 1, 2, 1], cache_key=lambda item: item)
        assert results == [1, 1, 2, 1]
        assert calls == [1, 2]  # the duplicates hit the chunk memo


class TestRunChunked:
    def test_chunk_worker_sees_indices(self):
        assert run_chunked(_indexed_doubler, [5, 6], jobs=1) == [10, 12]

    def test_missing_results_are_detected(self):
        def broken(chunk):
            return [(index, item) for index, item in chunk[:-1]]

        with pytest.raises(ExperimentError):
            run_chunked(broken, [1, 2, 3])


class TestTimeoutAwareFutures:
    """``timeout`` bounds a hung chunk; healthy sweeps never trip it."""

    def test_hung_chunk_raises_sweep_timeout(self):
        with pytest.raises(SweepTimeoutError) as excinfo:
            run_chunked(_sleepy_doubler, [1, 2, 3, 4], jobs=2, timeout=0.2)
        assert excinfo.value.pending >= 1
        assert "timed out" in str(excinfo.value)

    def test_healthy_sweep_is_untouched_by_generous_timeout(self):
        items = list(range(6))
        assert run_sweep(_sleep_briefly, items, jobs=2, timeout=30.0) == [
            2 * item for item in items
        ]

    def test_timeout_is_inert_on_the_inline_path(self):
        # jobs=1 runs inline: nothing to interrupt, timeout ignored.
        assert run_chunked(_indexed_doubler, [5, 6], jobs=1, timeout=0.001) == [10, 12]

    def test_sweep_timeout_is_an_experiment_error(self):
        assert issubclass(SweepTimeoutError, ExperimentError)


class TestPreparedMeasurement:
    """The campaign fast path must match measure_heuristic bit for bit."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("heuristic", ("INC_C", "INC_W", "LIFO"))
    def test_measure_matches_measure_heuristic(self, seed, heuristic):
        factors = campaign_factors("hetero-star", 1, size=7, seed=seed)[0]
        platform = factors.platform(MatrixProductWorkload(100 + 20 * seed))
        evaluation = compare_heuristics(platform, (heuristic,))[heuristic]
        prepared = prepare_measurement(evaluation, 1000)
        for noise_seed in range(3):
            fast = prepared.measure(default_noise(noise_seed))
            reference = measure_heuristic(
                evaluation, 1000, noise=default_noise(noise_seed), collect_trace=False
            )
            assert fast == reference.measured_makespan

    def test_noise_free_measurement(self):
        factors = campaign_factors("hetero-star", 1, size=5, seed=9)[0]
        platform = factors.platform(MatrixProductWorkload(80))
        evaluation = compare_heuristics(platform, ("INC_C",))["INC_C"]
        prepared = prepare_measurement(evaluation, 500)
        reference = measure_heuristic(evaluation, 500, noise=None, collect_trace=False)
        assert prepared.measure(None) == reference.measured_makespan


class TestPerturbSequence:
    """Vectorised noise must consume the random stream like scalar calls."""

    _CASES = (
        NoJitter(),
        AffineOverhead(comm_latency=0.5, compute_latency=0.25),
    )

    def _operations(self, count=150):
        rng = np.random.default_rng(7)
        durations = rng.uniform(0.0, 5.0, count)
        kinds = [("send", "compute", "return")[i % 3] for i in range(count)]
        workers = [f"P{i % 5}" for i in range(count)]
        return durations, kinds, workers

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: NoJitter(),
            lambda: AffineOverhead(comm_latency=0.5, compute_latency=0.25),
            lambda: UniformJitter(amplitude=0.05, comm_amplitude=0.2, seed=123),
            lambda: GaussianJitter(sigma=0.1, seed=123),
            lambda: ComposedNoise(
                UniformJitter(amplitude=0.05, seed=5), AffineOverhead(comm_latency=0.1)
            ),
        ],
    )
    def test_stream_identical_to_scalar_calls(self, factory):
        durations, kinds, workers = self._operations()
        vector_model = factory()
        scalar_model = factory()
        vectorised = perturb_sequence(vector_model, durations, kinds, workers)
        scalar = [
            scalar_model.perturb(float(duration), kind, worker)
            for duration, kind, worker in zip(durations, kinds, workers)
        ]
        assert vectorised.tolist() == scalar
        # ...and both models are left in the same state for the next draw
        assert vector_model.perturb(1.0, "send", "P0") == scalar_model.perturb(
            1.0, "send", "P0"
        )

    def test_split_draws_match_one_shot(self):
        """Consuming the sequence in two halves equals one shot."""
        durations, kinds, workers = self._operations(101)
        one = UniformJitter(amplitude=0.1, seed=3)
        two = UniformJitter(amplitude=0.1, seed=3)
        whole = perturb_sequence(one, durations, kinds, workers)
        halves = np.concatenate(
            [
                perturb_sequence(two, durations[:40], kinds[:40], workers[:40]),
                perturb_sequence(two, durations[40:], kinds[40:], workers[40:]),
            ]
        )
        assert whole.tolist() == halves.tolist()

    def test_composed_multi_stateful_falls_back_to_scalar_order(self):
        durations, kinds, workers = self._operations(30)
        vector_model = ComposedNoise(
            UniformJitter(amplitude=0.05, seed=1), GaussianJitter(sigma=0.05, seed=2)
        )
        scalar_model = ComposedNoise(
            UniformJitter(amplitude=0.05, seed=1), GaussianJitter(sigma=0.05, seed=2)
        )
        assert not vector_model.stateless
        vectorised = perturb_sequence(vector_model, durations, kinds, workers)
        scalar = [
            scalar_model.perturb(float(duration), kind, worker)
            for duration, kind, worker in zip(durations, kinds, workers)
        ]
        assert vectorised.tolist() == scalar


class TestCampaignEngineAgainstReferencePath:
    """The array-level campaign evaluation equals the public reference path."""

    def test_prepared_cell_measure_matches_reference(self):
        """The scalar cell replay equals measure_heuristic per heuristic."""
        heuristics, total_tasks = ("INC_C", "LIFO"), 250
        factors = campaign_factors("hetero-star", 1, size=5, seed=4)[0]
        c, w, d = cost_table(base_costs(100), np.array(factors.comm), np.array(factors.comp))
        cells = prepare_cells(heuristics, "INC_C", total_tasks, [("cell", c, w, d)])
        measured = cells["cell"].measure(default_noise(77))

        platform = factors.platform(MatrixProductWorkload(100))
        evaluations = compare_heuristics(platform, heuristics)
        noise = default_noise(77)
        for name, makespan in zip(heuristics, measured):
            report = measure_heuristic(
                evaluations[name], total_tasks, noise=noise, collect_trace=False
            )
            assert makespan == report.measured_makespan

    def test_chunk_rows_match_scalar_reference(self):
        """The runner's chunk rows, float for float, against compare_heuristics
        + measure_heuristic on the platform objects of the same draws."""
        spec = named_space("fig12").derive(
            count=3, workers=6, seed=11, matrix_sizes=(60, 140), total_tasks=300
        )
        rows = evaluate_range(spec, 0, spec.family.count)
        assert [(row["platform"], row["size"]) for row in rows] == [
            (index, size) for index in range(3) for size in spec.matrix_sizes
        ]
        factor_sets = campaign_factors("hetero-star", 3, size=6, seed=11)
        for row in rows:
            platform_index, size = row["platform"], row["size"]
            factors = factor_sets[platform_index]
            platform = factors.platform(
                MatrixProductWorkload(size), name=f"{factors.label}-s{size}"
            )
            evaluations = compare_heuristics(platform, spec.heuristics)
            reference_time = evaluations["INC_C"].makespan_for(spec.total_tasks)
            noise = default_noise(campaign_noise_seed(spec.family.seed, platform_index, size))
            for name in spec.heuristics:
                evaluation = evaluations[name]
                lp_time = evaluation.makespan_for(spec.total_tasks)
                report = measure_heuristic(
                    evaluation, spec.total_tasks, noise=noise, collect_trace=False
                )
                assert row["values"][f"{name} lp"] == lp_time / reference_time
                assert row["values"][f"{name} real"] == (
                    report.measured_makespan / reference_time
                )
