"""Tests of the two-port scenario evaluation chain.

Three load-bearing guarantees:

* **reference parity** — a ``one_port: false`` campaign persists, per
  (platform, size, heuristic), exactly the values of the scalar reference
  path: :mod:`repro.core.twoport` schedules measured through
  :func:`repro.simulation.executor.measure_heuristic` with
  ``one_port=False`` and one shared noise stream per cell (bit-identical,
  for every noise model a spec can name);
* **resume semantics** — interrupted two-port campaigns resume
  byte-identically, through the Python API and through the CLI's
  run → SIGINT → resume cycle;
* **determinism across jobs** — every ``jobs`` setting persists identical
  rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.heuristics import HeuristicResult
from repro.core.twoport import (
    optimal_two_port_fifo_schedule,
    optimal_two_port_lifo_schedule,
    two_port_fifo_for_order,
)
from repro.experiments.campaign_engine import noise_seed, prepare_cells
from repro.simulation.noise import default_noise, overhead_noise
from repro.scenarios.runner import run_campaign
from repro.scenarios.spec import named_space, spec_hash
from repro.simulation.executor import measure_heuristic
from repro.workloads.matrices import MatrixProductWorkload
from repro.workloads.platforms import campaign_factors


def two_port_spec(name="small-2p", count=4, sizes=(40, 120), noise="default"):
    return named_space("fig12-twoport").derive(
        name=name, count=count, matrix_sizes=sizes, noise=noise
    )


def _reference_heuristic(platform, name):
    """Scalar two-port evaluation of one heuristic (the reference path)."""
    if name == "LIFO":
        solution = optimal_two_port_lifo_schedule(platform)
    elif name == "OPT_FIFO":
        solution = optimal_two_port_fifo_schedule(platform)
    elif name == "INC_C":
        solution = two_port_fifo_for_order(platform, platform.ordered_by_c())
    elif name == "INC_W":
        solution = two_port_fifo_for_order(platform, platform.ordered_by_w())
    elif name == "DEC_C":
        solution = two_port_fifo_for_order(
            platform, platform.ordered_by_c(descending=True)
        )
    elif name == "PLATFORM_ORDER":
        solution = two_port_fifo_for_order(platform, platform.worker_names)
    else:  # pragma: no cover - guard for new spec heuristics
        raise AssertionError(f"no reference wired for {name!r}")
    return HeuristicResult(
        name=name, schedule=solution.schedule, throughput=solution.throughput
    )


class TestReferenceParity:
    @pytest.mark.parametrize(
        "space, campaign_kind, scale_kwargs",
        [
            ("fig10-twoport", "homogeneous", {}),
            ("fig11-twoport", "hetero-comp", {}),
            ("fig12-twoport", "hetero-star", {}),
            ("fig13a-twoport", "hetero-star", {"comp": 10.0}),
            ("fig13b-twoport", "hetero-star", {"comm": 10.0}),
        ],
    )
    def test_rows_match_scalar_two_port_path(self, tmp_path, space, campaign_kind, scale_kwargs):
        """Every persisted value == the scalar twoport + measure path."""
        spec = named_space(space).derive(count=3, matrix_sizes=(40, 200))
        progress = run_campaign(spec, tmp_path, chunk_size=2)
        assert progress.finished
        rows = progress.rows()
        assert len(rows) == spec.scenario_count

        factors = [
            factor_set.scaled(**scale_kwargs) if scale_kwargs else factor_set
            for factor_set in campaign_factors(
                campaign_kind, spec.family.count,
                size=spec.family.workers, seed=spec.family.seed,
            )
        ]
        noise_factory = overhead_noise if spec.noise == "overhead" else default_noise
        total = spec.total_tasks
        for row in rows:
            index, size = row["platform"], row["size"]
            platform = factors[index].platform(MatrixProductWorkload(size))
            results = {
                name: _reference_heuristic(platform, name) for name in spec.heuristics
            }
            reference_time = total / results[spec.reference].throughput
            noise = noise_factory(noise_seed(spec.family.seed, index, size))
            for name in spec.heuristics:
                report = measure_heuristic(
                    results[name], total, noise=noise, one_port=False,
                    collect_trace=False,
                )
                lp = (total / results[name].throughput) / reference_time
                assert row["values"][f"{name} lp"] == lp
                assert (
                    row["values"][f"{name} real"]
                    == report.measured_makespan / reference_time
                )
                assert row["values"][f"{name} workers"] == len(report.participants)
            assert row["values"][f"{spec.reference} time"] == reference_time

    def test_every_evaluable_heuristic_matches_reference(self, tmp_path):
        """All six spec heuristics — incl. DEC_C / PLATFORM_ORDER /
        OPT_FIFO — pin against the scalar two-port path, LP and measured."""
        from repro.scenarios.spec import EVALUABLE_HEURISTICS

        spec = named_space("fig12-twoport").derive(
            name="all-heuristics",
            count=2,
            matrix_sizes=(40, 120),
            heuristics=EVALUABLE_HEURISTICS,
        )
        progress = run_campaign(spec, tmp_path, chunk_size=2)
        assert progress.finished

        factors = campaign_factors(
            "hetero-star", spec.family.count,
            size=spec.family.workers, seed=spec.family.seed,
        )
        total = spec.total_tasks
        for row in progress.rows():
            index, size = row["platform"], row["size"]
            platform = factors[index].platform(MatrixProductWorkload(size))
            results = {
                name: _reference_heuristic(platform, name) for name in spec.heuristics
            }
            reference_time = total / results[spec.reference].throughput
            noise = default_noise(noise_seed(spec.family.seed, index, size))
            for name in spec.heuristics:
                report = measure_heuristic(
                    results[name], total, noise=noise, one_port=False,
                    collect_trace=False,
                )
                assert (
                    row["values"][f"{name} lp"]
                    == (total / results[name].throughput) / reference_time
                )
                assert (
                    row["values"][f"{name} real"]
                    == report.measured_makespan / reference_time
                )

    def test_lp_only_two_port_space(self, tmp_path):
        spec = two_port_spec(noise=None)
        progress = run_campaign(spec, tmp_path, chunk_size=2)
        assert progress.finished
        for row in progress.rows():
            assert not any(series.endswith(" real") for series in row["values"])
            assert f"{spec.reference} lp" in row["values"]
            assert row["values"][f"{spec.reference} lp"] == 1.0

    def test_two_port_lp_at_least_one_port(self, tmp_path):
        """Same factors, same heuristic: the two-port reference time can
        never exceed the one-port one (any one-port schedule is two-port
        feasible)."""
        one_port = named_space("fig12").derive(count=3, matrix_sizes=(120,), noise=None)
        two_port = named_space("fig12-twoport").derive(
            count=3, matrix_sizes=(120,), noise=None
        )
        rows_one = run_campaign(one_port, tmp_path / "one", chunk_size=3).rows()
        rows_two = run_campaign(two_port, tmp_path / "two", chunk_size=3).rows()
        reference = one_port.reference
        for row_one, row_two in zip(rows_one, rows_two):
            assert (
                row_two["values"][f"{reference} time"]
                <= row_one["values"][f"{reference} time"] + 1e-12
            )

    def test_prepare_cells_rejects_unknown_heuristic(self):
        with pytest.raises(Exception, match="unknown two-port heuristic"):
            prepare_cells(
                ("NOPE",), "NOPE", 1000,
                [(("k",), np.array([1.0]), np.array([1.0]), np.array([1.0]))],
                one_port=False,
            )


class TestResumeSemantics:
    def test_interrupted_two_port_campaign_resumes_byte_identically(self, tmp_path):
        spec = two_port_spec()
        uninterrupted = run_campaign(spec, tmp_path / "full", chunk_size=2)
        assert uninterrupted.finished

        partial = run_campaign(spec, tmp_path / "resumed", chunk_size=2, max_chunks=1)
        assert not partial.finished
        resumed = run_campaign(spec, tmp_path / "resumed", chunk_size=2)
        assert resumed.finished
        full_bytes = (tmp_path / "full" / spec_hash(spec) / "chunks.jsonl").read_bytes()
        resumed_bytes = (
            tmp_path / "resumed" / spec_hash(spec) / "chunks.jsonl"
        ).read_bytes()
        assert full_bytes == resumed_bytes

    def test_jobs_do_not_change_rows(self, tmp_path):
        spec = two_port_spec()
        serial = run_campaign(spec, tmp_path / "serial", chunk_size=2, jobs=1)
        parallel = run_campaign(spec, tmp_path / "parallel", chunk_size=2, jobs=2)
        assert serial.rows() == parallel.rows()


class TestCliCycle:
    SPACE = "fig12-twoport"
    FLAGS = ("--count", "4", "--chunk-size", "2")

    def _run(self, verb, store, *extra):
        return main(
            ["scenarios", verb, self.SPACE, "--store", str(store), *self.FLAGS, *extra]
        )

    def test_run_sigint_resume_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        """CLI run -> SIGINT -> resume == one uninterrupted CLI run."""
        assert self._run("run", tmp_path / "full") == 0

        # Deterministic SIGINT: raise KeyboardInterrupt (what the signal
        # handler raises) from the progress callback once a chunk group
        # has been persisted.
        from repro.scenarios import runner as runner_module

        real_run_campaign = runner_module.run_campaign

        def interrupting(spec, store, **kwargs):
            inner = kwargs.get("progress")

            def progress(done, total):
                if inner is not None:
                    inner(done, total)
                raise KeyboardInterrupt

            kwargs["progress"] = progress
            return real_run_campaign(spec, store, **kwargs)

        monkeypatch.setattr(runner_module, "run_campaign", interrupting)
        assert self._run("run", tmp_path / "cycled") == 130
        out = capsys.readouterr().out
        assert "interrupted" in out and "scenarios resume" in out
        monkeypatch.undo()

        assert self._run("resume", tmp_path / "cycled") == 0

        spec = named_space(self.SPACE).derive(count=4)
        full = (tmp_path / "full" / spec_hash(spec) / "chunks.jsonl").read_bytes()
        cycled = (tmp_path / "cycled" / spec_hash(spec) / "chunks.jsonl").read_bytes()
        assert full == cycled

    def test_jobs_flag_accepted_for_two_port_spaces(self, tmp_path):
        assert self._run("run", tmp_path / "jobs", "--jobs", "2") == 0
        spec = named_space(self.SPACE).derive(count=4)
        jobs_bytes = (tmp_path / "jobs" / spec_hash(spec) / "chunks.jsonl").read_bytes()
        assert self._run("run", tmp_path / "serial") == 0
        serial_bytes = (
            tmp_path / "serial" / spec_hash(spec) / "chunks.jsonl"
        ).read_bytes()
        assert jobs_bytes == serial_bytes

    def test_show_reports_two_port_progress(self, tmp_path, capsys):
        assert self._run("run", tmp_path / "store", "--max-chunks", "1") == 0
        capsys.readouterr()
        # `show` takes the space/store/count flags but no chunk plan.
        assert (
            main(
                ["scenarios", "show", self.SPACE, "--store", str(tmp_path / "store"),
                 "--count", "4"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert '"one_port": false' in out
        assert "completed chunks: 1" in out
