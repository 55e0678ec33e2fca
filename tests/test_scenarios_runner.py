"""Tests for the streaming runner and the resumable store.

The two load-bearing guarantees:

* **campaign parity** — a stored campaign persists exactly the rows the
  in-memory Figure 10-13 views evaluate (the chunk rows themselves are
  pinned against the object path in ``test_sweep_engine.py``);
* **resume semantics** — a campaign killed mid-run and resumed produces a
  store bit-identical to an uninterrupted run, including after a crash
  that truncates the last line mid-write.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments.common import heuristic_campaign
from repro.scenarios.runner import aggregate_figure, evaluate_rows, plan_chunks, run_campaign
from repro.scenarios.spec import named_space, spec_hash
from repro.scenarios.store import CampaignState, CampaignStore, aggregate_rows


def small_spec(name="small", count=6, sizes=(40, 120), noise="default"):
    return named_space("fig12").derive(name=name, count=count, matrix_sizes=sizes, noise=noise)


class TestPlanChunks:
    def test_covers_the_space(self):
        chunks = plan_chunks(10, 4)
        assert chunks == [(0, 4), (4, 8), (8, 10)]

    def test_chunk_size_positive(self):
        with pytest.raises(ExperimentError):
            plan_chunks(10, 0)


class TestCampaignParity:
    @pytest.mark.parametrize("space", ("fig10", "fig11", "fig12", "fig13a", "fig13b"))
    def test_mean_ratios_match_figure_campaigns(self, tmp_path, space):
        """Stored campaigns == the in-memory figure views, per figure.

        The figure drivers evaluate their named space in memory; a stored
        campaign of the same space persists (and re-reads through JSON)
        the same rows, so the per-cell means agree exactly.
        """
        spec = named_space(space).derive(count=5, matrix_sizes=(40, 200))
        progress = run_campaign(spec, tmp_path, chunk_size=2)
        assert progress.finished
        rows = progress.rows()
        assert len(rows) == spec.scenario_count
        assert rows == evaluate_rows(spec, jobs=2)

        figure = heuristic_campaign(
            space,
            "reference",
            matrix_sizes=spec.matrix_sizes,
            platform_count=spec.family.count,
            workers=spec.family.workers,
            total_tasks=spec.total_tasks,
            seed=spec.family.seed,
        )
        aggregated = progress.aggregate()
        reference = spec.reference
        for size in spec.matrix_sizes:
            for name in spec.heuristics:
                lp_label = f"{name} lp" if name == reference else f"{name} lp/{reference} lp"
                assert aggregated[f"{name} lp"][size]["mean"] == figure.value(lp_label, size)
                assert (
                    aggregated[f"{name} real"][size]["mean"]
                    == figure.value(f"{name} real/{reference} lp", size)
                )

    def test_jobs_do_not_change_rows(self, tmp_path):
        spec = small_spec()
        serial = run_campaign(spec, tmp_path / "serial", chunk_size=2, jobs=1)
        parallel = run_campaign(spec, tmp_path / "parallel", chunk_size=2, jobs=2)
        assert serial.rows() == parallel.rows()

    def test_lp_only_space_has_no_real_series(self, tmp_path):
        spec = small_spec(noise=None)
        progress = run_campaign(spec, tmp_path, chunk_size=3)
        for row in progress.rows():
            assert not any(series.endswith(" real") for series in row["values"])
            assert f"{spec.reference} lp" in row["values"]


class TestResumeSemantics:
    def test_interrupted_campaign_resumes_bit_identically(self, tmp_path):
        spec = small_spec()
        uninterrupted = run_campaign(spec, tmp_path / "full", chunk_size=2)

        partial = run_campaign(spec, tmp_path / "resumed", chunk_size=2, max_chunks=2)
        assert not partial.finished
        assert partial.completed_after == 2
        resumed = run_campaign(spec, tmp_path / "resumed", chunk_size=2)
        assert resumed.finished
        assert resumed.completed_before == 2
        assert resumed.rows() == uninterrupted.rows()
        # The persisted bytes (after the header spec) agree line for line
        # once re-parsed: same chunks, same rows, same floats.
        full_lines = (tmp_path / "full" / spec_hash(spec) / "chunks.jsonl").read_text()
        resumed_lines = (tmp_path / "resumed" / spec_hash(spec) / "chunks.jsonl").read_text()
        assert full_lines == resumed_lines

    def test_kill_mid_write_truncated_tail_is_recovered(self, tmp_path):
        spec = small_spec()
        reference = run_campaign(spec, tmp_path / "full", chunk_size=2)

        crashed_root = tmp_path / "crashed"
        run_campaign(spec, crashed_root, chunk_size=2, max_chunks=2)
        chunks_path = crashed_root / spec_hash(spec) / "chunks.jsonl"
        # Simulate a kill -9 halfway through appending chunk 2: a valid
        # prefix plus one truncated JSON line.
        with open(chunks_path, "a", encoding="utf-8") as handle:
            handle.write('{"chunk": 2, "start": 4, "rows": [{"platform"')
        resumed = run_campaign(spec, crashed_root, chunk_size=2)
        assert resumed.finished
        assert resumed.rows() == reference.rows()

    def test_store_survives_repeated_reopens_after_torn_write(self, tmp_path):
        """Resuming over a truncated tail must not glue records together.

        The torn tail is truncated away on load, so the store stays
        parseable through arbitrarily many resume/reopen cycles.
        """
        spec = small_spec()
        reference = run_campaign(spec, tmp_path / "full", chunk_size=2)

        crashed_root = tmp_path / "crashed"
        run_campaign(spec, crashed_root, chunk_size=2, max_chunks=2)
        chunks_path = crashed_root / spec_hash(spec) / "chunks.jsonl"
        with open(chunks_path, "a", encoding="utf-8") as handle:
            handle.write('{"chunk": 2, "start": 4, "rows": [{"platform"')
        resumed = run_campaign(spec, crashed_root, chunk_size=2)
        assert resumed.finished
        # Reopen repeatedly: every record must still parse, and the rows
        # must match the uninterrupted run each time.
        for _ in range(2):
            reopened = run_campaign(spec, crashed_root, chunk_size=2)
            assert reopened.finished
            assert reopened.rows() == reference.rows()

    def test_missing_tail_newline_is_repaired(self, tmp_path):
        """A record whose newline never hit the disk still parses; the next
        append must start on a fresh line."""
        spec = small_spec()
        reference = run_campaign(spec, tmp_path / "full", chunk_size=2)

        root = tmp_path / "torn"
        run_campaign(spec, root, chunk_size=2, max_chunks=2)
        chunks_path = root / spec_hash(spec) / "chunks.jsonl"
        raw = chunks_path.read_bytes()
        assert raw.endswith(b"\n")
        chunks_path.write_bytes(raw[:-1])
        resumed = run_campaign(spec, root, chunk_size=2)
        assert resumed.finished
        assert resumed.rows() == reference.rows()

    def test_corrupt_middle_line_raises(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path, chunk_size=2)
        chunks_path = tmp_path / spec_hash(spec) / "chunks.jsonl"
        lines = chunks_path.read_text().splitlines()
        lines[0] = lines[0][:-10]
        chunks_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ExperimentError):
            run_campaign(spec, tmp_path, chunk_size=2)

    def test_resume_with_different_chunk_size_fails_loudly(self, tmp_path):
        """Chunk-size drift is rejected with a message that tells the user
        exactly how to recover (resume with the original chunk size)."""
        spec = small_spec()
        run_campaign(spec, tmp_path, chunk_size=2, max_chunks=1)
        with pytest.raises(
            ExperimentError,
            match="resume with the chunk size the campaign was started with",
        ):
            run_campaign(spec, tmp_path, chunk_size=4)

    def test_store_refuses_foreign_spec(self, tmp_path):
        spec = small_spec()
        progress = run_campaign(spec, tmp_path, chunk_size=3)
        other = spec.derive(seed=999)
        with pytest.raises(ExperimentError):
            CampaignState(progress.state.directory, other)

    def test_duplicate_chunk_append_rejected(self, tmp_path):
        spec = small_spec(noise=None)
        progress = run_campaign(spec, tmp_path, chunk_size=3)
        with pytest.raises(ExperimentError):
            progress.state.append_chunk(0, 0, 3, [])

    def test_renamed_spec_shares_results(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path, chunk_size=3)
        renamed = spec.derive(name="renamed-space")
        progress = run_campaign(renamed, tmp_path, chunk_size=3)
        assert progress.finished and progress.completed_before == progress.total_chunks


class TestAggregation:
    def test_aggregate_rows_statistics(self):
        rows = [
            {"platform": i, "size": 40, "values": {"INC_C lp": float(i)}} for i in range(5)
        ]
        aggregated = aggregate_rows(rows, quantiles=(0.5,))
        cell = aggregated["INC_C lp"][40]
        assert cell["count"] == 5
        assert cell["mean"] == 2.0
        assert cell["min"] == 0.0 and cell["max"] == 4.0
        assert cell["q50"] == float(np.quantile(np.arange(5.0), 0.5))

    def test_aggregate_figure_renders_means(self, tmp_path):
        spec = small_spec()
        progress = run_campaign(spec, tmp_path, chunk_size=3)
        figure = aggregate_figure(spec, progress.aggregate())
        table = figure.format_table()
        assert "INC_C lp" in table and "LIFO real" in table
        assert figure.value("INC_C lp", 40) == 1.0

    def test_store_lists_campaigns(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path, chunk_size=3)
        store = CampaignStore(tmp_path)
        campaigns = store.campaigns()
        assert len(campaigns) == 1
        assert campaigns[0][0] == spec_hash(spec)
        assert campaigns[0][1].name == spec.name


class TestStreamingStore:
    """The store is an index, not a cache: rows live on disk and are
    streamed back chunk by chunk for reads, aggregation and export."""

    def test_streaming_aggregate_matches_row_list_aggregate(self, tmp_path):
        spec = small_spec()
        progress = run_campaign(spec, tmp_path, chunk_size=2)
        state = progress.state
        assert state.aggregate() == aggregate_rows(state.rows())
        assert state.aggregate(quantiles=(0.25,)) == aggregate_rows(
            state.rows(), quantiles=(0.25,)
        )

    def test_reopened_state_serves_rows_from_disk(self, tmp_path):
        spec = small_spec()
        progress = run_campaign(spec, tmp_path, chunk_size=2)
        reopened = CampaignState(progress.state.directory, spec)
        assert reopened.rows() == progress.rows()
        assert reopened.row_count() == len(progress.rows())
        assert reopened.covered_platforms() == spec.family.count
        for index in sorted(reopened.completed_chunks):
            assert reopened.chunk_rows(index) == progress.state.chunk_rows(index)
        chunks = dict(reopened.iter_chunk_rows())
        assert sorted(chunks) == sorted(reopened.completed_chunks)

    def test_chunk_rows_for_missing_chunk_raises(self, tmp_path):
        spec = small_spec()
        progress = run_campaign(spec, tmp_path, chunk_size=3, max_chunks=1)
        with pytest.raises(ExperimentError, match="not persisted"):
            progress.state.chunk_rows(99)

    def test_export_npz_normalises_suffix(self, tmp_path):
        """np.savez silently appends .npz; the reported path must name the
        file that actually exists."""
        spec = small_spec()
        progress = run_campaign(spec, tmp_path / "store", chunk_size=3)
        summary = progress.state.export_npz(tmp_path / "columns")
        assert summary["path"].endswith("columns.npz")
        assert (tmp_path / "columns.npz").exists()

    def test_export_npz_round_trips_columns(self, tmp_path):
        spec = small_spec()
        progress = run_campaign(spec, tmp_path / "store", chunk_size=2)
        path = tmp_path / "out.npz"
        summary = progress.state.export_npz(path)
        rows = progress.rows()
        assert summary["rows"] == len(rows)

        with np.load(path) as archive:
            assert archive["platform"].tolist() == [row["platform"] for row in rows]
            assert archive["size"].tolist() == [row["size"] for row in rows]
            series_names = set(rows[0]["values"])
            assert set(summary["series"]) == series_names
            for series in series_names:
                column = archive[series]
                assert column.tolist() == [row["values"][series] for row in rows]
            from repro.scenarios.spec import ScenarioSpec

            stored = ScenarioSpec.from_json(str(archive["spec"]))
            assert spec_hash(stored) == spec_hash(spec)
