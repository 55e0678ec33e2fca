"""Layer ledger of a traced benchmark run.

The benchmark does not trace through ``repro.obs``: its spans live in the
program and would have to be switched on by flags the untraced runs do not
pass.  Instead the launcher (``launch.py``) replaces the public functions
of each layer with timing wrappers before it calls ``repro.cli.main``.
Every wrapper adds the call's wall time and counts to an in-memory
:class:`Ledger`, which is written as JSON lines into the ledger directory
when the program returns.

Forked fabric workers leave through ``os._exit`` and never return to the
launcher, so a ledger living in a process other than the one that built it
writes each record as soon as the call ends.

Layer names are the ones the benchmark reports (see ``NOTES.md``); a layer
is timed inclusively, so nested layers (``evaluate`` holds ``solve``,
which holds ``build`` and ``simplex``) overlap by design.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path


class Ledger:
    """Per-process totals of time, calls and counts, keyed by layer."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._layers: dict[str, dict[str, float]] = {}
        self.fsyncs = 0

    def add(self, layer: str, seconds: float, **counts: float) -> None:
        record = {"s": seconds, "calls": 1, **counts}
        if os.getpid() != self._pid:
            self._append(os.getpid(), {layer: record})
            return
        with self._lock:
            entry = self._layers.setdefault(layer, {})
            for name, value in record.items():
                entry[name] = entry.get(name, 0) + value

    def write(self) -> None:
        with self._lock:
            self._append(self._pid, self._layers)

    def _append(self, pid: int, layers: dict) -> None:
        with open(self.directory / f"ledger-{pid}.jsonl", "a", encoding="utf-8") as handle:
            for layer, entry in layers.items():
                handle.write(json.dumps({"layer": layer, **entry}) + "\n")


def read_ledger(directory: str | Path) -> dict[str, dict[str, float]]:
    """Sum every process's records in ``directory`` by layer."""
    totals: dict[str, dict[str, float]] = {}
    for path in sorted(Path(directory).glob("ledger-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            entry = totals.setdefault(record.pop("layer"), {})
            for name, value in record.items():
                entry[name] = entry.get(name, 0) + value
    return totals


def _timed(ledger: Ledger, layer: str, function, counts=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = function(*args, **kwargs)
        elapsed = time.perf_counter() - start
        ledger.add(layer, elapsed, **(counts(args, result) if counts else {}))
        return result

    return wrapper


def _wrap(ledger: Ledger, owner, attribute: str, layer: str, counts=None) -> None:
    setattr(owner, attribute, _timed(ledger, layer, getattr(owner, attribute), counts))


def _simplex_counts(args, result) -> dict[str, int]:
    return {
        "lps": len(result.objectives),
        "pivots": int(result.iterations.sum()),
        "fallbacks": int(result.fallbacks.sum()),
    }


def install_campaign(ledger: Ledger, fabric: bool) -> None:
    """Wrap the layers of ``scenarios run`` (single writer or fabric)."""
    import repro.experiments.campaign_engine as engine
    import repro.scenarios.runner as runner
    from repro.scenarios.store import CampaignState

    _wrap(ledger, runner, "sample_factors", "sample")
    _wrap(ledger, runner, "evaluate_chunk", "evaluate")
    _wrap(ledger, runner, "prepare_cells", "solve")
    _wrap(ledger, engine, "scenario_arrays_batch", "build")
    _wrap(ledger, engine, "two_port_arrays_batch", "build")
    _wrap(ledger, engine, "solve_scenario_arrays_batch", "simplex", _simplex_counts)
    _wrap(ledger, runner, "perturb_sequence", "noise")
    for name in list(runner.NOISE_FACTORIES):
        runner.NOISE_FACTORIES[name] = _timed(ledger, "noise", runner.NOISE_FACTORIES[name])
    occurrences = lambda args, result: {"occurrences": len(args[0])}  # noqa: E731
    _wrap(ledger, runner, "replay_grouped", "replay", occurrences)
    _wrap(ledger, runner, "replay_two_port", "replay", occurrences)
    _wrap(ledger, CampaignState, "aggregate", "aggregate")

    real_fsync = os.fsync

    def counting_fsync(fd):
        ledger.fsyncs += 1
        return real_fsync(fd)

    os.fsync = counting_fsync
    append_chunk = CampaignState.append_chunk

    @functools.wraps(append_chunk)
    def timed_append(self, index, start, stop, rows, epoch=None):
        path = self.chunks_path
        size = path.stat().st_size if path.exists() else 0
        fsyncs = ledger.fsyncs
        begin = time.perf_counter()
        append_chunk(self, index, start, stop, rows, epoch=epoch)
        elapsed = time.perf_counter() - begin
        ledger.add(
            "append",
            elapsed,
            rows=len(rows),
            bytes=path.stat().st_size - size,
            fsyncs=ledger.fsyncs - fsyncs,
        )

    CampaignState.append_chunk = timed_append

    if fabric:
        import multiprocessing.process

        import repro.scenarios.fabric as fabric_module

        _wrap(ledger, fabric_module, "evaluate_range", "fabric.evaluate")
        _wrap(ledger, fabric_module, "merge_worker_stores", "fabric.merge")
        _wrap(ledger, fabric_module.Lease, "write", "fabric.lease")
        _wrap(ledger, multiprocessing.process.BaseProcess, "start", "fabric.process")


def install_service(ledger: Ledger) -> None:
    """Wrap the layers of ``scenarios serve``."""
    import repro.api.service as service
    import repro.core.batch_scenario as batch
    from repro.api.cache import AnswerCache
    from repro.api.funnel import BatchingFunnel
    from repro.api.schemas import Answer, Query

    local = threading.local()
    from_dict = Query.__dict__["from_dict"].__func__
    Query.from_dict = classmethod(_timed(ledger, "parse", from_dict))
    _wrap(ledger, Answer, "as_dict", "encode")
    _wrap(ledger, service, "query_key", "hash")
    _wrap(ledger, service, "solve_scenarios", "kernel")
    # The kernel's stacked build and simplex, as bound where it calls them.
    _wrap(ledger, batch, "scenario_arrays_batch", "build")
    _wrap(ledger, batch, "solve_scenario_arrays_batch", "simplex", _simplex_counts)
    _wrap(
        ledger,
        AnswerCache,
        "get",
        "cache.get",
        lambda args, result: {"hits": int(result is not None)},
    )
    _wrap(ledger, AnswerCache, "put", "cache.put")
    _wrap(ledger, service.QueryService, "query", "service.query")
    _wrap(
        ledger,
        service.QueryService,
        "query_batch",
        "service.batch",
        lambda args, result: {"members": len(result)},
    )

    submit = BatchingFunnel.submit

    @functools.wraps(submit)
    def timed_submit(self, query):
        local.solve = 0.0
        begin = time.perf_counter()
        answer = submit(self, query)
        elapsed = time.perf_counter() - begin
        ledger.add("funnel", elapsed, wait=elapsed - local.solve)
        return answer

    BatchingFunnel.submit = timed_submit
    solve_queries = service.QueryService._solve_queries

    @functools.wraps(solve_queries)
    def timed_solve(self, queries):
        begin = time.perf_counter()
        answers = solve_queries(self, queries)
        local.solve = getattr(local, "solve", 0.0) + time.perf_counter() - begin
        return answers

    service.QueryService._solve_queries = timed_solve
