"""Declarative scenario-space subsystem.

The paper's evaluation covers a handful of hand-coded platform families
(Figures 10-14); the ROADMAP's north star is "as many scenarios as you can
imagine".  This package closes the gap with four layers on top of the
batched scenario kernel and the parallel sweep engine:

* :mod:`repro.scenarios.spec` — a declarative, JSON-round-trippable
  description of a scenario space (platform family distributions, sizes,
  heuristics, noise, seeds, port model) with grid/product combinators and
  a library of named spaces, including the paper's campaigns re-expressed
  as specs and their two-port (``one_port: false``) variants;
* :mod:`repro.workloads.sampling` (one layer below) — the vectorised
  sampler that materialises whole platform families directly as stacked
  ``(batch, q)`` cost tables feeding the batched kernels — bit-identical
  to the object path on the paper's factor sets;
* :mod:`repro.scenarios.store` — an append-only, resumable result store
  keyed by spec hash and chunk index, with streaming aggregation and a
  columnar ``.npz`` export;
* :mod:`repro.scenarios.runner` — a streaming campaign runner that shards
  arbitrarily large spaces into chunks, persists every finished chunk and
  resumes interrupted mega-campaigns where they left off; two-port spaces
  flow through the two-port kernel (:mod:`repro.core.batch_twoport`) and
  the merge-ordered analytic replay;
* :mod:`repro.scenarios.fabric` — the fault-tolerant multi-worker tier:
  chunk leases, per-worker stores, retry/backoff/degradation, epoch
  fencing and a crash-recoverable coordinator journal;
* :mod:`repro.scenarios.detached` — the multi-machine tier: detached
  ``scenarios work`` workers over one shared directory, wall-clock leases
  with heartbeats and skew slack, and an observing (never spawning)
  coordinator.

The CLI front end is ``repro-experiments scenarios
list/run/resume/show/export/work/heal/merge``.

The runner builds on :mod:`repro.experiments`, so its symbols are
exposed lazily here: importing the spec layer (the query service's cache
keys, for one) does not load the experiment layer — ``from
repro.scenarios import run_campaign`` works either way.
"""

from repro.workloads.sampling import FactorTable, base_costs, cost_table, sample_factors
from repro.scenarios.spec import (
    MATRIX_WORKLOAD,
    NAMED_SPACES,
    Distribution,
    PlatformFamily,
    ScenarioSpec,
    Workload,
    available_spaces,
    named_space,
    product_specs,
    spec_hash,
)
from repro.scenarios.store import CampaignStore, aggregate_rows

__all__ = [
    "Distribution",
    "PlatformFamily",
    "ScenarioSpec",
    "Workload",
    "MATRIX_WORKLOAD",
    "NAMED_SPACES",
    "available_spaces",
    "named_space",
    "product_specs",
    "spec_hash",
    "FactorTable",
    "base_costs",
    "cost_table",
    "sample_factors",
    "CampaignStore",
    "aggregate_rows",
    "CampaignProgress",
    "aggregate_figure",
    "plan_chunks",
    "run_campaign",
    "FaultInjector",
    "FaultPolicy",
    "FabricProgress",
    "HealReport",
    "CoordinatorJournal",
    "Lease",
    "heal_campaign",
    "merge_worker_stores",
    "run_fabric_campaign",
    "DetachedProgress",
    "FabricAdvert",
    "WorkerReport",
    "run_detached_campaign",
    "work_loop",
]

#: Runner/fabric symbols resolved on first access (PEP 562): the runner
#: imports the experiment layer, and the fabric builds on the runner.
_RUNNER_EXPORTS = {"CampaignProgress", "run_campaign", "aggregate_figure", "plan_chunks"}
_FABRIC_EXPORTS = {
    "FaultInjector",
    "FaultPolicy",
    "FabricProgress",
    "HealReport",
    "CoordinatorJournal",
    "Lease",
    "heal_campaign",
    "merge_worker_stores",
    "run_fabric_campaign",
}
_DETACHED_EXPORTS = {
    "DetachedProgress",
    "FabricAdvert",
    "WorkerReport",
    "run_detached_campaign",
    "work_loop",
}


def __getattr__(name: str):
    if name in _RUNNER_EXPORTS:
        from repro.scenarios import runner

        return getattr(runner, name)
    if name in _FABRIC_EXPORTS:
        from repro.scenarios import fabric

        return getattr(fabric, name)
    if name in _DETACHED_EXPORTS:
        from repro.scenarios import detached

        return getattr(detached, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
