"""Array-native platform-family description and sampling.

The object path materialises a campaign as Python objects — one
:class:`~repro.workloads.platforms.PlatformFactors` per draw, one
:class:`~repro.core.platform.StarPlatform` with ``q`` :class:`Worker`
objects per (draw, size) cell — before the batched kernel ever sees an
array.  This module materialises whole families *directly* as stacked
``(count, q)`` factor and cost tables with vectorised RNG calls: no
platform or worker objects on the hot path, and the tables feed
:func:`repro.core.batch_scenario.scenario_arrays_batch` /
:func:`~repro.core.batch_scenario.solve_scenario_arrays_batch` as-is.

It also owns the *description* of a random family —
:class:`Distribution` and :class:`PlatformFamily` — which the scenario
spec layer (:mod:`repro.scenarios.spec`) embeds in its JSON format.  Both
live here, below :mod:`repro.workloads.platforms` and the experiment
layer, so that ``campaign_factors`` and the campaign engine consume the
vectorised sampler without importing from ``repro.scenarios`` (strict
acyclic hierarchy).

Bit-identity with the object path is part of the contract (and pinned by
the test-suite):

* the factor draws of the paper's families reproduce
  :func:`repro.workloads.platforms.campaign_factors` **bit for bit** —
  ``Generator.uniform`` fills C-order, so one ``(count, 2, q)`` call is
  the same stream as per-platform comm/comp draws, and ``uniform(low,
  high)`` is exactly ``low + (high - low) * random()``;
* the cost tables perform the same divisions as
  :meth:`MatrixProductWorkload.worker`, so every entry equals
  ``platform.cost_vectors(...)`` of the object path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

import repro.obs as obs
from repro.exceptions import ExperimentError
from repro.workloads.matrices import MatrixProductWorkload

__all__ = [
    "Distribution",
    "FactorTable",
    "MATRIX_WORKLOAD",
    "PAPER_UNIFORM",
    "PlatformFamily",
    "UNIT",
    "Workload",
    "base_costs",
    "cost_table",
    "family_cost_tables",
    "sample_factors",
    "workload_base_costs",
]


#: Factor-distribution kinds understood by the sampler, with their
#: required parameters (optional parameters in the second tuple).
_DISTRIBUTION_KINDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "constant": (("value",), ()),
    "uniform": (("low", "high"), ()),
    "bimodal": (("slow", "fast", "fast_fraction"), ()),
    "powerlaw": (("minimum", "alpha"), ("cap",)),
    "fixed": (("values",), ()),
}


@dataclass(frozen=True)
class Distribution:
    """How one per-worker speed-up factor is drawn.

    ``kind`` selects the sampler; ``params`` are the kind's parameters as a
    sorted tuple of ``(name, value)`` pairs (kept hashable for frozen
    dataclass semantics — use :meth:`of` and :meth:`param` rather than
    touching the tuple).  Supported kinds:

    * ``constant(value)`` — every worker gets the same factor (the paper's
      homogeneous dimensions);
    * ``uniform(low, high)`` — i.i.d. uniform factors (the paper's
      heterogeneous dimensions draw from ``uniform(1, 10)``);
    * ``bimodal(slow, fast, fast_fraction)`` — each worker is ``fast`` with
      probability ``fast_fraction``, else ``slow`` (two-cluster platforms);
    * ``powerlaw(minimum, alpha[, cap])`` — Pareto-tailed factors
      ``minimum * (1 + Pareto(alpha))``, optionally capped (a few very
      fast nodes over a slow fleet);
    * ``fixed(values)`` — an explicit per-worker factor vector, repeated
      for every draw (the deterministic platforms of the probe figures:
      Figure 8's x1..x5 ramp, Figure 9's resource-selection star).  The
      vector length must match the family's worker count.
    """

    kind: str
    params: tuple[tuple[str, float | tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        if self.kind not in _DISTRIBUTION_KINDS:
            raise ExperimentError(
                f"unknown distribution kind {self.kind!r}; "
                f"expected one of {sorted(_DISTRIBUTION_KINDS)}"
            )
        required, optional = _DISTRIBUTION_KINDS[self.kind]
        given = {name for name, _ in self.params}
        missing = set(required) - given
        unknown = given - set(required) - set(optional)
        if missing or unknown:
            raise ExperimentError(
                f"distribution {self.kind!r}: missing parameters {sorted(missing)}, "
                f"unknown parameters {sorted(unknown)}"
            )
        self._validate_support()

    def _validate_support(self) -> None:
        """Factors divide positive costs, so every distribution must only
        ever produce strictly positive values."""
        kind = self.kind
        if kind == "constant" and self.param("value") <= 0:
            raise ExperimentError("constant factor must be positive")
        elif kind == "uniform":
            low, high = self.param("low"), self.param("high")
            if low <= 0 or high < low:
                raise ExperimentError("uniform factors need 0 < low <= high")
        elif kind == "bimodal":
            slow, fast = self.param("slow"), self.param("fast")
            fraction = self.param("fast_fraction")
            if slow <= 0 or fast <= 0:
                raise ExperimentError("bimodal cluster factors must be positive")
            if not 0.0 <= fraction <= 1.0:
                raise ExperimentError("fast_fraction must lie in [0, 1]")
        elif kind == "powerlaw":
            minimum, alpha = self.param("minimum"), self.param("alpha")
            cap = self.param("cap", None)
            if minimum <= 0 or alpha <= 0:
                raise ExperimentError("powerlaw needs positive minimum and alpha")
            if cap is not None and cap < minimum:
                raise ExperimentError("powerlaw cap must be at least the minimum")
        elif kind == "fixed":
            values = self.param("values")
            if not values:
                raise ExperimentError("fixed factors need a non-empty values vector")
            if any(value <= 0 for value in values):
                raise ExperimentError("fixed factors must all be positive")

    @classmethod
    def of(cls, kind: str, **params) -> "Distribution":
        """Build a distribution from keyword parameters.

        Values are coerced to float (vector parameters to float tuples) so
        that ``of(low=1)`` and ``of(low=1.0)`` are the same distribution —
        equality, JSON form and :func:`~repro.scenarios.spec.spec_hash`
        must not depend on the authoring style.
        """
        return cls(
            kind=kind,
            params=tuple(
                sorted((name, _coerce_param(name, value)) for name, value in params.items())
            ),
        )

    def param(self, name: str, default=...):
        """Look one parameter up (raises on absence unless a default is given)."""
        for key, value in self.params:
            if key == name:
                return value
        if default is ...:
            raise ExperimentError(f"distribution {self.kind!r} has no parameter {name!r}")
        return default

    @property
    def is_constant(self) -> bool:
        """Whether sampling consumes no random stream."""
        return self.kind in ("constant", "fixed")

    def as_dict(self) -> dict:
        return {"kind": self.kind, "params": _params_as_dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Distribution":
        return cls.of(str(data["kind"]), **{str(k): v for k, v in data.get("params", {}).items()})


#: Parameters whose values are per-entry vectors; every other parameter
#: is a scalar.  Enforced at coercion time so a hand-written spec with,
#: say, ``"c": [1, 2]`` fails with a named ExperimentError instead of a
#: TypeError deep inside validation.
_VECTOR_PARAMS = frozenset({"values", "ratios", "message_sizes_mb"})


def _coerce_param(name: str, value) -> float | tuple[float, ...]:
    """Canonicalise one distribution/workload parameter value.

    Scalars become floats, vectors become float tuples — the JSON form and
    the spec hash must not depend on whether the author wrote ``1`` or
    ``1.0``, a list or a tuple.
    """
    if name in _VECTOR_PARAMS:
        if not isinstance(value, (list, tuple)):
            raise ExperimentError(f"parameter {name!r} must be a list of numbers")
        return tuple(float(entry) for entry in value)
    if isinstance(value, (list, tuple)):
        raise ExperimentError(f"parameter {name!r} must be a single number")
    return float(value)


def _params_as_dict(params: tuple[tuple[str, float | tuple[float, ...]], ...]) -> dict:
    """JSON-friendly view of a sorted parameter tuple (vectors as lists)."""
    return {
        name: (list(value) if isinstance(value, tuple) else value) for name, value in params
    }


#: The reference factor (speed-up 1) used for homogeneous dimensions.
UNIT = Distribution.of("constant", value=1.0)

#: The paper's heterogeneous factor range, as a distribution.
PAPER_UNIFORM = Distribution.of("uniform", low=1.0, high=10.0)


#: Workload kinds a scenario spec may name, with their required and
#: optional parameters.  ``total_tasks``, when given, overrides the spec's
#: own ``total_tasks`` field (the ISSUE-era ``{"kind": "bus",
#: "total_tasks": N}`` shape keeps working).
_WORKLOAD_KINDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "matrix": ((), ("total_tasks",)),
    "bus": (("ratios",), ("c", "z", "total_tasks")),
    "probe": (("message_sizes_mb",), ("matrix_size",)),
}

#: Optional parameters filled in at construction so that, e.g., an
#: explicit ``c=1.0`` and an omitted ``c`` are the *same* bus workload —
#: same equality, same JSON form, same spec hash.
_WORKLOAD_DEFAULTS: dict[str, dict[str, float]] = {
    "bus": {"c": 1.0, "z": 0.5},
    "probe": {"matrix_size": 100.0},
}


@dataclass(frozen=True)
class Workload:
    """What one scenario cell *computes* — the spec's workload axis.

    ``kind`` selects the cost model the scenario grid is evaluated under;
    ``params`` are the kind's parameters as a sorted tuple of ``(name,
    value)`` pairs where a value is a float or a float tuple (kept
    hashable for frozen dataclass semantics — use :meth:`of` and
    :meth:`param` rather than touching the tuple).  Supported kinds:

    * ``matrix`` — the paper's matrix-product application (the default):
      the grid is the spec's ``matrix_sizes`` and the per-unit costs come
      from :func:`base_costs`;
    * ``bus(ratios[, c, z, total_tasks])`` — a bus network swept over the
      computation-to-communication ratios ``w/c`` (Theorem 2 / Figure 7):
      grid point ``x`` evaluates per-unit costs ``(c, x*c, z*c)`` before
      the family's speed-up factors divide them.  The family's ``comm``
      dimension must be constant (identical links are what makes it a
      bus);
    * ``probe(message_sizes_mb[, matrix_size])`` — the Figure 8 linearity
      probe: each grid point sends one raw message of that many megabytes
      to every worker through the one-port master and records the
      measured transfer times (no LPs, no heuristics, noise-free).
    """

    kind: str
    params: tuple[tuple[str, float | tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        if self.kind not in _WORKLOAD_KINDS:
            raise ExperimentError(
                f"unknown workload kind {self.kind!r}; "
                f"expected one of {sorted(_WORKLOAD_KINDS)}"
            )
        required, optional = _WORKLOAD_KINDS[self.kind]
        given = {name for name, _ in self.params}
        missing = set(required) - given
        unknown = given - set(required) - set(optional)
        if missing or unknown:
            raise ExperimentError(
                f"workload {self.kind!r}: missing parameters {sorted(missing)}, "
                f"unknown parameters {sorted(unknown)}"
            )
        self._validate_support()

    def _validate_support(self) -> None:
        total_tasks = self.param("total_tasks", None)
        if total_tasks is not None and (total_tasks <= 0 or total_tasks != int(total_tasks)):
            raise ExperimentError("workload total_tasks must be a positive integer")
        if self.kind == "bus":
            ratios = self.param("ratios")
            if not ratios:
                raise ExperimentError("bus workloads need a non-empty ratios grid")
            if any(ratio <= 0 for ratio in ratios):
                raise ExperimentError("bus w/c ratios must be positive")
            if self.param("c") <= 0 or self.param("z") <= 0:
                raise ExperimentError("bus per-unit costs c and z must be positive")
        elif self.kind == "probe":
            sizes = self.param("message_sizes_mb")
            if not sizes:
                raise ExperimentError("probe workloads need a non-empty message-size grid")
            if any(size <= 0 for size in sizes):
                raise ExperimentError("probe message sizes must be positive")
            matrix_size = self.param("matrix_size")
            if matrix_size <= 0 or matrix_size != int(matrix_size):
                raise ExperimentError("probe matrix_size must be a positive integer")

    @classmethod
    def of(cls, kind: str, **params) -> "Workload":
        """Build a workload from keyword parameters (defaults filled in)."""
        merged = {**_WORKLOAD_DEFAULTS.get(kind, {}), **params}
        return cls(
            kind=kind,
            params=tuple(
                sorted((name, _coerce_param(name, value)) for name, value in merged.items())
            ),
        )

    def param(self, name: str, default=...):
        """Look one parameter up (raises on absence unless a default is given)."""
        for key, value in self.params:
            if key == name:
                return value
        if default is ...:
            raise ExperimentError(f"workload {self.kind!r} has no parameter {name!r}")
        return default

    def __str__(self) -> str:
        """Short display form, e.g. ``bus-9f2c`` (used in derived spec names).

        The digest disambiguates two workloads of the same kind when a
        :func:`repro.scenarios.spec.product_specs` axis sweeps over them.
        """
        if not self.params:
            return self.kind
        import hashlib
        import json

        digest = hashlib.sha256(
            json.dumps(_params_as_dict(self.params), sort_keys=True).encode("utf-8")
        ).hexdigest()[:4]
        return f"{self.kind}-{digest}"

    def as_dict(self) -> dict:
        return {"kind": self.kind, "params": _params_as_dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Workload":
        return cls.of(str(data["kind"]), **{str(k): v for k, v in data.get("params", {}).items()})


#: The default workload: the paper's matrix-product application.  Specs
#: whose workload equals this one serialise *without* a ``workload`` key,
#: so every pre-workload-axis spec document (and its content hash) stays
#: valid.
MATRIX_WORKLOAD = Workload.of("matrix")


@dataclass(frozen=True)
class PlatformFamily:
    """Distribution of one random platform family.

    ``comm`` and ``comp`` describe the per-worker communication and
    computation speed-up factors (the paper's Section 5.2 methodology: a
    factor ``k`` divides the reference per-unit cost by ``k``).
    ``return_comm``, when given, draws an *independent* speed-up for the
    return link — the default ``None`` keeps the paper's model where the
    return message travels the same link (``d = z * c``).  ``correlation``
    couples the computation draw to the communication draw through a
    Gaussian copula (both must be uniform; the declared marginals are
    preserved exactly): 1 means comp is a monotone function of comm (fast
    links imply fast CPUs), -1 the opposite, and intermediate values set
    the copula parameter — the realised correlation between the factors is
    the copula's rank correlation ``(6/pi) * asin(rho/2)``.
    ``comm_scale``/``comp_scale`` multiply every drawn factor, the x10
    scalings of Section 5.3.3.
    """

    workers: int
    count: int
    seed: int
    comm: Distribution = UNIT
    comp: Distribution = UNIT
    return_comm: Distribution | None = None
    correlation: float = 0.0
    comm_scale: float = 1.0
    comp_scale: float = 1.0

    def __post_init__(self) -> None:
        # Canonicalise the numeric fields (int literals are equivalent to
        # their float forms and must hash identically).
        object.__setattr__(self, "workers", int(self.workers))
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "correlation", float(self.correlation))
        object.__setattr__(self, "comm_scale", float(self.comm_scale))
        object.__setattr__(self, "comp_scale", float(self.comp_scale))
        if self.workers <= 0:
            raise ExperimentError("a platform family needs at least one worker")
        if self.count <= 0:
            raise ExperimentError("a platform family needs at least one draw")
        if not -1.0 <= self.correlation <= 1.0:
            raise ExperimentError("correlation must lie in [-1, 1]")
        if self.correlation != 0.0 and not (
            self.comm.kind == "uniform" and self.comp.kind == "uniform"
        ):
            raise ExperimentError(
                "correlated factor draws are defined for uniform comm/comp distributions"
            )
        if self.comm_scale <= 0 or self.comp_scale <= 0:
            raise ExperimentError("scale factors must be positive")
        for label, dist in (
            ("comm", self.comm),
            ("comp", self.comp),
            ("return_comm", self.return_comm),
        ):
            if dist is not None and dist.kind == "fixed":
                values = dist.param("values")
                if len(values) != self.workers:
                    raise ExperimentError(
                        f"fixed {label} factors list {len(values)} values for "
                        f"{self.workers} workers"
                    )

    def as_dict(self) -> dict:
        data = {
            "workers": self.workers,
            "count": self.count,
            "seed": self.seed,
            "comm": self.comm.as_dict(),
            "comp": self.comp.as_dict(),
            "correlation": self.correlation,
            "comm_scale": self.comm_scale,
            "comp_scale": self.comp_scale,
        }
        if self.return_comm is not None:
            data["return_comm"] = self.return_comm.as_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlatformFamily":
        return cls(
            workers=int(data["workers"]),
            count=int(data["count"]),
            seed=int(data["seed"]),
            comm=Distribution.from_dict(data.get("comm", UNIT.as_dict())),
            comp=Distribution.from_dict(data.get("comp", UNIT.as_dict())),
            return_comm=(
                Distribution.from_dict(data["return_comm"]) if "return_comm" in data else None
            ),
            correlation=float(data.get("correlation", 0.0)),
            comm_scale=float(data.get("comm_scale", 1.0)),
            comp_scale=float(data.get("comp_scale", 1.0)),
        )


@dataclass(frozen=True)
class FactorTable:
    """Stacked speed-up factors of one sampled platform family.

    ``comm`` and ``comp`` are ``(count, q)`` arrays — row ``i`` is platform
    ``i``'s factor vector.  ``ret`` is ``None`` in the paper's model (the
    return message travels the forward link, ``d = z * c``) or a third
    ``(count, q)`` array when the family draws independent return-link
    speeds.
    """

    comm: np.ndarray
    comp: np.ndarray
    ret: np.ndarray | None = None

    @property
    def count(self) -> int:
        return self.comm.shape[0]

    @property
    def workers(self) -> int:
        return self.comm.shape[1]

    def rows(self, start: int = 0, stop: int | None = None) -> "FactorTable":
        """A zero-copy view of platforms ``start:stop`` (chunk sharding)."""
        return FactorTable(
            comm=self.comm[start:stop],
            comp=self.comp[start:stop],
            ret=None if self.ret is None else self.ret[start:stop],
        )


def _draw(rng: np.random.Generator, dist: Distribution, shape: tuple[int, ...]) -> np.ndarray:
    """Vectorised draw of one distribution (one RNG call per block)."""
    kind = dist.kind
    if kind == "constant":
        return np.full(shape, float(dist.param("value")))
    if kind == "fixed":
        return np.tile(np.asarray(dist.param("values"), dtype=float), (shape[0], 1))
    if kind == "uniform":
        return rng.uniform(dist.param("low"), dist.param("high"), shape)
    if kind == "bimodal":
        fast_mask = rng.random(shape) < dist.param("fast_fraction")
        return np.where(fast_mask, float(dist.param("fast")), float(dist.param("slow")))
    if kind == "powerlaw":
        values = dist.param("minimum") * (1.0 + rng.pareto(dist.param("alpha"), shape))
        cap = dist.param("cap", None)
        return values if cap is None else np.minimum(values, cap)
    raise ExperimentError(f"unknown distribution kind {kind!r}")  # pragma: no cover


def _map_uniform(dist: Distribution, unit: np.ndarray) -> np.ndarray:
    """Map unit draws through a uniform distribution, exactly like
    ``Generator.uniform`` does (``low + (high - low) * u``)."""
    low, high = dist.param("low"), dist.param("high")
    return low + (high - low) * unit


def sample_factors(family: PlatformFamily) -> FactorTable:
    """Materialise a family's ``(count, q)`` factor tables, vectorised.

    The draw order reproduces the sequential object path of
    :func:`repro.workloads.platforms.campaign_factors` on the paper's
    families: when both ``comm`` and ``comp`` consume the random stream
    and both are uniform, one ``(count, 2, q)`` block is drawn and split
    (identical to per-platform comm-then-comp draws); when only one
    consumes, it draws a single ``(count, q)`` block.  Families mixing
    other stream-consuming distributions draw block-wise per dimension
    (comm, then comp, then return) — a documented, deterministic order of
    its own, with no object-path counterpart to mirror.
    """
    rng = np.random.default_rng(family.seed)
    shape = (family.count, family.workers)

    if family.correlation != 0.0:
        # Correlated families (both uniform, enforced by the family): a
        # Gaussian copula couples the two dimensions while preserving the
        # declared uniform marginals *exactly* — Phi(Z) is uniform for any
        # correlation.  rho = +/-1 makes comp a monotone function of comm.
        # The realised Pearson correlation between the uniforms is the
        # copula's rank correlation, (6/pi) * asin(rho/2) (~0.84 for
        # rho = 0.85), which is what `correlation` means here.
        from scipy.special import ndtr

        rho = family.correlation
        normal = rng.standard_normal((family.count, 2, family.workers))
        z_comm = normal[:, 0]
        z_comp = rho * z_comm + math.sqrt(1.0 - rho * rho) * normal[:, 1]
        comm = _map_uniform(family.comm, ndtr(z_comm))
        comp = _map_uniform(family.comp, ndtr(z_comp))
    else:
        comm_draws = not family.comm.is_constant
        comp_draws = not family.comp.is_constant
        if comm_draws and comp_draws and family.comm.kind == family.comp.kind == "uniform":
            unit = rng.random((family.count, 2, family.workers))
            comm = _map_uniform(family.comm, unit[:, 0])
            comp = _map_uniform(family.comp, unit[:, 1])
        else:
            comm = _draw(rng, family.comm, shape)
            comp = _draw(rng, family.comp, shape)

    ret = None if family.return_comm is None else _draw(rng, family.return_comm, shape)

    if family.comm_scale != 1.0:
        comm = comm * family.comm_scale
        if ret is not None:
            ret = ret * family.comm_scale
    if family.comp_scale != 1.0:
        comp = comp * family.comp_scale

    telemetry = obs.active()
    if telemetry.enabled:
        telemetry.sampler_batch(family.count, family.workers)
    return FactorTable(comm=comm, comp=comp, ret=ret)


@lru_cache(maxsize=None)
def base_costs(matrix_size: int) -> tuple[float, float, float]:
    """Reference per-unit ``(c, w, d)`` costs of one matrix size, cached."""
    workload = MatrixProductWorkload(int(matrix_size))
    return (workload.base_c, workload.base_w, workload.base_d)


def workload_base_costs(workload: Workload, x: float) -> tuple[float, float, float]:
    """Reference per-unit ``(c, w, d)`` costs of one grid point.

    The workload-generalised form of :func:`base_costs`: a matrix workload
    maps grid point ``x`` (a matrix size) through the matrix-product cost
    model, a bus workload maps ``x`` (a ``w/c`` ratio) to ``(c, x*c, z*c)``
    — the exact arithmetic of the Theorem 2 sweep, so the resulting cost
    tables are bit-identical to :func:`repro.core.platform.bus_platform`
    entries.  Probe workloads have no cost tables (they measure raw
    transfers); asking for them is a programming error.
    """
    if workload.kind == "matrix":
        return base_costs(int(x))
    if workload.kind == "bus":
        c = workload.param("c")
        return (c, x * c, workload.param("z") * c)
    raise ExperimentError(f"workload kind {workload.kind!r} has no cost tables")


def cost_table(
    base: tuple[float, float, float],
    comm: np.ndarray,
    comp: np.ndarray,
    ret: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Turn factor arrays into ``(c, w, d)`` cost arrays.

    Performs exactly the per-worker divisions of
    :meth:`MatrixProductWorkload.worker` (a factor ``k`` divides the
    reference cost by ``k``), broadcast over any array shape — entries are
    bit-identical to the object path's worker costs.
    """
    c = base[0] / comm
    w = base[1] / comp
    d = base[2] / (comm if ret is None else ret)
    return c, w, d


def family_cost_tables(
    table: FactorTable, matrix_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacked ``(count, q)`` cost tables of a family at one size."""
    return cost_table(base_costs(matrix_size), table.comm, table.comp, table.ret)
