"""Noise models for the simulated cluster.

The paper compares the LP-predicted execution time against the time measured
on a real cluster; measured times deviate because of OS jitter, MPI protocol
overheads and cache effects (up to ~20% in Figure 12, growing when
communication dominates in Figure 13b).  The simulator reproduces that gap
with pluggable noise models applied to every individual operation
(transfer or computation):

* :class:`NoJitter` — ideal linear-cost execution (matches the LP exactly);
* :class:`UniformJitter` — multiplicative noise ``U[1, 1 + amplitude]``,
  i.e. operations only ever get slower, as contention and overheads do;
* :class:`GaussianJitter` — multiplicative noise ``max(floor, N(1+bias, sigma))``;
* :class:`AffineOverhead` — adds a constant per-operation latency, the
  deviation from the pure linear model probed by Figure 13b.

Models are deterministic given their seed, so experiment campaigns are
reproducible run to run.  :func:`default_noise` and :func:`overhead_noise`
are the seedable factories of the campaigns' measured series (a scenario
spec names them ``"default"`` and ``"overhead"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.exceptions import SimulationError

__all__ = [
    "OperationKind",
    "NoiseModel",
    "NoJitter",
    "UniformJitter",
    "GaussianJitter",
    "AffineOverhead",
    "ComposedNoise",
    "default_noise",
    "overhead_noise",
    "perturb_sequence",
]


#: Operation kinds passed to noise models.
OperationKind = str
_KINDS = frozenset(("send", "compute", "return"))


class NoiseModel(Protocol):
    """Structural type of a noise model.

    Implementations may additionally provide ``perturb_many(durations,
    kinds, workers)`` — a vectorised variant required to consume their
    random stream *exactly* like the equivalent sequence of
    :meth:`perturb` calls (see :func:`perturb_sequence`) — and a
    ``stateless`` flag telling composition whether draw order matters.
    """

    def perturb(self, duration: float, kind: OperationKind, worker: str) -> float:
        """Return the perturbed duration of one operation."""
        ...  # pragma: no cover - protocol


def _check(duration: float, kind: OperationKind) -> None:
    if duration < 0:
        raise SimulationError(f"negative operation duration: {duration}")
    if kind not in _KINDS:
        raise SimulationError(f"unknown operation kind {kind!r}")


def _check_many(durations: np.ndarray, kinds: Sequence[OperationKind]) -> None:
    if len(durations) != len(kinds):
        raise SimulationError("durations and kinds must have the same length")
    if durations.size and durations.min() < 0:
        raise SimulationError(f"negative operation duration: {durations.min()}")
    if not _KINDS.issuperset(kinds):
        unknown = next(kind for kind in kinds if kind not in _KINDS)
        raise SimulationError(f"unknown operation kind {unknown!r}")


def perturb_sequence(
    noise: "NoiseModel",
    durations: Sequence[float] | np.ndarray,
    kinds: Sequence[OperationKind],
    workers: Sequence[str],
) -> np.ndarray:
    """Perturb a whole sequence of operations, preserving the draw stream.

    Uses the model's vectorised ``perturb_many`` when available; models
    without one (e.g. user-supplied) fall back to sequential
    :meth:`~NoiseModel.perturb` calls.  Either way the result — and the
    model's random state afterwards — is identical to perturbing the
    operations one by one in sequence order, which is what lets the
    analytic replays batch their noise draws without changing a single bit
    of the campaigns.
    """
    many = getattr(noise, "perturb_many", None)
    if many is not None:
        return many(durations, kinds, workers)
    return np.array(
        [
            noise.perturb(float(duration), kind, worker)
            for duration, kind, worker in zip(durations, kinds, workers)
        ]
    )


@dataclass(frozen=True)
class NoJitter:
    """Ideal execution: durations are returned unchanged."""

    #: Draw-order independent (no random state).
    stateless = True

    def perturb(self, duration: float, kind: OperationKind, worker: str) -> float:
        _check(duration, kind)
        return duration

    def perturb_many(
        self,
        durations: Sequence[float] | np.ndarray,
        kinds: Sequence[OperationKind],
        workers: Sequence[str],
    ) -> np.ndarray:
        durations = np.asarray(durations, dtype=float)
        _check_many(durations, kinds)
        return durations.copy()


class UniformJitter:
    """Multiplicative slowdown drawn uniformly from ``[1, 1 + amplitude]``.

    Separate amplitudes can be given for communication and computation, which
    is how the experiments model the fact that network transfers are noisier
    than CPU-bound matrix products.
    """

    #: Unit draws fetched from the generator per refill.  Batching amortises
    #: the per-call generator overhead; the stream is identical to drawing
    #: one ``uniform(0, amplitude)`` per operation (``uniform(0, a)`` is
    #: exactly ``random() * a`` for numpy's Generator).
    _BATCH = 64

    def __init__(
        self,
        amplitude: float = 0.1,
        comm_amplitude: float | None = None,
        seed: int = 0,
    ) -> None:
        if amplitude < 0 or (comm_amplitude is not None and comm_amplitude < 0):
            raise SimulationError("jitter amplitudes must be non-negative")
        self.amplitude = amplitude
        self.comm_amplitude = comm_amplitude if comm_amplitude is not None else amplitude
        # Same stream as np.random.default_rng(seed), constructed cheaper
        # (campaigns build one jitter per platform/size cell).
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._draws: list[float] = []

    #: Consumes a seeded random stream: draw order matters.
    stateless = False

    def _take(self, count: int) -> np.ndarray:
        """Consume ``count`` unit draws, exactly like ``count`` pops."""
        draws = self._draws
        taken: list[float] = []
        while count > 0:
            if not draws:
                draws[:] = self._rng.random(self._BATCH)[::-1].tolist()
            step = count if count < len(draws) else len(draws)
            taken.extend(draws[-step:][::-1])  # tail slice = pop order
            del draws[-step:]
            count -= step
        return np.array(taken)

    def perturb(self, duration: float, kind: OperationKind, worker: str) -> float:
        _check(duration, kind)
        amplitude = self.amplitude if kind == "compute" else self.comm_amplitude
        draws = self._draws
        if not draws:
            # reversed so that pop() consumes the stream in draw order
            draws[:] = self._rng.random(self._BATCH)[::-1].tolist()
            self._draws = draws
        return duration * (1.0 + draws.pop() * amplitude)

    def perturb_many(
        self,
        durations: Sequence[float] | np.ndarray,
        kinds: Sequence[OperationKind],
        workers: Sequence[str],
    ) -> np.ndarray:
        """Vectorised :meth:`perturb`: same stream, same bits, one call."""
        durations = np.asarray(durations, dtype=float)
        _check_many(durations, kinds)
        amplitude = self.amplitude
        comm_amplitude = self.comm_amplitude
        amplitudes = np.fromiter(
            (amplitude if kind == "compute" else comm_amplitude for kind in kinds),
            dtype=float,
            count=len(kinds),
        )
        return durations * (1.0 + self._take(len(durations)) * amplitudes)


class GaussianJitter:
    """Multiplicative Gaussian noise with a floor.

    The factor is ``max(floor, N(1 + bias, sigma))``; the floor prevents
    negative or implausibly short durations.
    """

    def __init__(self, sigma: float = 0.05, bias: float = 0.0, floor: float = 0.5, seed: int = 0) -> None:
        if sigma < 0:
            raise SimulationError("sigma must be non-negative")
        if floor <= 0:
            raise SimulationError("floor must be positive")
        self.sigma = sigma
        self.bias = bias
        self.floor = floor
        self._rng = np.random.default_rng(seed)

    #: Consumes a seeded random stream: draw order matters.
    stateless = False

    def perturb(self, duration: float, kind: OperationKind, worker: str) -> float:
        _check(duration, kind)
        factor = max(self.floor, self._rng.normal(1.0 + self.bias, self.sigma))
        return duration * factor

    def perturb_many(
        self,
        durations: Sequence[float] | np.ndarray,
        kinds: Sequence[OperationKind],
        workers: Sequence[str],
    ) -> np.ndarray:
        """Vectorised :meth:`perturb`.

        ``Generator.normal(size=n)`` consumes the underlying bit stream
        exactly like ``n`` scalar calls, so the factors are bit-identical
        to the sequential path (asserted by the test-suite).
        """
        durations = np.asarray(durations, dtype=float)
        _check_many(durations, kinds)
        factors = self._rng.normal(1.0 + self.bias, self.sigma, size=len(durations))
        return durations * np.maximum(self.floor, factors)


@dataclass(frozen=True)
class AffineOverhead:
    """Constant per-operation overheads (message latency, task start-up).

    ``comm_latency`` is added to every transfer and ``compute_latency`` to
    every computation, independent of the amount of load.  This breaks the
    pure linear model in exactly the way the paper's Section 5.3.3 probes.
    """

    comm_latency: float = 0.0
    compute_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.comm_latency < 0 or self.compute_latency < 0:
            raise SimulationError("latencies must be non-negative")

    #: Draw-order independent (no random state).
    stateless = True

    def perturb(self, duration: float, kind: OperationKind, worker: str) -> float:
        _check(duration, kind)
        if kind == "compute":
            return duration + self.compute_latency
        return duration + self.comm_latency

    def perturb_many(
        self,
        durations: Sequence[float] | np.ndarray,
        kinds: Sequence[OperationKind],
        workers: Sequence[str],
    ) -> np.ndarray:
        durations = np.asarray(durations, dtype=float)
        _check_many(durations, kinds)
        latencies = np.where(
            [kind == "compute" for kind in kinds], self.compute_latency, self.comm_latency
        )
        return durations + latencies


class ComposedNoise:
    """Apply several noise models in sequence (e.g. jitter then latency)."""

    def __init__(self, *models: NoiseModel) -> None:
        self.models = tuple(models)

    @property
    def stateless(self) -> bool:
        """Draw-order independent iff every component is."""
        return all(getattr(model, "stateless", False) for model in self.models)

    def perturb(self, duration: float, kind: OperationKind, worker: str) -> float:
        _check(duration, kind)
        for model in self.models:
            duration = model.perturb(duration, kind, worker)
        return duration

    def perturb_many(
        self,
        durations: Sequence[float] | np.ndarray,
        kinds: Sequence[OperationKind],
        workers: Sequence[str],
    ) -> np.ndarray:
        """Vectorised chain application.

        Applying model 1 to *all* operations before model 2 reorders draws
        across models; that is observable only when two or more component
        models consume random state, in which case the chain falls back to
        the sequential per-operation path to keep the stream identical.
        """
        durations = np.asarray(durations, dtype=float)
        _check_many(durations, kinds)
        stateful = sum(
            1 for model in self.models if not getattr(model, "stateless", False)
        )
        if stateful > 1:
            return np.array(
                [
                    self.perturb(float(duration), kind, worker)
                    for duration, kind, worker in zip(durations, kinds, workers)
                ]
            )
        for model in self.models:
            durations = perturb_sequence(model, durations, kinds, workers)
        return durations


def default_noise(seed: int) -> NoiseModel:
    """Measurement noise used for the "real" curves of the campaigns.

    Communication suffers more jitter than computation (protocol overheads,
    contention), matching the qualitative behaviour of the paper's measured
    curves; the composition stays within the ~20% envelope reported for
    Figure 12.
    """
    return ComposedNoise(
        UniformJitter(amplitude=0.04, comm_amplitude=0.15, seed=seed),
    )


def overhead_noise(seed: int) -> NoiseModel:
    """Noise for the communication-x10 variant: jitter plus per-message latency.

    When links are ten times faster, each transfer is short enough for fixed
    per-message overheads (MPI envelope, synchronisation) to matter, so the
    measured times drift away from the linear-model prediction — the effect
    Figure 13b attributes to "the limits of the linear cost model".  (The
    paper's measured drift grows with the matrix size; a fixed per-message
    overhead instead penalises the smallest matrices most.)
    """
    return ComposedNoise(default_noise(seed), AffineOverhead(comm_latency=1.0e-3))
