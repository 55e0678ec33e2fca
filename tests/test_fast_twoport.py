"""Tests of the two-port merge-ordered analytic replay.

:mod:`repro.simulation.fast_twoport` must reproduce the discrete-event
engine *bit for bit* — makespans, per-worker records, trace bars and noise
draws — under every noise model, including the default campaign noise whose
draw order couples the send/compute stream with the return stream through
the realised event times.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import platforms
from repro.simulation.cluster import ClusterSimulation
from repro.simulation.fast_twoport import run_fast_twoport
from repro.simulation.noise import (
    AffineOverhead,
    ComposedNoise,
    GaussianJitter,
    NoJitter,
    UniformJitter,
    default_noise,
)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_same_run(fast, event):
    assert fast.makespan == event.makespan
    assert not fast.one_port
    assert set(fast.records) == set(event.records)
    for name, expected in event.records.items():
        assert fast.records[name].as_dict() == expected.as_dict()
    def key(e):
        return (e.resource, e.kind, e.start, e.end, e.load, e.note)
    assert sorted(map(key, fast.trace)) == sorted(map(key, event.trace))


class TestTwoPortReplay:
    @_SETTINGS
    @given(
        platforms(min_size=1, max_size=5, z=None),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["none", "uniform", "gaussian", "default", "composed"]),
    )
    def test_bit_identical_to_event_engine(self, platform, seed, noise_kind):
        """Same makespan, records, bars and draws as the discrete-event run."""

        def noise():
            if noise_kind == "none":
                return NoJitter()
            if noise_kind == "uniform":
                return UniformJitter(amplitude=0.05, comm_amplitude=0.2, seed=seed)
            if noise_kind == "gaussian":
                return GaussianJitter(sigma=0.1, seed=seed)
            if noise_kind == "default":
                return default_noise(seed)
            return ComposedNoise(
                UniformJitter(amplitude=0.04, comm_amplitude=0.15, seed=seed),
                AffineOverhead(comm_latency=0.01, compute_latency=0.002),
            )

        rng = np.random.default_rng(seed)
        loads = {name: float(rng.uniform(0.0, 4.0)) for name in platform.worker_names}
        sigma1 = list(rng.permutation(platform.worker_names))
        sigma2 = list(rng.permutation(platform.worker_names))

        fast = ClusterSimulation(
            platform, noise=noise(), one_port=False, engine="fast"
        ).run_assignment(loads, sigma1, sigma2)
        event = ClusterSimulation(
            platform, noise=noise(), one_port=False, engine="event"
        ).run_assignment(loads, sigma1, sigma2)
        _assert_same_run(fast, event)

    def test_auto_engine_dispatches_to_replay(self, three_workers):
        loads = {name: 1.0 for name in three_workers.worker_names}
        names = three_workers.worker_names
        auto = ClusterSimulation(three_workers, one_port=False).run_assignment(
            loads, names, names
        )
        event = ClusterSimulation(
            three_workers, one_port=False, engine="event"
        ).run_assignment(loads, names, names)
        _assert_same_run(auto, event)

    def test_empty_assignment(self, three_workers):
        run = run_fast_twoport(three_workers, {}, [], [], NoJitter())
        assert run.makespan == 0.0
        assert run.records == {}

    def test_collect_trace_false_skips_gantt_only(self, three_workers):
        loads = {name: 1.0 for name in three_workers.worker_names}
        names = three_workers.worker_names
        with_trace = run_fast_twoport(three_workers, loads, names, names, NoJitter())
        without = run_fast_twoport(
            three_workers, loads, names, names, NoJitter(), collect_trace=False
        )
        assert without.makespan == with_trace.makespan
        assert len(list(without.trace)) == 0
        assert len(list(with_trace.trace)) > 0

    def test_returns_interleave_with_pending_sends(self):
        """The two-port master collects early results during later sends.

        On a platform whose first worker computes instantly-ish and whose
        last send is long, the first return must start before the last
        send ends — the regime the merge-ordered draw replay exists for.
        """
        from repro.core.platform import StarPlatform, Worker

        platform = StarPlatform(
            [
                Worker(name="fast", c=0.1, w=0.1, d=0.1),
                Worker(name="slow", c=10.0, w=1.0, d=1.0),
            ],
            name="interleaved",
        )
        loads = {"fast": 1.0, "slow": 1.0}
        run = run_fast_twoport(
            platform, loads, ["fast", "slow"], ["fast", "slow"], NoJitter()
        )
        assert run.records["fast"].return_end < run.records["slow"].send_end
        event = ClusterSimulation(
            platform, one_port=False, engine="event"
        ).run_assignment(loads, ["fast", "slow"], ["fast", "slow"])
        _assert_same_run(run, event)
