"""Absolute digest pins for small, short scenarios.

Every other digest test compares two runs of the same tree (modes,
strategies, processes).  These pin the simulated outcome itself: the
``fct_digest``/``interval_digest`` of each scenario below were recorded
before the packet datapath and the DCQCN alpha timer were rewritten for
speed, and a speed-only change to the simulator must leave every one of
them unchanged.

If a change is *meant* to alter simulated behaviour, re-record the pins
and say why in the change description.

The scenarios cover the code paths a datapath rewrite can disturb:
FB-Hadoop under the closed Paraleon loop (live parameter dispatches
that change ``dce_tcp_g``), a one-shot all-to-all, an incast under both
engine modes, Swift delay-based CC (ACK path) and a shallow-buffer
incast that spends most of its time PFC-paused.  ``alpha`` pins hash the
per-interval ``qp_sample()`` (rate and alpha aggregates) of the incast,
which reads DCQCN alpha between congestion notifications.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments.runner import ExperimentRunner
from repro.parallel.tasks import (
    EvalTask,
    ScenarioSpec,
    evaluate_task,
    fct_digest,
    interval_digest,
)
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.switch import SwitchConfig
from repro.simulator.topology import SPECS
from repro.simulator.units import kb, mb, ms
from repro.tuning.parameters import default_params
from repro.tuning.search import StaticTuner
from repro.workloads import IncastWorkload

#: (fct_digest, interval_digest) per scenario.
GOLDEN = {
    "hadoop-paraleon-off": (
        "7615c9f794da6dde9373368ae889f505454b4463aabd2db5fe54d1a144681816",
        "a804a52427080f8ffa9bf760d964b14b33b7020fb7df3904b65d76d426cc0096",
    ),
    "alltoall-off": (
        "3398d15342615a936434556686d6c3b8f9e9abd13a062ae6a8164dd751ac1548",
        "af972c0520da8b41ca72962f78687d9c8b13b9a70b17ffc9cbc923d7b35ab4ea",
    ),
    "incast-off": (
        "fb5701b969975d9590cdd85c4acd0cb07f5ef2fd6d22d9e07c7c3ec83648bc06",
        "9d8cb706578aec288029c8acfd6c5ce67c6295638ac19a42643a9f441daec39e",
    ),
    "incast-hybrid": (
        "7796374c4a8d0034ffebc8e86c40d34a1ef50a0356526d4c01ef169c40e46aec",
        "7bca93f0d294dd46d4f5fa9eb5ad64c17160e0df2f559a73395364cadaf4ba40",
    ),
    "incast-swift": (
        "c63f4ddfb42190c10a03866d938054f67b5a4ba82e7afa13962e493e6c1bfb14",
        "06b9412b08a36e6fb6eed74c5d83355a0b844ccc5a3431e63b947a1a8c488f8f",
    ),
    "incast-pfc-heavy": (
        "1831acc9ea938827774992383889f50731f4bf93bd904e4a2e9be6818a52b57b",
        "d27932776573673d79ab9589cd8ae02ec32f19790e68162f774488f08e8f69a3",
    ),
}

#: sha256 over the per-interval ``Network.qp_sample()`` of the incast.
GOLDEN_ALPHA = {
    "off": "500c33e8dce55e2637803f23c0640cf921378d9f6f59dfb3f3ec181a3211d4be",
}


def _incast_spec() -> ScenarioSpec:
    return ScenarioSpec(
        workload="incast",
        scale="small",
        duration=0.02,
        monitor_interval=ms(1.0),
        seed=3,
        workload_seed=3,
        n_workers=7,
        flow_size=mb(1.0),
    )


def _eval(spec: ScenarioSpec, mode: str, scheme=None):
    task = EvalTask(
        scenario=spec,
        seed=spec.seed,
        params=None if scheme else default_params(),
        scheme=scheme,
        engine_mode=mode,
    )
    result = evaluate_task(task)
    return result.fct_digest, result.interval_digest


def _run_network(network: Network, workload, duration: float):
    workload.install(network)
    runner = ExperimentRunner(
        network, StaticTuner(default_params(), "golden"), monitor_interval=ms(1.0)
    )
    result = runner.run(duration)
    return network, (fct_digest(result.records), interval_digest(result.intervals))


def _hadoop_paraleon(mode: str):
    spec = ScenarioSpec(
        workload="hadoop", scale="small", duration=0.05, seed=2, load=0.5
    )
    return _eval(spec, mode, scheme="paraleon")


def _alltoall():
    spec = ScenarioSpec(
        workload="alltoall", scale="small", duration=0.02, seed=5,
        n_workers=8, flow_size=kb(512.0),
    )
    return _eval(spec, "off")


def _swift():
    network = Network(NetworkConfig(spec=SPECS["small"], cc="swift", seed=4))
    workload = IncastWorkload(receiver=0, senders=[1, 2, 3, 5, 6, 7], flow_size=mb(1.0))
    return _run_network(network, workload, 0.02)[1]


def _pfc_heavy():
    switch = SwitchConfig(buffer_bytes=kb(120.0))
    network = Network(NetworkConfig(spec=SPECS["small"], switch=switch, seed=6))
    workload = IncastWorkload(
        receiver=0, senders=[1, 2, 3, 4, 5, 6, 7], flow_size=mb(1.0)
    )
    network, digests = _run_network(network, workload, 0.02)
    # The scenario must actually exercise PFC, losslessly.
    assert network.total_pfc_pauses() > 50
    assert network.total_dropped_packets() == 0
    return digests


SCENARIOS = {
    "hadoop-paraleon-off": lambda: _hadoop_paraleon("off"),
    "alltoall-off": _alltoall,
    "incast-off": lambda: _eval(_incast_spec(), "off"),
    "incast-hybrid": lambda: _eval(_incast_spec(), "hybrid"),
    "incast-swift": _swift,
    "incast-pfc-heavy": _pfc_heavy,
}


def alpha_digest(mode: str) -> str:
    """Hash of ``qp_sample()`` at every 1 ms boundary of the incast."""
    from repro.parallel.tasks import build_scenario

    spec = _incast_spec()
    network, _workload, _stop = build_scenario(spec, spec.seed, engine_mode=mode)
    h = hashlib.sha256()
    for k in range(1, 16):
        network.run_until(k * ms(1.0))
        sample = network.qp_sample()
        h.update(repr(sorted(sample.items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digest(name):
    assert SCENARIOS[name]() == GOLDEN[name]


def test_hybrid_digest_is_independent_of_numpy_repr():
    # Digests hash repr() text; a numpy scalar reaching IntervalStats
    # would make them depend on numpy's print options (and version).
    with np.printoptions(legacy="1.25"):
        assert SCENARIOS["incast-hybrid"]() == GOLDEN["incast-hybrid"]


@pytest.mark.parametrize("mode", sorted(GOLDEN_ALPHA))
def test_golden_alpha_samples(mode):
    assert alpha_digest(mode) == GOLDEN_ALPHA[mode]
