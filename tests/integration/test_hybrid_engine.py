"""Gating contract of the hybrid flow/packet engine.

Two modes, two promises (DESIGN.md §11):

* ``off``    — digest-identical to a fabric built with no mode at all
               (the seed behaviour);
* ``hybrid`` — approximate, but the utility it reports on the incast
               reference scenario stays within a committed band of the
               full-fidelity measurement, and its sync points emit
               schema-valid ``engine.hybrid`` trace events.
"""

from __future__ import annotations

import json

import pytest

from repro.parallel.tasks import (
    EvalTask,
    ScenarioSpec,
    build_scenario,
    evaluate_task,
    extract_schedule,
)
from repro.simulator.hybrid import resolve_hybrid_mode
from repro.simulator.units import mb, ms
from repro.telemetry import trace
from repro.telemetry.schema import validate_file
from repro.tuning.parameters import default_params

#: Maximum |utility(hybrid) - utility(full DES)| on the reference
#: incast scenario.  Measured offset at commit time: 0.0026 (0.766153
#: vs 0.768787); the band leaves ~20x headroom without ever letting
#: the fluid fast path drift into a different operating regime.
HYBRID_UTILITY_BAND = 0.05


def _incast_spec(duration: float = 0.03) -> ScenarioSpec:
    return ScenarioSpec(
        workload="incast",
        scale="small",
        duration=duration,
        monitor_interval=ms(1.0),
        seed=3,
        workload_seed=3,
        n_workers=7,
        flow_size=mb(2.0),
    )


def _run(mode, spec=None):
    spec = spec or _incast_spec()
    task = EvalTask(
        scenario=spec, seed=spec.seed, params=default_params(),
        engine_mode=mode,
    )
    return evaluate_task(task)


def test_off_mode_is_digest_identical_to_the_default_build(monkeypatch):
    monkeypatch.delenv("REPRO_HYBRID_ENGINE", raising=False)
    seed_result = _run(None)      # env unset -> the seed's pure DES
    off_result = _run("off")
    assert off_result.fct_digest == seed_result.fct_digest
    assert off_result.interval_digest == seed_result.interval_digest
    assert off_result.utilities == seed_result.utilities


def test_hybrid_mode_utility_within_committed_band():
    full = _run("off")
    hybrid = _run("hybrid")
    assert abs(hybrid.utility - full.utility) <= HYBRID_UTILITY_BAND
    # The fluid fast path must actually collapse the event population,
    # otherwise the band is being met by not engaging at all.
    assert hybrid.events < full.events / 10


def test_hybrid_results_are_never_cached(monkeypatch):
    spec = _incast_spec()
    for mode, cacheable in (("off", True), ("hybrid", False)):
        task = EvalTask(
            scenario=spec, seed=spec.seed, params=default_params(),
            engine_mode=mode,
        )
        assert task.cacheable is cacheable
    # A stale or unknown mode fails loudly and names the valid ones,
    # from the task and from the environment alike.
    for stale in ("lanes", "warp-drive"):
        task = EvalTask(
            scenario=spec, seed=spec.seed, params=default_params(),
            engine_mode=stale,
        )
        with pytest.raises(ValueError, match=r"\('off', 'hybrid'\)"):
            task.cacheable
        monkeypatch.setenv("REPRO_HYBRID_ENGINE", stale)
        with pytest.raises(ValueError, match=r"\('off', 'hybrid'\)"):
            resolve_hybrid_mode(None)


def test_warm_network_of_wrong_mode_is_rebuilt():
    """A warm fabric built for one mode never serves another."""
    spec = _incast_spec(duration=0.01)
    schedule = extract_schedule(spec)
    assert schedule is not None  # incast is a static workload
    warm, _, _ = build_scenario(spec, spec.seed, [], engine_mode="off")
    assert warm.hybrid_mode == "off"
    task = EvalTask(
        scenario=spec, seed=spec.seed, params=default_params(),
        engine_mode="hybrid",
    )
    via_warm = evaluate_task(task, schedule, network=warm)
    fresh = evaluate_task(task, schedule)
    assert via_warm.fct_digest == fresh.fct_digest
    assert via_warm.interval_digest == fresh.interval_digest


def test_expected_qp_count_by_workload():
    from repro.parallel.tasks import expected_qp_count, extract_schedule

    incast = _incast_spec()
    assert expected_qp_count(incast) == incast.n_workers
    schedule = extract_schedule(incast)
    assert expected_qp_count(incast, schedule) == len(schedule)
    fanout = ScenarioSpec(workload="alltoall", n_workers=4)
    assert expected_qp_count(fanout) == 4 * 3
    assert expected_qp_count(ScenarioSpec(workload="hadoop")) is None


def test_hybrid_sync_points_emit_schema_valid_trace(tmp_path):
    path = tmp_path / "hybrid.jsonl"
    trace.configure(path, run_id="hybrid-test")
    try:
        _run("hybrid", _incast_spec(duration=0.01))
    finally:
        trace.disable()
    n_records, problems = validate_file(path)
    assert problems == []
    names = [json.loads(line)["name"] for line in path.read_text().splitlines()]
    assert "engine.hybrid" in names
    assert n_records == len(names)
