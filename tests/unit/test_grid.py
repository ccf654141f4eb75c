"""Unit tests for the exhaustive grid-search foil."""

from __future__ import annotations

import pytest

from repro.simulator.stats import IntervalStats
from repro.simulator.units import ms
from repro.tuning.grid import (
    DEFAULT_GRID,
    GridSearchTuner,
    expand_grid,
)


def stats(t, tp=0.5, rtt=0.8):
    return IntervalStats(
        t_start=t - 1e-3, t_end=t, throughput_util=tp, norm_rtt=rtt,
        pfc_ok=1.0, mean_rtt=1e-5, rtt_samples=5, pause_fraction=0.0,
        active_uplinks=2, total_tx_bytes=100,
    )


def test_expand_grid_size_and_validity():
    points = expand_grid(DEFAULT_GRID)
    assert len(points) == 3 ** 4
    for params in points:
        params.validate()
    # All points are distinct.
    assert len({tuple(sorted(p.as_dict().items())) for p in points}) == len(points)


def test_expand_grid_repairs_kmin_kmax():
    points = expand_grid({"k_min": (500_000,)})
    assert points[0].k_min < points[0].k_max


def test_expand_grid_rejects_empty():
    with pytest.raises(ValueError):
        expand_grid({})


def test_online_sweep_steps_one_point_per_interval(tiny_network):
    tuner = GridSearchTuner(grid={"p_max": (0.05, 0.2, 0.5)})
    tuner.attach(tiny_network)
    assert tuner.sweep_length == 3
    dispatched = []
    # 3 evaluation intervals + 1 best-dispatch interval.
    for i in range(4):
        params = tuner.on_interval(stats((i + 1) * 1e-3, tp=0.1 * (i + 1)))
        dispatched.append(params)
    assert all(p is not None for p in dispatched)
    assert tuner.sweeps_completed == 1
    # Every grid point got a measured utility.
    assert len(tuner.results) == 3


def test_online_sweep_holds_best_after_convergence(tiny_network):
    tuner = GridSearchTuner(grid={"p_max": (0.05, 0.5)})
    tuner.attach(tiny_network)
    # Utility at interval i reflects the point dispatched at i-1, so
    # this sequence scores point0 -> 0.3 and point1 -> 0.9.
    utilities = [0.0, 0.3, 0.9]
    for i, u in enumerate(utilities):
        tuner.on_interval(stats((i + 1) * 1e-3, tp=u, rtt=u))
    # Converged: holds the best point, no more dispatches.
    assert tuner.on_interval(stats(4e-3)) is None
    best = tuner.best()
    assert best.params.p_max == pytest.approx(0.5)


def test_best_requires_results():
    tuner = GridSearchTuner(grid={"p_max": (0.1,)})
    with pytest.raises(ValueError):
        tuner.best()


def test_offline_grid_search_finds_planted_optimum():
    # Utility peaks at p_max == 0.2 by construction: a stub executor
    # scores each task instead of running the simulator.
    from types import SimpleNamespace

    from repro.parallel import ScenarioSpec
    from repro.parallel.sweeps import offline_grid_search_parallel

    class PlantedExecutor:
        def map(self, tasks):
            return [
                SimpleNamespace(
                    mean_utility=lambda skip=0, p=t.params: 1.0 - abs(p.p_max - 0.2),
                    recording=None,
                )
                for t in tasks
            ]

    spec = ScenarioSpec(workload="hadoop", scale="small", duration=0.004)
    best, results = offline_grid_search_parallel(
        spec, grid={"p_max": (0.05, 0.2, 0.5)}, executor=PlantedExecutor()
    )
    assert best.params.p_max == pytest.approx(0.2)
    assert len(results) == 3


def test_resweep_mode(tiny_network):
    tuner = GridSearchTuner(grid={"p_max": (0.05, 0.5)}, resweep=True)
    tuner.attach(tiny_network)
    for i in range(7):
        tuner.on_interval(stats((i + 1) * 1e-3))
    assert tuner.sweeps_completed >= 2


def test_offline_grid_search_parallel_matches_serial():
    """Same grid through the parallel fabric: same order, same best."""
    from repro.parallel import ScenarioSpec
    from repro.parallel.sweeps import offline_grid_search_parallel

    spec = ScenarioSpec(workload="hadoop", scale="small", duration=0.004)
    grid = {"p_max": (0.05, 0.2, 0.5)}
    best_1, results_1 = offline_grid_search_parallel(spec, grid, jobs=1)
    best_2, results_2 = offline_grid_search_parallel(spec, grid, jobs=2)
    assert len(results_1) == len(results_2) == 3
    assert [r.utility for r in results_1] == [r.utility for r in results_2]
    assert [r.params.as_dict() for r in results_1] == [
        r.params.as_dict() for r in results_2
    ]
    assert best_1.params.as_dict() == best_2.params.as_dict()
    # `best` is the max-utility entry of `results` (the first on ties).
    planted = max(results_1, key=lambda r: r.utility)
    assert best_1.params.as_dict() == planted.params.as_dict()
    assert best_1.utility == planted.utility
