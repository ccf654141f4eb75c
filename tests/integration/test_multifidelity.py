"""Multi-fidelity evaluation: determinism and equivalence guarantees.

Three contracts from DESIGN.md's "Multi-fidelity evaluation":

* the full-fidelity path is byte-identical with and without a
  :class:`~repro.tuning.fidelity.FidelityConfig` attached;
* early abort never perturbs runs that complete (the abort check is
  read-only until it fires), and abort decisions themselves are
  deterministic;
* the warm reset-and-replay evaluation path produces the same digests
  as a cold build.

The driver pins at the bottom freeze what the grid sweep and the
batched anneal dispatch and report in every fidelity mode.
"""

import hashlib
import random

import pytest

from repro.parallel.executor import SweepExecutor
from repro.parallel.sa import batched_anneal
from repro.parallel.tasks import (
    EvalTask,
    ScenarioSpec,
    build_scenario,
    evaluate_task,
    extract_schedule,
)
from repro.tuning.annealing import AnnealingSchedule, ImprovedAnnealer
from repro.tuning.fidelity import FidelityConfig
from repro.parallel.sweeps import offline_grid_search_parallel
from repro.tuning.parameters import default_params, default_space

SPEC = ScenarioSpec(workload="hadoop", scale="small", duration=0.01, seed=1)


def _annealer(seed=7):
    return ImprovedAnnealer(
        default_space(),
        AnnealingSchedule(90.0, 40.0, 0.85, 4),
        rng=random.Random(seed),
    )


def _fingerprint(result):
    return (
        result.best_params.as_dict(),
        result.best_utility,
        result.evaluations,
        result.batches,
        tuple(result.utility_trace),
    )


# -- full-fidelity equivalence ------------------------------------------


def test_default_fidelity_config_is_identity():
    baseline = batched_anneal(
        SPEC, _annealer(), default_params(), batch_size=3, max_batches=3
    )
    with_config = batched_anneal(
        SPEC,
        _annealer(),
        default_params(),
        batch_size=3,
        max_batches=3,
        fidelity=FidelityConfig(),
    )
    assert _fingerprint(with_config) == _fingerprint(baseline)
    assert with_config.aborted == 0
    assert with_config.surrogate_scored == 0


# -- early abort ---------------------------------------------------------


def test_abort_check_does_not_perturb_completing_runs():
    task = EvalTask(scenario=SPEC, seed=SPEC.seed, params=default_params())
    plain = evaluate_task(task)
    # A threshold so low the bound can never cross it: the run must
    # complete and match the unthresholded run byte for byte.
    guarded = evaluate_task(
        EvalTask(
            scenario=SPEC,
            seed=SPEC.seed,
            params=default_params(),
            abort_threshold=0.0,
        )
    )
    assert not plain.aborted and not guarded.aborted
    assert guarded.fct_digest == plain.fct_digest
    assert guarded.interval_digest == plain.interval_digest
    assert guarded.utilities == plain.utilities


def test_abort_fires_deterministically():
    # A threshold above the achievable utility forces an abort; the
    # decision point and reported bound must be stable across runs.
    task = EvalTask(
        scenario=SPEC,
        seed=SPEC.seed,
        params=default_params(),
        abort_threshold=0.99,
        abort_after_frac=0.5,
    )
    first = evaluate_task(task)
    second = evaluate_task(task)
    assert first.aborted and second.aborted
    assert first.utility == second.utility
    assert first.utilities == second.utilities
    # The bound is optimistic: at least the mean it would have reported.
    n_seen = len(first.utilities)
    assert n_seen > 0
    assert first.utility >= sum(first.utilities) / n_seen


def test_screened_anneal_is_repeatable():
    fidelity = FidelityConfig(
        mode="screen", screen_ratio=3.0, early_abort=True
    )
    runs = [
        batched_anneal(
            SPEC,
            _annealer(),
            default_params(),
            batch_size=2,
            max_batches=3,
            fidelity=fidelity,
        )
        for _ in range(2)
    ]
    assert _fingerprint(runs[0]) == _fingerprint(runs[1])
    assert runs[0].aborted == runs[1].aborted
    assert runs[0].screened_out == runs[1].screened_out
    assert runs[0].surrogate_scored > runs[0].evaluations


def test_grid_sweep_screen_mode_keeps_des_best():
    grid = {"k_min": (10_000.0, 40_000.0), "p_max": (0.05, 0.5)}
    fidelity = FidelityConfig(mode="screen", screen_ratio=2.0)
    best, results = offline_grid_search_parallel(
        SPEC, grid, jobs=1, fidelity=fidelity
    )
    assert best.fidelity == "des"
    assert len(results) == 4
    des = [r for r in results if r.fidelity == "des"]
    fluid = [r for r in results if r.fidelity == "fluid"]
    assert len(des) == 2 and len(fluid) == 2
    assert best.utility == max(r.utility for r in des)
    # Repeatable end to end.
    best2, results2 = offline_grid_search_parallel(
        SPEC, grid, jobs=1, fidelity=fidelity
    )
    assert [(r.utility, r.fidelity) for r in results2] == [
        (r.utility, r.fidelity) for r in results
    ]


# -- warm reset-and-replay ----------------------------------------------


def test_warm_network_reuse_matches_cold_build():
    schedule = extract_schedule(SPEC)
    assert schedule is not None
    network, _, _ = build_scenario(SPEC, SPEC.seed, [])

    params_a = default_params()
    params_b = default_params().copy(k_min=40_000, k_max=160_000, p_max=0.05)
    for params in (params_a, params_b, params_a):
        task = EvalTask(scenario=SPEC, seed=SPEC.seed, params=params)
        cold = evaluate_task(task)
        warm = evaluate_task(task, schedule=schedule, network=network)
        assert warm.fct_digest == cold.fct_digest
        assert warm.interval_digest == cold.interval_digest
        assert warm.utilities == cold.utilities


def test_warm_network_requires_schedule():
    network, _, _ = build_scenario(SPEC, SPEC.seed, [])
    task = EvalTask(scenario=SPEC, seed=SPEC.seed, params=default_params())
    with pytest.raises(ValueError):
        evaluate_task(task, network=network)


# -- driver pins ---------------------------------------------------------

PIN_SPEC = ScenarioSpec(workload="hadoop", scale="small", duration=0.01, seed=3)
#: 2x2x2 grid with a wide utility spread (the k_min=160 kB half scores
#: ~0.72) so the abort rule really fires.
PIN_GRID = {
    "k_min": (40_000.0, 160_000.0),
    "p_max": (0.2, 0.5),
    "rpg_ai_rate": (100e6, 20e6),
}


class _RecordingExecutor(SweepExecutor):
    """In-process, uncached executor that keeps every dispatched task."""

    def __init__(self):
        super().__init__(jobs=1, cache=None)
        self.maps = 0
        self.dispatched = []

    def map(self, tasks):
        results = super().map(tasks)
        self.maps += 1
        self.dispatched.extend(zip(tasks, results))
        return results


def _run_driver(driver, mode, abort):
    """``(maps, task shapes, summary, digest)`` of one pinned run.

    A task shape is its index, engine mode (``o``ff / ``h``ybrid) and
    ``T`` when it carries an abort threshold; the digest covers every
    reported utility and label plus each dispatched task's digests.
    """
    fidelity = FidelityConfig(
        mode=mode, early_abort=abort, abort_margin=0.0, abort_after_frac=0.8
    )
    executor = _RecordingExecutor()
    if driver == "grid":
        best, results = offline_grid_search_parallel(
            PIN_SPEC, PIN_GRID, executor=executor, fidelity=fidelity
        )
        summary = ("".join(r.fidelity[0] for r in results), best.utility)
        values = [(r.utility, r.fidelity) for r in results]
        values += [best.utility, best.params.as_dict()]
    else:
        result = batched_anneal(
            PIN_SPEC,
            _annealer(),
            default_params(),
            batch_size=2,
            max_batches=4,
            executor=executor,
            fidelity=fidelity,
        )
        summary = (
            result.evaluations,
            result.screened_out,
            result.aborted,
            result.best_utility,
        )
        values = [
            result.best_utility,
            result.evaluations,
            result.screened_out,
            result.utility_trace,
            result.best_params.as_dict(),
        ]
    tasks = sorted(
        (
            task.index,
            task.engine_mode or "off",
            task.abort_threshold is not None,
            res.fct_digest,
            res.interval_digest,
        )
        for task, res in executor.dispatched
    )
    shapes = " ".join(
        f"{i}{engine[0]}{'T' if thr else ''}" for i, engine, thr, _f, _d in tasks
    )
    blob = "\n".join(repr(v) for v in values + tasks).encode()
    return executor.maps, shapes, summary, hashlib.sha256(blob).hexdigest()[:16]


#: Recorded before the drivers shared one Evaluator: a change to any
#: entry is a change in what a driver dispatches or reports.
DRIVER_PINS = {
    ("grid", "full", False): (
        1, "0o 1o 2o 3o 4o 5o 6o 7o",
        ("dddddddd", 0.8330762292066831), "fe6101c2a78b8b09",
    ),
    ("grid", "full", True): (
        2, "0o 1oT 2oT 3oT 4oT 5oT 6oT 7oT",
        ("ddddaaaa", 0.8330762292066831), "e72d55c91bb45a91",
    ),
    # Digest re-recorded once hybrid RTT probes became plain floats (it
    # covers hybrid interval digests); the code before that cast gives
    # the same value under np.printoptions(legacy="1.25").
    ("grid", "hybrid", False): (
        2, "0h 0o 1h 2h 3h 4h 5h 6h 7h",
        ("dhhhhhhh", 0.8191141708765324), "39c9c62ddd712ef9",
    ),
    # One map: without an abort no incumbent is needed first.
    ("grid", "screen", False): (
        1, "0o 2o 3o",
        ("dfddffff", 0.8330762292066831), "035a09219b0fafcc",
    ),
    ("grid", "screen", True): (
        2, "0oT 2oT 3o",
        ("afddffff", 0.8330762292066831), "096b8ad7ea591b0d",
    ),
    ("grid", "surrogate", False): (
        1, "3o",
        ("fffdffff", 0.8330762292066831), "3f2f9c37c0fba228",
    ),
    ("anneal", "full", False): (
        4, "0o 0o 0o 0o 1o 1o 1o 1o",
        (9, 0, 0, 0.8283723100844462), "ecc50fc90e1af92b",
    ),
    ("anneal", "screen", True): (
        4, "0oT 0oT 0oT 0oT 1oT 1oT 1oT 1oT",
        (9, 16, 1, 0.8384010284137258), "bec56bf9fb66f7e3",
    ),
    ("anneal", "surrogate", False): (
        0, "",
        (2, 0, 0, 0.8262982647506115), "6ce4634d44d9ea1a",
    ),
}


@pytest.mark.parametrize(
    "driver,mode,abort",
    [
        ("grid", "full", False),
        ("grid", "full", True),
        ("grid", "hybrid", False),
        ("grid", "screen", False),
        ("grid", "screen", True),
        ("grid", "surrogate", False),
        ("anneal", "full", False),
        ("anneal", "screen", True),
        ("anneal", "surrogate", False),
    ],
)
def test_driver_pins(driver, mode, abort):
    assert _run_driver(driver, mode, abort) == DRIVER_PINS[driver, mode, abort]


def test_hybrid_anneal_walks_on_hybrid_and_confirms_on_des():
    executor = _RecordingExecutor()
    result = batched_anneal(
        PIN_SPEC,
        _annealer(),
        default_params(),
        batch_size=2,
        max_batches=4,
        executor=executor,
        fidelity=FidelityConfig(mode="hybrid"),
    )
    assert result.fidelity_mode == "hybrid"
    engines = [task.engine_mode for task, _res in executor.dispatched]
    assert engines and set(engines) == {"hybrid"}
    assert result.utility_trace == [res.utility for _t, res in executor.dispatched]
    # The reported best is a DES measurement of the winner, and the only
    # DES run the search made.
    des = evaluate_task(
        EvalTask(scenario=PIN_SPEC, seed=PIN_SPEC.seed, params=result.best_params)
    )
    assert result.best_utility == des.utility
    assert result.evaluations == 1
