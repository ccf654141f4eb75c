"""Parallel sweep drivers: grids, parameter sets and scheme panels.

These helpers used to live beside their result types (``tuning.grid``)
and the benchmark harness (``experiments.runner``), which forced both
of those lower layers to lazily import the parallel fabric — exactly
the upward edges RL008 forbids.  They are *drivers*: they own an
executor, fan tasks out over the pool, and hand back the lower
layers' own result types, so they belong up here in the parallel
layer where the dependency arrow points down.

* :func:`offline_grid_search_parallel` — the multi-fidelity grid sweep
  (fluid screen / hybrid rung / full DES with early abort).
* :func:`run_parameter_sweep` — frozen parameter sets on one scenario.
* :func:`run_scheme_sweep` — named tuning schemes over seeds.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.parallel.executor import SweepExecutor
from repro.parallel.tasks import EvalTask
from repro.telemetry import trace
from repro.tuning.fidelity import FidelityConfig, SurrogateScreen
from repro.tuning.grid import DEFAULT_GRID, GridPointResult, expand_grid


def offline_grid_search_parallel(
    scenario,
    grid: Optional[Dict[str, Sequence[float]]] = None,
    jobs: Optional[int] = None,
    cache=None,
    executor=None,
    skip_intervals: int = 0,
    fidelity=None,
    strategy: Optional[str] = None,
) -> Tuple[GridPointResult, List[GridPointResult]]:
    """Offline sweep over a :class:`~repro.parallel.tasks.ScenarioSpec`.

    Returns ``(best, results)`` with results in grid order.  Each point is
    a self-contained :class:`~repro.parallel.tasks.EvalTask`, so the
    sweep fans out over a process pool and reuses the evaluation cache
    across repeated sweeps.  With ``jobs=1`` the results are
    identical, just serial.

    ``fidelity`` (a :class:`~repro.tuning.fidelity.FidelityConfig`)
    optionally thins the sweep: in ``screen`` mode the fluid surrogate
    scores every point and only the top ``1/screen_ratio`` fraction
    runs the DES (the rest report calibrated surrogate utilities,
    marked ``fidelity="fluid"``); ``surrogate`` mode DES-confirms only
    the fluid-best point.  Early abort uses the first completed DES
    point as the incumbent.  The returned ``best`` is always a point
    measured (completely) by the DES.
    """
    points = expand_grid(grid or DEFAULT_GRID)
    executor = executor or SweepExecutor(
        jobs=jobs, cache=cache, strategy=strategy
    )
    fidelity = fidelity or FidelityConfig()

    with trace.span(
        "sweep.grid", {"points": len(points), "fidelity": fidelity.mode}
    ):
        if fidelity.mode == "full" and not fidelity.early_abort:
            tasks = [
                EvalTask(scenario=scenario, seed=scenario.seed, params=p, index=i)
                for i, p in enumerate(points)
            ]
            evals = executor.map(tasks)
            results = [
                GridPointResult(
                    params,
                    res.mean_utility(skip=skip_intervals),
                    recording=res.recording,
                )
                for params, res in zip(points, evals)
            ]
            best = max(results, key=lambda r: r.utility)
            return best, results

        if fidelity.mode == "hybrid":
            # The rung between the fluid surrogate and the full DES:
            # every point runs the hybrid flow/packet engine (fluid
            # elephants, packet-level mice/queues/ECN), then the argmax
            # is re-measured at full fidelity so the reported best is a
            # real DES utility.  Hybrid results are never cached.
            hybrid_evals = executor.map(
                [
                    EvalTask(
                        scenario=scenario,
                        seed=scenario.seed,
                        params=p,
                        index=i,
                        engine_mode="hybrid",
                    )
                    for i, p in enumerate(points)
                ]
            )
            winner = max(
                range(len(points)),
                key=lambda i: (
                    hybrid_evals[i].mean_utility(skip=skip_intervals),
                    -i,
                ),
            )
            # engine_mode=None follows REPRO_HYBRID_ENGINE (`off`,
            # full fidelity, unless the user chose `hybrid`).
            confirm = executor.map(
                [
                    EvalTask(
                        scenario=scenario,
                        seed=scenario.seed,
                        params=points[winner],
                        index=winner,
                    )
                ]
            )[0]
            results = [
                GridPointResult(
                    params,
                    res.mean_utility(skip=skip_intervals),
                    fidelity="hybrid",
                    recording=res.recording,
                )
                for params, res in zip(points, hybrid_evals)
            ]
            results[winner] = GridPointResult(
                points[winner],
                confirm.mean_utility(skip=skip_intervals),
                recording=confirm.recording,
            )
            return results[winner], results

        screen = (
            SurrogateScreen(scenario, fidelity)
            if fidelity.mode in ("screen", "surrogate")
            else None
        )
        if fidelity.mode == "surrogate":
            scores = screen.score(points)
            des_indices = [max(range(len(points)), key=lambda i: (scores[i], -i))]
        elif fidelity.mode == "screen":
            keep = max(1, math.ceil(len(points) / fidelity.screen_ratio))
            des_indices, scores = screen.select(points, keep)
        else:  # full + early abort
            scores = None
            des_indices = list(range(len(points)))

        # Establish the abort incumbent with one untimed full evaluation:
        # the fluid-best DES candidate (or simply the first point).
        if scores is not None:
            first = max(des_indices, key=lambda i: (scores[i], -i))
        else:
            first = des_indices[0]
        rest = [i for i in des_indices if i != first]

        def _task(i: int, threshold) -> EvalTask:
            return EvalTask(
                scenario=scenario,
                seed=scenario.seed,
                params=points[i],
                index=i,
                abort_threshold=threshold,
                abort_after_frac=fidelity.abort_after_frac,
            )

        des_results = {first: executor.map([_task(first, None)])[0]}
        threshold = fidelity.abort_threshold(des_results[first].utility)
        if rest:
            for i, res in zip(rest, executor.map([_task(i, threshold) for i in rest])):
                des_results[i] = res

        if screen is not None:
            for i in sorted(des_results):
                res = des_results[i]
                if not res.aborted:
                    screen.observe(scores[i], res.utility)

        results = []
        for i, params in enumerate(points):
            res = des_results.get(i)
            if res is None:
                results.append(
                    GridPointResult(
                        params, screen.calibration.apply(scores[i]), fidelity="fluid"
                    )
                )
            elif res.aborted:
                results.append(
                    GridPointResult(
                        params, res.utility, fidelity="aborted",
                        recording=res.recording,
                    )
                )
            else:
                results.append(
                    GridPointResult(
                        params,
                        res.mean_utility(skip=skip_intervals),
                        recording=res.recording,
                    )
                )
        best = max(
            (r for r in results if r.fidelity == "des"), key=lambda r: r.utility
        )
        return best, results


def run_parameter_sweep(
    scenario,
    param_sets,
    jobs=None,
    cache=None,
    executor=None,
):
    """Evaluate many frozen parameter sets on one scenario, in order.

    ``scenario`` is a :class:`~repro.parallel.tasks.ScenarioSpec`;
    returns one :class:`~repro.parallel.tasks.EvalResult` per entry of
    ``param_sets``, positionally aligned.  With ``jobs > 1`` the points
    run on a process pool; results are identical to serial execution.
    """
    executor = executor or SweepExecutor(jobs=jobs, cache=cache)
    tasks = [
        EvalTask(scenario=scenario, seed=scenario.seed, params=p, index=i)
        for i, p in enumerate(param_sets)
    ]
    return executor.map(tasks)


def run_scheme_sweep(
    scenario,
    schemes,
    seeds=None,
    jobs=None,
    executor=None,
):
    """Evaluate named tuning schemes, optionally over several seeds.

    Returns ``{scheme: [EvalResult, ...]}`` with one result per seed
    (default: the scenario's own seed), ordered like ``seeds``.
    Scheme runs are stateful (the tuner adapts online) so they bypass
    the evaluation cache, but still parallelize.
    """
    executor = executor or SweepExecutor(jobs=jobs)
    seeds = list(seeds) if seeds is not None else [scenario.seed]
    schemes = list(schemes)
    tasks = [
        EvalTask(scenario=scenario, seed=seed, scheme=scheme, index=i)
        for i, (scheme, seed) in enumerate(
            (s, seed) for s in schemes for seed in seeds
        )
    ]
    results = executor.map(tasks)
    grouped = {}
    for task, result in zip(tasks, results):
        grouped.setdefault(task.scheme, []).append(result)
    return grouped
