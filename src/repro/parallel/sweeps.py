"""The multi-fidelity evaluator and the grid sweep built on it.

:class:`Evaluator` owns the fidelity ladder; the grid sweep
(:func:`offline_grid_search_parallel`) and the batched anneal
(:func:`repro.parallel.sa.batched_anneal`) are thin loops over it.  It
lives in the parallel layer because it owns an executor and fans tasks
out over the pool, handing back the lower layers' own result types.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.parallel.executor import SweepExecutor
from repro.parallel.tasks import EvalResult, EvalTask, evaluate_task
from repro.simulator.dcqcn import DcqcnParams
from repro.telemetry import trace
from repro.tuning.fidelity import FidelityConfig, SurrogateScreen
from repro.tuning.grid import DEFAULT_GRID, GridPointResult, expand_grid


class Evaluator:
    """One scenario's fidelity ladder: the only place policy lives.

    It owns the fluid screen and its calibration, the rung candidates
    run on (the hybrid engine in ``hybrid`` mode, calibrated fluid
    scores in ``surrogate`` mode, else the DES), the engine mode and
    abort threshold of every task it dispatches, the first incumbent,
    and the DES confirmation of an approximate winner.  Each result is
    labelled with its rung: ``des``, ``hybrid``, ``fluid`` or
    ``aborted`` (utility is the optimistic bound).  The incumbent is
    the best whole-run utility completed so far, since the abort rule
    bounds the whole-run mean.
    """

    def __init__(self, scenario, fidelity, executor, skip_intervals=0):
        self.scenario = scenario
        self.fidelity = fidelity = fidelity or FidelityConfig()
        self.executor = executor
        self.skip_intervals = skip_intervals
        self.surrogate = None
        if fidelity.mode in ("screen", "surrogate"):
            self.surrogate = SurrogateScreen(scenario, fidelity)
        self.rung = {"hybrid": "hybrid", "surrogate": "fluid"}.get(
            fidelity.mode, "des"
        )
        self.engine_mode = "hybrid" if self.rung == "hybrid" else "off"
        self.incumbent: Optional[float] = None
        self.des_runs = self.cache_hits = self.aborted = 0
        self.surrogate_scored = self.screened_out = 0

    def _task(self, params, index, threshold=None, engine_mode=None) -> EvalTask:
        return EvalTask(
            scenario=self.scenario,
            seed=self.scenario.seed,
            params=params,
            index=index,
            abort_threshold=threshold,
            abort_after_frac=self.fidelity.abort_after_frac,
            engine_mode=engine_mode or self.engine_mode,
        )

    def _run(self, tasks: List[EvalTask], inline: bool = False) -> List[EvalResult]:
        if inline:
            results = [evaluate_task(task) for task in tasks]
        else:
            results = self.executor.map(tasks)
            self.cache_hits += self.executor.last_cache_hits
        self.des_runs += sum(task.engine_mode == "off" for task in tasks)
        return results

    def _point(self, params, res: EvalResult, label: str) -> GridPointResult:
        if res.aborted:
            return GridPointResult(params, res.utility, "aborted", res.recording)
        utility = res.mean_utility(skip=self.skip_intervals)
        return GridPointResult(params, utility, label, res.recording)

    def begin(self, params: DcqcnParams) -> float:
        """Rung utility of a walk's start, measured in process.

        It is the first incumbent and, with a surrogate (whose rung
        runs it on the DES), the first calibration anchor.
        """
        utility = self._run([self._task(params, 0)], inline=True)[0].utility
        if self.surrogate is not None:
            self.surrogate_scored += 1
            self.surrogate.observe(self.surrogate.score([params])[0], utility)
        self.incumbent = utility
        return utility

    def screen(
        self, candidates: Sequence[DcqcnParams], keep: Optional[int] = None
    ) -> Tuple[List[int], Optional[List[float]]]:
        """``(positions that go on to the rung, fluid scores or None)``.

        ``screen`` mode keeps the ``keep`` fluid-best (default: one in
        ``screen_ratio``); every other mode keeps all candidates.
        """
        everyone = list(range(len(candidates)))
        if self.surrogate is None:
            return everyone, None
        self.surrogate_scored += len(candidates)
        if self.fidelity.mode == "surrogate":
            return everyone, self.surrogate.score(candidates)
        if keep is None:
            keep = max(1, math.ceil(len(candidates) / self.fidelity.screen_ratio))
        kept, scores = self.surrogate.select(candidates, keep)
        self.screened_out += len(candidates) - len(kept)
        return kept, scores

    def measure(self, candidates, scores=None, run=None) -> List[GridPointResult]:
        """Rung results for one batch, aligned with ``candidates``.

        Positions in ``run`` (default: all) go on to the rung, with the
        position as task index; the rest, and on the fluid rung all but
        its DES anchor, report calibrated fluid ``scores``.  With no
        incumbent yet, an early abort or the fluid rung first runs one
        candidate alone: the fluid-best, else the first.
        """
        run = list(range(len(candidates))) if run is None else run
        results: Dict[int, EvalResult] = {}
        if self.incumbent is None and (
            self.fidelity.early_abort or self.rung == "fluid"
        ):
            first = run[0]
            if scores is not None:
                first = max(run, key=lambda i: (scores[i], -i))
            results[first] = self._run([self._task(candidates[first], first)])[0]
            self.incumbent = results[first].utility
        rest = [] if self.rung == "fluid" else [i for i in run if i not in results]
        if rest:
            threshold = self.fidelity.abort_threshold(self.incumbent)
            tasks = [self._task(candidates[i], i, threshold) for i in rest]
            results.update(zip(rest, self._run(tasks)))
        for i in sorted(results):
            if results[i].aborted:
                self.aborted += 1
                continue
            if self.fidelity.early_abort:
                self.incumbent = max(self.incumbent, results[i].utility)
            if self.surrogate is not None:
                self.surrogate.observe(scores[i], results[i].utility)
        label = "hybrid" if self.rung == "hybrid" else "des"
        return [
            self._point(params, results[i], label)
            if i in results
            else GridPointResult(
                params, self.surrogate.calibration.apply(scores[i]), "fluid"
            )
            for i, params in enumerate(candidates)
        ]

    def best(self, results: List[GridPointResult]) -> GridPointResult:
        """A sweep's best completed DES point (the first on ties).

        On the hybrid rung the best hybrid point is DES-confirmed
        first, and the confirmation replaces its entry in ``results``.
        """
        if self.rung == "hybrid":
            winner = max(
                (i for i, r in enumerate(results) if r.fidelity == "hybrid"),
                key=lambda i: (results[i].utility, -i),
            )
            params = results[winner].params
            res = self._run([self._task(params, winner, engine_mode="off")])[0]
            results[winner] = self._point(params, res, "des")
        return max(
            (r for r in results if r.fidelity == "des"), key=lambda r: r.utility
        )

    def confirm(self, params: DcqcnParams, utility: float) -> float:
        """DES utility of a walk's winner whose rung utility is ``utility``:
        itself on the DES rung, else one in-process DES run."""
        if self.rung == "des":
            return utility
        task = self._task(params, 0, engine_mode="off")
        return self._run([task], inline=True)[0].utility


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
    optionally thins the sweep: in ``screen`` mode only the fluid-best
    ``1/screen_ratio`` of the points run the DES (the rest report
    calibrated surrogate utilities, marked ``fidelity="fluid"``);
    ``surrogate`` mode DES-measures only the fluid-best point;
    ``hybrid`` mode runs every point on the hybrid engine and
    DES-confirms the winner.  Early abort uses the first completed
    point as the incumbent.  The returned ``best`` is always a point
    measured (completely) by the DES.
    """
    points = expand_grid(grid or DEFAULT_GRID)
    executor = executor or SweepExecutor(jobs=jobs, cache=cache, strategy=strategy)
    evaluator = Evaluator(scenario, fidelity, executor, skip_intervals)
    with trace.span(
        "sweep.grid", {"points": len(points), "fidelity": evaluator.fidelity.mode}
    ):
        kept, scores = evaluator.screen(points)
        results = evaluator.measure(points, scores, kept)
        return evaluator.best(results), results
