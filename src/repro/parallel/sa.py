"""Batched simulated annealing over the parallel fabric.

The paper's tuning process evaluates one SA candidate per monitor
interval *in situ* — on the live network.  The offline variant (used
by the Fig. 12-style ablations and by pretraining) instead evaluates
candidates on a *frozen* scenario, which makes the evaluations
independent and therefore parallelizable: per temperature step the
annealer proposes K candidates from the current solution, the
executor evaluates them concurrently (dodging the cache for points SA
already visited), and the Metropolis accept/reject is then applied
**in proposal order**, so the guided-randomness and relaxed-schedule
semantics of Algorithm 1 are preserved (see DESIGN.md, "Batched SA").

Multi-fidelity search (``fidelity``) is a loop over the shared
:class:`~repro.parallel.sweeps.Evaluator` (DESIGN.md, "Multi-fidelity
evaluation"): ``screen`` proposes ``screen_ratio``× more candidates and
:meth:`~repro.tuning.annealing._AnnealerBase.screen_batch` keeps only
the survivors in the Metropolis walk; ``hybrid`` and ``surrogate`` walk
on hybrid or calibrated fluid utilities and DES-confirm the winner;
early abort abandons DES runs that cannot reach the incumbent.  With
``fidelity`` left at the default (mode ``full``, abort off) the search
is byte-identical to the pre-multi-fidelity implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.parallel.executor import SweepExecutor
from repro.parallel.sweeps import Evaluator
from repro.parallel.tasks import ScenarioSpec
from repro.simulator.dcqcn import DcqcnParams
from repro.telemetry import trace
from repro.tuning.annealing import _AnnealerBase
from repro.tuning.fidelity import FidelityConfig


@dataclass
class BatchedAnnealResult:
    """Outcome of one offline batched-SA search."""

    best_params: DcqcnParams
    best_utility: float
    evaluations: int              # full-fidelity (DES) evaluations
    batches: int
    cache_hits: int
    utility_trace: List[float] = field(default_factory=list)
    fidelity_mode: str = "full"
    surrogate_scored: int = 0     # candidates scored by the fluid model
    screened_out: int = 0         # candidates the screen eliminated
    aborted: int = 0              # DES runs abandoned by early abort


def batched_anneal(
    scenario: ScenarioSpec,
    annealer: _AnnealerBase,
    initial: DcqcnParams,
    batch_size: int = 4,
    executor: Optional[SweepExecutor] = None,
    tp_bias: Optional[Tuple[bool, float]] = None,
    max_batches: Optional[int] = None,
    fidelity: Optional[FidelityConfig] = None,
    strategy: Optional[str] = None,
) -> BatchedAnnealResult:
    """Run one full SA tuning process with K-way concurrent evaluation.

    ``annealer`` may be an :class:`~repro.tuning.annealing.
    ImprovedAnnealer` or ``NaiveAnnealer``; its schedule decides when
    the process ends.  ``tp_bias`` plays the role of the measured FSD
    (frozen for the whole search, as the scenario is frozen too).
    ``fidelity`` selects the evaluation policy; see the module
    docstring.  ``batch_size`` is always the number of *full*
    evaluations per batch — screening proposes more and prunes down.

    The default executor dispatches to the process-wide persistent
    :func:`~repro.parallel.pool.get_shared_pool`, so the hundreds of
    small batches an SA search issues reuse one warm worker crew
    instead of paying spawn + warm-build per batch; ``strategy``
    forwards to :class:`SweepExecutor` (``auto`` when unset).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    evaluator = Evaluator(
        scenario, fidelity, executor or SweepExecutor(strategy=strategy)
    )
    fidelity = evaluator.fidelity
    # The seed runs in process, outside the executor, so a full-mode
    # search maps exactly ``evaluations - 1`` tasks.
    annealer.begin(initial, evaluator.begin(initial))

    batches = 0
    with trace.span(
        "sa.search", {"batch_size": batch_size, "fidelity": fidelity.mode}
    ):
        while annealer.running and (
            max_batches is None or batches < max_batches
        ):
            candidates = annealer.propose_batch(
                fidelity.proposals_for(batch_size), tp_bias
            )
            kept, scores = evaluator.screen(candidates, batch_size)
            survivors = annealer.screen_batch(kept)
            hits = evaluator.cache_hits
            if scores is not None:
                scores = [scores[i] for i in kept]
            points = evaluator.measure(survivors, scores)
            annealer.feedback_batch([p.utility for p in points])
            batches += 1
            if trace.active:
                trace.event(
                    "sa.batch",
                    {
                        "batch": batches,
                        "size": len(points),
                        "proposed": len(candidates),
                        "aborted": sum(p.fidelity == "aborted" for p in points),
                        "cache_hits": evaluator.cache_hits - hits,
                        "temperature": annealer.state.temperature,
                        "best_utility": annealer.state.best_util,
                    },
                )

    state = annealer.state
    best_utility = evaluator.confirm(state.best_solution, state.best_util)
    return BatchedAnnealResult(
        best_params=state.best_solution,
        best_utility=best_utility,
        evaluations=evaluator.des_runs,
        batches=batches,
        cache_hits=evaluator.cache_hits,
        utility_trace=list(annealer.utility_trace),
        fidelity_mode=fidelity.mode,
        surrogate_scored=evaluator.surrogate_scored,
        screened_out=evaluator.screened_out,
        aborted=evaluator.aborted,
    )
