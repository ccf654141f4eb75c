"""The four benchmark workloads and what one unit of each measures.

A workload turns the run's ``--seed`` into its inputs, optionally sets
up shared state (the persistent worker pool) several times, and runs
*units*: one closed-loop run, one full batched-anneal search, or one
control-plane day.  Every unit returns a :class:`Unit` with its host
time, the digests and work counts the run compares across
repetitions, the simulated quality figures, and the per-layer counts.

Only public entry points of ``repro`` are driven here:
``ExperimentRunner`` + ``make_tuner("paraleon")`` for the closed loops,
``batched_anneal`` + ``SweepExecutor`` for the search, and
``ControlPlaneService`` for the day.  See README.md for why each
workload exists and which layer each should move.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.controlplane import ShardTopology, TrafficConfig
from repro.controlplane.service import ControlPlaneConfig, ControlPlaneService
from repro.controlplane.traffic import TenantProfile, TrafficShift
from repro.experiments.fct import slowdown_records
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import make_tuner
from repro.monitor.agent import batched_monitor_default
from repro.parallel import (
    EvalTask,
    ScenarioSpec,
    SweepExecutor,
    batched_anneal,
    close_shared_pool,
    derive_task_seed,
    expected_qp_count,
    get_shared_pool,
)
from repro.parallel.tasks import build_scenario, fct_digest, interval_digest
from repro.simulator.hybrid import lanes_floor, resolve_hybrid_mode
from repro.simulator.topology import SPECS
from repro.simulator.units import mb
from repro.telemetry.registry import get_registry
from repro.tuning.annealing import AnnealingSchedule, ImprovedAnnealer
from repro.tuning.parameters import default_params, default_space

_perf = time.perf_counter

#: Workload seed of the FB-Hadoop arrivals in every workload that uses
#: them.  Held fixed so every run does the same amount of work; ``--seed``
#: varies the fabric instead (ECN coin flips, probe peers) and, for the
#: search, the annealer.  Across workload seeds 1-6 the 0.1 s medium
#: run ranged 697k-1016k events, and one small search took 3.4 s at
#: workload seed 1 but 12.6 s at workload seed 2.
HADOOP_WORKLOAD_SEED = 42

#: Set-ups per run for the workloads whose set-up is a pool spawn.  The
#: first ``POOL_WARMUPS`` also pay the process's one-time costs (first
#: forks, first evaluations, interpreter specialization) and are not
#: counted: they ran up to 1.6x slower than the rest.
POOL_WARMUPS = 2
POOL_SETUPS = 7

#: Worker processes for the workloads that use the pool (``nproc`` = 2).
JOBS = 2

#: Registry counters read as per-unit deltas.
_COUNTERS = (
    "repro_sketch_batch_packets_total",
    "repro_sketch_batch_fastpath_total",
    "repro_monitor_flushes_total",
    "repro_kl_triggers_total",
    "repro_sa_steps_total",
    "repro_sa_accepts_total",
    "repro_executor_pool_tasks_total",
    "repro_executor_retried_chunks_total",
    "repro_executor_timeouts_total",
    "repro_executor_worker_crashes_total",
    "repro_executor_ipc_shm_bytes_total",
    "repro_executor_ipc_pipe_bytes_total",
)


def _counters() -> Dict[str, float]:
    counters = get_registry().snapshot()["counters"]
    return {name: counters.get(name, 0.0) for name in _COUNTERS}


def _delta(before: Dict[str, float]) -> Dict[str, float]:
    after = _counters()
    return {name: after[name] - before[name] for name in _COUNTERS}


def _pool_failures(delta: Dict[str, float]) -> int:
    return int(
        delta["repro_executor_retried_chunks_total"]
        + delta["repro_executor_timeouts_total"]
        + delta["repro_executor_worker_crashes_total"]
    )


def _steps(start: float, stamps: List[float]) -> List[float]:
    marks = [start] + stamps
    return [b - a for a, b in zip(marks, marks[1:])]


def _sha(parts) -> str:
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def _last_finish_ms(records) -> float:
    return max(r.finish_time for r in records) * 1e3 if records else 0.0


@dataclass
class Unit:
    """What one timed unit of work produced."""

    wall: float
    digests: Dict[str, str]
    work: Dict[str, int]
    attempted: int
    failed: int
    steps: List[float]
    #: Simulated figures: ``utility`` plus pooled ``slowdowns`` and the
    #: simulated ms until the last flow finished, per simulation.
    utility: float
    slowdowns: List[float]
    last_finish_ms: List[float]
    counts: Dict[str, float]
    path: Dict[str, object]
    #: Per-unit setup seconds (closed loops build a fabric per unit).
    setup: Optional[float] = None
    problems: List[str] = field(default_factory=list)


class RecordingExecutor(SweepExecutor):
    """``SweepExecutor`` that keeps every result and each map's end time.

    The benchmark reads the simulated flows of every evaluation (for
    the FCT figures) and times each batch without touching the search.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.results: list = []
        #: ``(start, end, results, resolved strategy)`` per map() call.
        self.batches: List[Tuple[float, float, list, str]] = []

    def map(self, tasks):
        start = _perf()
        results = super().map(tasks)
        self.batches.append((start, _perf(), results, self.last_strategy))
        self.results.extend(results)
        return results

    def strategies(self) -> str:
        """``requested -> resolved`` over every map() since clear()."""
        resolved = sorted({b[3] for b in self.batches if b[3] is not None})
        return f"{self.strategy} -> {','.join(resolved) or 'none'}"

    def map_seconds(self) -> float:
        return sum(end - start for start, end, _r, _s in self.batches)

    def clear(self) -> None:
        self.results = []
        self.batches = []


def _default_path(spec: ScenarioSpec) -> Dict[str, object]:
    requested = resolve_hybrid_mode(None)
    return {
        "engine_mode": requested,
        "lanes_fallback": lanes_floor(requested, expected_qp_count(spec))
        != requested,
        "batched_monitor": batched_monitor_default(),
    }


class Workload:
    """Base: inputs from the seed, optional shared setup, timed units."""

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self) -> list:
        raise NotImplementedError

    def prepare(self) -> Tuple[List[float], Dict[str, float]]:
        """Run-level setup: ``(setup seconds samples, extra counts)``."""
        return [], {}

    def run_unit(self, inp) -> Unit:
        raise NotImplementedError

    def prepare_traced(self) -> None:
        """Rebuild parent-side state once the tracer is installed."""

    def worker_pids(self) -> List[int]:
        return []

    def close(self) -> None:
        """Stop every process this workload started and wait for them."""


# ---------------------------------------------------------------------------
# Closed loops: sketch -> FSD -> KL -> SA -> DCQCN dispatch, in process
# ---------------------------------------------------------------------------


class ClosedLoop(Workload):
    """The ``paraleon`` scheme on the medium fabric, one run per unit."""

    def __init__(
        self, seed: int, spec: ScenarioSpec, all_flows: bool, n_inputs: int
    ):
        super().__init__(seed)
        self.spec = spec
        self.all_flows = all_flows
        #: Fabric seeds per run.  The quality figures pool the flows of
        #: all inputs, which keeps the FCT tail steady across seeds.
        self.n_inputs = n_inputs

    def inputs(self) -> List[ScenarioSpec]:
        return [
            replace(self.spec, seed=derive_task_seed(self.seed, i))
            for i in range(self.n_inputs)
        ]

    def run_unit(self, spec: ScenarioSpec) -> Unit:
        before = _counters()
        t0 = _perf()
        network, _workload, stop_when = build_scenario(spec, spec.seed)
        tuner = make_tuner("paraleon")
        runner = ExperimentRunner(
            network,
            tuner,
            monitor_interval=spec.monitor_interval,
            weights=spec.utility_weights(),
        )
        stamps: List[float] = []
        upload = [0]
        on_interval = tuner.on_interval

        def stamped(stats):
            params = on_interval(stats)
            upload[0] += tuner.controller.aggregator.upload_bytes_per_interval()
            stamps.append(_perf())
            return params

        tuner.on_interval = stamped
        t1 = _perf()
        result = runner.run(spec.duration, stop_when=stop_when)
        t2 = _perf()
        delta = _delta(before)

        records = result.records
        n_total = len(network.flows)
        problems = []
        failed = 0
        if self.all_flows and len(records) != n_total:
            failed = 1
            problems.append(f"{len(records)}/{n_total} flows completed")
        if not records:
            problems.append("no flow completed")
        if any(not 0.0 <= u <= 1.0 for u in result.utilities):
            problems.append("utility outside [0, 1]")
        fabric = SPECS[spec.scale]
        packets = delta["repro_sketch_batch_packets_total"]
        steps_total = delta["repro_sa_steps_total"]
        return Unit(
            wall=t2 - t1,
            setup=t1 - t0,
            digests={
                "fct_digest": fct_digest(records),
                "interval_digest": interval_digest(result.intervals),
            },
            work={
                "events": result.events,
                "flows_completed": len(records),
                "flows_total": n_total,
                "intervals": len(result.intervals),
            },
            attempted=1,
            failed=failed,
            steps=_steps(t1, stamps),
            utility=result.mean_utility(skip=5),
            slowdowns=[s for _r, s in slowdown_records(records, fabric)],
            last_finish_ms=[_last_finish_ms(records)],
            counts={
                "simulator.events": result.events,
                "simulator.ns_per_event": (t2 - t1) / result.events * 1e9,
                "simulator.ecn_marked": network.total_ecn_marked(),
                "simulator.pfc_pauses": network.total_pfc_pauses(),
                "simulator.dropped": result.dropped_packets,
                "sketch.packets": packets,
                "sketch.fastpath_frac": (
                    delta["repro_sketch_batch_fastpath_total"] / packets
                    if packets
                    else 0.0
                ),
                "monitor.flushes": delta["repro_monitor_flushes_total"],
                "monitor.upload_bytes": upload[0],
                "core.controller.kl_triggers": delta["repro_kl_triggers_total"],
                "core.controller.dispatches": result.dispatches,
                "tuning.steps": steps_total,
                "tuning.accept_frac": (
                    delta["repro_sa_accepts_total"] / steps_total
                    if steps_total
                    else 0.0
                ),
            },
            path={
                **_default_path(spec),
                "engine_mode": network.hybrid_mode,
                "batched_monitor": all(a.batched for a in tuner.agents),
                "executor_strategy": "none (in process)",
            },
            problems=problems,
        )


def paraleon_hadoop(seed: int) -> ClosedLoop:
    spec = ScenarioSpec(
        workload="hadoop",
        scale="medium",
        duration=0.1,
        load=0.3,
        workload_seed=HADOOP_WORKLOAD_SEED,
    )
    return ClosedLoop(seed, spec, all_flows=False, n_inputs=4)


def paraleon_alltoall(seed: int) -> ClosedLoop:
    spec = ScenarioSpec(
        workload="alltoall",
        scale="medium",
        # An upper bound only: the run stops when all 240 flows finish.
        duration=0.5,
        n_workers=16,
        flow_size=mb(1.0),
        stop_on_completion=True,
    )
    return ClosedLoop(seed, spec, all_flows=True, n_inputs=3)


# ---------------------------------------------------------------------------
# Pool-backed workloads: shared setup = pool spawn + warm-up
# ---------------------------------------------------------------------------


class PoolWorkload(Workload):
    """Spawns the shared pool ``POOL_WARMUPS + POOL_SETUPS`` times."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.executor: Optional[RecordingExecutor] = None

    def warm_scenario(self) -> ScenarioSpec:
        """The scenario whose evaluations warm the pool during setup."""
        raise NotImplementedError

    def warm_tasks(self) -> List[EvalTask]:
        scenario = self.warm_scenario()
        return [
            EvalTask(
                scenario=scenario,
                seed=scenario.seed,
                params=default_params(),
                index=i,
            )
            for i in range(2 * JOBS)
        ]

    def prepare(self) -> Tuple[List[float], Dict[str, float]]:
        setups, spawns = [], []
        for _ in range(POOL_WARMUPS + POOL_SETUPS):
            close_shared_pool()
            t0 = _perf()
            executor = RecordingExecutor(jobs=JOBS)
            if executor.jobs > 1:
                get_shared_pool(executor.jobs)
            t1 = _perf()
            executor.map(self.warm_tasks())
            self.build()
            t2 = _perf()
            spawns.append(t1 - t0)
            setups.append(t2 - t0)
            self.executor = executor
        self.executor.clear()
        spawns = sorted(spawns[POOL_WARMUPS:])
        return setups[POOL_WARMUPS:], {
            "parallel.spawn_s": spawns[len(spawns) // 2]
        }

    def build(self) -> None:
        """Per-setup construction beyond the pool (none by default)."""

    def prepare_traced(self) -> None:
        # Links bind ``sim.schedule`` when built, so fabrics the parent
        # keeps warm from untraced units would bypass the tracer: start
        # a fresh executor and warm it under the tracer instead.
        self.executor = RecordingExecutor(jobs=JOBS)
        self.executor.map(self.warm_tasks())
        self.executor.clear()

    def worker_pids(self) -> List[int]:
        if self.executor is None or self.executor.jobs <= 1:
            return []
        return get_shared_pool(self.executor.jobs).worker_pids()

    def close(self) -> None:
        close_shared_pool()

    def parallel_counts(self, delta: Dict[str, float]) -> Dict[str, float]:
        results = self.executor.results
        busy = sum(r.wall_time for r in results)
        events = sum(r.events for r in results)
        map_s = self.executor.map_seconds()
        return {
            "simulator.events": events,
            # The workers simulate: cost per event is the evaluation
            # time they report.
            "simulator.ns_per_event": busy / events * 1e9 if events else 0.0,
            "simulator.dropped": sum(r.dropped_packets for r in results),
            "parallel.tasks": delta["repro_executor_pool_tasks_total"],
            "parallel.map_s": map_s,
            "parallel.worker_busy_frac": (
                busy / (map_s * self.executor.jobs) if map_s else 0.0
            ),
            "parallel.task_busy_s": busy,
            "parallel.ipc_bytes": delta["repro_executor_ipc_shm_bytes_total"]
            + delta["repro_executor_ipc_pipe_bytes_total"],
            "parallel.retried_chunks": delta[
                "repro_executor_retried_chunks_total"
            ],
            "tuning.steps": delta["repro_sa_steps_total"],
            "tuning.accept_frac": (
                delta["repro_sa_accepts_total"] / delta["repro_sa_steps_total"]
                if delta["repro_sa_steps_total"]
                else 0.0
            ),
        }

    def eval_quality(self, scale: str) -> Tuple[List[float], List[float]]:
        fabric = SPECS[scale]
        slowdowns: List[float] = []
        finishes: List[float] = []
        for result in self.executor.results:
            slowdowns.extend(s for _r, s in slowdown_records(result.records, fabric))
            if result.records:
                finishes.append(_last_finish_ms(result.records))
        return slowdowns, finishes


#: The search's schedule: T 90 -> 30, cooling 0.85, 6 iterations per T.
SEARCH_SCHEDULE = AnnealingSchedule(
    initial_temp=90.0, final_temp=30.0, cooling_rate=0.85, iterations_per_temp=6
)
SEARCH_BATCH = 4

#: The search instance is the same for every ``--seed``.  Any seed that
#: reaches the search changes its random walk, and with it the work:
#: over five seeds, feeding the seed to the annealer RNG gave 4.3-6.1 s
#: per search and a pooled FCT p95 of 1.4-2.0; feeding only the fabric
#: seed gave 5.5-7.2 s and 1.5-5.0.  No regression bound holds that.
SEARCH_FABRIC_SEED = 1
SEARCH_RNG_SEED = 7


class AnnealSearch(PoolWorkload):
    """One full ``batched_anneal`` search on the small hadoop scenario."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.spec = ScenarioSpec(
            workload="hadoop",
            scale="small",
            duration=0.02,
            load=0.3,
            seed=SEARCH_FABRIC_SEED,
            workload_seed=HADOOP_WORKLOAD_SEED,
        )

    def inputs(self) -> list:
        return [SEARCH_RNG_SEED]

    def warm_scenario(self) -> ScenarioSpec:
        return self.spec

    def run_unit(self, rng_seed: int) -> Unit:
        executor = self.executor
        executor.clear()
        annealer = ImprovedAnnealer(
            default_space(), SEARCH_SCHEDULE, rng=random.Random(rng_seed)
        )
        before = _counters()
        t0 = _perf()
        result = batched_anneal(
            self.spec,
            annealer,
            default_params(),
            batch_size=SEARCH_BATCH,
            executor=executor,
        )
        t1 = _perf()
        delta = _delta(before)

        # The batch that first reached the final best (the seed
        # evaluation, outside any batch, when nothing beat it).
        evals_to_best, time_to_best = 1, (
            executor.batches[0][0] - t0 if executor.batches else t1 - t0
        )
        done = 1
        for _start, end, batch, _strategy in executor.batches:
            done += len(batch)
            if any(r.utility == result.best_utility for r in batch):
                evals_to_best, time_to_best = done, end - t0
                break
        problems = []
        if result.evaluations != 1 + len(executor.results):
            problems.append("evaluation count does not match the batches")
        if not 0.0 < result.best_utility <= 1.0:
            problems.append("best utility outside (0, 1]")
        slowdowns, finishes = self.eval_quality(self.spec.scale)
        counts = self.parallel_counts(delta)
        counts.update(
            {
                "tuning.evals_to_best": evals_to_best,
                "tuning.time_to_best_s": time_to_best,
            }
        )
        return Unit(
            wall=t1 - t0,
            digests={
                "search_digest": _sha(
                    [
                        repr(sorted(result.best_params.as_dict().items())),
                        repr(result.best_utility),
                        repr(result.utility_trace),
                    ]
                    + [r.fct_digest + r.interval_digest for r in executor.results]
                ),
            },
            work={
                "evals": result.evaluations,
                "batches": result.batches,
                "events": int(counts["simulator.events"]),
            },
            attempted=result.evaluations,
            failed=_pool_failures(delta),
            steps=_steps(t0, [batch[1] for batch in executor.batches]),
            utility=result.best_utility,
            slowdowns=slowdowns,
            last_finish_ms=finishes,
            counts=counts,
            path={
                **_default_path(self.spec),
                "executor_strategy": executor.strategies(),
                "jobs": executor.jobs,
            },
            problems=problems,
        )


# ---------------------------------------------------------------------------
# Control-plane day
# ---------------------------------------------------------------------------

CP_TENANTS = 4
CP_INTERVALS = 48
#: Staggered traffic shifts: tenants 0/1 and 2/3 fire one interval
#: apart, so two tenants' retunes are in flight together.
CP_SHIFTS = (
    TrafficShift(0, 6, TenantProfile(0.40, 0.10)),
    TrafficShift(1, 7, TenantProfile(0.35, 0.15)),
    TrafficShift(2, 24, TenantProfile(0.30, 0.20)),
    TrafficShift(3, 25, TenantProfile(0.45, 0.05)),
)


class ControlPlaneDay(PoolWorkload):
    """``ControlPlaneService`` over 32 shards x 32 agents, pool strategy."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = ControlPlaneConfig(
            topology=ShardTopology(
                n_shards=32,
                agents_per_shard=32,
                agents_per_rack=16,
                racks_per_pod=4,
                n_tenants=CP_TENANTS,
            ),
            traffic=TrafficConfig(
                seed=seed,
                profiles=(
                    TenantProfile(0.10, 0.15),
                    TenantProfile(0.12, 0.12),
                    TenantProfile(0.08, 0.20),
                    TenantProfile(0.15, 0.10),
                ),
                shifts=CP_SHIFTS,
            ),
            intervals=CP_INTERVALS,
            strategy="pool",
            jobs=JOBS,
        )

    def inputs(self) -> list:
        return [self.seed]

    def warm_scenario(self) -> ScenarioSpec:
        return self.config.scenario

    def build(self) -> None:
        ControlPlaneService(self.config, self.executor)

    def run_unit(self, _seed: int) -> Unit:
        executor = self.executor
        executor.clear()
        service = ControlPlaneService(self.config, executor)
        tuner = service.tuner
        stamps: List[float] = []
        most_active = [0]
        step = tuner.step

        def stamped(interval):
            most_active[0] = max(most_active[0], len(tuner.active_tenants))
            finished = step(interval)
            stamps.append(_perf())
            return finished

        tuner.step = stamped
        before = _counters()
        t0 = _perf()
        result = service.run()
        t1 = _perf()
        delta = _delta(before)

        problems = []
        if len(result.outcomes) != CP_INTERVALS:
            problems.append(f"{len(result.outcomes)} intervals, not {CP_INTERVALS}")
        if len(result.retunes) != len(CP_SHIFTS):
            problems.append(
                f"{len(result.retunes)} retunes for {len(CP_SHIFTS)} shifts"
            )
        if most_active[0] < 2:
            problems.append("no two tenants' retunes ran concurrently")
        slowdowns, finishes = self.eval_quality(self.config.scenario.scale)
        counts = self.parallel_counts(delta)
        counts.update(
            {
                "controlplane.retunes": len(result.retunes),
                "controlplane.tier_bytes": result.agent_rack_bytes
                + result.rack_pod_bytes
                + result.pod_global_bytes
                + result.param_update_bytes,
            }
        )
        utilities = [r.utility for r in result.retunes]
        return Unit(
            wall=t1 - t0,
            digests={"result_digest": result.result_digest()},
            work={
                "intervals": len(result.outcomes),
                "retunes": len(result.retunes),
                "evals": sum(r.evaluations for r in result.retunes),
            },
            attempted=len(result.outcomes),
            failed=_pool_failures(delta) + result.retried_chunks,
            steps=_steps(t0, stamps),
            utility=sum(utilities) / len(utilities) if utilities else 0.0,
            slowdowns=slowdowns,
            last_finish_ms=finishes,
            counts=counts,
            path={
                **_default_path(self.config.scenario),
                "executor_strategy": executor.strategies(),
                "collect_strategy": self.config.strategy,
                "jobs": executor.jobs,
            },
            problems=problems,
        )


WORKLOADS = {
    "paraleon-hadoop": paraleon_hadoop,
    "paraleon-alltoall": paraleon_alltoall,
    "anneal-search": AnnealSearch,
    "controlplane-day": ControlPlaneDay,
}
