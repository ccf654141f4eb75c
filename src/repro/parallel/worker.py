"""Persistent pool worker: the child half of :mod:`repro.parallel.pool`.

A worker process is forked once per pool lifetime, not once per sweep.
It initializes once — imports, a zeroed telemetry registry, a warm
fabric cache — and then serves chunks over its duplex pipe until told
to stop, which is what amortizes the spawn + warm-build cost the old
per-sweep ``ProcessPoolExecutor`` paid on every ``map()``.

Message protocol (parent → worker):

* ``("chunk", chunk_id, [EvalTask, ...])`` — evaluate, reply.
* ``("stop",)`` / pipe EOF — exit cleanly.

Replies (worker → parent):

* ``("done", chunk_id, "shm", nbytes)`` — the pickled
  ``(results, registry_snapshot)`` payload was written into the
  worker's shared-memory result slot; only this tiny header crosses
  the pipe.
* ``("done", chunk_id, "pipe", payload)`` — the payload outgrew the
  slot (or no slot could be created) and ships inline instead.

The registry snapshot rides with every chunk and is reset on capture,
so each chunk's metric delta is merged into the parent exactly once —
the same fork-merge contract the old pool honoured.  The registry is
also reset at worker startup: a fork inherits whatever totals the
parent had accumulated, and shipping those back would double-count.
"""

from __future__ import annotations

import multiprocessing
import pickle
from collections import OrderedDict
from multiprocessing import connection as mp_connection
from typing import Optional, Tuple

from repro.parallel.tasks import (
    EvalResult,
    EvalTask,
    Schedule,
    ScenarioSpec,
    build_scenario,
    evaluate_task,
    extract_schedule,
)
from repro.telemetry.registry import get_registry

#: Test hook, called with ``(chunk_id, tasks)`` before a chunk is
#: evaluated.  Forked workers inherit a monkeypatched value — the
#: crashed-worker tests use it to kill a worker mid-chunk.
_CRASH_HOOK = None

#: Distinct scenarios whose warm fabrics a process keeps alive.
_WARM_CAPACITY = 4


class WarmCache:
    """Per-process warm fabrics, keyed by scenario fingerprint.

    For static workloads the flow arrival schedule is extracted once
    and a bare fabric built once; every evaluation then resets and
    replays instead of reconstructing topology.  Small LRU: sweeps are
    dominated by one scenario, SA ablations interleave a handful.
    """

    def __init__(self, capacity: int = _WARM_CAPACITY):
        self.capacity = capacity
        self._entries: "OrderedDict[str, Tuple[Optional[Schedule], object]]" = (
            OrderedDict()
        )

    def lookup(self, spec: ScenarioSpec) -> Tuple[Optional[Schedule], object]:
        """(schedule, warm network) for ``spec``, building on first use."""
        fp = spec.fingerprint()
        if fp in self._entries:
            self._entries.move_to_end(fp)
            return self._entries[fp]
        schedule = extract_schedule(spec)
        network = None
        if schedule is not None:
            # Empty schedule -> bare fabric; flows are replayed per
            # task.  Built in the environment's engine mode, which
            # unpinned tasks resolve too, so the warm network survives
            # evaluate_task's mode-mismatch guard.
            network, _, _ = build_scenario(spec, spec.seed, [])
        self._entries[fp] = (schedule, network)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return schedule, network


def evaluate_warm(task: EvalTask, warm: WarmCache) -> EvalResult:
    """Evaluate ``task`` against the warm fabric for its scenario."""
    schedule, network = warm.lookup(task.scenario)
    return evaluate_task(task, schedule, network=network)


def run_task(task, warm: WarmCache, state: dict):
    """Dispatch one pool task: EvalTask or anything with ``run_in_worker``.

    The pool is duck-typed: a task that defines ``run_in_worker(state)``
    (e.g. a control-plane :class:`~repro.controlplane.shards.ShardTask`)
    runs through that hook with the worker's process-local ``state``
    dict; everything else is an :class:`EvalTask` served from the warm
    fabric cache.  ``state`` must be used only as a pure cache so that
    inline recomputation (work stealing, crashed-worker retry) yields
    identical results.
    """
    runner = getattr(task, "run_in_worker", None)
    if runner is not None:
        return runner(state)
    return evaluate_warm(task, warm)


def _worker_main(
    worker_id: int,
    conn,
    slot_name: Optional[str],
    slot_size: int,
) -> None:
    """Worker process entry point: serve chunks until stopped."""
    # Fork copies the parent's live counters; deltas must start at zero.
    get_registry().reset()
    slot = None
    if slot_name is not None:
        try:
            from multiprocessing import shared_memory

            slot = shared_memory.SharedMemory(name=slot_name)
        except (ImportError, OSError, ValueError):
            slot = None  # pipe fallback, decided per reply below
    warm = WarmCache()
    # Process-local scratch for duck-typed tasks (pure cache only; see
    # run_task).  Kept a local, not a module global, for fork safety.
    state: dict = {}
    # A forked sibling inherits our parent-side pipe end, so a dead
    # parent does not reliably EOF the pipe.  Waiting on the parent's
    # sentinel alongside the pipe catches that case: if the parent dies
    # (even SIGKILL, where no atexit runs), the sentinel fires and the
    # worker exits instead of lingering as an orphan.
    parent = multiprocessing.parent_process()
    waitables = [conn] if parent is None else [conn, parent.sentinel]
    try:
        while True:
            try:
                ready = mp_connection.wait(waitables)
                if conn not in ready:
                    break  # parent died without saying stop
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent went away
            if message is None or message[0] == "stop":
                break
            _, chunk_id, tasks = message
            if _CRASH_HOOK is not None:
                _CRASH_HOOK(chunk_id, tasks)
            results = [run_task(task, warm, state) for task in tasks]
            payload = pickle.dumps(
                (results, get_registry().snapshot(reset=True)),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            if slot is not None and len(payload) <= slot_size:
                slot.buf[: len(payload)] = payload
                conn.send(("done", chunk_id, "shm", len(payload)))
            else:
                conn.send(("done", chunk_id, "pipe", payload))
    finally:
        if slot is not None:
            slot.close()
        conn.close()
