"""Layer-attributed span tracing, installed from outside the program.

The traced run wraps public layer entry points of ``repro`` at the
class level and keeps an in-memory span stack.  Every wrapper pushes a
child-time accumulator, times the call, and on return charges
``duration - children`` to its span name as self time and ``duration``
to its parent's accumulator.  Spans are aggregated per name (calls,
inclusive seconds, self seconds) and written out once, when the
benchmark ends.

Simulator handlers are attributed per dispatched event: ``schedule``
and ``at`` are wrapped so each event runs through :meth:`_dispatch`,
which times the handler and charges it to the simulator module that
defines it (``simulator.switch``, ``simulator.dcqcn``, ...).  Links and
hosts bind ``sim.schedule`` when they are built, so the tracer must be
installed before the fabric it should see is constructed.

Nothing here runs unless :meth:`Tracer.install` is called; the timed
(untraced) runs never touch this module's wrappers.
"""

from __future__ import annotations

import os
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

#: Layers the benchmark attributes host time to, in report order.
LAYERS = (
    "simulator",
    "sketch",
    "monitor",
    "core",
    "tuning",
    "parallel",
    "controlplane",
)

#: Simulator modules reported by name; other handler modules are "other".
SIM_MODULES = ("engine", "switch", "link", "host", "dcqcn", "network")

_ACTIVE: Optional["Tracer"] = None


def _uninstall_in_child() -> None:
    # Pool workers forked while tracing is on must run unwrapped code:
    # their spans could never reach the parent's stack anyway.
    if _ACTIVE is not None:
        _ACTIVE.uninstall()


os.register_at_fork(after_in_child=_uninstall_in_child)


def _targets() -> List[Tuple[type, str, str]]:
    """``(class, attribute, span name)`` for every wrapped entry point."""
    from repro.controlplane.aggregate import HierarchicalAggregator
    from repro.controlplane.loops import MultiplexedTuner
    from repro.controlplane.service import ControlPlaneService
    from repro.controlplane.tenants import TenantTriggerBank
    from repro.core.controller import ParaleonController
    from repro.monitor.agent import SwitchAgent
    from repro.monitor.aggregate import FsdAggregator
    from repro.parallel.executor import SweepExecutor
    from repro.parallel.pool import WorkerPool
    from repro.simulator.engine import Simulator
    from repro.simulator.stats import StatsCollector
    from repro.sketch.elastic import ElasticSketch
    from repro.tuning.annealing import _AnnealerBase

    return [
        (Simulator, "run_until", "simulator.engine"),
        (Simulator, "run", "simulator.engine"),
        (StatsCollector, "end_interval", "simulator.other"),
        (ElasticSketch, "insert_batch", "sketch.insert"),
        (ElasticSketch, "observe_batch", "sketch.insert"),
        (ElasticSketch, "insert", "sketch.insert"),
        (ElasticSketch, "observe", "sketch.insert"),
        (ElasticSketch, "read_and_reset_arrays", "sketch.read"),
        (ElasticSketch, "read_and_reset", "sketch.read"),
        (SwitchAgent, "collect", "monitor.collect"),
        (FsdAggregator, "collect", "monitor.aggregate"),
        (FsdAggregator, "kl_from_previous", "core.controller.kl"),
        (ParaleonController, "on_interval", "core.controller"),
        (_AnnealerBase, "propose", "tuning.propose"),
        (_AnnealerBase, "propose_batch", "tuning.propose"),
        (_AnnealerBase, "feedback", "tuning.feedback"),
        (_AnnealerBase, "feedback_batch", "tuning.feedback"),
        (SweepExecutor, "map", "parallel.map"),
        (WorkerPool, "run", "parallel.pool"),
        # The service's collection phase has no public seam of its own;
        # its private method is the only boundary around it.
        (ControlPlaneService, "_collect", "controlplane.collect"),
        (HierarchicalAggregator, "begin_interval", "controlplane.ingest"),
        (HierarchicalAggregator, "ingest", "controlplane.ingest"),
        (HierarchicalAggregator, "aggregate", "controlplane.aggregate"),
        (TenantTriggerBank, "observe", "controlplane.trigger"),
        (MultiplexedTuner, "trigger", "controlplane.tune"),
        (MultiplexedTuner, "step", "controlplane.tune"),
    ]


def _handler_span(fn: Callable) -> str:
    module = getattr(fn, "__module__", None) or type(fn).__module__ or ""
    if module.startswith("repro.simulator."):
        leaf = module.rsplit(".", 1)[1]
        if leaf in SIM_MODULES:
            return "simulator." + leaf
    return "simulator.other"


class Tracer:
    """Span stack + per-name aggregates for one traced phase."""

    def __init__(self) -> None:
        #: span name -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self._stack: List[float] = []
        self._saved: List[Tuple[type, str, object]] = []
        self._handler_names: Dict[object, str] = {}

    # -- recording --------------------------------------------------------

    def _stat(self, name: str) -> List[float]:
        stat = self.spans.get(name)
        if stat is None:
            stat = self.spans[name] = [0, 0.0, 0.0]
        return stat

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stat = self._stat(name)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - t0
                children = stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - children
                if stack:
                    stack[-1] += duration

        traced.__wrapped__ = fn
        return traced

    def _dispatch(self, fn: Callable, *args) -> None:
        # Runs once per simulated event, so the span bookkeeping of
        # ``_wrap`` is repeated inline rather than called.
        key = getattr(fn, "__func__", fn)
        name = self._handler_names.get(key)
        if name is None:
            name = _handler_span(key)
            if isinstance(key, types.FunctionType):
                # Only plain functions are cached: bound builtins are
                # new objects per call and would grow the cache.
                self._handler_names[key] = name
        stat = self._stat(name)
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            fn(*args)
        finally:
            duration = time.perf_counter() - t0
            children = stack.pop()
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - children
            if stack:
                stack[-1] += duration

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        global _ACTIVE
        if self._saved:
            raise RuntimeError("tracer already installed")
        from repro.simulator.engine import Simulator

        for cls, attr, name in _targets():
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        dispatch = self._dispatch
        schedule, at = Simulator.__dict__["schedule"], Simulator.__dict__["at"]
        self._saved.append((Simulator, "schedule", schedule))
        self._saved.append((Simulator, "at", at))

        def traced_schedule(sim, delay, fn, *args):
            return schedule(sim, delay, dispatch, fn, *args)

        def traced_at(sim, when, fn, *args):
            return at(sim, when, dispatch, fn, *args)

        Simulator.schedule = traced_schedule
        Simulator.at = traced_at
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved = []
        if _ACTIVE is self:
            _ACTIVE = None

    def reset(self) -> None:
        """Zero every aggregate in place (wrappers hold references)."""
        for stat in self.spans.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0

    # -- reporting ----------------------------------------------------------

    def self_s(self, name: str) -> float:
        stat = self.spans.get(name)
        return stat[2] if stat else 0.0

    def calls(self, name: str) -> int:
        stat = self.spans.get(name)
        return int(stat[0]) if stat else 0

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds summed per layer (span-name prefix)."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, (_calls, _total, self_time) in self.spans.items():
            layer = name.split(".", 1)[0]
            totals[layer] += self_time
        return totals

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"calls": int(c), "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(self.spans.items())
        }
