"""Event scheduler for the discrete-event simulator.

The engine is a classic calendar built on :mod:`heapq`.  Events are
callables scheduled at an absolute simulated time; ties are broken by a
monotonically increasing sequence number so dispatch order is
deterministic and FIFO among same-time events.

Time is kept in *seconds* as a float.  All of the network code derives
its delays from rates and sizes, so the only requirement on the unit is
consistency; see :mod:`repro.simulator.units` for helpers.

Performance notes
-----------------

The heap stores ``(time, seq, handle)`` tuples rather than bare
handles: every sift inside :func:`heapq.heappush`/``heappop`` then
compares C-level tuples, and the ordering key ``(time, seq)`` is
unique per event, so the comparison never reaches the handle.
Handles are built with ``object.__new__`` plus four slot stores, with
no Python ``__init__`` frame.  (Making the heap entry itself a ``list``
subclass was measured 10% slower per event on CPython 3.11: indexing
and unpacking a list *subclass* skips the interpreter's specialized
list paths, which the dispatch loop hits on every event.)

Cancellation stays lazy (O(1)): a cancelled handle keeps its heap slot
with ``fn`` cleared and is skipped at dispatch time.  The engine counts
the cancelled entries parked in the heap and compacts — an in-place
filter plus :func:`heapq.heapify` — once they are the majority.  This
bounds memory under workloads that cancel and re-arm timers at a high
rate (the host egress wake timer does exactly that).  Compaction
preserves dispatch order exactly: ``(time, seq)`` is a total order, so
heapify rebuilds the order the lazy heap would have produced.

Dispatch clears a handle's ``sim`` slot, so cancelling an event that
has already run is a no-op and the cancelled count only ever counts
entries really in the heap.
"""

from __future__ import annotations

import heapq
import itertools
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Optional

#: Compact the heap once more than this many cancelled entries are
#: parked in it *and* they outnumber the live ones (>50% cancelled).
_COMPACT_MIN_CANCELLED = 64


class EventHandle:
    """Handle to a scheduled event, usable for cancellation.

    Cancellation is lazy: the entry stays in the heap with ``fn``
    cleared and is skipped at dispatch time.  This keeps cancellation
    O(1); the owning simulator counts cancellations and compacts the
    heap when they dominate.  ``sim`` is cleared on dispatch and on
    cancel, which makes a second cancel, or a cancel after the event
    ran, a no-op.
    """

    __slots__ = ("time", "fn", "args", "sim")

    @property
    def cancelled(self) -> bool:
        return self.fn is None

    def cancel(self) -> None:
        """Mark the event so the engine skips it at dispatch time."""
        sim = self.sim
        if sim is None:
            return  # already cancelled, or already dispatched
        # Drop references eagerly; a cancelled event can linger in the
        # heap for a while and we do not want it pinning packet objects.
        self.fn = None
        self.args = ()
        self.sim = None
        sim._cancelled += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.9f}, {state})"


_new_handle = object.__new__


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling in the past)."""


class Simulator:
    """Discrete-event simulation engine.

    Usage::

        sim = Simulator()
        sim.schedule(1e-6, callback, arg1, arg2)   # relative delay
        sim.at(0.5, callback)                      # absolute time
        sim.run_until(1.0)
    """

    def __init__(self) -> None:
        self._now = 0.0
        # Heap of (time, seq, EventHandle) — see module docstring.
        self._heap: list = []
        self._seq = itertools.count()
        self._next_seq = self._seq.__next__
        self._events_dispatched = 0
        self._cancelled = 0
        self._compactions = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_dispatched(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_dispatched

    @property
    def pending_events(self) -> int:
        """Events still in the heap, including lazily cancelled ones."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still parked in the heap."""
        return self._cancelled

    @property
    def compactions(self) -> int:
        """Heap compaction passes performed so far."""
        return self._compactions

    def telemetry_snapshot(self) -> dict:
        """Engine health counters for the telemetry layer.

        Cheap (four attribute reads); sampled at monitor-interval
        boundaries rather than per event so the dispatch loop stays
        untouched.
        """
        return {
            "events_dispatched": self._events_dispatched,
            "heap_size": len(self._heap),
            "cancelled_pending": self._cancelled,
            "compactions": self._compactions,
        }

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        handle = _new_handle(EventHandle)
        handle.time = time = self._now + delay
        handle.fn = fn
        handle.args = args
        handle.sim = self
        heap = self._heap
        _heappush(heap, (time, self._next_seq(), handle))
        cancelled = self._cancelled
        if cancelled > _COMPACT_MIN_CANCELLED and cancelled * 2 >= len(heap):
            self._compact()
        return handle

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}, which is before now={self._now!r}"
            )
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.fn = fn
        handle.args = args
        handle.sim = self
        heap = self._heap
        _heappush(heap, (time, self._next_seq(), handle))
        cancelled = self._cancelled
        if cancelled > _COMPACT_MIN_CANCELLED and cancelled * 2 >= len(heap):
            self._compact()
        return handle

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        """Dispatch the next event.  Returns False if none remain."""
        self._drop_cancelled_head()
        if not self._heap:
            return False
        time, _seq, ev = _heappop(self._heap)
        ev.sim = None  # dispatched: a later cancel() is a no-op
        self._now = time
        self._events_dispatched += 1
        ev.fn(*ev.args)
        return True

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events with time <= ``end_time``.

        Returns the number of events dispatched by this call.  The clock
        is advanced to ``end_time`` on return even if the heap drained
        early, so back-to-back ``run_until`` calls see consistent time.
        ``max_events`` is a safety valve against runaway event storms.
        """
        if end_time < self._now:
            raise SimulationError(
                f"run_until({end_time!r}) is before now={self._now!r}"
            )
        dispatched = 0
        # Hot loop: bind everything to locals.  ``self._heap`` is only
        # ever mutated in place (push/pop/compact), so the local alias
        # stays valid across callbacks that schedule or cancel.  The
        # first entry past ``end_time`` is popped and pushed back once
        # per call instead of peeking at the head on every event; its
        # key is unique, so the dispatch order is unchanged.
        heap = self._heap
        pop = _heappop
        limit = -1 if max_events is None else max(max_events, 1)
        self._running = True
        try:
            while heap:
                entry = pop(heap)
                time, _seq, ev = entry
                if time > end_time:
                    _heappush(heap, entry)
                    break
                fn = ev.fn
                if fn is None:
                    self._cancelled -= 1
                    continue
                ev.sim = None  # dispatched: a later cancel() is a no-op
                self._now = time
                dispatched += 1
                fn(*ev.args)
                if dispatched == limit:
                    break
        finally:
            self._running = False
            self._events_dispatched += dispatched
        if self._now < end_time:
            self._now = end_time
        return dispatched

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event heap drains (or ``max_events``).

        Shares the hot-loop structure of :meth:`run_until`: cancelled
        entries are skipped with the same ``_cancelled`` bookkeeping,
        and a cancel-dominated heap is compacted on the way instead of
        being popped one dead entry at a time.
        """
        dispatched = 0
        heap = self._heap
        pop = _heappop
        limit = -1 if max_events is None else max(max_events, 1)
        self._running = True
        try:
            while heap:
                time, _seq, ev = pop(heap)
                fn = ev.fn
                if fn is None:
                    self._cancelled -= 1
                    cancelled = self._cancelled
                    if (
                        cancelled > _COMPACT_MIN_CANCELLED
                        and cancelled * 2 >= len(heap)
                    ):
                        self._compact()
                    continue
                ev.sim = None  # dispatched: a later cancel() is a no-op
                self._now = time
                dispatched += 1
                fn(*ev.args)
                if dispatched == limit:
                    break
        finally:
            self._running = False
            self._events_dispatched += dispatched
        return dispatched

    def reset(self) -> None:
        """Return the engine to its just-constructed state.

        Part of the warm-rebuild path: a worker that evaluates many
        candidates on the same scenario resets the engine (and the
        network on top of it) instead of constructing new objects.
        The event sequence counter restarts from zero so tie-breaking
        among same-time events — and therefore dispatch order — is
        identical to a freshly built simulator.
        """
        if self._running:
            raise SimulationError("cannot reset a running simulator")
        self._now = 0.0
        for _time, _seq, handle in self._heap:
            handle.sim = None  # a later cancel() of a dropped event is a no-op
        self._heap.clear()
        self._seq = itertools.count()
        self._next_seq = self._seq.__next__
        self._events_dispatched = 0
        self._cancelled = 0
        self._compactions = 0

    def _drop_cancelled_head(self) -> None:
        heap = self._heap
        while heap and heap[0][2].fn is None:
            _heappop(heap)
            self._cancelled -= 1

    def _compact(self) -> None:
        """Rebuild the heap in place without its cancelled entries."""
        heap = self._heap
        # In-place so aliases held by a running ``run_until`` stay live.
        heap[:] = [entry for entry in heap if entry[2].fn is not None]
        heapq.heapify(heap)
        self._cancelled = 0
        self._compactions += 1
