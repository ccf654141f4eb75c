"""DCQCN: parameter set and per-QP Reaction Point state machine.

The implementation follows Zhu et al., *Congestion Control for
Large-Scale RDMA Deployments* (SIGCOMM 2015), with the parameter
surface named after the NVIDIA ConnectX knobs the paper tunes
(``rpg_ai_rate``, ``rpg_hai_rate``, ``rate_reduce_monitor_period``,
``min_time_between_cnps``, ECN thresholds ``k_min``/``k_max``/``p_max``
and friends).

Reaction Point (sender QP) state:

* ``rc`` — current sending rate, ``rt`` — target rate, ``alpha`` —
  congestion estimate in ``(0, 1]``.
* On a CNP: ``alpha ← (1-g)·alpha + g`` always; a *rate cut*
  (``rt ← rc``, ``rc ← rc·(1 − alpha/2)``) happens at most once per
  ``rate_reduce_monitor_period``; all increase stages reset on a cut.
* Alpha decay timer (``dce_tcp_rtt``): each interval without a CNP,
  ``alpha ← (1-g)·alpha``.  Nothing reads alpha between CNPs, so the
  timer is lazy: the RP keeps only the next tick time and replays the
  ticks that are due whenever alpha is read (:func:`replay_alpha_decay`).
* Rate increase is driven by a byte counter (``rpg_byte_reset``) and a
  timer (``rpg_time_reset``).  Each expiry bumps its stage counter and
  triggers an increase event: *fast recovery* while
  ``max(stages) < rpg_threshold`` (``rc ← (rc+rt)/2``), *additive*
  while only one stage crossed (``rt += rpg_ai_rate``), and *hyper*
  once both crossed (``rt += i·rpg_hai_rate``).

The Notification Point (receiver) and Congestion Point (switch) logic
live in :mod:`repro.simulator.host` and :mod:`repro.simulator.switch`;
both read their knobs from the same :class:`DcqcnParams` object so a
tuner can swap one object per device and affect all three roles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.units import kb, mbps, us


@dataclass
class DcqcnParams:
    """Full DCQCN parameter set (RNIC and switch sides).

    Defaults approximate the NVIDIA out-of-box configuration scaled to
    this simulator's 10 Gbps reference fabric; see
    ``repro.tuning.parameters`` for the tuning space, the expert
    setting (Table I of the paper), and the scale-down rationale.
    """

    # --- Rate increase (RP) ---
    rpg_ai_rate: float = mbps(20.0)      # additive increase step (bps)
    rpg_hai_rate: float = mbps(200.0)    # hyper increase step (bps)
    rpg_time_reset: float = us(300.0)    # increase timer period (s)
    rpg_byte_reset: int = kb(32.0)       # increase byte counter (bytes)
    rpg_threshold: int = 5               # stages before AI/HAI
    rpg_min_rate: float = mbps(10.0)     # rate floor (bps)

    # --- Rate decrease (RP) ---
    rate_reduce_monitor_period: float = us(50.0)  # min gap between cuts (s)
    min_dec_fac: float = 0.5             # max fractional cut per event

    # --- Alpha update (RP) ---
    dce_tcp_g: float = 1.0 / 256.0       # EWMA gain g
    dce_tcp_rtt: float = us(55.0)        # alpha decay timer (s)
    initial_alpha: float = 1.0

    # --- Notification point (receiver RNIC) ---
    min_time_between_cnps: float = us(50.0)  # per-flow CNP pacing (s)

    # --- Congestion point (switch ECN marking) ---
    k_min: int = kb(20.0)                # start-marking threshold (bytes)
    k_max: int = kb(200.0)               # all-marking threshold (bytes)
    p_max: float = 0.1                   # marking probability at k_max

    def validate(self) -> None:
        """Raise ValueError on an internally inconsistent setting."""
        if self.rpg_ai_rate <= 0 or self.rpg_hai_rate <= 0:
            raise ValueError("increase rates must be positive")
        if self.rpg_time_reset <= 0 or self.rpg_byte_reset <= 0:
            raise ValueError("increase timer/byte counter must be positive")
        if self.rpg_threshold < 1:
            raise ValueError("rpg_threshold must be >= 1")
        if not 0.0 < self.dce_tcp_g <= 1.0:
            raise ValueError("dce_tcp_g must be in (0, 1]")
        if self.dce_tcp_rtt <= 0:
            raise ValueError("dce_tcp_rtt must be positive")
        if not 0.0 < self.initial_alpha <= 1.0:
            raise ValueError("initial_alpha must be in (0, 1]")
        if not 0.0 < self.min_dec_fac <= 1.0:
            raise ValueError("min_dec_fac must be in (0, 1]")
        if self.k_min < 0 or self.k_max <= 0:
            raise ValueError("ECN thresholds must be non-negative")
        if self.k_min >= self.k_max:
            raise ValueError(f"k_min ({self.k_min}) must be < k_max ({self.k_max})")
        if not 0.0 < self.p_max <= 1.0:
            raise ValueError("p_max must be in (0, 1]")
        if self.min_time_between_cnps < 0:
            raise ValueError("min_time_between_cnps must be >= 0")
        if self.rate_reduce_monitor_period < 0:
            raise ValueError("rate_reduce_monitor_period must be >= 0")

    def copy(self, **overrides) -> "DcqcnParams":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, values: dict) -> "DcqcnParams":
        return cls(**values)


def replay_alpha_decay(
    alpha: float,
    cnp_seen: bool,
    next_tick: float,
    now: float,
    g: float,
    period: float,
) -> Tuple[float, float]:
    """Replay the alpha-decay ticks due at or before ``now``.

    Returns ``(alpha, next_tick)`` after running, in order, every tick
    an eager ``dce_tcp_rtt`` timer would have dispatched by ``now``:
    the first due tick only clears ``cnp_seen`` if a CNP arrived since
    the last tick, every other one applies ``alpha ← (1−g)·alpha``, and
    each advances ``next_tick`` by ``period``.  These are the eager
    timer's float steps, so the result is bit-identical.  The caller
    guarantees ``next_tick <= now`` and clears its CNP flag afterwards.

    Including ticks due at exactly ``now`` matches the eager dispatch
    order: such a tick was scheduled ``period`` (55 µs) ago, before any
    CNP arriving now (scheduled one propagation delay ago, 2–5 µs) or
    any read at an interval boundary.  Hosts check ``period`` against
    that delay (:meth:`repro.simulator.host.Host._check_timer_lead`).
    ``g`` and ``period`` must be the parameters in force at every
    replayed tick; hosts replay before a controller swaps them.
    """
    decay = 1.0 - g
    if cnp_seen:
        next_tick += period
    while next_tick <= now:
        alpha = decay * alpha
        next_tick += period
    return alpha, next_tick


class DcqcnRp:
    """Reaction Point state for one sender QP.

    The QP reads its knobs through ``params_ref`` (a zero-argument
    callable returning the host's current :class:`DcqcnParams`) so that
    a controller dispatching new parameters affects live QPs
    immediately, as on real RNICs.

    Alpha decays lazily (see :func:`replay_alpha_decay`): ``alpha`` is
    a property that replays due ticks first, and :meth:`sync` must run
    before the parameters behind ``params_ref`` change.
    """

    def __init__(
        self,
        sim: Simulator,
        line_rate_bps: float,
        params_ref: Callable[[], DcqcnParams],
        on_rate_change: Optional[Callable[[], None]] = None,
    ):
        self.sim = sim
        self.line_rate = line_rate_bps
        self.params_ref = params_ref
        self.on_rate_change = on_rate_change

        params = params_ref()
        self.rc = line_rate_bps          # current rate
        self.rt = line_rate_bps          # target rate
        self._alpha = params.initial_alpha
        self._alpha_next = math.inf      # next decay tick; inf = idle
        self._cnp_seen = False           # CNP since the last decay tick

        self._byte_counter = 0
        self._byte_stage = 0
        self._time_stage = 0
        self._increase_iter = 0          # consecutive hyper-increase count
        self._last_cut_time = -float("inf")

        self._increase_timer: Optional[EventHandle] = None
        self._active = False

        # Counters for diagnostics / tests.
        self.cnps_received = 0
        self.rate_cuts = 0
        self.increase_events = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Activate timers when the QP begins transmitting."""
        if self._active:
            return
        self._active = True
        self._alpha_next = self.sim.now + self.params_ref().dce_tcp_rtt
        self._arm_increase_timer()

    def stop(self) -> None:
        """Cancel timers when the flow finishes."""
        self.sync()
        self._active = False
        self._alpha_next = math.inf
        if self._increase_timer is not None:
            self._increase_timer.cancel()
            self._increase_timer = None

    @property
    def active(self) -> bool:
        return self._active

    @property
    def alpha(self) -> float:
        """Congestion estimate, with every decay tick due by now applied."""
        self.sync()
        return self._alpha

    # ------------------------------------------------------------------
    # CNP handling (rate decrease + alpha increase)
    # ------------------------------------------------------------------

    def on_ack(self, delay: float, hops: int = 0) -> None:
        """DCQCN is ECN-driven; delay feedback is a no-op.

        Present for interface parity with delay-based controllers
        (:class:`repro.simulator.swift.SwiftCc`).
        """

    def on_cnp(self) -> None:
        """React to a congestion notification packet."""
        if not self._active:
            return
        now = self.sim.now
        if self._alpha_next <= now:
            self._replay_alpha()
        params = self.params_ref()
        g = params.dce_tcp_g
        self._alpha = (1.0 - g) * self._alpha + g
        self._cnp_seen = True
        self.cnps_received += 1

        if now - self._last_cut_time >= params.rate_reduce_monitor_period:
            self._cut_rate(params)
            self._last_cut_time = now

    def _cut_rate(self, params: DcqcnParams) -> None:
        # Only called from on_cnp, which has just replayed due ticks.
        self.rt = self.rc
        factor = max(1.0 - self._alpha / 2.0, 1.0 - params.min_dec_fac)
        self.rc = max(self.rc * factor, params.rpg_min_rate)
        self.rate_cuts += 1
        # A cut resets the whole increase state machine.
        self._byte_counter = 0
        self._byte_stage = 0
        self._time_stage = 0
        self._increase_iter = 0
        self._arm_increase_timer()
        if self.on_rate_change is not None:
            self.on_rate_change()

    # ------------------------------------------------------------------
    # Alpha decay (lazy timer)
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Apply the decay ticks due by now under the current parameters.

        Hosts call this before swapping the parameter object, so every
        tick uses the ``dce_tcp_g``/``dce_tcp_rtt`` in force when it was
        due.
        """
        if self._alpha_next <= self.sim.now:
            self._replay_alpha()

    def _replay_alpha(self) -> None:
        params = self.params_ref()
        self._alpha, self._alpha_next = replay_alpha_decay(
            self._alpha,
            self._cnp_seen,
            self._alpha_next,
            self.sim.now,
            params.dce_tcp_g,
            params.dce_tcp_rtt,
        )
        self._cnp_seen = False

    # ------------------------------------------------------------------
    # Rate increase: byte counter and timer stages
    # ------------------------------------------------------------------

    def on_packet_sent(self, wire_bytes: int) -> None:
        """Account transmitted bytes toward the increase byte counter."""
        if not self._active:
            return
        self._byte_counter += wire_bytes
        params = self.params_ref()
        while self._byte_counter >= params.rpg_byte_reset:
            self._byte_counter -= params.rpg_byte_reset
            self._byte_stage += 1
            self._increase_event(params)

    def _arm_increase_timer(self) -> None:
        if self._increase_timer is not None:
            self._increase_timer.cancel()
        params = self.params_ref()
        self._increase_timer = self.sim.schedule(
            params.rpg_time_reset, self._increase_tick
        )

    def _increase_tick(self) -> None:
        if not self._active:
            return
        self._time_stage += 1
        self._increase_event(self.params_ref())
        # Re-arm without cancelling: this handle has just been dispatched.
        self._increase_timer = self.sim.schedule(
            self.params_ref().rpg_time_reset, self._increase_tick
        )

    def _increase_event(self, params: DcqcnParams) -> None:
        """One fast-recovery / additive / hyper increase step."""
        self.increase_events += 1
        threshold = params.rpg_threshold
        if max(self._byte_stage, self._time_stage) < threshold:
            pass  # fast recovery: rt unchanged
        elif min(self._byte_stage, self._time_stage) < threshold:
            self.rt += params.rpg_ai_rate
        else:
            self._increase_iter += 1
            self.rt += self._increase_iter * params.rpg_hai_rate
        self.rt = min(self.rt, self.line_rate)
        self.rc = min((self.rc + self.rt) / 2.0, self.line_rate)
        self.rc = max(self.rc, params.rpg_min_rate)
        if self.on_rate_change is not None:
            self.on_rate_change()


class DcqcnLaneBank:
    """Vectorized RP timer plane: all QPs' state in numpy lanes.

    The scalar :class:`DcqcnRp` schedules one engine event per QP per
    rate-increase period (``rpg_time_reset``) plus one cancel-and-rearm
    per rate cut.  The bank keeps the same state in float64/int64
    arrays, one lane per QP, and runs *both* timers lazily: a lane's
    ``alpha_deadline``/``incr_deadline`` hold its next due ticks, and
    every read of the lane (a CNP, a sent packet, ``rc``/``rt``/
    ``alpha``, a parameter swap, ``qp_sample``) first replays the ticks
    due by now, inclusive (see :func:`replay_alpha_decay` for the tie
    argument; a rate-increase tick was armed one ``rpg_time_reset``
    ahead, which hosts check against their event leads).  One coalesced
    engine event, at most every
    ``sweep_interval``, advances all due lanes in one array step so
    replay loops stay short.  No callback observes a tick, so when it
    is applied does not matter, only that it is applied before a read.

    Bit-identity contract (the ``lanes`` gating mode): every arithmetic
    operation below is the same IEEE-double expression the scalar class
    evaluates, element-wise, and a replay runs a lane's ticks in order
    with the parameters in force when they were due (hosts replay before
    a parameter swap), so lane-mode runs produce byte-identical digests.
    """

    #: Minimum spacing of the bank's coalesced sweep events (s).
    sweep_interval = 1e-3

    def __init__(self, sim: Simulator, capacity: int = 16):
        self.sim = sim
        self._cap = max(4, capacity)
        n = self._cap
        self.rc = np.zeros(n)
        self.rt = np.zeros(n)
        self.alpha = np.zeros(n)
        self.line_rate = np.zeros(n)
        self.byte_counter = np.zeros(n, dtype=np.int64)
        self.byte_stage = np.zeros(n, dtype=np.int64)
        self.time_stage = np.zeros(n, dtype=np.int64)
        self.incr_iter = np.zeros(n, dtype=np.int64)
        self.last_cut = np.full(n, -np.inf)
        self.cnp_seen = np.zeros(n, dtype=bool)
        self.active = np.zeros(n, dtype=bool)
        # Next due tick of each lazy timer; inf = disarmed.
        self.alpha_deadline = np.full(n, np.inf)
        self.incr_deadline = np.full(n, np.inf)
        self.cnps_received = np.zeros(n, dtype=np.int64)
        self.rate_cuts = np.zeros(n, dtype=np.int64)
        self.increase_events = np.zeros(n, dtype=np.int64)
        self.params_ref: List[Optional[Callable[[], DcqcnParams]]] = [None] * n
        self._free: List[int] = list(range(n - 1, -1, -1))
        self._n = 0                      # high-water mark of lanes in use
        self._event: Optional[EventHandle] = None
        # Diagnostics: sweep events vs lane ticks they advanced.
        self.ticks = 0
        self.lanes_fired = 0

    # -- lane lifecycle -------------------------------------------------

    def _grow(self) -> None:
        old = self._cap
        new = old * 2
        for name in (
            "rc", "rt", "alpha", "line_rate", "byte_counter", "byte_stage",
            "time_stage", "incr_iter", "last_cut", "cnp_seen", "active",
            "alpha_deadline", "incr_deadline", "cnps_received", "rate_cuts",
            "increase_events",
        ):
            arr = getattr(self, name)
            fill = np.inf if name in ("alpha_deadline", "incr_deadline") else (
                -np.inf if name == "last_cut" else 0
            )
            grown = np.full(new, fill, dtype=arr.dtype)
            grown[:old] = arr
            setattr(self, name, grown)
        self.params_ref.extend([None] * old)
        self._free.extend(range(new - 1, old - 1, -1))
        self._cap = new

    def new_rp(
        self,
        line_rate_bps: float,
        params_ref: Callable[[], DcqcnParams],
    ) -> "LanedDcqcnRp":
        """Allocate a lane initialized exactly like ``DcqcnRp.__init__``."""
        if not self._free:
            self._grow()
        i = self._free.pop()
        self._n = max(self._n, i + 1)
        params = params_ref()
        self.rc[i] = line_rate_bps
        self.rt[i] = line_rate_bps
        self.alpha[i] = params.initial_alpha
        self.line_rate[i] = line_rate_bps
        self.byte_counter[i] = 0
        self.byte_stage[i] = 0
        self.time_stage[i] = 0
        self.incr_iter[i] = 0
        self.last_cut[i] = -np.inf
        self.cnp_seen[i] = False
        self.active[i] = False
        self.alpha_deadline[i] = np.inf
        self.incr_deadline[i] = np.inf
        self.cnps_received[i] = 0
        self.rate_cuts[i] = 0
        self.increase_events[i] = 0
        self.params_ref[i] = params_ref
        return LanedDcqcnRp(self, i)

    def start(self, i: int) -> None:
        if self.active[i]:
            return
        self.active[i] = True
        params = self.params_ref[i]()
        now = self.sim.now
        self.alpha_deadline[i] = now + params.dce_tcp_rtt
        self.incr_deadline[i] = now + params.rpg_time_reset
        if self._event is None:
            self._arm_sweep(now)

    def stop(self, i: int) -> None:
        self.sync(i)
        self.active[i] = False
        self.alpha_deadline[i] = np.inf
        self.incr_deadline[i] = np.inf
        self._free.append(i)
        self.params_ref[i] = None

    # -- per-packet paths (scalar, one lane) ----------------------------

    def on_cnp(self, i: int) -> None:
        if not self.active[i]:
            return
        self.sync(i)
        now = self.sim.now
        params = self.params_ref[i]()
        g = params.dce_tcp_g
        self.alpha[i] = (1.0 - g) * self.alpha[i] + g
        self.cnp_seen[i] = True
        self.cnps_received[i] += 1
        if now - self.last_cut[i] >= params.rate_reduce_monitor_period:
            self._cut_rate(i, params, now)
            self.last_cut[i] = now

    def _cut_rate(self, i: int, params: DcqcnParams, now: float) -> None:
        # Only called from on_cnp, which has just replayed due ticks.
        rc = self.rc[i]
        self.rt[i] = rc
        factor = max(1.0 - self.alpha[i] / 2.0, 1.0 - params.min_dec_fac)
        self.rc[i] = max(rc * factor, params.rpg_min_rate)
        self.rate_cuts[i] += 1
        self.byte_counter[i] = 0
        self.byte_stage[i] = 0
        self.time_stage[i] = 0
        self.incr_iter[i] = 0
        self.incr_deadline[i] = now + params.rpg_time_reset

    def on_packet_sent(self, i: int, wire_bytes: int) -> None:
        if not self.active[i]:
            return
        now = self.sim.now
        if self.incr_deadline[i] <= now:
            self._replay_incr(i, now)
        counter = int(self.byte_counter[i]) + wire_bytes
        params = self.params_ref[i]()
        reset = params.rpg_byte_reset
        while counter >= reset:
            counter -= reset
            self.byte_stage[i] += 1
            self._increase_event_scalar(i, params)
        self.byte_counter[i] = counter

    def _increase_event_scalar(self, i: int, params: DcqcnParams) -> None:
        self.increase_events[i] += 1
        threshold = params.rpg_threshold
        byte_stage = self.byte_stage[i]
        time_stage = self.time_stage[i]
        rt = self.rt[i]
        if max(byte_stage, time_stage) < threshold:
            pass  # fast recovery: rt unchanged
        elif min(byte_stage, time_stage) < threshold:
            rt = rt + params.rpg_ai_rate
        else:
            self.incr_iter[i] += 1
            rt = rt + self.incr_iter[i] * params.rpg_hai_rate
        line = self.line_rate[i]
        rt = min(rt, line)
        rc = min((self.rc[i] + rt) / 2.0, line)
        rc = max(rc, params.rpg_min_rate)
        self.rt[i] = rt
        self.rc[i] = rc

    # -- lazy timers ------------------------------------------------------

    def sync(self, i: int) -> None:
        """Apply lane ``i``'s alpha and increase ticks due by now."""
        now = self.sim.now
        if self.alpha_deadline[i] <= now:
            self._replay_alpha(i, now)
        if self.incr_deadline[i] <= now:
            self._replay_incr(i, now)

    def _replay_alpha(self, i: int, now: float) -> None:
        params = self.params_ref[i]()
        alpha, next_tick = replay_alpha_decay(
            float(self.alpha[i]),
            bool(self.cnp_seen[i]),
            float(self.alpha_deadline[i]),
            now,
            params.dce_tcp_g,
            params.dce_tcp_rtt,
        )
        self.alpha[i] = alpha
        self.alpha_deadline[i] = next_tick
        self.cnp_seen[i] = False

    def _replay_incr(self, i: int, now: float) -> None:
        """Run lane ``i``'s due increase ticks, as ``DcqcnRp._increase_tick``."""
        params = self.params_ref[i]()
        period = params.rpg_time_reset
        deadline = float(self.incr_deadline[i])
        while deadline <= now:
            self.time_stage[i] += 1
            self._increase_event_scalar(i, params)
            deadline += period
        self.incr_deadline[i] = deadline

    # -- coalesced sweep ---------------------------------------------------

    def _arm_sweep(self, now: float) -> None:
        """Schedule the next sweep, if any lane has an increase tick due."""
        n = self._n
        next_t = self.incr_deadline[:n].min() if n else np.inf
        if next_t != np.inf:
            when = max(float(next_t), now + self.sweep_interval)
            self._event = self.sim.at(when, self._tick)

    def _tick(self) -> None:
        self._event = None
        now = self.sim.now
        self.ticks += 1
        due = np.flatnonzero(self.incr_deadline[: self._n] <= now)
        while due.size:
            self.lanes_fired += int(due.size)
            self._incr_fire(due)
            due = due[self.incr_deadline[due] <= now]
        self._arm_sweep(now)

    def _gather(self, idx: np.ndarray, names: tuple) -> List[np.ndarray]:
        """Live per-lane parameter columns for the fired lanes."""
        refs = self.params_ref
        cols = [np.empty(idx.size) for _ in names]
        for k, i in enumerate(idx):
            params = refs[i]()
            for c, name in enumerate(names):
                cols[c][k] = getattr(params, name)
        return cols

    def _incr_fire(self, idx: np.ndarray) -> None:
        """One increase tick on each lane in ``idx`` (all due)."""
        if idx.size == 1:
            # Scalar fast path; mirrors `_increase_event_scalar` plus
            # the timer re-arm, exactly like `DcqcnRp._increase_tick`.
            i = int(idx[0])
            params = self.params_ref[i]()
            self.time_stage[i] += 1
            self._increase_event_scalar(i, params)
            self.incr_deadline[i] = self.incr_deadline[i] + params.rpg_time_reset
            return
        ai, hai, threshold, period, line_min = self._gather(
            idx,
            (
                "rpg_ai_rate", "rpg_hai_rate", "rpg_threshold",
                "rpg_time_reset", "rpg_min_rate",
            ),
        )
        self.time_stage[idx] += 1
        self.increase_events[idx] += 1
        byte_stage = self.byte_stage[idx]
        time_stage = self.time_stage[idx]
        hi = np.maximum(byte_stage, time_stage)
        lo = np.minimum(byte_stage, time_stage)
        additive = (hi >= threshold) & (lo < threshold)
        hyper = lo >= threshold
        rt = self.rt[idx]
        # x + 0.0 == x for the positive rates involved, so masked adds
        # are bit-identical to the scalar branchy version.
        rt = rt + np.where(additive, ai, 0.0)
        incr_iter = self.incr_iter[idx] + hyper
        rt = rt + np.where(hyper, incr_iter * hai, 0.0)
        line = self.line_rate[idx]
        rt = np.minimum(rt, line)
        rc = np.minimum((self.rc[idx] + rt) / 2.0, line)
        rc = np.maximum(rc, line_min)
        self.incr_iter[idx] = incr_iter
        self.rt[idx] = rt
        self.rc[idx] = rc
        self.incr_deadline[idx] = self.incr_deadline[idx] + period

    def qp_sample(self) -> dict:
        """Aggregate rate/alpha/CNP state over active lanes (read-only).

        One masked numpy reduction per field — the flight recorder's
        vectorized alternative to walking every host's QP table.
        """
        n = self._n
        now = self.sim.now
        due = (self.alpha_deadline[:n] <= now) | (self.incr_deadline[:n] <= now)
        for i in np.flatnonzero(due):
            self.sync(int(i))
        mask = self.active[:n]
        count = int(np.count_nonzero(mask))
        if count == 0:
            return {
                "n": 0, "rate_sum": 0.0, "rate_min": 0.0,
                "alpha_sum": 0.0, "alpha_max": 0.0, "cnps": 0,
            }
        rc = self.rc[:n][mask]
        alpha = self.alpha[:n][mask]
        return {
            "n": count,
            "rate_sum": float(rc.sum()),
            "rate_min": float(rc.min()),
            "alpha_sum": float(alpha.sum()),
            "alpha_max": float(alpha.max()),
            "cnps": int(self.cnps_received[:n][mask].sum()),
        }

    def reset(self) -> None:
        """Drop every lane and the pending tick (warm-rebuild path)."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self.active[:] = False
        self.alpha_deadline[:] = np.inf
        self.incr_deadline[:] = np.inf
        self.params_ref = [None] * self._cap
        self._free = list(range(self._cap - 1, -1, -1))
        self._n = 0
        self.ticks = 0
        self.lanes_fired = 0


class LanedDcqcnRp:
    """``DcqcnRp``-compatible view over one :class:`DcqcnLaneBank` lane.

    Hosts hand these to :class:`~repro.simulator.host.SenderQp` in
    ``lanes``/``hybrid`` engine modes; the per-packet interface is
    identical to the scalar class, only timer bookkeeping moves into
    the bank, which replays a lane's due ticks whenever it is read.
    """

    __slots__ = ("bank", "lane")

    def __init__(self, bank: DcqcnLaneBank, lane: int):
        self.bank = bank
        self.lane = lane

    # -- rate state -----------------------------------------------------

    @property
    def rc(self) -> float:
        self.bank.sync(self.lane)
        return float(self.bank.rc[self.lane])

    @property
    def rt(self) -> float:
        self.bank.sync(self.lane)
        return float(self.bank.rt[self.lane])

    @property
    def alpha(self) -> float:
        self.bank.sync(self.lane)
        return float(self.bank.alpha[self.lane])

    @property
    def active(self) -> bool:
        return bool(self.bank.active[self.lane])

    # -- counters (diagnostics / tests) ---------------------------------

    @property
    def cnps_received(self) -> int:
        return int(self.bank.cnps_received[self.lane])

    @property
    def rate_cuts(self) -> int:
        return int(self.bank.rate_cuts[self.lane])

    @property
    def increase_events(self) -> int:
        self.bank.sync(self.lane)
        return int(self.bank.increase_events[self.lane])

    # -- lifecycle / events ---------------------------------------------

    def start(self) -> None:
        self.bank.start(self.lane)

    def stop(self) -> None:
        if self.bank.active[self.lane]:
            self.bank.stop(self.lane)

    def on_ack(self, delay: float, hops: int = 0) -> None:
        """ECN-driven like the scalar RP; delay feedback is a no-op."""

    def on_cnp(self) -> None:
        self.bank.on_cnp(self.lane)

    def sync(self) -> None:
        self.bank.sync(self.lane)

    def on_packet_sent(self, wire_bytes: int) -> None:
        self.bank.on_packet_sent(self.lane, wire_bytes)


def ecn_mark_probability(queue_bytes: int, params: DcqcnParams) -> float:
    """RED-style marking curve used at the Congestion Point.

    0 below ``k_min``; linear up to ``p_max`` at ``k_max``; 1 above
    ``k_max`` (every packet marked), per the DCQCN paper.
    """
    if queue_bytes <= params.k_min:
        return 0.0
    if queue_bytes >= params.k_max:
        return 1.0
    span = params.k_max - params.k_min
    return params.p_max * (queue_bytes - params.k_min) / span
