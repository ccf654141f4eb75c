"""Host with an RDMA NIC: sender QPs, Notification Point, probes.

The host's single uplink is served by a *pull-based* egress: instead of
letting QPs push packets into an unbounded NIC queue, the serializer
asks the set of active QPs for the next packet whose DCQCN pacing time
has arrived.  This mirrors how an RNIC's rate limiters actually gate
the DMA engine and keeps the event count proportional to packets sent.

Roles implemented here:

* **RP** (sender): one :class:`~repro.simulator.dcqcn.DcqcnRp` per QP;
  pacing interval is ``wire_bits / rc`` measured from the start of each
  transmission.
* **NP** (receiver): on an ECN-marked data packet, send a CNP back to
  the sender, at most once per ``min_time_between_cnps`` per flow.
* **Prober**: emits small PROBE packets that ride the *data* class (so
  measured RTT sees queueing and PFC) and are echoed as high-priority
  PROBE_ACKs carrying the forward hop count, Swift-style.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, Optional

from repro.simulator.dcqcn import DcqcnParams, DcqcnRp
from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.flow import Flow
from repro.simulator.link import Link, PauseState
from repro.simulator.packet import (
    DATA,
    Packet,
    PacketKind,
    cnp_packet,
    data_packet,
)
from repro.simulator.units import DEFAULT_MTU, HEADER_BYTES

_INF = float("inf")
_CNP = PacketKind.CNP
_PROBE = PacketKind.PROBE
_PROBE_ACK = PacketKind.PROBE_ACK
_ACK = PacketKind.ACK
_next_allowed = attrgetter("next_allowed")


@dataclass
class HostConfig:
    """Per-host NIC configuration."""

    mtu: int = DEFAULT_MTU

    def validate(self) -> None:
        if self.mtu <= 0:
            raise ValueError("mtu must be positive")


class SenderQp:
    """Sender-side queue pair: a flow plus its DCQCN reaction point."""

    __slots__ = ("flow", "rp", "next_allowed")

    def __init__(self, flow: Flow, rp: DcqcnRp, now: float):
        self.flow = flow
        self.rp = rp
        self.next_allowed = now


class HostEgress:
    """Pull-based serializer for the host uplink.

    Serialization and delivery are inline: one engine event when the
    packet's last bit leaves the NIC (``_finish``), which schedules its
    arrival at the far end of the link.
    """

    def __init__(self, sim: Simulator, link: Link, mtu: int):
        self.sim = sim
        self.link = link
        self.mtu = mtu
        # Per-packet caches: the scheduler and the link's constants.
        self._schedule = sim.schedule
        self._bits_per_rate = link.bits_per_rate
        self._prop_delay = link.prop_delay
        self._dst_receive = link.dst.receive
        self._dst_port = link.dst_port
        self.pause = PauseState(sim)
        self.control: list[Packet] = []
        self.qps: Dict[int, SenderQp] = {}
        self.busy = False
        self._wake: Optional[EventHandle] = None
        self._on_sender_done: Optional[Callable[[SenderQp], None]] = None
        # Data-plane bytes only (excludes CNPs/probes); feeds O_TP.
        self.data_tx_bytes = 0

    # -- admission -----------------------------------------------------

    def send_control(self, packet: Packet) -> None:
        self.control.append(packet)
        self.kick()

    def add_qp(self, qp: SenderQp) -> None:
        self.qps[qp.flow.flow_id] = qp
        self.kick()

    def set_paused(self, paused: bool) -> None:
        changed = self.pause.set_paused(paused)
        if changed and not paused:
            self.kick()

    # -- scheduling ----------------------------------------------------

    def kick(self) -> None:
        """Start the next transmission if the serializer is idle.

        Control packets go first; otherwise the QP with the earliest
        pacing time sends one MTU if that time has come, or a wake is
        armed for it.
        """
        if self.busy:
            return
        now = self.sim.now
        if self.control:
            packet = self.control.pop(0)
            qp = None
        else:
            qps = self.qps
            if self.pause.paused or not qps:
                return
            # First QP with the smallest pacing time, in insertion order.
            qp = min(qps.values(), key=_next_allowed)
            earliest = qp.next_allowed
            if earliest > now:
                if earliest != _INF:
                    self._schedule_wake(earliest)
                return
            flow = qp.flow
            remaining = flow.remaining_to_send
            payload = min(self.mtu, remaining)
            packet = data_packet(
                flow.flow_id,
                flow.src,
                flow.dst,
                payload=payload,
                seq=flow.bytes_sent,
                last=(payload == remaining),
            )
            packet.sent_at = now  # echoed by Swift-style ACKs
            flow.bytes_sent += payload
        self.busy = True
        self._schedule(
            packet.wire_size * self._bits_per_rate, self._finish, packet, qp, now
        )

    def _schedule_wake(self, at_time: float) -> None:
        if self._wake is not None:
            if self._wake.time <= at_time:
                return  # an earlier (or equal) wake is already pending
            self._wake.cancel()
        self._wake = self.sim.at(at_time, self._wake_fired)

    def _wake_fired(self) -> None:
        self._wake = None
        self.kick()

    def reset(self) -> None:
        """Drop all QPs, queued control traffic and pacing state."""
        for packet in self.control:
            packet.release()
        self.control.clear()
        for qp in self.qps.values():
            qp.rp.stop()
        self.qps.clear()
        self.busy = False
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None
        self.pause.reset()
        self.data_tx_bytes = 0
        self.link.reset()

    def _finish(self, packet: Packet, qp: Optional[SenderQp], start: float) -> None:
        wire = packet.wire_size
        link = self.link
        link.tx_bytes += wire
        link.tx_packets += 1
        self._schedule(self._prop_delay, self._dst_receive, packet, self._dst_port)
        if qp is not None:
            self.data_tx_bytes += wire
            rp = qp.rp
            rp.on_packet_sent(wire)
            # Pace from the start of this transmission at the current rate.
            qp.next_allowed = start + wire * 8.0 / rp.rc
            flow = qp.flow
            if flow.remaining_to_send == 0:
                rp.stop()
                self.qps.pop(flow.flow_id, None)
                if self._on_sender_done is not None:
                    self._on_sender_done(qp)
        self.busy = False
        self.kick()


class Host:
    """A server with one RNIC attached to its ToR switch."""

    def __init__(
        self,
        sim: Simulator,
        host_id: int,
        name: str,
        params: DcqcnParams,
        config: Optional[HostConfig] = None,
        cc_mode: str = "dcqcn",
        swift_params=None,
    ):
        if cc_mode not in ("dcqcn", "swift"):
            raise ValueError(f"unknown cc_mode {cc_mode!r}")
        self.sim = sim
        self.host_id = host_id
        self.name = name
        self.config = config or HostConfig()
        self.config.validate()
        self.cc_mode = cc_mode
        self.swift_params = swift_params

        self.egress: Optional[HostEgress] = None
        self.line_rate = 0.0
        # Propagation delay of the link delivering into this host (set
        # when the fabric is wired); bounds the DCQCN timer periods.
        self.ingress_delay = 0.0

        # Vectorized RP lane bank (hybrid-engine `lanes`/`hybrid`
        # modes).  Installed by the Network (:meth:`use_lane_bank`);
        # when set, DCQCN QPs draw their reaction point from the bank
        # instead of allocating a scalar DcqcnRp.
        self.lane_bank = None
        self.params = params

        # Notification Point state: flow id -> last CNP emission time.
        self._np_last_cnp: Dict[int, float] = {}

        # Callbacks wired by the Network.
        self.on_data: Optional[Callable[[Packet], None]] = None
        self.on_rtt_sample: Optional[Callable[[int, int, float, int], None]] = None

        # Counters.
        self.rx_bytes = 0
        self.rx_data_packets = 0
        self.cnps_sent = 0
        self.probes_sent = 0

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------

    @property
    def params(self) -> DcqcnParams:
        """The DCQCN parameters every role on this host reads."""
        return self._params

    @params.setter
    def params(self, params: DcqcnParams) -> None:
        """Install ``params``, first settling the lazy DCQCN timers.

        Each QP replays the timer ticks due by now under the outgoing
        parameters, so every tick uses the parameters (``dce_tcp_g``,
        ``dce_tcp_rtt``, the increase knobs) in force when it was due.
        """
        self._check_timer_lead(params)
        if self.egress is not None and self.cc_mode == "dcqcn":
            for qp in self.egress.qps.values():
                qp.rp.sync()
        self._params = params

    def _check_timer_lead(self, params: DcqcnParams) -> None:
        """Lazy DCQCN timers need periods longer than any event lead.

        A timer tick due at ``t`` was armed one period before ``t``.  The
        events that read RP state at ``t`` were scheduled later: a CNP
        one ingress propagation delay before, and, for the lane bank's
        lazy increase timer, a finished transmission one serialization
        delay before.  Only then does the tick precede them, which is
        the order the lazy replay assumes.
        """
        if self.cc_mode != "dcqcn":
            return
        checks = [("dce_tcp_rtt", self.ingress_delay)]
        if self.lane_bank is not None:
            lead = self.ingress_delay
            if self.line_rate > 0:
                mtu_bits = (self.config.mtu + HEADER_BYTES) * 8.0
                lead = max(lead, mtu_bits / self.line_rate)
            checks.append(("rpg_time_reset", lead))
        for name, lead in checks:
            period = getattr(params, name)
            if not period > lead:
                raise ValueError(
                    f"{self.name}: {name} ({period!r} s) must exceed "
                    f"{lead!r} s, the longest lead of an event that reads "
                    f"the lazy DCQCN timers"
                )

    def use_lane_bank(self, bank) -> None:
        """Draw DCQCN reaction points from ``bank`` (``lanes``/``hybrid``)."""
        self.lane_bank = bank
        self._check_timer_lead(self._params)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_link(self, link: Link) -> int:
        """Attach the uplink; a host has exactly one port (index 0)."""
        if self.egress is not None:
            raise RuntimeError(f"{self.name} already has an uplink")
        self.egress = HostEgress(self.sim, link, self.config.mtu)
        self.line_rate = link.rate_bps
        self._check_timer_lead(self._params)
        return 0

    def set_ingress_peer(self, port: int, peer_egress: object, prop_delay: float) -> None:
        """Record the delay of the link into the host (port 0).

        Hosts send no PFC frames, so the peer egress is not kept; the
        delay bounds the DCQCN timer periods (see :meth:`_check_timer_lead`).
        """
        self.ingress_delay = prop_delay
        self._check_timer_lead(self._params)

    def reset(self, params: DcqcnParams) -> None:
        """Return the host to its just-built state (warm-rebuild path).

        ``params`` replaces the installed parameter object — the
        network passes a fresh copy of its configured default, undoing
        whatever the previous evaluation's tuner dispatched.
        """
        if self.egress is not None:
            self.egress.reset()
        self.params = params
        self._np_last_cnp.clear()
        self.rx_bytes = 0
        self.rx_data_packets = 0
        self.cnps_sent = 0
        self.probes_sent = 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def start_flow(self, flow: Flow) -> SenderQp:
        """Create a QP for ``flow`` and begin transmitting now."""
        if self.egress is None:
            raise RuntimeError(f"{self.name} has no uplink")
        if flow.src != self.host_id:
            raise ValueError(
                f"flow {flow.flow_id} has src {flow.src}, not {self.host_id}"
            )
        if self.cc_mode == "swift":
            from repro.simulator.swift import SwiftCc, SwiftParams

            swift_params = self.swift_params or SwiftParams()
            rp = SwiftCc(self.sim, self.line_rate, lambda: swift_params)
        elif self.lane_bank is not None:
            rp = self.lane_bank.new_rp(self.line_rate, lambda: self._params)
        else:
            rp = DcqcnRp(self.sim, self.line_rate, lambda: self._params)
        rp.start()
        qp = SenderQp(flow, rp, self.sim.now)
        self.egress.add_qp(qp)
        return qp

    def send_probe(self, dst: int) -> None:
        """Emit one RTT probe toward ``dst`` (data-class, small)."""
        if self.egress is None:
            raise RuntimeError(f"{self.name} has no uplink")
        probe = Packet(
            _PROBE, -1, self.host_id, dst, sent_at=self.sim.now
        )
        self.probes_sent += 1
        self.egress.send_control(probe)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def receive(self, packet: Packet, in_port: int) -> None:
        kind = packet.kind
        if kind == DATA:
            self.rx_bytes += packet.payload
            self.rx_data_packets += 1
            if self.cc_mode == "swift":
                self._send_ack(packet)
            elif packet.ecn:
                self._maybe_send_cnp(packet)
            if packet.last:
                self._np_last_cnp.pop(packet.flow_id, None)
            if self.on_data is not None:
                self.on_data(packet)
            # The destination host is the packet's final consumer.
            packet.release()
        elif kind == _CNP:
            self._receive_cnp(packet)
        elif kind == _PROBE:
            self._receive_probe(packet)
        elif kind == _PROBE_ACK:
            self._receive_probe_ack(packet)
        elif kind == _ACK:
            self._receive_ack(packet)

    def _send_ack(self, packet: Packet) -> None:
        """Swift NP role: echo the transmit timestamp per data packet."""
        ack = Packet(
            _ACK,
            packet.flow_id,
            self.host_id,
            packet.src,
            sent_at=packet.sent_at,
        )
        ack.probe_hops = packet.hops_taken()
        self.egress.send_control(ack)

    def _receive_ack(self, packet: Packet) -> None:
        qp = self.egress.qps.get(packet.flow_id) if self.egress else None
        if qp is not None:
            delay = self.sim.now - packet.sent_at
            qp.rp.on_ack(delay, packet.probe_hops)
        packet.release()

    def _maybe_send_cnp(self, packet: Packet) -> None:
        """NP role: per-flow CNP pacing at ``min_time_between_cnps``."""
        now = self.sim.now
        last = self._np_last_cnp.get(packet.flow_id)
        if last is not None and now - last < self._params.min_time_between_cnps:
            return
        self._np_last_cnp[packet.flow_id] = now
        self.cnps_sent += 1
        self.egress.send_control(cnp_packet(packet.flow_id, self.host_id, packet.src))

    def _receive_cnp(self, packet: Packet) -> None:
        qp = self.egress.qps.get(packet.flow_id) if self.egress else None
        if qp is not None:
            qp.rp.on_cnp()
        # CNPs for already-finished flows are silently ignored, like a
        # real RNIC tearing down the rate limiter with the QP.
        packet.release()

    def _receive_probe(self, packet: Packet) -> None:
        ack = Packet(
            _PROBE_ACK,
            -1,
            self.host_id,
            packet.src,
            sent_at=packet.sent_at,
        )
        ack.probe_hops = packet.hops_taken()
        self.egress.send_control(ack)
        packet.release()

    def _receive_probe_ack(self, packet: Packet) -> None:
        if self.on_rtt_sample is not None:
            rtt = self.sim.now - packet.sent_at
            self.on_rtt_sample(self.host_id, packet.src, rtt, packet.probe_hops)
        packet.release()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def total_paused_time(self) -> float:
        if self.egress is None:
            return 0.0
        return self.egress.pause.paused_time_until_now()

    def active_qp_count(self) -> int:
        return 0 if self.egress is None else len(self.egress.qps)

    def qp_sample(self) -> dict:
        """Aggregate DCQCN state across this host's QPs (read-only).

        ``getattr`` defaults keep this safe for non-DCQCN reaction
        points (e.g. Swift) that carry no alpha or CNP counters.
        """
        n = 0
        rate_sum = alpha_sum = alpha_max = 0.0
        rate_min = 0.0
        cnps = 0
        if self.egress is not None:
            for qp in self.egress.qps.values():
                rp = qp.rp
                if not getattr(rp, "active", True):
                    continue
                rc = float(getattr(rp, "rc", self.line_rate))
                rate_sum += rc
                rate_min = rc if n == 0 else min(rate_min, rc)
                alpha = float(getattr(rp, "alpha", 0.0))
                alpha_sum += alpha
                alpha_max = max(alpha_max, alpha)
                cnps += int(getattr(rp, "cnps_received", 0))
                n += 1
        return {
            "n": n, "rate_sum": rate_sum, "rate_min": rate_min,
            "alpha_sum": alpha_sum, "alpha_max": alpha_max, "cnps": cnps,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name}, qps={self.active_qp_count()})"
