"""Packet model for the RoCEv2 simulator.

A single ``Packet`` class covers data and control traffic; the
``kind`` field selects behaviour at the receiving device.  Control
packets (CNP, probe, probe-ack) ride a separate strict-priority queue
and are *not* subject to PFC pause, mirroring the usual deployment
where congestion notifications use a dedicated traffic class.

The ``sketch_marked`` flag models the unused TOS bit Paraleon uses to
guarantee each packet is inserted into exactly one sketch along its
path (DESIGN.md, Keypoint 1).
"""

from __future__ import annotations

import itertools
from enum import IntEnum

from repro.simulator.units import CONTROL_PACKET_BYTES, HEADER_BYTES

INITIAL_TTL = 64

#: Free-list of recycled Packet objects.  A packet-level simulator
#: allocates and discards one object per packet per flow; recycling
#: them cuts a measurable slice of allocator work out of the hot path.
#: The pool only ever yields a packet whose every field has been
#: re-initialised, so recycled packets are indistinguishable from fresh
#: ones (including a fresh ``pkt_id``).
_FREELIST: list = []
_FREELIST_MAX = 8192


def freelist_occupancy() -> int:
    """Packets currently parked in the free-list (telemetry gauge)."""
    return len(_FREELIST)


class PacketKind(IntEnum):
    """What a packet is, which decides how devices treat it."""

    DATA = 0
    CNP = 1
    PROBE = 2
    PROBE_ACK = 3
    ACK = 4  # per-packet delay feedback (Swift-style CC only)


#: Kinds that ride the unpausable strict-priority queue.  Plain module
#: constants: looking a member up on the enum class costs ~100 ns, far
#: more than the comparison itself, and these tests run once per packet
#: per hop.
CONTROL_KINDS = frozenset((PacketKind.CNP, PacketKind.PROBE_ACK, PacketKind.ACK))
DATA = PacketKind.DATA

_packet_ids = itertools.count()


class Packet:
    """A packet in flight.

    Attributes
    ----------
    flow_id:
        Flow (QP) the packet belongs to; -1 for probes.
    src, dst:
        Host ids of the original sender and the final destination.
    seq:
        Byte offset of the first payload byte within the flow.
    payload:
        Payload bytes carried (0 for control packets).
    wire_size:
        Bytes occupying links and buffers (payload + header).
    ecn:
        Congestion Experienced mark set by a switch.
    sketch_marked:
        TOS bit: the packet has already been inserted into a sketch.
    ttl:
        Decremented at each switch hop; used for hop counting.
    sent_at:
        Time the packet left the source NIC (probe RTT measurement).
    last:
        True for the final packet of a flow (completion detection).
    """

    __slots__ = (
        "pkt_id",
        "kind",
        "flow_id",
        "src",
        "dst",
        "seq",
        "payload",
        "wire_size",
        "ecn",
        "sketch_marked",
        "ttl",
        "sent_at",
        "last",
        "ingress_port",
        "probe_hops",
        "_pooled",
    )

    def __init__(
        self,
        kind: PacketKind,
        flow_id: int,
        src: int,
        dst: int,
        payload: int = 0,
        seq: int = 0,
        sent_at: float = 0.0,
        last: bool = False,
    ):
        self.pkt_id = next(_packet_ids)
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.payload = payload
        if kind == DATA:
            self.wire_size = payload + HEADER_BYTES
        else:
            self.wire_size = CONTROL_PACKET_BYTES
        self.ecn = False
        self.sketch_marked = False
        self.ttl = INITIAL_TTL
        self.sent_at = sent_at
        self.last = last
        # Transient per-hop state: which port the packet entered the
        # current switch on (for shared-buffer / PFC accounting).
        self.ingress_port = -1
        # Forward-path hop count copied into a PROBE_ACK so the prober
        # can compute the Swift-style base path delay.
        self.probe_hops = 0
        self._pooled = False

    def release(self) -> None:
        """Return this packet to the free-list.

        Only the device that finally consumes a packet (the destination
        host, or a switch dropping it) may call this; after release the
        object can be handed out again by :func:`data_packet` with all
        fields re-initialised.  Idempotent.
        """
        if self._pooled:
            return
        if len(_FREELIST) < _FREELIST_MAX:
            self._pooled = True
            _FREELIST.append(self)

    @property
    def is_control(self) -> bool:
        """Control packets use the unpausable strict-priority queue.

        CNPs, ACKs and probe replies ride the lossless high-priority
        class; PROBE packets deliberately share the *data* class so
        measured RTT reflects data-path queueing and PFC pauses.
        """
        return self.kind in CONTROL_KINDS

    def hops_taken(self) -> int:
        """Switch hops traversed so far (TTL decrements)."""
        return INITIAL_TTL - self.ttl

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.kind.name}, flow={self.flow_id}, "
            f"{self.src}->{self.dst}, seq={self.seq}, wire={self.wire_size})"
        )


def data_packet(
    flow_id: int, src: int, dst: int, payload: int, seq: int, last: bool
) -> Packet:
    """Convenience constructor for a DATA packet (free-list backed)."""
    if _FREELIST:
        packet = _FREELIST.pop()
        packet.pkt_id = next(_packet_ids)
        packet.kind = DATA
        packet.flow_id = flow_id
        packet.src = src
        packet.dst = dst
        packet.seq = seq
        packet.payload = payload
        packet.wire_size = payload + HEADER_BYTES
        packet.ecn = False
        packet.sketch_marked = False
        packet.ttl = INITIAL_TTL
        packet.sent_at = 0.0
        packet.last = last
        packet.ingress_port = -1
        packet.probe_hops = 0
        packet._pooled = False
        return packet
    return Packet(DATA, flow_id, src, dst, payload=payload, seq=seq, last=last)


def cnp_packet(flow_id: int, src: int, dst: int) -> Packet:
    """CNP from the notification point back to the reaction point.

    ``src`` is the NP (receiver of the marked data), ``dst`` the RP.
    """
    return Packet(PacketKind.CNP, flow_id, src, dst)
