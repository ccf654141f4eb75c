"""Lazy DCQCN alpha decay must match the eager timer it replaces, bit for bit.

:class:`~repro.simulator.dcqcn.DcqcnRp` keeps only the next alpha-decay
tick time and replays the ticks that are due whenever alpha is read.
The oracle below is the eager alpha timer it replaced: one engine event
per ``dce_tcp_rtt`` that decays alpha unless a CNP arrived since the
last tick.  The property drives both through the same random sequence
of CNPs, sent bytes, elapsed time and ``Host.params`` swaps (including
swaps and CNPs landing exactly on a tick instant) and compares every
observable with ``==`` after each step.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.dcqcn import DcqcnParams, DcqcnRp
from repro.simulator.engine import Simulator
from repro.simulator.flow import Flow
from repro.simulator.host import Host, SenderQp
from repro.simulator.link import Link
from repro.simulator.units import gbps, mbps, us

LINE = gbps(10.0)
PROP = us(2.0)
N_QPS = 3


class EagerAlphaRp(DcqcnRp):
    """Oracle: the eager ``dce_tcp_rtt`` alpha timer, one event per tick."""

    def start(self) -> None:
        if self._active:
            return
        super().start()
        self._alpha_next = math.inf  # never replay: the timer below decays
        self._arm_alpha_timer()

    def stop(self) -> None:
        super().stop()
        self._alpha_timer.cancel()

    def _arm_alpha_timer(self) -> None:
        self._alpha_timer = self.sim.schedule(
            self.params_ref().dce_tcp_rtt, self._alpha_tick
        )

    def _alpha_tick(self) -> None:
        if not self._active:
            return
        if not self._cnp_seen:
            g = self.params_ref().dce_tcp_g
            self._alpha = (1.0 - g) * self._alpha
        self._cnp_seen = False
        self._arm_alpha_timer()


class _Sink:
    def receive(self, packet, in_port):  # pragma: no cover - never sent to
        raise AssertionError("the property drives RPs directly")


def _host(kind: str):
    """A wired host with ``N_QPS`` started QPs of the given RP kind.

    QPs are registered without kicking the egress, so nothing is sent:
    the property drives every RP input itself.
    """
    sim = Simulator()
    host = Host(sim, 0, f"h-{kind}", DcqcnParams())
    host.attach_link(Link(sim, "up", host, _Sink(), 0, LINE, PROP))
    host.set_ingress_peer(0, None, PROP)
    rps = []
    for k in range(N_QPS):
        params_ref = lambda: host.params  # noqa: E731 - read at use time
        if kind == "eager":
            rp = EagerAlphaRp(sim, LINE, params_ref)
        else:
            rp = DcqcnRp(sim, LINE, params_ref)
        rp.start()
        flow = Flow(k, 0, 1, 10**9, 0.0)
        host.egress.qps[k] = SenderQp(flow, rp, 0.0)
        rps.append(rp)
    return sim, host, rps


def _observe(rp):
    return (rp.alpha, rp.rc, rp.rt, rp.rate_cuts, rp.cnps_received)


#: Parameter sets a swap installs: dce_tcp_g and dce_tcp_rtt move, and
#: so do the increase knobs.
SWAPS = (
    {},
    {"dce_tcp_g": 1.0 / 16.0, "dce_tcp_rtt": us(20.0)},
    {"dce_tcp_g": 1.0 / 1024.0, "dce_tcp_rtt": us(130.0)},
    {"dce_tcp_g": 0.25, "dce_tcp_rtt": us(55.0), "rpg_time_reset": us(60.0)},
    {"rpg_time_reset": us(900.0), "rpg_ai_rate": mbps(300.0), "rpg_threshold": 1},
)

_steps = st.lists(
    st.tuples(
        # How far to advance before acting.
        st.one_of(
            st.just(("none", 0.0)),
            st.tuples(st.just("dt"), st.floats(min_value=0.0, max_value=3e-3)),
            st.just(("alpha_tick", 0.0)),   # exactly onto the next decay tick
            st.just(("incr_tick", 0.0)),    # exactly onto the next increase tick
        ),
        # What to do there.
        st.one_of(
            st.just(("read", 0)),
            st.tuples(st.just("cnp"), st.integers(0, N_QPS - 1)),
            st.tuples(st.just("bytes"), st.integers(0, N_QPS - 1)),
            st.tuples(st.just("swap"), st.integers(0, len(SWAPS) - 1)),
        ),
        st.integers(0, N_QPS - 1),  # whose tick to land on
    ),
    min_size=1,
    max_size=40,
)


@settings(deadline=None, max_examples=60)
@given(steps=_steps)
def test_lazy_timers_match_the_eager_oracle(steps):
    hosts = {kind: _host(kind) for kind in ("eager", "lazy")}
    eager_sim, _eager_host, oracle = hosts["eager"]
    for (advance, amount), (action, arg), who in steps:
        now = eager_sim.now
        if advance == "dt":
            target = now + amount
        elif advance == "alpha_tick":
            target = oracle[who]._alpha_timer.time
        elif advance == "incr_tick":
            target = oracle[who]._increase_timer.time
        else:
            target = now
        for sim, host, rps in hosts.values():
            sim.run_until(target)
            if action == "cnp":
                rps[arg].on_cnp()
            elif action == "bytes":
                rps[arg].on_packet_sent(host.params.rpg_byte_reset // 3 + 1)
            elif action == "swap":
                host.params = DcqcnParams().copy(**SWAPS[arg])
        expected = [_observe(rp) for rp in oracle]
        assert [_observe(rp) for rp in hosts["lazy"][2]] == expected


def test_cnp_on_a_tick_instant_replays_the_tick_first():
    """Tie rule: a decay tick due now precedes a CNP arriving now."""
    sim, host, (rp, *_rest) = _host("lazy")
    osim, _ohost, (oracle, *_orest) = _host("eager")
    tick = oracle._alpha_timer.time
    for s in (sim, osim):
        s.run_until(tick)
    rp.on_cnp()
    oracle.on_cnp()
    assert rp.alpha == oracle.alpha
    assert rp.alpha != DcqcnParams().initial_alpha


def test_params_swap_replays_due_ticks_under_the_old_gain():
    sim, host, rps = _host("lazy")
    sim.run_until(us(55.0) * 10)  # ten ticks due, none replayed yet
    host.params = DcqcnParams().copy(dce_tcp_g=0.5)
    g = DcqcnParams().dce_tcp_g
    expected = 1.0
    for _ in range(10):
        expected = (1.0 - g) * expected
    assert rps[0].alpha == expected


@pytest.mark.parametrize("name", ["dce_tcp_rtt"])
def test_timer_periods_must_exceed_event_lead(name):
    sim, host, _rps = _host("lazy")
    with pytest.raises(ValueError, match=name):
        host.params = DcqcnParams().copy(**{name: PROP / 2})


def test_scalar_hosts_do_not_bound_the_increase_period():
    """The increase timer is eager, so its period has no lower bound."""
    sim, host, _rps = _host("lazy")
    host.params = DcqcnParams().copy(rpg_time_reset=PROP / 2)
    assert host.params.rpg_time_reset == PROP / 2
