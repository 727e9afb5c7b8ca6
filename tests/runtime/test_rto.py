"""The RTT-adaptive retransmit timer (RFC 6298 estimator + Karn's rule).

* :class:`RttEstimator` follows RFC 6298's update arithmetic exactly
  (α = 1/8, β = 1/4, K = 4; the first sample sets SRTT = R, RTTVAR = R/2);
* ``RuntimeConfig.ack_timeout`` is the RTO before any sample *and* its
  ceiling, so an estimated timer only ever fires earlier than a fixed
  ``ack_timeout`` one;
* ``GossipPeer._send_reliable`` samples only records acked on their
  first copy, and once it has fast samples its first retransmit of a
  black-holed record fires near the estimated RTO, not at ``ack_timeout``.
"""

import asyncio
import time

import pytest

from repro.core.gossip import gossip
from repro.core.online import build_processors
from repro.runtime import (
    DATA,
    FENCE,
    PHASE_ONLINE,
    Datagram,
    GossipPeer,
    LossyDatagramTransport,
    NetChaos,
    RealClock,
    RuntimeConfig,
)
from repro.runtime.peer import RttEstimator

ALPHA, BETA, K = 1 / 8, 1 / 4, 4


class TestEstimatorArithmetic:
    def test_no_sample_no_estimate(self):
        assert RttEstimator().rto is None

    def test_first_sample(self):
        est = RttEstimator()
        est.sample(0.5)
        assert est.srtt == 0.5
        assert est.rttvar == 0.25
        assert est.rto == 0.5 + K * 0.25

    def test_later_samples_follow_rfc6298(self):
        samples = [0.010, 0.002, 0.004, 0.030, 0.001, 0.001, 0.001]
        est = RttEstimator()
        srtt = rttvar = None
        for r in samples:
            est.sample(r)
            if srtt is None:
                srtt, rttvar = r, r / 2
            else:  # RTTVAR first, from the *old* SRTT (RFC 6298 §2.3)
                rttvar = (1 - BETA) * rttvar + BETA * abs(srtt - r)
                srtt = (1 - ALPHA) * srtt + ALPHA * r
            assert est.srtt == pytest.approx(srtt, rel=1e-12)
            assert est.rttvar == pytest.approx(rttvar, rel=1e-12)
            assert est.rto == pytest.approx(srtt + K * rttvar, rel=1e-12)


class TestCeiling:
    CONFIG = RuntimeConfig(ack_timeout=0.02, backoff_cap=0.5, seed=4)
    KEY = dict(src=1, dst=2, phase=PHASE_ONLINE, rnd=7)

    @pytest.mark.parametrize("rto", [1e-5, 0.001, 0.0199, 0.02, 0.5, 60.0])
    def test_estimated_timer_never_fires_later(self, rto):
        # rto=None is the fixed ack_timeout timer; an estimate at or above
        # ack_timeout (a host stalled for seconds) is that timer exactly.
        for k in range(12):
            adaptive = self.CONFIG.backoff(k, **self.KEY, rto=rto)
            fixed = self.CONFIG.backoff(k, **self.KEY, rto=None)
            assert adaptive <= fixed
            if rto >= self.CONFIG.ack_timeout:
                assert adaptive == fixed

    def test_fast_estimate_shrinks_the_wait(self):
        fixed = self.CONFIG.backoff(0, **self.KEY)
        adaptive = self.CONFIG.backoff(0, **self.KEY, rto=0.002)
        assert adaptive == pytest.approx(fixed * 0.002 / 0.02)


class _FakeInner:
    """Records every datagram with its send time; delivers nothing."""

    def __init__(self):
        self.sent = []

    def sendto(self, data, addr):
        self.sent.append((time.monotonic(), addr))

    def is_closing(self):
        return False

    def close(self):
        pass


def _peer(config):
    plan = gossip("path:3")
    procs = build_processors(plan.labeled)
    suspected = []
    peer = GossipPeer(
        1, procs[1], config=config, clock=RealClock(),
        suspect=lambda src, dst: suspected.append((src, dst)),
    )
    transport = LossyDatagramTransport(
        _FakeInner(), chaos=NetChaos(), src=1,
        vertex_of_addr={("127.0.0.1", 9000 + v): v for v in range(3)},
        clock=RealClock(),
    )
    peer.attach(transport, {v: ("127.0.0.1", 9000 + v) for v in range(3)})
    return peer, suspected


def _copies_to(peer, dest):
    return [t for t, addr in peer.transport._inner.sent
            if addr == ("127.0.0.1", 9000 + dest)]


async def _acked_after(peer, dgram, dest, copies):
    """Drive one reliable send, acking it once ``copies`` copies are out."""
    already = len(_copies_to(peer, dest))
    task = asyncio.ensure_future(peer._send_reliable(dgram, dest))
    while len(_copies_to(peer, dest)) < already + copies:
        await asyncio.sleep(0)
    peer.ack_events[(dest, dgram.phase, dgram.round)].set()
    return await task


class TestSendReliable:
    def test_first_copy_ack_feeds_the_estimator(self):
        config = RuntimeConfig(ack_timeout=0.2, backoff_cap=0.5)
        peer, _ = _peer(config)
        dgram = Datagram(kind=FENCE, phase=PHASE_ONLINE, round=0, sender=1,
                         payload=0)
        assert asyncio.run(_acked_after(peer, dgram, 0, 1)) is True
        assert peer.retransmissions == 0
        assert peer.rtt.srtt is not None
        assert 0.0 <= peer.rtt.srtt < config.ack_timeout
        assert peer.rtt.rttvar == peer.rtt.srtt / 2

    def test_karn_retransmitted_record_gives_no_sample(self):
        config = RuntimeConfig(ack_timeout=0.005, backoff_cap=0.01)
        peer, _ = _peer(config)
        peer.rtt.sample(0.004)
        before = (peer.rtt.srtt, peer.rtt.rttvar)
        dgram = Datagram(kind=DATA, phase=PHASE_ONLINE, round=3, sender=1,
                         payload=1)
        assert asyncio.run(_acked_after(peer, dgram, 2, 3)) is True
        assert peer.retransmissions >= 2
        assert (peer.rtt.srtt, peer.rtt.rttvar) == before

    def test_black_holed_record_retransmits_near_estimated_rto(self):
        # ack_timeout is 0.2 s: a fixed timer would wait >= 0.1 s (the
        # smallest jitter) before the second copy.
        config = RuntimeConfig(ack_timeout=0.2, backoff_cap=0.5,
                               max_attempts=2)
        peer, suspected = _peer(config)

        async def run():
            for rnd in range(4):  # a few fast acks from neighbour 0
                fence = Datagram(kind=FENCE, phase=PHASE_ONLINE, round=rnd,
                                 sender=1, payload=0)
                await _acked_after(peer, fence, 0, 1)
            rto = peer.rtt.rto
            data = Datagram(kind=DATA, phase=PHASE_ONLINE, round=9, sender=1,
                            payload=1)
            delivered = await peer._send_reliable(data, 2)  # never acked
            return rto, delivered

        rto, delivered = asyncio.run(run())
        assert rto is not None and rto < config.ack_timeout / 10
        expected = config.backoff(0, src=1, dst=2, phase=PHASE_ONLINE, rnd=9,
                                  rto=rto)
        first, second = _copies_to(peer, 2)[:2]
        gap = second - first
        assert gap >= expected * 0.9
        assert gap < 0.05 < config.ack_timeout * 0.5
        # The cap still turns the black hole into a suspicion.
        assert delivered is False and suspected == [(1, 2)]
        assert peer.retransmissions == config.max_attempts - 1
