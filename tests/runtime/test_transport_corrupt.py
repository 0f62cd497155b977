"""The corrupt link axis: damaged frames never cross the app boundary.

Satellite regression suite for the checksum integrity gate:

* a frame damaged in flight is dropped at ``on_frame`` before any
  transport state advances (DATA and ACK alike), counted in
  ``corrupt_drops``;
* the pristine copy in the retransmit queue recovers the message, so a
  reliable run over a corrupting link still decides — corruption is
  recast as loss, which the fair-lossy machinery already masks;
* in raw (unreliable) mode corruption surfaces as a *sequence gap* at
  the delivery boundary (``ChannelError``), never as a corrupted
  payload reaching the application.
"""

import numpy as np
import pytest

from repro.core.invariants import check_all
from repro.core.runner import run_convex_hull_consensus
from repro.geometry.cache import PERF
from repro.runtime.channel import ChannelError
from repro.runtime.faults import LinkFaultPlan, LinkFaultSpec
from repro.runtime.messages import InputTuple, SVInit
from repro.runtime.transport import (
    ACK,
    TransportNetwork,
    frame_checksum,
)
from repro.runtime.simulator import run_simulation


def _payload(tag=0.0):
    return SVInit(entry=InputTuple(value=(float(tag),), sender=0))


def _take_head(net):
    """Pop the earliest deliverable frame off the fabric (sim-loop idiom)."""
    frame = net.fabric.ready_frames()[0]
    net.fabric.deliver(frame)
    return frame


class TestIntegrityGate:
    def test_corrupted_data_frame_dropped_before_any_state_advances(self):
        net = TransportNetwork(2)
        net.send(0, 1, _payload(), 0)
        frame = _take_head(net)
        frame.checksum ^= 0x5A5A
        before = PERF.corrupt_drops
        assert net.on_frame(frame) == []
        assert PERF.corrupt_drops == before + 1
        # No receive-side progress: the receiver still expects seq 0 and
        # sent no ack, so the sender's copy stays queued for retry.
        assert net._expected.get((0, 1), 0) == 0
        assert net.total_unacked == 1

    def test_corrupted_ack_frame_dropped_too(self):
        net = TransportNetwork(2)
        net.send(0, 1, _payload(), 0)
        data = _take_head(net)
        assert net.on_frame(data) == [data]
        ack = _take_head(net)
        assert ack.kind == ACK
        ack.checksum ^= 1
        before = PERF.corrupt_drops
        assert net.on_frame(ack) == []
        assert PERF.corrupt_drops == before + 1
        # The unacknowledged entry survives the damaged ack.
        assert net.total_unacked == 1

    def test_retransmission_recovers_from_corrupt_drop(self):
        net = TransportNetwork(2)
        net.send(0, 1, _payload(3.0), 0)
        frame = _take_head(net)
        frame.checksum ^= 0xFF
        assert net.on_frame(frame) == []
        # The timer path: jump to the retry deadline and fire it.  The
        # retransmitted copy comes from the pristine _unacked frame.
        assert net.has_work()
        net.advance_idle()
        retry = _take_head(net)
        assert retry.attempt == 2
        assert retry.checksum == frame_checksum(retry)
        out = net.on_frame(retry)
        assert len(out) == 1
        net.deliver_to_app(out[0])  # boundary oracle satisfied
        assert out[0].payload == _payload(3.0)

    def test_tampered_payload_fails_checksum(self):
        # The checksum covers the payload, not just the header: swapping
        # the payload of an otherwise-valid frame must trip the gate.
        net = TransportNetwork(2)
        net.send(0, 1, _payload(1.0), 0)
        frame = _take_head(net)
        frame.payload = _payload(2.0)
        before = PERF.corrupt_drops
        assert net.on_frame(frame) == []
        assert PERF.corrupt_drops == before + 1


class TestCorruptingLink:
    def test_app_boundary_never_sees_a_damaged_frame(self):
        # Fuzz a heavily corrupting link: every frame on_frame hands
        # back must verify against its own checksum.
        plan = LinkFaultPlan(default=LinkFaultSpec(corrupt=0.5), seed=9)
        net = TransportNetwork(2, plan)
        for i in range(40):
            net.send(0, 1, _payload(float(i)), 0)
        delivered = []
        while net.has_work():
            heads = net.fabric.ready_frames()
            if not heads:
                net.advance_idle()
                continue
            frame = heads[0]
            net.fabric.deliver(frame)
            for ready in net.on_frame(frame):
                assert ready.checksum == frame_checksum(ready)
                if ready.kind != ACK:
                    net.deliver_to_app(ready)
                    delivered.append(ready.payload)
        assert delivered == [_payload(float(i)) for i in range(40)]
        assert PERF.corrupt_drops > 0

    def test_end_to_end_consensus_survives_corrupting_links(self):
        rng = np.random.default_rng(5)
        inputs = rng.uniform(-1, 1, size=(4, 1))
        link = LinkFaultPlan(default=LinkFaultSpec(corrupt=0.2), seed=11)
        res = run_convex_hull_consensus(
            inputs, 1, 0.4, link_faults=link, seed=2, input_bounds=(-1.0, 1.0)
        )
        assert sorted(res.report.decided) == [0, 1, 2, 3]
        assert check_all(res.trace).ok
        counters = res.report.perf_counters
        assert counters["corrupt_drops"] > 0
        assert counters["retransmissions"] > 0

    def test_corrupt_only_plan_matches_clean_decisions(self):
        # Corruption is masked entirely below the application: the same
        # seed without link faults must reach identical decisions.
        rng = np.random.default_rng(5)
        inputs = rng.uniform(-1, 1, size=(4, 1))
        link = LinkFaultPlan(default=LinkFaultSpec(corrupt=0.15), seed=3)
        clean = run_convex_hull_consensus(
            inputs, 1, 0.4, seed=4, input_bounds=(-1.0, 1.0)
        )
        noisy = run_convex_hull_consensus(
            inputs, 1, 0.4, link_faults=link, seed=4, input_bounds=(-1.0, 1.0)
        )
        for pid in clean.outputs:
            assert clean.outputs[pid].vertices == pytest.approx(
                noisy.outputs[pid].vertices
            )


class TestRawModeControl:
    def test_raw_mode_surfaces_corruption_as_loss_never_as_bad_payload(self):
        # Negative control: without the reliable layer a corrupt drop
        # becomes a sequence gap, and the boundary oracle — not the
        # application — is what trips.
        net = TransportNetwork(2, reliable=False)
        net.send(0, 1, _payload(0.0), 0)
        net.send(0, 1, _payload(1.0), 0)
        first = _take_head(net)
        first.checksum ^= 7
        assert net.on_frame(first) == []  # dropped, no stash, no ack
        second = _take_head(net)
        out = net.on_frame(second)
        assert out == [second]
        with pytest.raises(ChannelError, match="expected 0"):
            net.deliver_to_app(second)

    def test_raw_run_over_corrupting_link_raises_channel_error(self):
        from repro.core.algorithm_cc import CCProcess
        from repro.core.config import CCConfig

        rng = np.random.default_rng(0)
        inputs = rng.uniform(-1, 1, size=(4, 1))
        config = CCConfig(
            n=4, f=1, dim=1, eps=0.5, input_lower=-1.0, input_upper=1.0
        )
        cores = [
            CCProcess(pid=i, config=config, input_point=inputs[i])
            for i in range(4)
        ]
        link = LinkFaultPlan(default=LinkFaultSpec(corrupt=0.3), seed=1)
        with pytest.raises(ChannelError):
            run_simulation(
                cores, link_faults=link, reliable_transport=False
            )
