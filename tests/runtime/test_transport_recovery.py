"""Transport across crash + recovery: boundary oracle, checkpoints, dups."""

import numpy as np
import pytest

from repro.core.runner import run_convex_hull_consensus
from repro.geometry.cache import PERF
from repro.runtime.channel import ChannelError
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faults import (
    AMNESIA,
    DURABLE,
    FaultPlan,
    LinkFaultPlan,
    LinkFaultSpec,
)
from repro.runtime.transport import DATA, Frame, TransportNetwork


class TestCrashedDropOracle:
    def _delivered_frame(self, transport, seq=0):
        transport.send(0, 1, payload="m", send_round=0)
        return Frame(kind=DATA, src=0, dst=1, seq=seq, payload="m")

    def test_boundary_advances_without_app_delivery(self):
        transport = TransportNetwork(2)
        frame = self._delivered_frame(transport)
        drops0 = PERF.crashed_app_drops
        transport.note_crashed_drop(frame)
        assert PERF.crashed_app_drops == drops0 + 1
        assert transport.messages_delivered == 0  # the app never saw it
        # The boundary oracle moved on: the *next* frame delivers clean.
        transport.send(0, 1, payload="m2", send_round=0)
        transport.deliver_to_app(
            Frame(kind=DATA, src=0, dst=1, seq=1, payload="m2")
        )
        assert transport.messages_delivered == 1

    def test_out_of_order_retirement_still_trips_oracle(self):
        transport = TransportNetwork(2)
        self._delivered_frame(transport)
        stale = Frame(kind=DATA, src=0, dst=1, seq=5, payload="x")
        with pytest.raises(ChannelError, match="crashed endpoint"):
            transport.note_crashed_drop(stale)


class TestTransportCheckpoint:
    def test_checkpoint_restore_round_trip(self):
        transport = TransportNetwork(3)
        for _ in range(3):
            transport.send(0, 1, payload="m", send_round=0)
        transport.send(2, 0, payload="m", send_round=0)
        snap = transport.checkpoint()
        assert snap["channels"]["0->1"]["send_seq"] == 3
        assert snap["channels"]["2->0"]["send_seq"] == 1
        # A rebuilt endpoint resumes numbering where the old one stopped:
        # its next send on 0->1 must use seq 3, not 0.
        rebuilt = TransportNetwork(3)
        rebuilt.restore_channels(snap)
        rebuilt.send(0, 1, payload="m4", send_round=1)
        assert rebuilt.checkpoint()["channels"]["0->1"]["send_seq"] == 4

    def test_checkpoint_lists_unacked_digest(self):
        transport = TransportNetwork(2)
        transport.send(0, 1, payload="m", send_round=0)
        transport.send(0, 1, payload="m2", send_round=0)
        snap = transport.checkpoint()
        assert snap["channels"]["0->1"]["unacked"] == [0, 1]

    def test_restored_counters_preserve_dup_suppression(self):
        # Sequence numbers stay burned across a restart: a stale copy of
        # an already-delivered frame reads as a duplicate, not fresh data.
        transport = TransportNetwork(2)
        transport.send(0, 1, payload="m", send_round=0)
        [ready] = transport.on_frame(
            Frame(kind=DATA, src=0, dst=1, seq=0, payload="m")
        )
        transport.deliver_to_app(ready)
        snap = transport.checkpoint()
        rebuilt = TransportNetwork(2)
        rebuilt.restore_channels(snap)
        dups0 = PERF.dup_drops
        assert rebuilt.on_frame(
            Frame(kind=DATA, src=0, dst=1, seq=0, payload="m")
        ) == []
        assert PERF.dup_drops == dups0 + 1


class TestRecoveryOverLossyLinks:
    def _run(self, durability, *, loss=0.15, dup=0.1, seed=2):
        rng = np.random.default_rng(19)
        inputs = rng.uniform(-1.0, 1.0, size=(5, 1))
        plan = FaultPlan.crash_recover(
            {4: (0, 2, 12)}, durability=durability
        )
        link_plan = LinkFaultPlan(
            default=LinkFaultSpec(loss=loss, dup=dup, delay=2), seed=7
        )
        return run_convex_hull_consensus(
            inputs,
            1,
            0.2,
            fault_plan=plan,
            seed=seed,
            input_bounds=(-1.0, 1.0),
            link_faults=link_plan,
        )

    def test_durable_recovery_survives_lossy_fabric(self):
        result = self._run(DURABLE)
        assert 4 in result.report.recovered
        assert 4 in result.report.decided
        from repro.core.invariants import check_all

        assert check_all(result.trace).ok

    def test_amnesia_recovery_never_trips_channel_oracle(self):
        # The revived endpoint resumes the acked seq stream: dup
        # suppression and the boundary oracle must both survive the
        # restart (ChannelError would escape run_convex_hull_consensus).
        result = self._run(AMNESIA)
        assert 4 in result.report.recovered
        from repro.core.invariants import check_all

        report = check_all(result.trace)
        assert report.validity.ok
        assert report.agreement.ok


class _RecordingStore(CheckpointStore):
    """Records every save; checks each channel snapshot against the live
    transport at the moment it is saved."""

    def __init__(self, networks):
        super().__init__()
        self.networks = networks
        self.cc_saves = 0
        self.transport_saves = 0

    def save(self, key, data):
        super().save(key, data)
        if key != "transport":
            self.cc_saves += 1
            return
        self.transport_saves += 1
        [network] = self.networks
        assert self.load("transport") == network.checkpoint()


class TestChannelSnapshotPoints:
    def test_transport_saved_once_per_crash_and_revival(self, monkeypatch):
        networks = []
        init = TransportNetwork.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            networks.append(self)

        monkeypatch.setattr(TransportNetwork, "__init__", recording_init)
        store = _RecordingStore(networks)
        inputs = np.random.default_rng(23).uniform(-1.0, 1.0, size=(7, 1))
        plan = FaultPlan.crash_recover(
            {5: (1, 3, 60), 6: (2, 5, 120)}, durability=DURABLE
        )
        result = run_convex_hull_consensus(
            inputs,
            2,
            1.0,
            fault_plan=plan,
            seed=3,
            input_bounds=(-1.0, 1.0),
            checkpoint_store=store,
            link_faults=LinkFaultPlan.uniform(
                loss=0.1, dup=0.05, reorder=0.1, seed=3
            ),
        )
        report = result.report
        crashes = [
            proc.pid for proc in result.trace.processes
            if proc.crash_fired_round is not None
        ]
        assert crashes == [5, 6]
        assert sorted(report.recovered) == [5, 6]
        assert report.perf_counters["retransmissions"] > 0
        assert store.transport_saves == len(crashes) + len(report.recovered)
        # One CC save per start and per application delivery; durable
        # revivals resume without re-running on_start.
        assert store.cc_saves == len(inputs) + report.messages_delivered
        assert report.perf_counters["checkpoint_saves"] == (
            store.cc_saves + store.transport_saves
        )
