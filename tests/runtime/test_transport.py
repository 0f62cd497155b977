"""Unit tests for the lossy fabric + reliable-delivery transport."""

import numpy as np
import pytest

from repro.core.algorithm_cc import CCProcess
from repro.core.config import CCConfig
from repro.runtime.channel import ChannelError
from repro.runtime.faults import FaultPlan, LinkFaultPlan, LinkFaultSpec
from repro.runtime.messages import InputTuple, SVInit
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.transport import (
    DATA,
    Frame,
    LossyFabric,
    TransportBudgetError,
    TransportNetwork,
)
from repro.runtime.simulator import run_simulation


def make_cores(n=4, d=1, f=1, eps=0.5, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1, 1, size=(n, d))
    config = CCConfig(
        n=n, f=f, dim=d, eps=eps, input_lower=-1.0, input_upper=1.0
    )
    return [
        CCProcess(pid=i, config=config, input_point=inputs[i])
        for i in range(n)
    ]


def _payload(tag=0):
    return SVInit(entry=InputTuple(value=(float(tag),), sender=0))


class TestLinkFaultSpec:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            LinkFaultSpec(loss=1.2)
        with pytest.raises(ValueError):
            LinkFaultSpec(dup=-0.1)
        with pytest.raises(ValueError):
            LinkFaultSpec(loss=1.0)  # a fair-lossy link needs loss < 1

    def test_rejects_ill_formed_partition(self):
        with pytest.raises(ValueError):
            LinkFaultSpec(partitions=((10, 5),))
        with pytest.raises(ValueError):
            LinkFaultSpec(partitions=((-1, 5),))

    def test_partition_queries(self):
        spec = LinkFaultSpec(partitions=((5, 10), (20, None)))
        assert not spec.partitioned_at(4)
        assert spec.partitioned_at(5) and spec.partitioned_at(9)
        assert not spec.partitioned_at(10)
        assert spec.partitioned_at(10**9)
        assert spec.heal_after(7) == 10
        assert spec.heal_after(25) is None
        assert spec.heal_after(12) == 12  # not partitioned there

    def test_faulty_flag(self):
        assert not LinkFaultSpec().faulty
        assert LinkFaultSpec(loss=0.1).faulty
        assert LinkFaultSpec(partitions=((0, 5),)).faulty

    def test_json_roundtrip(self):
        spec = LinkFaultSpec(
            loss=0.2, dup=0.1, delay=3, reorder=0.4, partitions=((2, None),)
        )
        assert LinkFaultSpec.from_json_dict(spec.to_json_dict()) == spec


class TestLinkFaultPlan:
    def test_default_and_overrides(self):
        plan = LinkFaultPlan(
            default=LinkFaultSpec(loss=0.1),
            links={(0, 1): LinkFaultSpec(loss=0.5)},
        )
        assert plan.spec(0, 1).loss == 0.5
        assert plan.spec(1, 0).loss == 0.1
        assert plan.faulty

    def test_isolate_builds_cut_links(self):
        plan = LinkFaultPlan.isolate([0], 4, start=5, heal=10)
        cut = {(s, d) for (s, d) in plan.links}
        assert cut == {(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)}
        assert all(spec.partitions == ((5, 10),) for spec in plan.links.values())
        assert not plan.default.faulty

    def test_isolate_validates_pids(self):
        with pytest.raises(ValueError):
            LinkFaultPlan.isolate([], 4, 0, 5)
        with pytest.raises(ValueError):
            LinkFaultPlan.isolate([7], 4, 0, 5)

    def test_json_roundtrip(self):
        plan = LinkFaultPlan.isolate(
            [1], 3, 0, None, base=LinkFaultSpec(loss=0.1), seed=42
        )
        assert LinkFaultPlan.from_json_dict(plan.to_json_dict()) == plan


class TestLossyFabric:
    def test_perfect_link_is_passthrough(self):
        fabric = LossyFabric(2, LinkFaultPlan())
        frame = Frame(kind=DATA, src=0, dst=1, seq=0, payload=_payload())
        assert fabric.send(frame)
        heads = fabric.ready_frames()
        assert len(heads) == 1 and heads[0] is frame
        fabric.deliver(frame)
        assert fabric.in_flight == 0
        assert fabric.clock == 1

    def test_partitioned_send_is_dropped(self):
        plan = LinkFaultPlan(
            links={(0, 1): LinkFaultSpec(partitions=((0, 10),))}
        )
        fabric = LossyFabric(2, plan)
        assert not fabric.send(Frame(kind=DATA, src=0, dst=1, seq=0))
        assert fabric.in_flight == 0
        # The reverse link is unaffected.
        assert fabric.send(Frame(kind=DATA, src=1, dst=0, seq=0))

    def test_queued_frames_withheld_until_heal(self):
        plan = LinkFaultPlan(
            links={(0, 1): LinkFaultSpec(partitions=((5, 10),))}
        )
        fabric = LossyFabric(2, plan)
        fabric.send(Frame(kind=DATA, src=0, dst=1, seq=0))
        fabric.advance_to(6)
        assert fabric.ready_frames() == []  # head withheld mid-partition
        assert fabric.next_release() == 10
        fabric.advance_to(10)
        assert len(fabric.ready_frames()) == 1

    def test_deliver_rejects_non_head(self):
        fabric = LossyFabric(2, LinkFaultPlan())
        f0 = Frame(kind=DATA, src=0, dst=1, seq=0)
        f1 = Frame(kind=DATA, src=0, dst=1, seq=1)
        fabric.send(f0)
        fabric.send(f1)
        with pytest.raises(ChannelError):
            fabric.deliver(f1)

    def test_loss_and_dup_rolls_are_seed_deterministic(self):
        plan = LinkFaultPlan.uniform(loss=0.4, dup=0.3, delay=2, seed=9)

        def roll():
            fabric = LossyFabric(2, plan)
            kept = [
                fabric.send(Frame(kind=DATA, src=0, dst=1, seq=i))
                for i in range(50)
            ]
            return kept, fabric.in_flight

        assert roll() == roll()
        other = LossyFabric(2, LinkFaultPlan.uniform(loss=0.4, dup=0.3, delay=2, seed=10))
        kept_other = [
            other.send(Frame(kind=DATA, src=0, dst=1, seq=i))
            for i in range(50)
        ]
        assert kept_other != roll()[0]  # different seed, different stream


class TestTransportNetwork:
    def test_rejects_self_send(self):
        transport = TransportNetwork(3)
        with pytest.raises(ChannelError):
            transport.send(1, 1, _payload(), send_round=0)

    def test_boundary_oracle_is_independent_of_reassembly(self):
        # Corrupt the reassembly state and hand a "reassembled" frame to
        # the boundary: the oracle must still catch the wrong sequence.
        transport = TransportNetwork(2)
        bad = Frame(kind=DATA, src=0, dst=1, seq=3, payload=_payload())
        with pytest.raises(ChannelError):
            transport.deliver_to_app(bad)


class TestRunTransportSimulation:
    def test_perfect_fabric_decides(self):
        report = run_simulation(
            make_cores(),
            scheduler=RandomScheduler(seed=1),
            link_faults=LinkFaultPlan(),
        )
        assert sorted(report.decided) == [0, 1, 2, 3]
        assert report.messages_delivered == report.messages_sent
        assert len(report.app_deliveries) == report.messages_delivered

    def test_lossy_fabric_exactly_once(self):
        plan = LinkFaultPlan.uniform(
            loss=0.3, dup=0.2, delay=3, reorder=0.3, seed=7
        )
        report = run_simulation(
            make_cores(seed=2),
            scheduler=RandomScheduler(seed=1),
            link_faults=plan,
        )
        assert sorted(report.decided) == [0, 1, 2, 3]
        # Reliable delivery: every application message arrives despite loss.
        assert report.messages_delivered == report.messages_sent
        counters = report.perf_counters
        assert counters["retransmissions"] > 0
        assert counters["link_drops"] > 0
        assert counters["ack_messages"] > 0

    def test_crash_semantics_preserved(self):
        plan = LinkFaultPlan.uniform(loss=0.2, seed=3)
        report = run_simulation(
            make_cores(n=4),
            FaultPlan.crash_at({3: (0, 2)}),
            RandomScheduler(seed=5),
            link_faults=plan,
        )
        assert report.crashed == [3]
        assert sorted(report.decided) == [0, 1, 2]

    def test_determinism_per_seed(self):
        plan = LinkFaultPlan.uniform(loss=0.25, dup=0.1, delay=2, seed=13)

        def once():
            return run_simulation(
                make_cores(seed=4),
                scheduler=RandomScheduler(seed=2),
                link_faults=plan,
            )

        a, b = once(), once()
        assert a.delivery_steps == b.delivery_steps
        assert a.app_deliveries == b.app_deliveries
        # Geometry-cache counters warm up across runs; the transport's
        # own counters must be bit-identical.
        transport_keys = (
            "retransmissions",
            "dup_drops",
            "ack_messages",
            "partition_heals",
            "link_drops",
            "link_dups",
        )
        for key in transport_keys:
            assert a.perf_counters.get(key, 0) == b.perf_counters.get(key, 0)

    def test_raw_mode_trips_the_oracle(self):
        plan = LinkFaultPlan.uniform(loss=0.3, seed=5)
        with pytest.raises(ChannelError):
            run_simulation(
                make_cores(),
                scheduler=RandomScheduler(seed=1),
                link_faults=plan,
                reliable_transport=False,
            )

    def test_healing_partition_decides_and_counts_heals(self):
        plan = LinkFaultPlan.isolate([0], 4, start=0, heal=200, seed=1)
        report = run_simulation(
            make_cores(seed=6),
            scheduler=RandomScheduler(seed=3),
            link_faults=plan,
        )
        assert sorted(report.decided) == [0, 1, 2, 3]
        assert report.perf_counters["partition_heals"] >= 1

    def test_forever_partition_aborts_promptly(self):
        plan = LinkFaultPlan.isolate([0], 4, start=0, heal=None, seed=1)
        with pytest.raises(TransportBudgetError):
            run_simulation(
                make_cores(seed=6),
                scheduler=RandomScheduler(seed=3),
                link_faults=plan,
            )

    def test_run_simulation_delegates(self):
        plan = LinkFaultPlan.uniform(loss=0.2, seed=21)
        report = run_simulation(
            make_cores(seed=8),
            scheduler=RandomScheduler(seed=4),
            link_faults=plan,
        )
        assert sorted(report.decided) == [0, 1, 2, 3]
        assert report.app_deliveries  # transport path was taken
