"""The incremental fabric against reference scans.

:class:`~repro.runtime.transport.LossyFabric` keeps its link queues in
fixed ``(src, dst)`` order with their specs resolved once and counts
frames in flight as they come and go;
:meth:`~repro.runtime.transport.TransportNetwork.pump` skips its timer
scan while the clock is below a stored earliest-deadline bound.  Here
hypothesis drives random interleavings of send, deliver, idle jumps and
pumps over a plan with delays and partitions, and checks both shortcuts
against the plain scans they replace: the ready set against a sorted
scan that looks up every spec, and every frame put on the wire against a
transport whose pump scans every timer on every call.
"""

import math
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.cache import PERF
from repro.runtime.faults import LinkFaultPlan, LinkFaultSpec
from repro.runtime.transport import (
    CLOCK_BUDGET,
    TransportBudgetError,
    TransportNetwork,
)

N = 3
#: Send targets; the twice-cut link 0->1 is drawn most often, so frames
#: are often queued on it when a cut begins.
LINKS = [(0, 1)] * 4 + [(s, d) for s in range(N) for d in range(N) if s != d]


def reference_ready(fabric):
    """Deliverable heads by sorting the links and resolving each spec."""
    out = []
    for key in sorted(fabric._queues):
        queue = fabric._queues[key]
        if not queue:
            continue
        if fabric.plan.spec(*key).partitioned_at(fabric.clock):
            continue
        head = queue[0]
        if head.release <= fabric.clock:
            out.append(head)
    return out


class ScanningTransport(TransportNetwork):
    """Reference transport: pump() scans every timer on every call."""

    def pump(self) -> None:
        clock = self.fabric.clock
        if clock > CLOCK_BUDGET:
            raise TransportBudgetError(f"fabric clock {clock}")
        for link, pending in self._unacked.items():
            for seq, entry in pending.items():
                if entry.next_retry <= clock:
                    entry.attempt += 1
                    PERF.retransmissions += 1
                    self.fabric.send(replace(entry.frame, attempt=entry.attempt))
                    entry.next_retry = clock + self._rto(link, seq, entry.attempt)


def _plan(seed, start, width):
    """Delays and reordering everywhere; link 0->1 slow and cut twice
    (the second cut never heals), link 2->0 cut from the start."""
    base = LinkFaultSpec(loss=0.1, dup=0.1, delay=3, reorder=0.2)
    cut = replace(
        base,
        delay=30,
        partitions=((start, start + width), (start + 3 * width, None)),
    )
    return LinkFaultPlan(
        default=base,
        links={(0, 1): cut, (2, 0): replace(base, partitions=((0, width),))},
        seed=seed,
    )


def _wire_log(network):
    """Record every frame the transport puts on the fabric."""
    log = []
    send = network.fabric.send

    def logged(frame):
        log.append(
            (frame.kind, frame.src, frame.dst, frame.seq, frame.attempt,
             network.fabric.clock)
        )
        return send(frame)

    network.fabric.send = logged
    return log


OPS = st.lists(
    st.tuples(
        st.sampled_from(["send", "deliver", "deliver", "idle", "pump"]),
        st.integers(0, 10_000),
    ),
    max_size=80,
)


@settings(max_examples=60, deadline=None)
# A frame queued on 0->1 just before its first cut, then idle jumps
# through the cut while the frame's release time passes.
@example(seed=0, start=1, width=40, ops=[("send", 0)] + [("idle", 0)] * 4)
@given(
    seed=st.integers(0, 2**16),
    start=st.integers(0, 12),
    width=st.integers(1, 40),
    ops=OPS,
)
def test_incremental_fabric_matches_reference_scans(seed, start, width, ops):
    plan = _plan(seed, start, width)
    fast = TransportNetwork(N, plan)
    ref = ScanningTransport(N, plan)
    fast_log, ref_log = _wire_log(fast), _wire_log(ref)
    sent = 0
    for op, x in ops:
        if op == "send":
            src, dst = LINKS[x % len(LINKS)]
            for net in (fast, ref):
                net.send(src, dst, ("m", sent), send_round=0)
            sent += 1
        elif op == "deliver":
            ready = fast.fabric.ready_frames()
            if not ready:
                continue
            index = x % len(ready)
            for net in (fast, ref):
                frame = net.fabric.ready_frames()[index]
                net.fabric.deliver(frame)
                for env in net.on_frame(frame):
                    net.deliver_to_app(env)
                net.pump()
        elif op == "idle":
            if not fast.has_work():
                continue
            # A forever-partitioned link backs off until the budget runs
            # out; both transports must give up on the same jump.
            aborted = []
            for net in (fast, ref):
                try:
                    net.advance_idle()
                except TransportBudgetError:
                    aborted.append(net)
            assert aborted in ([], [fast, ref])
            if aborted:
                break
        else:
            for net in (fast, ref):
                net.pump()
        for net in (fast, ref):
            fabric = net.fabric
            assert fabric.in_flight == sum(len(q) for q in fabric._queues.values())
            ready = fabric.ready_frames()
            expected = reference_ready(fabric)
            assert len(ready) == len(expected)
            assert all(a is b for a, b in zip(ready, expected))
        assert fast.fabric.clock == ref.fabric.clock
        assert fast_log == ref_log
        assert fast._next_deadline <= min(
            (
                entry.next_retry
                for pending in fast._unacked.values()
                for entry in pending.values()
            ),
            default=math.inf,
        )
    assert fast.messages_delivered == ref.messages_delivered
