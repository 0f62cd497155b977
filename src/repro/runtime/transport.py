"""Lossy network fabric + reliable-delivery transport.

The paper's system model (Section 1) *postulates* reliable FIFO
exactly-once channels.  :mod:`repro.runtime.network` enforces that
postulate structurally; this module **earns** it instead, the way a real
deployment would, by layering:

1. :class:`LossyFabric` — a fair-lossy physical layer.  Per directed
   link, frames are dropped, duplicated, delayed (and thereby
   reordered), corrupted (their integrity checksum scrambled, so the
   receive path detects and discards them — ``corrupt_drops`` — and
   retransmission recovers), or blackholed during partition intervals,
   according to a
   :class:`~repro.runtime.faults.LinkFaultSpec` and a deterministic
   per-link RNG stream (``default_rng([seed, src, dst])``), so every
   execution is bit-reproducible per seed.

2. :class:`TransportNetwork` — a reliable-delivery transport over the
   fabric: per-channel sequence numbers, cumulative acks, retransmission
   with seeded exponential backoff (reusing the experiment engine's
   :func:`~repro.analysis.engine.retry_delay` schedule), out-of-order
   reassembly, and duplicate suppression.  It duck-types
   :class:`~repro.runtime.network.Network` for
   :class:`~repro.runtime.process.ProcessShell`, so Algorithm CC and
   every baseline run *unmodified* on top.

The reliable-channel contract is still **checked**, not assumed: an
independent per-channel sequence counter at the application delivery
boundary raises :class:`~repro.runtime.channel.ChannelError` if the
transport ever hands the application an out-of-order or duplicate
payload — the end-to-end oracle.  Running with
``reliable_transport=False`` (raw mode) bypasses the recovery machinery
while keeping the oracle, which is how the chaos suite demonstrates that
the transport — not luck — restores the model.

Time: the simulator has no clock, only delivery order; the fabric adds
the minimal notion the transport needs — a *fabric clock* that advances
by one per frame delivery and jumps forward over idle periods to the
next retransmission timer or partition heal.  Delays, backoff, and
partition intervals are all measured in these steps.

A link partitioned forever (``heal=None``) makes retransmission futile;
instead of hanging, the run aborts with :class:`TransportBudgetError`
(a :class:`~repro.runtime.simulator.SimulationError`) once the fabric
clock exceeds the delivery budget — exponential backoff reaches any
budget in logarithmically many retries, so the abort is prompt.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field, replace

from ..geometry.cache import PERF
from .channel import ChannelError
from .faults import LinkFaultPlan, LinkFaultSpec
from .messages import Payload
from .scheduler import Scheduler
from .simulator import DeliveryPolicy, SimulationError, quiescence_bound

#: Frame kinds on the wire.
DATA = "data"
ACK = "ack"

#: Fabric-clock budget.  Legal runs use O(messages) clock steps; a
#: forever-partitioned link doubles its backoff every retry, so it burns
#: through this budget after ~20 retransmissions per frame — the
#: graceful-degradation abort is prompt, not a hang.
CLOCK_BUDGET = 1 << 24

#: Retransmission-timeout base, in fabric clock steps.
RTO_BASE = 8.0


class TransportBudgetError(SimulationError):
    """The fabric clock exhausted its delivery budget.

    Raised instead of hanging when reliable delivery is impossible —
    in practice, when a link is partitioned forever.  Classified by the
    chaos engine as a (expected, for the partition-forever profile)
    termination finding.
    """


@dataclass
class Frame:
    """One transport-layer datagram in flight on a directed link.

    ``seq`` is the channel sequence number for DATA frames and the
    cumulative acknowledgement (next expected sequence) for ACK frames.
    ``release`` is the fabric clock step at which the frame becomes
    deliverable; ``order`` breaks release ties by transmission order.
    Schedulers see frames exactly like envelopes (``src``/``dst``).
    """

    kind: str
    src: int
    dst: int
    seq: int
    send_round: int = 0
    payload: Payload | None = None
    attempt: int = 0
    release: int = field(default=0, compare=False)
    order: int = field(default=0, compare=False)
    #: Integrity checksum stamped by the transport at send time; ``None``
    #: means "unchecked" (frames built directly by tests).  A corrupting
    #: link scrambles this field; the receive path verifies it before any
    #: transport processing, so a damaged frame is dropped and recovered
    #: by retransmission instead of reaching the application.
    checksum: int | None = field(default=None, compare=False)


def frame_checksum(frame: Frame) -> int:
    """Checksum over a frame's identity and payload.

    Payloads are frozen, hashable dataclasses, so Python's tuple hash is
    a deterministic within-process digest of every field the application
    will ever see.  The checksum's *value* is never observable (drops and
    retransmissions depend only on match/mismatch, and a scrambled field
    mismatches by construction), so hash randomization across OS
    processes cannot perturb replays.
    """
    return hash(
        (frame.kind, frame.src, frame.dst, frame.seq, frame.send_round, frame.payload)
    )


class LossyFabric:
    """The fair-lossy physical layer: per-link drop/dup/delay/partition.

    Each directed link keeps its in-flight frames sorted by
    ``(release, order)`` and exposes only the earliest-deliverable frame
    per link, so scheduler decisions stay identifiable by ``(src, dst)``
    — the property :class:`~repro.runtime.scheduler.ScheduleRecorder`
    bundles and the shrinker rely on.  All randomness comes from one
    deterministic RNG stream per link, seeded from
    ``(plan.seed, src, dst)``: fault rolls depend only on the order of
    transmissions *on that link*, never on cross-link interleaving.
    """

    def __init__(self, n: int, plan: LinkFaultPlan):
        if n < 1:
            raise ValueError("fabric needs at least one process")
        self.n = n
        self.plan = plan
        self.clock = 0
        # One queue per directed link, created up front in (src, dst)
        # order, each paired with its resolved spec: ready_frames() walks
        # the lanes in order instead of sorting keys and looking up specs.
        self._queues: dict[tuple[int, int], list[Frame]] = {
            (src, dst): []
            for src in range(n)
            for dst in range(n)
            if src != dst
        }
        self._specs = {key: plan.spec(*key) for key in self._queues}
        self._lanes = [
            (queue, self._specs[key]) for key, queue in self._queues.items()
        ]
        self._partitioned = any(
            spec.partitions for spec in self._specs.values()
        )
        self._rngs: dict[tuple[int, int], object] = {}
        self._order = 0
        self._in_flight = 0
        # Finite heal times of every partition interval on every link,
        # sorted; crossing one while advancing the clock counts a heal.
        heals = [
            heal
            for spec in self._specs.values()
            for _start, heal in spec.partitions
            if heal is not None
        ]
        self._pending_heals = sorted(heals, reverse=True)

    def _rng(self, src: int, dst: int):
        key = (src, dst)
        rng = self._rngs.get(key)
        if rng is None:
            import numpy as np

            rng = np.random.default_rng([self.plan.seed, src, dst])
            self._rngs[key] = rng
        return rng

    def send(self, frame: Frame) -> bool:
        """Transmit a frame; returns True if anything was enqueued.

        Fault rolls happen in a fixed order (loss, dup, then per-copy
        delay and reorder) so the per-link RNG stream is consumed
        identically across replays.
        """
        spec = self._specs[frame.src, frame.dst]
        if spec.partitioned_at(self.clock):
            PERF.link_drops += 1
            return False
        if not spec.faulty:
            frame.release = self.clock
            self._enqueue(frame)
            return True
        rng = self._rng(frame.src, frame.dst)
        if spec.loss and rng.random() < spec.loss:
            PERF.link_drops += 1
            return False
        copies = 1
        if spec.dup and rng.random() < spec.dup:
            copies = 2
            PERF.link_dups += 1
        for copy_index in range(copies):
            fr = frame if copy_index == 0 else replace(frame)
            fr.release = self.clock
            if spec.delay:
                fr.release += int(rng.integers(0, spec.delay + 1))
            if spec.reorder and rng.random() < spec.reorder:
                fr.release += int(rng.integers(1, 3 * (spec.delay + 1) + 1))
            # Corruption roll last, gated on the axis being active, so
            # links without a corrupt rate consume the exact same RNG
            # stream as before the axis existed (replay compatibility).
            if spec.corrupt and rng.random() < spec.corrupt:
                flip = 1 + int(rng.integers(0, 1 << 30))
                fr.checksum = (fr.checksum or 0) ^ flip
            self._enqueue(fr)
        return True

    def _enqueue(self, frame: Frame) -> None:
        self._order += 1
        frame.order = self._order
        self._in_flight += 1
        insort(
            self._queues[frame.src, frame.dst],
            frame,
            key=lambda f: (f.release, f.order),
        )

    def ready_frames(self) -> list[Frame]:
        """Deliverable link heads, in deterministic ``(src, dst)`` order."""
        clock = self.clock
        partitioned = self._partitioned
        return [
            queue[0]
            for queue, spec in self._lanes
            if queue
            and queue[0].release <= clock
            and not (partitioned and spec.partitioned_at(clock))
        ]

    def deliver(self, frame: Frame) -> None:
        """Remove a chosen head from its link and advance the clock."""
        queue = self._queues.get((frame.src, frame.dst))
        if not queue or queue[0] is not frame:
            raise ChannelError("scheduler chose a non-head frame")
        queue.pop(0)
        self._in_flight -= 1
        self.advance_to(self.clock + 1)

    def advance_to(self, clock: int) -> None:
        """Move the fabric clock forward, recording partition heals."""
        while self._pending_heals and self._pending_heals[-1] <= clock:
            self._pending_heals.pop()
            PERF.partition_heals += 1
        self.clock = clock

    def _available_from(self, spec: LinkFaultSpec, t0: int) -> int | None:
        """Earliest clock >= t0 at which the link carries frames (None = never)."""
        t = t0
        for _ in range(len(spec.partitions) + 1):
            if not spec.partitioned_at(t):
                return t
            heal = spec.heal_after(t)
            if heal is None:
                return None
            t = heal
        return t

    def next_release(self) -> int | None:
        """Earliest future clock at which any queued frame is deliverable.

        Returns None when nothing queued can ever be delivered (empty
        fabric, or only frames stuck behind never-healing partitions).
        """
        best: int | None = None
        for queue, spec in self._lanes:
            if not queue:
                continue
            available = self._available_from(spec, self.clock)
            if available is None:
                continue
            candidate = max(queue[0].release, available)
            if best is None or candidate < best:
                best = candidate
        return best

    @property
    def in_flight(self) -> int:
        return self._in_flight


@dataclass
class _Pending:
    """Sender-side retransmission state for one unacknowledged frame."""

    frame: Frame
    attempt: int
    next_retry: int


class TransportNetwork:
    """Reliable-delivery transport over a :class:`LossyFabric`.

    Duck-types :class:`~repro.runtime.network.Network` for process
    shells (``n`` + ``send``).  Transport endpoints belong to the
    *channel infrastructure*, not the process: a crashed process stops
    sending new application messages, but frames already handed to the
    transport keep being retransmitted and acknowledged — exactly the
    reliable-channel property ("what was sent before the crash stays
    deliverable") the structural :class:`Network` provides.
    """

    def __init__(
        self,
        n: int,
        link_faults: LinkFaultPlan | None = None,
        *,
        reliable: bool = True,
    ):
        self.n = n
        self.fabric = LossyFabric(n, link_faults or LinkFaultPlan())
        self.reliable = reliable
        self.messages_sent = 0
        self.messages_delivered = 0
        #: ``(src, dst)`` of every payload that crossed the delivery
        #: boundary, in order — the application-level schedule.
        self.app_deliveries: list[tuple[int, int]] = []
        self._send_seq: dict[tuple[int, int], int] = {}
        self._unacked: dict[tuple[int, int], dict[int, _Pending]] = {}
        self._expected: dict[tuple[int, int], int] = {}
        self._stash: dict[tuple[int, int], dict[int, Frame]] = {}
        # A lower bound on every pending ``next_retry``: pump() has
        # nothing to fire while the clock is below it.  Sends lower it;
        # acks only retire timers, so it stays a bound until the next
        # scan recomputes it.
        self._next_deadline = math.inf
        # Independent boundary counters — the end-to-end ChannelError
        # oracle.  Deliberately not shared with ``_expected``: a bug in
        # the reassembly logic must trip the oracle, so the oracle may
        # not reuse the reassembly state.
        self._boundary_seq: dict[tuple[int, int], int] = {}

    # -- Network duck-type -------------------------------------------------
    def send(self, src: int, dst: int, payload: Payload, send_round: int) -> None:
        if src == dst:
            raise ChannelError("self-messages are handled locally, not via network")
        link = (src, dst)
        seq = self._send_seq.get(link, 0)
        self._send_seq[link] = seq + 1
        frame = Frame(
            kind=DATA,
            src=src,
            dst=dst,
            seq=seq,
            send_round=send_round,
            payload=payload,
        )
        frame.checksum = frame_checksum(frame)
        self.messages_sent += 1
        if self.reliable:
            next_retry = self.fabric.clock + self._rto(link, seq, 1)
            self._unacked.setdefault(link, {})[seq] = _Pending(
                frame=frame, attempt=1, next_retry=next_retry
            )
            self._next_deadline = min(self._next_deadline, next_retry)
        self.fabric.send(replace(frame))

    # -- receive path ------------------------------------------------------
    def on_frame(self, frame: Frame) -> list[Frame]:
        """Process one fabric delivery; returns in-order app-ready frames."""
        # Integrity gate first: a frame damaged on a corrupting link is
        # dropped before any transport state is touched — DATA and ACK
        # alike.  The pristine copy stays in the retransmit queue, so
        # reliable mode recovers; the application boundary never sees a
        # corrupted payload.
        if frame.checksum is not None and frame.checksum != frame_checksum(frame):
            PERF.corrupt_drops += 1
            return []
        if frame.kind == ACK:
            self._on_ack(frame)
            return []
        link = (frame.src, frame.dst)
        if not self.reliable:
            # Raw mode: straight to the delivery boundary — loss shows
            # up as a sequence gap, duplication as a replay; the oracle
            # in deliver_to_app() catches both.
            return [frame]
        expected = self._expected.get(link, 0)
        if frame.seq < expected:
            PERF.dup_drops += 1
            self._send_ack(link)
            return []
        if frame.seq > expected:
            stash = self._stash.setdefault(link, {})
            if frame.seq in stash:
                PERF.dup_drops += 1
            else:
                stash[frame.seq] = frame
            self._send_ack(link)
            return []
        out = [frame]
        expected += 1
        stash = self._stash.get(link, {})
        while expected in stash:
            out.append(stash.pop(expected))
            expected += 1
        self._expected[link] = expected
        self._send_ack(link)
        return out

    def deliver_to_app(self, frame: Frame) -> None:
        """The delivery boundary: check the reliable-channel contract.

        An independent per-channel counter re-verifies FIFO exactly-once
        before the payload reaches the process shell; any transport bug
        (or raw mode over a faulty link) surfaces here as a
        :class:`ChannelError`, exactly as it would on the structural
        :class:`~repro.runtime.network.Network`.
        """
        link = (frame.src, frame.dst)
        expected = self._boundary_seq.get(link, 0)
        if frame.seq != expected:
            raise ChannelError(
                f"channel {frame.src}->{frame.dst}: transport handed the "
                f"application seq {frame.seq}, expected {expected} "
                f"(reliable FIFO exactly-once contract violated)"
            )
        self._boundary_seq[link] = expected + 1
        self.messages_delivered += 1
        self.app_deliveries.append(link)

    def note_crashed_drop(self, frame: Frame) -> None:
        """Advance the boundary oracle past a frame its receiver slept through.

        Crash-stop semantics on the transport: a frame addressed to a
        crashed process is consumed and acknowledged by the channel
        *infrastructure* but never delivered to the application.  The
        independent boundary counter must still advance — otherwise a
        later revival of the same endpoint would trip the oracle on the
        very first legitimate delivery (the latent stall this method
        fixes).  ``messages_delivered`` deliberately does *not* advance:
        the application never saw the payload.
        """
        link = (frame.src, frame.dst)
        expected = self._boundary_seq.get(link, 0)
        if frame.seq != expected:
            raise ChannelError(
                f"channel {frame.src}->{frame.dst}: transport retired seq "
                f"{frame.seq} at a crashed endpoint, expected {expected}"
            )
        self._boundary_seq[link] = expected + 1
        PERF.crashed_app_drops += 1

    # -- checkpointing (crash-recovery support) ----------------------------
    def checkpoint(self) -> dict:
        """JSON-safe snapshot of the per-channel transport state.

        Per directed link: the next send sequence number, the cumulative
        ack (receiver's next expected sequence), the delivery-boundary
        counter, and a digest of the retransmit queue (the sorted
        unacknowledged sequence numbers).  Everything a restarted
        transport endpoint needs to resume seq/ack numbering without
        violating FIFO exactly-once.

        :class:`TransportPolicy` saves it under ``"transport"`` only when
        a crash is noted and when a revival fires: the live network
        outlives every process incarnation, so those are the only points
        where a restarted endpoint could consult a snapshot.
        """
        links = (
            set(self._send_seq) | set(self._expected)
            | set(self._boundary_seq) | set(self._unacked)
        )
        return {
            "clock": self.fabric.clock,
            "channels": {
                f"{src}->{dst}": {
                    "send_seq": self._send_seq.get((src, dst), 0),
                    "expected": self._expected.get((src, dst), 0),
                    "boundary": self._boundary_seq.get((src, dst), 0),
                    "unacked": sorted(self._unacked.get((src, dst), {})),
                }
                for src, dst in sorted(links)
            },
        }

    def restore_channels(self, data: dict) -> None:
        """Resume seq/ack numbering from a :meth:`checkpoint` snapshot.

        Only the counters are restored — queued frames belong to the
        fabric, and unacknowledged payloads died with the old endpoint
        (their sequence numbers stay burned, so receivers treat any
        stale copy as a duplicate).  Used when simulating a whole-node
        restart in which the transport endpoint itself is rebuilt.
        """
        for key, ch in data["channels"].items():
            src_s, dst_s = key.split("->")
            link = (int(src_s), int(dst_s))
            self._send_seq[link] = int(ch["send_seq"])
            self._expected[link] = int(ch["expected"])
            self._boundary_seq[link] = int(ch["boundary"])

    def _on_ack(self, frame: Frame) -> None:
        # An ack travelling dst -> src acknowledges the data link
        # src -> dst; ``seq`` is cumulative (next expected), so pruning
        # is idempotent and duplicate/stale acks are harmless.
        data_link = (frame.dst, frame.src)
        pending = self._unacked.get(data_link)
        if not pending:
            return
        for seq in [s for s in pending if s < frame.seq]:
            del pending[seq]

    def _send_ack(self, link: tuple[int, int]) -> None:
        src, dst = link
        PERF.ack_messages += 1
        ack = Frame(kind=ACK, src=dst, dst=src, seq=self._expected.get(link, 0))
        ack.checksum = frame_checksum(ack)
        self.fabric.send(ack)

    # -- timers ------------------------------------------------------------
    def _rto(self, link: tuple[int, int], seq: int, attempt: int) -> int:
        """Retransmission timeout (fabric steps) before retry ``attempt + 1``.

        Reuses the experiment engine's deterministic seeded backoff
        schedule (exponential with multiplicative jitter, keyed by
        channel and sequence number).  The base adapts to the current
        fabric queue depth: the clock advances one step per frame
        delivery, so a frame legitimately waits ~in_flight steps before
        its turn — a fixed base would retransmit healthy traffic.  The
        adaptation stays deterministic: ``in_flight`` is itself a pure
        function of the execution prefix.
        """
        from ..analysis.engine import retry_delay

        base = RTO_BASE + 2.0 * self.fabric.in_flight
        delay = retry_delay(f"{link[0]}->{link[1]}#{seq}", attempt, base)
        return max(1, int(math.ceil(delay)))

    def pump(self) -> None:
        """Fire expired retransmission timers; enforce the clock budget."""
        clock = self.fabric.clock
        if clock > CLOCK_BUDGET:
            raise TransportBudgetError(
                f"fabric clock {clock} exceeded the delivery budget "
                f"{CLOCK_BUDGET} with {self.total_unacked} frame(s) "
                "still unacknowledged — reliable delivery is impossible "
                "(a never-healing partition?); aborting instead of hanging"
            )
        if not self.reliable or clock < self._next_deadline:
            return
        deadline = math.inf
        for link, pending in self._unacked.items():
            for seq, entry in pending.items():
                if entry.next_retry <= clock:
                    entry.attempt += 1
                    PERF.retransmissions += 1
                    self.fabric.send(replace(entry.frame, attempt=entry.attempt))
                    entry.next_retry = clock + self._rto(link, seq, entry.attempt)
                if entry.next_retry < deadline:
                    deadline = entry.next_retry
        self._next_deadline = deadline

    @property
    def total_unacked(self) -> int:
        return sum(len(p) for p in self._unacked.values())

    def has_work(self) -> bool:
        """Anything left that can (or keeps trying to) make progress?"""
        if self.fabric.next_release() is not None:
            return True
        return self.reliable and self.total_unacked > 0

    def advance_idle(self) -> None:
        """Nothing deliverable now: jump the clock to the next event."""
        candidates = []
        release = self.fabric.next_release()
        if release is not None:
            candidates.append(release)
        if self.reliable:
            for pending in self._unacked.values():
                for entry in pending.values():
                    candidates.append(entry.next_retry)
        if not candidates:
            raise SimulationError("advance_idle() called with no pending work")
        self.fabric.advance_to(max(min(candidates), self.fabric.clock + 1))
        self.pump()


class TransportPolicy(DeliveryPolicy):
    """Delivery policy over the lossy fabric: the scheduler picks a frame.

    The scheduler adversarially orders *frames* (data, retransmissions,
    acks) instead of application envelopes; per-link FIFO no longer holds
    on the wire — the transport restores it at the delivery boundary.
    ``app_deliveries`` records the application-level delivery sequence,
    which (by construction of the reliable layer) is a legal schedule of
    the structural reliable network — the transport-equivalence property
    suite replays it there and demands identical decisions.
    """

    def __init__(
        self,
        n: int,
        scheduler: Scheduler,
        link_faults: LinkFaultPlan | None,
        reliable: bool,
        max_steps: int | None,
    ):
        self.network = TransportNetwork(n, link_faults, reliable=reliable)
        self.scheduler = scheduler
        # The structural quiescence bound, widened for transport
        # overhead: acks roughly double the frame count and loss/dup
        # multiply it by a small constant.
        self.budget = 8 * quiescence_bound(n) if max_steps is None else max_steps
        self.frames = 0

    def ready(self):
        return self.network.fabric.ready_frames()

    def idle(self) -> bool:
        transport = self.network
        if not transport.has_work():
            return False
        transport.advance_idle()
        return True

    def step(self, frames) -> None:
        transport = self.network
        harness = self.harness
        frame = frames[self.scheduler.choose(frames)]
        self.frames += 1
        transport.fabric.deliver(frame)
        for env in transport.on_frame(frame):
            if harness.shells[env.dst].crashed:
                # Old-network semantics: messages addressed to a crashed
                # process stay undelivered at the application layer (the
                # transport still acknowledged the frame).  A recovering
                # endpoint gets them replayed at revival; a crash-stop
                # endpoint retires them at the boundary oracle.
                if not harness.park(env):
                    transport.note_crashed_drop(env)
                continue
            transport.deliver_to_app(env)
            harness.settle(harness.deliver(env.dst, env.payload, env.src))
        transport.pump()

    def stalled(self) -> str:
        transport = self.network
        return (
            f"no quiescence after {self.budget} frame deliveries "
            f"(in flight={transport.fabric.in_flight}, "
            f"sent={transport.messages_sent})"
        )

    @property
    def delivery_steps(self) -> int:
        return self.frames

    @property
    def app_deliveries(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.network.app_deliveries)

    # The channel snapshot is saved only where a restarted endpoint could
    # consult it (see TransportNetwork.checkpoint).
    def crashed(self, pid: int) -> None:
        self._save_channels()

    def revived(self, pid: int) -> None:
        self._save_channels()

    def admit(self, frame: Frame) -> None:
        self.network.deliver_to_app(frame)

    def _save_channels(self) -> None:
        store = self.harness.store
        if store is not None:
            store.save("transport", self.network.checkpoint())
