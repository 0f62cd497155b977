"""The run harness and the one delivery loop every runtime shares.

The asynchronous system model is a discrete-event loop: at every step an
(adversarial) scheduler picks something deliverable and the loop
delivers it.  Only the delivery *order* matters, and (cores, fault plan,
scheduler seed) fully determine the run.

:class:`RunHarness` is everything a run does *around* delivery: shells,
Byzantine engines, crash noting, crash-recovery (including replay of
messages parked for a recovering process), the ``on_deliver`` hook, the
termination check, trace propagation and the :class:`SimulationReport`.
:func:`drive` is the delivery loop; a *delivery policy* decides what one
step delivers — an envelope of the structural network
(:class:`NetworkPolicy`), a frame of the lossy fabric
(:class:`~repro.runtime.transport.TransportPolicy`) or a synchronous
phase (:class:`~repro.runtime.lockstep.LockstepPolicy`).  The asyncio
runtime replaces the loop with coroutines but uses the same harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..geometry.cache import PERF
from .faults import FaultPlan
from .network import Network
from .process import ProcessShell, ProtocolCore
from .scheduler import Scheduler, default_scheduler


class SimulationError(RuntimeError):
    """The execution did not quiesce (deadlock or runaway message flood)."""


@dataclass
class SimulationReport:
    """Outcome counters for one run (full data lives in the trace).

    ``perf_counters`` holds the geometry/cache counter *deltas* attributed
    to this run (hull calls, cache hits/misses, LP solves, Minkowski
    candidates — see :mod:`repro.analysis.perf_counters`).
    """

    delivery_steps: int
    messages_sent: int
    messages_delivered: int
    decided: list[int]
    crashed: list[int]
    undecided_alive: list[int]
    perf_counters: dict[str, int] = field(default_factory=dict)
    #: Pids reanimated by the crash-recovery machinery, in revival order.
    #: Empty for crash-stop plans (the historical report is unchanged).
    recovered: list[int] = field(default_factory=list)
    #: Application-level delivery sequence as ``(src, dst)`` pairs.
    #: Populated only by transport runs (:mod:`repro.runtime.transport`),
    #: where it is the reliable-network schedule the lossy execution is
    #: equivalent to; the structural-network path leaves it empty (there
    #: the scheduler's own decisions are that schedule).
    app_deliveries: tuple[tuple[int, int], ...] = ()


def quiescence_bound(n: int) -> int:
    """Deliveries allowed before a run counts as stuck.

    Stable vector is O(n^3) messages and each of the t_end rounds is
    O(n^2); the constant absorbs echoes.
    """
    return 2000 * n * n * n + 100_000


class DeliveryPolicy:
    """What one step of :func:`drive` delivers, and over which network.

    Subclasses set ``network`` (what the shells send into) and ``budget``
    (steps before the run counts as stuck) and implement ``ready()`` (the
    deliverable candidates, falsy when none), ``step(ready)`` and
    ``stalled()`` (the budget error message).  ``idle()`` makes progress
    when nothing is ready; ``crashed``/``revived``/``admit`` (a parked
    message is about to replay) are hooks.
    """

    network = None
    budget = 0
    app_deliveries: tuple[tuple[int, int], ...] = ()
    harness: "RunHarness"

    def idle(self) -> bool:
        return False

    @property
    def delivery_steps(self) -> int:
        return self.harness.delivered

    def crashed(self, pid: int) -> None:
        pass

    def revived(self, pid: int) -> None:
        pass

    def admit(self, item) -> None:
        pass


class RunHarness:
    """One run's shells, fault machinery and bookkeeping around delivery."""

    def __init__(
        self,
        cores: list[ProtocolCore],
        fault_plan: FaultPlan | None,
        policy: DeliveryPolicy,
        *,
        checkpoint_store=None,
        core_factory=None,
        on_deliver: Callable[[], None] | None = None,
    ):
        from .byzantine import byzantine_engines
        from .recovery import RecoveryManager, make_recovery_setup

        n = len(cores)
        plan = (fault_plan or FaultPlan.none()).validate(n)
        self.plan = plan
        self.policy = policy
        self.store = make_recovery_setup(plan, checkpoint_store, core_factory)
        engines = byzantine_engines(plan, n)
        self.shells = [
            ProcessShell(
                core,
                policy.network,
                crash_spec=plan.crash_spec(core.pid),
                checkpoint_store=self.store,
                byzantine=engines.get(core.pid),
            )
            for core in cores
        ]
        self.manager = (
            RecoveryManager(
                plan, self.shells, core_factory=core_factory, store=self.store
            )
            if plan.recoveries
            else None
        )
        self.on_deliver = on_deliver
        self.alive = {shell.pid for shell in self.shells}
        #: Application deliveries so far — the clock recoveries run on.
        self.delivered = 0
        # App messages that reached a crashed-but-recovering process after
        # the channel retired them: nobody will resend them, so they wait
        # here for the revival.
        self.parked: dict[int, list] = {}
        policy.harness = self
        self.perf_before = PERF.snapshot()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Run every ``on_start``; note crashes fired during the fan-out."""
        for shell in self.shells:
            shell.start()
        for shell in self.shells:
            self.note_crash(shell)
        if self.on_deliver is not None:
            self.on_deliver()

    def deliver(self, dst: int, payload, src: int) -> ProcessShell:
        """Hand one application message to its receiver's shell."""
        self.delivered += 1
        shell = self.shells[dst]
        shell.receive(payload, src)
        return shell

    def settle(self, shell: ProcessShell | None = None) -> None:
        """After a delivery to ``shell`` (or a whole phase, ``None``).

        Notes crashes — crash specs fire while *sending*, inside the
        receiver's dispatch — fires the revivals now due, and polls
        ``on_deliver``.
        """
        if shell is None:
            for each in self.shells:
                self.note_crash(each)
        elif shell.crashed:
            self.note_crash(shell)
        manager = self.manager
        if manager is not None:
            for pid in manager.due(self.delivered):
                self.revive(pid)
        if self.on_deliver is not None:
            self.on_deliver()

    def note_crash(self, shell: ProcessShell) -> None:
        if shell.crashed and shell.pid in self.alive:
            self.alive.discard(shell.pid)
            self.policy.crashed(shell.pid)
            if self.manager is not None:
                self.manager.note_crash(shell, self.delivered)

    def park(self, item) -> bool:
        """Hold ``item`` (``src``/``dst``/``payload``) for a receiver that
        will recover; False when it will not."""
        manager = self.manager
        if manager is None or not manager.will_recover(item.dst):
            return False
        self.parked.setdefault(item.dst, []).append(item)
        return True

    def revive(self, pid: int) -> None:
        """Execute one revival, then replay its parked messages."""
        self.manager.revive(pid, self.delivered)
        self.alive.add(pid)
        self.policy.revived(pid)
        for item in self.parked.pop(pid, ()):
            self.policy.admit(item)
            self.deliver(pid, item.payload, item.src)
            if self.on_deliver is not None:
                self.on_deliver()

    def revive_earliest(self) -> bool:
        """Quiescence rule: a delayed restart is indistinguishable from a
        slow one, so fire the earliest pending revival instead of
        deadlocking."""
        manager = self.manager
        if manager is None or not manager.has_pending:
            return False
        self.revive(manager.pop_earliest())
        return True

    def finish(self, require_all_fault_free_decide: bool) -> SimulationReport:
        """Termination check, trace propagation and the run report."""
        shells = self.shells
        # Byzantine pids are exempt from the termination demand: an
        # adversary sabotaging its own broadcasts can legitimately never
        # decide.
        undecided_alive = [
            s.pid for s in shells
            if s.alive and not s.done and not s.ever_crashed
            and s.pid not in self.plan.byzantine
        ]
        if require_all_fault_free_decide and undecided_alive:
            raise SimulationError(
                f"non-crashed processes ended undecided: {undecided_alive}"
            )
        for shell in shells:
            trace = getattr(shell.core, "trace", None)
            if trace is not None:
                trace.sends_in_round = dict(shell.protocol_sends)
                trace.crash_fired_round = shell.crash_fired_round
        policy = self.policy
        return SimulationReport(
            delivery_steps=policy.delivery_steps,
            messages_sent=policy.network.messages_sent,
            messages_delivered=self.delivered,
            decided=[s.pid for s in shells if s.done],
            crashed=[s.pid for s in shells if s.crashed],
            undecided_alive=undecided_alive,
            perf_counters=PERF.diff(self.perf_before),
            recovered=list(self.manager.revived) if self.manager else [],
            app_deliveries=policy.app_deliveries,
        )


def drive(
    policy: DeliveryPolicy,
    cores: list[ProtocolCore],
    fault_plan: FaultPlan | None = None,
    *,
    require_all_fault_free_decide: bool = True,
    on_deliver: Callable[[], None] | None = None,
    checkpoint_store=None,
    core_factory=None,
) -> SimulationReport:
    """The delivery loop: run ``policy`` to quiescence and report."""
    harness = RunHarness(
        cores,
        fault_plan,
        policy,
        checkpoint_store=checkpoint_store,
        core_factory=core_factory,
        on_deliver=on_deliver,
    )
    try:
        harness.start()
        steps = 0
        budget = policy.budget
        while True:
            ready = policy.ready()
            if not ready:
                if policy.idle() or harness.revive_earliest():
                    continue
                break
            steps += 1
            if steps > budget:
                raise SimulationError(policy.stalled())
            policy.step(ready)
        return harness.finish(require_all_fault_free_decide)
    finally:
        # Break the policy <-> harness cycle so the run's shells, cores
        # and queued messages are freed on return, not at the next GC.
        policy.harness = None


class NetworkPolicy(DeliveryPolicy):
    """The structural reliable network: the scheduler picks one envelope.

    The scheduler sees one live, lazy view of the ready heads, kept
    current by :meth:`crashed`/:meth:`revived`, so a delivery allocates
    nothing and resolves only the heads the scheduler inspects.
    """

    def __init__(self, n: int, scheduler: Scheduler, max_steps: int | None):
        self.network = Network(n)
        self.scheduler = scheduler
        self.budget = quiescence_bound(n) if max_steps is None else max_steps
        self._heads = self.network.ready_view()

    def ready(self):
        return self._heads

    def step(self, heads) -> None:
        env = heads[self.scheduler.choose(heads)]
        self.network.deliver(env)
        harness = self.harness
        harness.settle(harness.deliver(env.dst, env.payload, env.src))

    def stalled(self) -> str:
        return (
            f"no quiescence after {self.budget} deliveries "
            f"(pending={len(self._heads)}, sent={self.network.messages_sent})"
        )

    def crashed(self, pid: int) -> None:
        self.network.mark_crashed(pid)

    def revived(self, pid: int) -> None:
        self.network.mark_recovered(pid)


def run_simulation(
    cores: list[ProtocolCore],
    fault_plan: FaultPlan | None = None,
    scheduler: Scheduler | None = None,
    *,
    max_steps: int | None = None,
    require_all_fault_free_decide: bool = True,
    on_deliver: Callable[[], None] | None = None,
    link_faults=None,
    reliable_transport: bool = True,
    checkpoint_store=None,
    core_factory=None,
) -> SimulationReport:
    """Drive the cores to quiescence under the given adversary.

    The loop delivers until nothing deliverable targets a live process;
    ``max_steps`` is a defensive bound that raises
    :class:`SimulationError` instead of hanging on bugs.  With
    ``require_all_fault_free_decide`` (the Termination property) the run
    fails loudly if a non-crashed process ends undecided.

    ``on_deliver`` is invoked after every delivery (and once after the
    initial fan-out): the chaos engine's streaming invariant checker
    hooks in here and aborts the run by raising on the first violation.

    ``link_faults`` (a :class:`~repro.runtime.faults.LinkFaultPlan`)
    switches from the structural reliable network to the lossy fabric +
    reliable transport of :mod:`repro.runtime.transport`; with
    ``reliable_transport=False`` the recovery layer is bypassed and the
    delivery-boundary oracle is expected to trip.

    ``checkpoint_store`` / ``core_factory`` serve the crash-recovery
    extension: shells snapshot their cores into the store on every
    transition, and a fault plan with recoveries revives processes
    through the factory.  Crash-stop runs never construct the machinery.
    """
    sched = scheduler or default_scheduler()
    if link_faults is not None or not reliable_transport:
        from .transport import TransportPolicy

        policy = TransportPolicy(
            len(cores), sched, link_faults, reliable_transport, max_steps
        )
    else:
        policy = NetworkPolicy(len(cores), sched, max_steps)
    return drive(
        policy,
        cores,
        fault_plan,
        require_all_fault_free_decide=require_all_fault_free_decide,
        on_deliver=on_deliver,
        checkpoint_store=checkpoint_store,
        core_factory=core_factory,
    )
