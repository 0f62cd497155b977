"""asyncio-based runtime: the same protocols on real coroutines.

The discrete-event simulator (:mod:`repro.runtime.simulator`) explores
delivery orders deterministically; this runtime demonstrates that the
protocol cores are genuinely runtime-agnostic by executing them on live
asyncio tasks with randomised (seeded) per-message delays:

* one forwarder coroutine per directed channel preserves FIFO order while
  delays randomise cross-channel interleaving,
* one handler coroutine per process consumes its inbox,
* quiescence detection (no message in flight anywhere) ends the run.

It is a thin adapter: the event loop replaces the delivery loop, and
everything around delivery — shells, crash specs (including mid-broadcast
crashes), Byzantine engines, crash-recovery, the termination check and
the report — is the shared :class:`~repro.runtime.simulator.RunHarness`.
Only the interleaving source differs.  Executions are *not*
bit-reproducible across platforms — tests assert the algorithm's
properties, never specific interleavings.
"""

from __future__ import annotations

import asyncio

import numpy as np

from .faults import FaultPlan
from .messages import Envelope, Payload
from .process import ProtocolCore
from .simulator import (
    DeliveryPolicy,
    RunHarness,
    SimulationError,
    SimulationReport,
)


class _AsyncRuntime(DeliveryPolicy):
    """Channel queues, forwarders, handlers, and quiescence accounting.

    Doubles as the shells' network (``n`` + ``send``) and as the
    harness's policy (every hook a no-op: crashed receivers are
    screened in :meth:`handler`).
    """

    def __init__(self, n: int, seed: int, max_delay: float):
        self.n = n
        self.messages_sent = 0
        self._rng = np.random.default_rng(seed)
        self._max_delay = max_delay
        self._channels: dict[tuple[int, int], asyncio.Queue] = {}
        self._inboxes: list[asyncio.Queue] = [asyncio.Queue() for _ in range(n)]
        self._in_flight = 0
        self._quiescent = asyncio.Event()
        self._quiescent.set()

    @property
    def network(self) -> "_AsyncRuntime":
        return self

    def send(self, src: int, dst: int, payload: Payload, send_round: int) -> None:
        self.messages_sent += 1
        self._in_flight += 1
        self._quiescent.clear()
        self._channels[(src, dst)].put_nowait(
            Envelope(src=src, dst=dst, seq=0, send_round=send_round, payload=payload)
        )

    def settle_one(self) -> None:
        self._in_flight -= 1
        if self._in_flight == 0:
            self._quiescent.set()

    async def forwarder(self, src: int, dst: int) -> None:
        queue = self._channels[(src, dst)]
        inbox = self._inboxes[dst]
        while True:
            env = await queue.get()
            delay = float(self._rng.uniform(0.0, self._max_delay))
            if delay > 0:
                await asyncio.sleep(delay)
            inbox.put_nowait(env)

    async def handler(self, pid: int) -> None:
        inbox = self._inboxes[pid]
        harness = self.harness
        shell = harness.shells[pid]
        while True:
            env = await inbox.get()
            try:
                # A crashed receiver that will recover gets the message
                # parked for its revival: the channel retired it, nobody
                # will resend it.
                if shell.crashed and harness.park(env):
                    continue
                harness.deliver(pid, env.payload, env.src)
            finally:
                self.settle_one()
            harness.settle(shell)

    async def run(self, timeout: float) -> None:
        harness = self.harness
        for src in range(self.n):
            for dst in range(self.n):
                if src != dst:
                    self._channels[(src, dst)] = asyncio.Queue()
        tasks = [
            asyncio.create_task(self.forwarder(src, dst))
            for src, dst in self._channels
        ]
        tasks.extend(
            asyncio.create_task(self.handler(pid)) for pid in range(self.n)
        )
        try:
            harness.start()
            await asyncio.wait_for(self._quiescent.wait(), timeout=timeout)
            # Quiescence can be momentary when a handler is about to emit;
            # confirm it is stable by yielding and re-checking.
            while True:
                await asyncio.sleep(0)
                if self._in_flight == 0:
                    # Stable quiescence with revivals pending: fire the
                    # earliest one and keep running — its restart may
                    # emit new messages.
                    if harness.revive_earliest():
                        continue
                    break
                await asyncio.wait_for(self._quiescent.wait(), timeout=timeout)
        except asyncio.TimeoutError as exc:
            raise SimulationError(
                f"asyncio run did not quiesce within {timeout}s "
                f"(in flight: {self._in_flight})"
            ) from exc
        finally:
            for task in tasks:
                task.cancel()


def run_asyncio_simulation(
    cores: list[ProtocolCore],
    fault_plan: FaultPlan | None = None,
    *,
    seed: int = 0,
    max_delay: float = 0.001,
    timeout: float = 120.0,
    require_all_fault_free_decide: bool = True,
    checkpoint_store=None,
    core_factory=None,
) -> SimulationReport:
    """Drive the cores on the asyncio runtime until quiescence.

    Same contract and report format as
    :func:`repro.runtime.simulator.run_simulation`; accepts the same
    cores and fault plans.
    """
    runtime = _AsyncRuntime(len(cores), seed=seed, max_delay=max_delay)
    harness = RunHarness(
        cores,
        fault_plan,
        runtime,
        checkpoint_store=checkpoint_store,
        core_factory=core_factory,
    )
    try:
        asyncio.run(runtime.run(timeout))
        return harness.finish(require_all_fault_free_decide)
    finally:
        runtime.harness = None


def run_asyncio_consensus(
    inputs,
    f: int,
    eps: float,
    *,
    fault_plan: FaultPlan | None = None,
    seed: int = 0,
    max_delay: float = 0.001,
    input_bounds: tuple[float, float] | None = None,
    timeout: float = 120.0,
    checkpoint_store=None,
    algorithm: str = "cc",
):
    """Full Algorithm CC (or BCC) run on the asyncio runtime; returns a CCResult."""
    from ..core.runner import run_consensus

    def simulate(cores, plan, core_factory, on_deliver):
        return run_asyncio_simulation(
            cores,
            plan,
            seed=seed,
            max_delay=max_delay,
            timeout=timeout,
            checkpoint_store=checkpoint_store,
            core_factory=core_factory,
        )

    return run_consensus(
        inputs,
        f,
        eps,
        simulate,
        fault_plan=fault_plan,
        input_bounds=input_bounds,
        algorithm=algorithm,
        seed=seed,
        scheduler_name="asyncio",
    )
