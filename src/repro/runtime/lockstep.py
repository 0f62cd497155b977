"""Lockstep (synchronous) delivery — the zero-skew control runtime.

The paper's model is fully asynchronous; its related work ([20]) also
treats synchronous systems.  This policy runs the *same* protocol cores
in lockstep: at every step, all currently deliverable messages are
delivered in a fixed global order before any newly sent message is
considered.  It is the "most synchronous" schedule expressible in the
model (every message of a communication step arrives before the next
step begins).

Uses: a best-case control for convergence experiments (round skew is
eliminated, so any residual disagreement is purely informational), a
determinism cross-check (no randomness at all), and a third runtime to
demonstrate core/runtime independence alongside the discrete-event and
asyncio drivers.

Fault plans work unchanged — a crash spec is executed by the shell, and a
mid-broadcast prefix in lockstep is exactly the paper's "some round-t
messages sent" case.
"""

from __future__ import annotations

from .faults import FaultPlan
from .network import Network
from .process import ProtocolCore
from .simulator import NetworkPolicy, SimulationReport, drive


class LockstepPolicy(NetworkPolicy):
    """The round barrier: one step delivers one whole synchronous phase.

    A phase snapshots the deliverable heads and drains each involved
    channel to the depth it had at the snapshot (FIFO order within
    channels, global ``(src, dst)`` order across them) before any message
    sent during the phase is considered.  Crashes are noted and revivals
    fire between phases — a restarted process joins the next wave, the
    most synchronous reading of ``recover_at``.
    """

    def __init__(self, cores: list[ProtocolCore]):
        n = len(cores)
        self.network = Network(n)
        # Stable vector quiesces in O(n) phases; each protocol round
        # takes O(1) phases in lockstep.  The constant is a defensive
        # margin.
        configs = [getattr(core, "config", None) for core in cores]
        t_end = max((c.t_end for c in configs if c is not None), default=10)
        self.budget = 10 * (n + t_end) + 100

    def ready(self):
        return self.network.ready_heads()

    def step(self, heads) -> None:
        network = self.network
        harness = self.harness
        shells = harness.shells
        wave = {
            (env.src, env.dst): network.channel_depth(env.src, env.dst)
            for env in heads
        }
        for (src, dst) in sorted(wave):
            for _ in range(wave[(src, dst)]):
                if not shells[dst].alive:
                    break
                env = network.head_of(src, dst)
                if env is None:
                    break
                network.deliver(env)
                harness.deliver(dst, env.payload, src)
        harness.settle()

    def stalled(self) -> str:
        return f"lockstep run did not quiesce within {self.budget} phases"


def run_lockstep_simulation(
    cores: list[ProtocolCore],
    fault_plan: FaultPlan | None = None,
    *,
    require_all_fault_free_decide: bool = True,
    checkpoint_store=None,
    core_factory=None,
) -> SimulationReport:
    """Drive the cores in synchronous delivery phases.

    Same contract and report format as
    :func:`repro.runtime.simulator.run_simulation`, including the
    crash-recovery extension (``checkpoint_store`` / ``core_factory``).
    """
    return drive(
        LockstepPolicy(cores),
        cores,
        fault_plan,
        require_all_fault_free_decide=require_all_fault_free_decide,
        checkpoint_store=checkpoint_store,
        core_factory=core_factory,
    )


def run_lockstep_consensus(
    inputs,
    f: int,
    eps: float,
    *,
    fault_plan: FaultPlan | None = None,
    input_bounds: tuple[float, float] | None = None,
    checkpoint_store=None,
    algorithm: str = "cc",
):
    """Full Algorithm CC (or BCC) run in lockstep; returns a CCResult."""
    from ..core.runner import run_consensus

    def simulate(cores, plan, core_factory, on_deliver):
        return run_lockstep_simulation(
            cores,
            plan,
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
        seed=0,
        scheduler_name="lockstep",
    )
