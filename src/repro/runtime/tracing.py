"""Execution traces — everything the analysis layer needs, nothing more.

The correctness proof of the paper is *constructive about executions*: it
reconstructs, from what each process actually received, the transition
matrices ``M[t]`` (Section 5.1) and the crash sets ``F[t]``.  An
:class:`ExecutionTrace` records exactly those observables:

* each process's stable-vector result ``R_i`` and derived multiset ``X_i``,
* every state ``h_i[t]`` as computed,
* the sender multiset behind every ``Y_i[t]`` (to rebuild ``M[t]`` rows),
* per-round send counts (to derive ``F[t]`` — "crashed before sending any
  round-t message"),
* network counters and the fault plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry.polytope import ConvexPolytope
from .faults import FaultPlan
from .messages import InputTuple


@dataclass
class ProcessTrace:
    """Observables of a single process across the whole execution.

    Crash-recovery bookkeeping: ``recovered_at_step`` / ``recovery_
    durability`` record that (and how) the process was reanimated;
    ``restarts`` counts protocol restarts (amnesia / late-join — a
    durable restore continues the same protocol incarnation, so it does
    not increment); ``pre_recovery_states`` stashes the states each
    discarded incarnation had computed, one dict per restart, so
    validity checking still covers every state that ever existed.
    """

    pid: int
    input_point: np.ndarray
    r_view: tuple[InputTuple, ...] | None = None
    states: dict[int, ConvexPolytope] = field(default_factory=dict)
    round_senders: dict[int, tuple[int, ...]] = field(default_factory=dict)
    sends_in_round: dict[int, int] = field(default_factory=dict)
    crash_fired_round: int | None = None
    decided: bool = False
    recovered_at_step: int | None = None
    recovery_durability: str | None = None
    restarts: int = 0
    pre_recovery_states: list[dict[int, ConvexPolytope]] = field(
        default_factory=list
    )

    @property
    def x_multiset(self) -> np.ndarray | None:
        """The multiset ``X_i`` (line 4): values of the tuples in ``R_i``."""
        if self.r_view is None:
            return None
        return np.array([list(entry.value) for entry in sorted(self.r_view)])

    def note_recovery(self, step: int, durability: str, restarted: bool) -> None:
        """Record a reanimation; a restart begins a fresh incarnation.

        Durable restores keep the incarnation (states/views continue
        where the checkpoint left off); amnesia and late-join restarts
        stash the discarded states and reset the per-incarnation fields
        so the streaming checker re-checks the new incarnation from
        scratch.
        """
        self.recovered_at_step = step
        self.recovery_durability = durability
        if restarted:
            self.restarts += 1
            if self.states:
                self.pre_recovery_states.append(dict(self.states))
            self.states = {}
            self.r_view = None
            self.decided = False

    def all_states(self):
        """Every recorded state of every incarnation: ``(t, polytope)``."""
        for states in (*self.pre_recovery_states, self.states):
            yield from states.items()

    def state_at(self, round_index: int) -> ConvexPolytope | None:
        return self.states.get(round_index)


@dataclass
class ExecutionTrace:
    """Full record of one simulated execution."""

    n: int
    f: int
    dim: int
    eps: float
    t_end: int
    fault_plan: FaultPlan
    seed: int
    scheduler_name: str
    processes: list[ProcessTrace] = field(default_factory=list)
    messages_sent: int = 0
    messages_delivered: int = 0
    delivery_steps: int = 0

    # ------------------------------------------------------------------
    # Fault bookkeeping (paper notation)
    # ------------------------------------------------------------------
    @property
    def faulty(self) -> frozenset[int]:
        """The paper's ``F``: the actual faulty set of this execution."""
        return self.fault_plan.faulty

    @property
    def fault_free(self) -> list[int]:
        """``V - F`` in pid order."""
        return [p for p in range(self.n) if p not in self.faulty]

    def crashed_before_round(self, t: int) -> frozenset[int]:
        """The paper's ``F[t]``: crashed before sending any round-t message.

        Derived from send counts: a process that eventually crashed and has
        zero sends tagged with round ``t`` (or later) never sent a round-t
        message.  For ``t > t_end`` the paper defines ``F[t] = F[t_end]``.
        """
        t = min(t, self.t_end)
        members = set()
        for proc in self.processes:
            if proc.crash_fired_round is None:
                continue
            sent_t_or_later = any(
                count > 0 and r >= t for r, count in proc.sends_in_round.items()
            )
            if not sent_t_or_later:
                members.add(proc.pid)
        return frozenset(members)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def correct_inputs(self) -> np.ndarray:
        """Inputs of processes with *correct* inputs (``V - incorrect``)."""
        incorrect = self.fault_plan.incorrect
        rows = [
            proc.input_point
            for proc in self.processes
            if proc.pid not in incorrect
        ]
        return np.array(rows)

    @property
    def all_inputs(self) -> np.ndarray:
        return np.array([proc.input_point for proc in self.processes])

    def outputs(self) -> dict[int, ConvexPolytope]:
        """Decisions ``h_i[t_end]`` of every process that decided."""
        return {
            proc.pid: proc.states[self.t_end]
            for proc in self.processes
            if proc.decided and self.t_end in proc.states
        }

    def fault_free_outputs(self) -> dict[int, ConvexPolytope]:
        return {
            pid: poly
            for pid, poly in self.outputs().items()
            if pid not in self.faulty
        }

    def recovered_outputs(self) -> dict[int, ConvexPolytope]:
        """Decisions of processes that crashed, recovered, and decided."""
        return {
            proc.pid: proc.states[self.t_end]
            for proc in self.processes
            if proc.recovered_at_step is not None
            and proc.decided
            and self.t_end in proc.states
        }

    def agreement_outputs(self) -> dict[int, ConvexPolytope]:
        """The ε-agreement scope: fault-free outputs *plus* every
        post-recovery decider (any durability mode) — a process that came
        back and decided must agree with the fault-free decisions."""
        outputs = self.fault_free_outputs()
        outputs.update(self.recovered_outputs())
        return outputs

    def common_view(self) -> tuple[InputTuple, ...]:
        """The common view ``Z`` behind the optimality polytope ``I_Z``.

        Deviation from the paper's Eq. (20), documented in DESIGN.md
        (Fidelity notes): the paper intersects only *fault-free* views,
        but its own Lemma 6 proof (Appendix D, Observation 1) requires
        ``X_Z subseteq X_i`` for every process in ``V - F[1]`` — which
        fails when a faulty-but-*alive* process stabilises on a strictly
        smaller view than every fault-free one (legal under stable
        vector's Containment, and reproducible in this harness).  We
        therefore intersect the views of **all processes that completed
        round 0**; under Containment this is simply the minimum view, it
        still has >= n - f entries, and both Lemma 6 and the Theorem 3
        argument go through with it.
        """
        views = [
            set(proc.r_view)
            for proc in self.processes
            if proc.r_view is not None
        ]
        if not views:
            return ()
        common = set.intersection(*views)
        return tuple(sorted(common))

    def common_view_points(self) -> np.ndarray:
        """The multiset ``X_Z`` of input values appearing in ``Z``."""
        entries = self.common_view()
        return np.array([list(entry.value) for entry in entries])
