"""The benchmark's four workloads and the cell that runs each of them.

A *cell* is one consensus execution run the way a sweep runs it:
**decide** (``run_convex_hull_consensus`` until every correct process has
decided), then **verify** (check the paper's properties and analyse the
trace).  Every workload pins its own parameters here, so a change to a
``repro.workloads.scenarios`` default cannot change the load.

Library functions are always called through their module
(``runner.run_convex_hull_consensus``, ``invariants.check_agreement``,
...), never through a name bound at import, so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis import metrics
from repro.core import invariants, runner
from repro.core.algorithm_cc import EmptyInitialPolytopeError
from repro.geometry import intersection
from repro.geometry.errors import GeometryError
from repro.geometry.polytope import ConvexPolytope
from repro.geometry.tolerances import INVARIANT_TOL
from repro.runtime.faults import FaultPlan, LinkFaultPlan
from repro.runtime.scheduler import (
    BurstyScheduler,
    RandomScheduler,
    TargetedDelayScheduler,
)
from repro.runtime.simulator import SimulationError
from repro.workloads import inputs as gen

#: Exceptions that make a cell count as failed instead of aborting the run
#: (``TransportBudgetError`` is a ``SimulationError``).
CELL_ERRORS = (SimulationError, EmptyInitialPolytopeError, GeometryError)


@dataclass(frozen=True)
class Cell:
    """One execution of a workload: its index, derived seed and inputs."""

    index: int
    seed: int
    inputs: np.ndarray


@dataclass
class Verdict:
    """What verify found, plus the counts the per-layer report needs."""

    ok: bool
    detail: str
    states_checked: int
    distinct_checked: int
    rounds_analysed: int


@dataclass(frozen=True)
class Workload:
    """One workload; why it was chosen is recorded in ``BENCHMARK.json``."""

    name: str
    make_inputs: Callable[[int], np.ndarray]
    decide: Callable[[Cell], runner.CCResult]
    verify: Callable[[runner.CCResult], Verdict]
    #: Guard on one cell's counters; returns the problems it found.
    guard: Callable[[dict[str, float]], list[str]]


def cell_seed(seed: int, index: int) -> int:
    """Seed of cell ``index`` in the list derived from the run's seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# ----------------------------------------------------------------------
# Verify
# ----------------------------------------------------------------------

def _distinct(polytopes) -> list[ConvexPolytope]:
    seen: dict[bytes, ConvexPolytope] = {}
    for poly in polytopes:
        seen.setdefault(poly.vertices.tobytes(), poly)
    return list(seen.values())


def check_outputs(result: runner.CCResult) -> Verdict:
    """Output-level checks: the paper's properties on decisions only.

    Termination, ε-agreement and the stable-vector properties; validity
    of each distinct decided polytope against the hull of correct inputs,
    by projection as ``check_validity`` does; containment of ``I_Z`` in
    each distinct decided polytope (CC runs, which have stable-vector
    views), by the decided polytope's halfspaces.

    ``I_Z`` often equals the decision up to the last bits, and projecting
    a vertex onto a polytope that has it as a near-vertex runs the
    projection solver to its iteration cap, at a cost that swings
    sixfold between inputs; the halfspace test is exact enough and cheap.
    """
    trace = result.trace
    problems = []
    if not invariants.check_termination(trace).ok:
        problems.append("termination")
    agreement = invariants.check_agreement(trace)
    if not agreement.ok:
        problems.append(f"agreement {agreement.disagreement:.3g}")
    if not invariants.check_stable_vector(trace).ok:
        problems.append("stable-vector")
    outputs = trace.agreement_outputs()
    distinct = _distinct(outputs.values())
    hull = ConvexPolytope.from_points(trace.correct_inputs)
    for poly in distinct:
        if max(hull.distance_to_point(v) for v in poly.vertices) > INVARIANT_TOL:
            problems.append("validity")
    if any(proc.r_view is not None for proc in trace.processes):
        iz = intersection.optimal_polytope_iz(trace.common_view_points(), trace.f)
        if not iz.is_empty:
            for poly in distinct:
                if max(poly.violation(v) for v in iz.vertices) > INVARIANT_TOL:
                    problems.append("optimality")
    return Verdict(
        ok=not problems,
        detail=", ".join(problems),
        states_checked=len(outputs),
        distinct_checked=len(distinct),
        rounds_analysed=0,
    )


def verify_outputs(result: runner.CCResult) -> Verdict:
    """Output-level checks, then ``convergence_series`` on the trace."""
    verdict = check_outputs(result)
    verdict.rounds_analysed = len(metrics.convergence_series(result.trace).rounds)
    return verdict


def verify_with_sizes(result: runner.CCResult) -> Verdict:
    """Output-level verify plus ``output_size_report``.

    Together with ``convergence_series`` this is the analysis a sweep row
    reports.  The all-states validity and optimality passes of
    ``check_all`` are left out: their cost swings tenfold from one input
    to the next, which no run short enough for this benchmark can
    average out.
    """
    verdict = verify_outputs(result)
    metrics.output_size_report(result.trace)
    return verdict


def decision_digest(result: runner.CCResult) -> str:
    """SHA-256 over every decided polytope, in pid order (information only)."""
    digest = hashlib.sha256()
    for pid, poly in sorted(result.trace.outputs().items()):
        digest.update(pid.to_bytes(4, "little"))
        digest.update(np.ascontiguousarray(poly.vertices, dtype=np.float64).tobytes())
    return digest.hexdigest()


def cell_counters(result: runner.CCResult, perf: dict[str, int]) -> dict[str, float]:
    """Counts of one cell: PERF deltas plus run-report and trace counts."""
    report = result.report
    transport = bool(report.app_deliveries)
    counters: dict[str, float] = dict(perf)
    counters["deliveries"] = report.delivery_steps
    counters["app_messages"] = report.messages_delivered
    counters["frames"] = report.delivery_steps if transport else 0
    counters["recoveries"] = len(report.recovered)
    counters["states"] = sum(
        1 for proc in result.trace.processes for _ in proc.all_states()
    )
    counters["byz_mutations"] = (
        perf["byz_equivocations"] + perf["byz_forgeries"] + perf["byz_omissions"]
    )
    return counters


# ----------------------------------------------------------------------
# decide-benign: simulation and per-delivery load
# ----------------------------------------------------------------------

BENIGN_N, BENIGN_D, BENIGN_F, BENIGN_EPS = 12, 3, 1, 5.0


def _benign_inputs(seed: int) -> np.ndarray:
    return gen.gaussian_cluster(BENIGN_N, BENIGN_D, seed=seed)


def _benign_decide(cell: Cell) -> runner.CCResult:
    return runner.run_convex_hull_consensus(
        cell.inputs,
        BENIGN_F,
        BENIGN_EPS,
        scheduler=RandomScheduler(seed=cell.seed),
        seed=cell.seed,
    )


def _benign_guard(c: dict[str, float]) -> list[str]:
    problems = []
    if c["checkpoint_saves"]:
        problems.append(f"checkpoint_saves={c['checkpoint_saves']} (want 0)")
    if c["frames"]:
        problems.append(f"frames={c['frames']} (want 0)")
    if c["batch_hausdorff_pairs"]:
        problems.append(
            f"batch_hausdorff_pairs={c['batch_hausdorff_pairs']} (want 0)"
        )
    return problems


# ----------------------------------------------------------------------
# sweep-outlier: analysis-bound, real disagreement
# ----------------------------------------------------------------------

OUTLIER_N, OUTLIER_D, OUTLIER_F, OUTLIER_EPS = 5, 2, 1, 0.05
OUTLIER_MAGNITUDE = 5.0
OUTLIER_BOUNDS = (-6.0, 6.0)


def _outlier_inputs(seed: int) -> np.ndarray:
    faulty = list(range(OUTLIER_N - OUTLIER_F, OUTLIER_N))
    raw = gen.gaussian_cluster(OUTLIER_N, OUTLIER_D, seed=seed)
    return gen.with_outliers(raw, faulty, magnitude=OUTLIER_MAGNITUDE, seed=seed)


def _outlier_decide(cell: Cell) -> runner.CCResult:
    faulty = frozenset(range(OUTLIER_N - OUTLIER_F, OUTLIER_N))
    return runner.run_convex_hull_consensus(
        cell.inputs,
        OUTLIER_F,
        OUTLIER_EPS,
        fault_plan=FaultPlan.silent_faulty(faulty),
        scheduler=TargetedDelayScheduler(slow=faulty, seed=cell.seed),
        seed=cell.seed,
        input_bounds=OUTLIER_BOUNDS,
    )


def _outlier_guard(c: dict[str, float]) -> list[str]:
    problems = []
    if c["batch_hausdorff_pairs"] <= 0:
        problems.append("batch_hausdorff_pairs=0 (want > 0)")
    # Span counts exist only for the traced guard cell.
    if "projection_calls" in c and c["projection_calls"] <= 0:
        problems.append("projection calls=0 (want > 0)")
    return problems


# ----------------------------------------------------------------------
# lossy-recovery: transport and crash-recovery layers
# ----------------------------------------------------------------------

LOSSY_N, LOSSY_D, LOSSY_F, LOSSY_EPS = 7, 1, 2, 1.0
#: ``{pid: (round, after_sends, recover_at)}`` — durable recoveries.
LOSSY_RECOVERIES = {5: (1, 3, 400), 6: (2, 5, 800)}
LOSSY_LINKS = {"loss": 0.1, "dup": 0.05, "reorder": 0.1}


def _lossy_inputs(seed: int) -> np.ndarray:
    return gen.uniform_box(LOSSY_N, LOSSY_D, seed=seed)


def _lossy_decide(cell: Cell) -> runner.CCResult:
    return runner.run_convex_hull_consensus(
        cell.inputs,
        LOSSY_F,
        LOSSY_EPS,
        fault_plan=FaultPlan.crash_recover(LOSSY_RECOVERIES),
        scheduler=BurstyScheduler(seed=cell.seed),
        seed=cell.seed,
        link_faults=LinkFaultPlan.uniform(**LOSSY_LINKS, seed=cell.seed),
    )


def _lossy_guard(c: dict[str, float]) -> list[str]:
    problems = []
    if c["checkpoint_saves"] <= 0:
        problems.append("checkpoint_saves=0 (want > 0)")
    if c["retransmissions"] <= 0:
        problems.append("retransmissions=0 (want > 0)")
    if c["recoveries"] != len(LOSSY_RECOVERIES):
        problems.append(
            f"recoveries={c['recoveries']} (want {len(LOSSY_RECOVERIES)})"
        )
    return problems


# ----------------------------------------------------------------------
# byzantine-bcc: reliable broadcast and the Byzantine engine
# ----------------------------------------------------------------------

BYZ_N, BYZ_D, BYZ_F, BYZ_EPS = 7, 2, 1, 0.1


def _byz_inputs(seed: int) -> np.ndarray:
    return gen.gaussian_cluster(BYZ_N, BYZ_D, seed=seed)


def _byz_decide(cell: Cell) -> runner.CCResult:
    return runner.run_convex_hull_consensus(
        cell.inputs,
        BYZ_F,
        BYZ_EPS,
        fault_plan=FaultPlan.byzantine_at([BYZ_N - 1], seed=cell.seed),
        seed=cell.seed,
        algorithm="bcc",
    )


def _byz_guard(c: dict[str, float]) -> list[str]:
    if c["byz_mutations"] <= 0:
        return ["byzantine mutations=0 (want > 0)"]
    return []


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="decide-benign",
            make_inputs=_benign_inputs,
            decide=_benign_decide,
            verify=verify_outputs,
            guard=_benign_guard,
        ),
        Workload(
            name="sweep-outlier",
            make_inputs=_outlier_inputs,
            decide=_outlier_decide,
            verify=verify_with_sizes,
            guard=_outlier_guard,
        ),
        Workload(
            name="lossy-recovery",
            make_inputs=_lossy_inputs,
            decide=_lossy_decide,
            verify=verify_outputs,
            guard=_lossy_guard,
        ),
        Workload(
            name="byzantine-bcc",
            make_inputs=_byz_inputs,
            decide=_byz_decide,
            # No convergence_series: in about one cell in thirty the
            # adversary's own states disagree and the Hausdorff pairs
            # take a thousand times the rest of the verify.
            verify=check_outputs,
            guard=_byz_guard,
        ),
    )
}
