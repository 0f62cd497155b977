"""Algorithm BCC: the Byzantine sibling at ``max(3f+1, (d+2)f+1)``.

The tentpole claims, exercised end to end:

* without an adversary BCC decides and satisfies every invariant that
  applies to it (validity, eps-agreement, termination — optimality is a
  crash-model statement and reported ``n/a``);
* with up to ``f`` Byzantine processes (each behavior, and all of them)
  the *correct* processes still decide compatibly — the bound holds;
* the crash algorithm under the same adversary breaks — the bound gap
  is real, which is exactly what the chaos ``byzantine-vs-crash``
  profile samples;
* runs are deterministic and agree across runtimes.
"""

import numpy as np
import pytest

from repro.core.algorithm_cc import EmptyInitialPolytopeError
from repro.core.invariants import check_all
from repro.core.runner import run_convex_hull_consensus
from repro.geometry.hausdorff import hausdorff_distance
from repro.runtime.faults import FaultPlan


@pytest.fixture(scope="module")
def inputs_1d():
    rng = np.random.default_rng(42)
    return rng.uniform(-1.0, 1.0, size=(4, 1))


@pytest.fixture(scope="module")
def inputs_2d():
    rng = np.random.default_rng(7)
    return rng.uniform(-1.0, 1.0, size=(5, 2))


def run_bcc(inputs, plan=None, *, eps=0.4, seed=3):
    return run_convex_hull_consensus(
        inputs,
        1,
        eps,
        algorithm="bcc",
        fault_plan=plan,
        seed=seed,
        input_bounds=(-1.0, 1.0),
    )


class TestFaultFree:
    def test_decides_and_passes_invariants_1d(self, inputs_1d):
        res = run_bcc(inputs_1d)
        assert sorted(res.report.decided) == [0, 1, 2, 3]
        report = check_all(res.trace)
        assert report.ok
        assert report.optimality is None  # no stable-vector phase

    def test_decides_and_passes_invariants_2d(self, inputs_2d):
        res = run_bcc(inputs_2d)
        assert sorted(res.report.decided) == [0, 1, 2, 3, 4]
        assert check_all(res.trace).ok

    def test_deterministic_replay(self, inputs_1d):
        a = run_bcc(inputs_1d)
        b = run_bcc(inputs_1d)
        for pid in a.outputs:
            assert a.outputs[pid].vertices == pytest.approx(
                b.outputs[pid].vertices
            )

    def test_agreement_within_eps(self, inputs_2d):
        res = run_bcc(inputs_2d, eps=0.3)
        outs = list(res.outputs.values())
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                assert hausdorff_distance(outs[i], outs[j]) < 0.3


class TestUnderAdversary:
    @pytest.mark.parametrize("behavior", ["equivocate", "forge", "omit"])
    def test_single_behavior_adversary_survived(self, inputs_1d, behavior):
        plan = FaultPlan.byzantine_at([3], behaviors=(behavior,), seed=5)
        res = run_bcc(inputs_1d, plan)
        assert set(res.report.decided) >= {0, 1, 2}
        report = check_all(res.trace)
        assert report.ok

    def test_full_behavior_adversary_survived_2d(self, inputs_2d):
        plan = FaultPlan.byzantine_at([2], seed=11)
        res = run_bcc(inputs_2d, plan)
        assert set(res.report.decided) >= {0, 1, 3, 4}
        report = check_all(res.trace)
        assert report.ok
        assert report.validity.adversary_states >= 0

    def test_correct_outputs_agree_despite_adversary(self, inputs_1d):
        plan = FaultPlan.byzantine_at([3], seed=5)
        res = run_bcc(inputs_1d, plan, eps=0.4)
        correct = {p: res.outputs[p] for p in (0, 1, 2) if p in res.outputs}
        outs = list(correct.values())
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                assert hausdorff_distance(outs[i], outs[j]) < 0.4

    def test_validity_over_correct_inputs_only(self, inputs_1d):
        # Every correct decision lies inside the hull of the *correct*
        # inputs, however hard the adversary forges off-hull points.
        plan = FaultPlan.byzantine_at([3], behaviors=("forge",), seed=9)
        res = run_bcc(inputs_1d, plan)
        lo = float(inputs_1d[:3].min())
        hi = float(inputs_1d[:3].max())
        for pid in (0, 1, 2):
            for vertex in res.outputs[pid].vertices:
                assert lo - 1e-9 <= vertex[0] <= hi + 1e-9


class TestBoundGap:
    def test_crash_algorithm_breaks_under_byzantine_plan(self, inputs_1d):
        # The bound-gap probe: CC at its own bound facing equivocation
        # and forgery must violate a safety property (or fail to
        # terminate) — this is the behavior the Byzantine bound exists
        # to prevent.
        from repro.runtime.simulator import SimulationError

        plan = FaultPlan.byzantine_at([3], seed=5)
        try:
            res = run_convex_hull_consensus(
                inputs_1d,
                1,
                0.4,
                algorithm="cc",
                fault_plan=plan,
                seed=7,
                input_bounds=(-1.0, 1.0),
            )
        except SimulationError:
            return  # quiescence without decisions: a termination finding
        assert not check_all(res.trace).ok

    def test_below_bound_empty_intersection(self):
        # One below the Byzantine bound (n=3 < 4 for d=1, f=1) with
        # distinct inputs: the round-0 f-trim intersects disjoint
        # singletons and must come up empty.
        inputs = np.array([[-0.5], [0.0], [0.5]])
        with pytest.raises(EmptyInitialPolytopeError):
            run_convex_hull_consensus(
                inputs,
                1,
                0.4,
                algorithm="bcc",
                enforce_resilience=False,
                input_bounds=(-1.0, 1.0),
            )


class TestCrossRuntime:
    def test_lockstep_matches_invariants(self, inputs_1d):
        from repro.runtime.lockstep import run_lockstep_consensus

        res = run_lockstep_consensus(inputs_1d, 1, 0.4, algorithm="bcc")
        assert sorted(res.report.decided) == [0, 1, 2, 3]
        assert check_all(res.trace).ok

    def test_asyncio_matches_invariants(self, inputs_1d):
        from repro.runtime.asyncio_runtime import run_asyncio_consensus

        res = run_asyncio_consensus(inputs_1d, 1, 0.4, seed=3, algorithm="bcc")
        assert sorted(res.report.decided) == [0, 1, 2, 3]
        assert check_all(res.trace).ok

    def test_transport_run_with_byzantine(self, inputs_1d):
        from repro.runtime.faults import LinkFaultPlan, LinkFaultSpec

        plan = FaultPlan.byzantine_at([3], seed=5)
        link = LinkFaultPlan(default=LinkFaultSpec(loss=0.05), seed=2)
        res = run_convex_hull_consensus(
            inputs_1d,
            1,
            0.4,
            algorithm="bcc",
            fault_plan=plan,
            link_faults=link,
            seed=3,
            input_bounds=(-1.0, 1.0),
        )
        assert set(res.report.decided) >= {0, 1, 2}
        assert check_all(res.trace).ok


class TestInterface:
    def test_unknown_algorithm_rejected(self, inputs_1d):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_convex_hull_consensus(inputs_1d, 1, 0.4, algorithm="pbft")

    def test_bcc_requires_byzantine_fault_model_config(self, inputs_1d):
        from repro.core.algorithm_bcc import BCCProcess
        from repro.core.runner import build_config
        from repro.runtime.tracing import ProcessTrace

        config = build_config(inputs_1d, 1, 0.4)  # crash model
        with pytest.raises(ValueError, match="fault_model"):
            BCCProcess(
                pid=0,
                config=config,
                input_point=inputs_1d[0],
                trace=ProcessTrace(pid=0, input_point=inputs_1d[0].copy()),
            )


@pytest.mark.parametrize("entry", ["simulator", "lockstep", "asyncio"])
def test_every_entry_point_checks_the_byzantine_bound(entry):
    from repro.runtime.asyncio_runtime import run_asyncio_consensus
    from repro.runtime.lockstep import run_lockstep_consensus

    run = {
        "simulator": run_convex_hull_consensus,
        "lockstep": run_lockstep_consensus,
        "asyncio": run_asyncio_consensus,
    }[entry]
    inputs = np.random.default_rng(5).uniform(-1.0, 1.0, size=(7, 2))
    plan = FaultPlan.byzantine_at([5, 6])
    with pytest.raises(ValueError, match="2 Byzantine processes exceed"):
        run(inputs, 1, 0.4, fault_plan=plan, algorithm="bcc")
