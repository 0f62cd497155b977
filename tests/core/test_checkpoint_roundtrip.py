"""CCProcess.checkpoint / from_checkpoint: a bit-exact protocol snapshot."""

import json

import numpy as np
import pytest

from repro.core.algorithm_cc import CCProcess
from repro.core.runner import build_config, run_convex_hull_consensus
from repro.geometry.cache import PERF
from repro.runtime.checkpoint import CheckpointStore, checkpoint_digest
from repro.runtime.faults import DURABLE, FaultPlan, LinkFaultPlan
from repro.runtime.messages import freeze_vertices


def _checkpoints_along_a_run(n=5, d=1, seed=7):
    """Every snapshot process 0 saved during one fault-free run."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1.0, 1.0, size=(n, d))
    store = CheckpointStore()
    result = run_convex_hull_consensus(
        inputs,
        1,
        0.2,
        seed=seed,
        input_bounds=(-1.0, 1.0),
        checkpoint_store=store,
    )
    config = build_config(inputs, 1, 0.2, input_bounds=(-1.0, 1.0))
    return config, store, result


def test_checkpoint_is_json_safe_and_stable():
    config, store, _ = _checkpoints_along_a_run()
    data = store.load(0)
    assert data is not None
    # Canonical-JSON round trip is the identity (the digest covers it).
    rehydrated = json.loads(json.dumps(data, sort_keys=True))
    assert checkpoint_digest(rehydrated) == checkpoint_digest(data)


def test_restore_reproduces_identical_checkpoint():
    # restore(checkpoint(p)).checkpoint() == checkpoint(p), bit-for-bit:
    # the round trip loses nothing the protocol can observe.
    config, store, _ = _checkpoints_along_a_run()
    for pid in range(config.n):
        data = store.load(pid)
        restored = CCProcess.from_checkpoint(config, data)
        assert checkpoint_digest(restored.checkpoint()) == checkpoint_digest(
            data
        ), pid


def test_restored_process_is_fresh_not_aliased():
    config, store, _ = _checkpoints_along_a_run()
    data = store.load(0)
    a = CCProcess.from_checkpoint(config, data)
    b = CCProcess.from_checkpoint(config, data)
    assert a is not b
    assert a._h is not b._h
    assert a._sv is not b._sv


def test_final_checkpoint_carries_decision_state():
    config, store, result = _checkpoints_along_a_run()
    data = store.load(0)
    assert data["done"] is True
    restored = CCProcess.from_checkpoint(config, data)
    assert restored.done
    # The restored decision polytope equals the recorded output exactly.
    decided = result.trace.outputs()[0]
    t_end = config.t_end
    np.testing.assert_array_equal(
        np.asarray(data["h"][str(t_end)], dtype=float), decided.vertices
    )


def test_durable_recovery_decision_matches_no_crash_decisions():
    # The recovered process's decision must agree (within eps) with the
    # fault-free processes — here it is byte-identical to what it would
    # have decided anyway, because durable recovery loses no state.
    rng = np.random.default_rng(3)
    inputs = rng.uniform(-1.0, 1.0, size=(5, 1))
    base = run_convex_hull_consensus(
        inputs, 1, 0.2, seed=5, input_bounds=(-1.0, 1.0)
    )
    plan = FaultPlan.crash_recover({4: (1, 0, 6)}, durability=DURABLE)
    recovered = run_convex_hull_consensus(
        inputs, 1, 0.2, fault_plan=plan, seed=5, input_bounds=(-1.0, 1.0)
    )
    assert 4 in recovered.report.recovered
    assert 4 in recovered.report.decided
    for pid, poly in recovered.trace.outputs().items():
        np.testing.assert_array_equal(
            poly.vertices, base.trace.outputs()[pid].vertices
        )


def reference_checkpoint(core: CCProcess) -> dict:
    """The uncached snapshot: every piece rebuilt from live state."""
    sv = core._sv

    def entries(view) -> list:
        return [[list(e.value), e.sender] for e in sorted(view)]

    return {
        "pid": core.pid,
        "round": core._round,
        "done": core._done,
        "input": [float(x) for x in core.input_point],
        "sv": {
            "view": entries(sv._view),
            "latest": {
                str(src): entries(view) for src, view in sv._latest_view.items()
            },
            "result": entries(sv.result) if sv.result is not None else None,
            "broadcasts_sent": sv.broadcasts_sent,
        },
        "h": {
            str(t): [list(v) for v in freeze_vertices(poly.vertices)]
            for t, poly in core._h.items()
        },
        "round_buffer": {
            str(t): {
                str(sender): [list(v) for v in freeze_vertices(poly.vertices)]
                for sender, poly in buf.items()
            }
            for t, buf in core._round_buffer.items()
        },
        "frozen_rounds": sorted(core._frozen_rounds),
    }


def test_checkpoint_matches_reference_at_every_save(monkeypatch):
    checked = []
    cached = CCProcess.checkpoint

    def checked_checkpoint(self):
        data = cached(self)
        assert checkpoint_digest(data) == checkpoint_digest(
            reference_checkpoint(self)
        ), (self.pid, len(checked))
        checked.append(self.pid)
        return data

    monkeypatch.setattr(CCProcess, "checkpoint", checked_checkpoint)
    inputs = np.random.default_rng(29).uniform(-1.0, 1.0, size=(7, 1))
    plan = FaultPlan.crash_recover(
        {5: (1, 3, 60), 6: (2, 5, 120)}, durability=DURABLE
    )
    store = CheckpointStore()
    saves0 = PERF.checkpoint_saves
    result = run_convex_hull_consensus(
        inputs,
        2,
        0.5,
        fault_plan=plan,
        seed=4,
        input_bounds=(-1.0, 1.0),
        checkpoint_store=store,
        link_faults=LinkFaultPlan.uniform(loss=0.1, dup=0.05, seed=4),
    )
    assert sorted(result.report.recovered) == [5, 6]
    # Every CC save went through the comparison; the rest are channel
    # snapshots (one per noted crash and per revival).
    assert len(checked) == PERF.checkpoint_saves - saves0 - 4
    assert set(checked) == set(range(7))


def test_mutating_a_snapshot_leaves_the_next_one_intact():
    config, store, _ = _checkpoints_along_a_run()
    core = CCProcess.from_checkpoint(config, store.load(0))
    first = core.checkpoint()
    expected = checkpoint_digest(first)
    first["h"].clear()
    first["sv"]["latest"].clear()
    first["round_buffer"]["x"] = {}
    first["frozen_rounds"].append(99)
    second = core.checkpoint()
    assert checkpoint_digest(second) == expected
    # The pieces themselves are immutable.
    piece = second["h"]["0"]
    with pytest.raises(TypeError):
        piece[0] = (0.0,)
    with pytest.raises(AttributeError):
        piece[0].append(0.0)
