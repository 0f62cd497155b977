"""Golden-digest regression: one seeded run per delivery policy.

Each scenario pins the SHA-256 digest of every decided polytope plus the
run report's counters, so any change to the delivery loop that perturbs
a schedule — one extra scheduler draw, one crash noted a step late, one
revival fired out of order — fails here bit-for-bit.  The values were
recorded before the runtimes were merged into one loop (the full-fabric
scenario: before the fabric ready set and the retransmit timers were
made incremental); they must only change together with a deliberate,
documented change of semantics.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis.metrics import convergence_series
from repro.core.runner import run_convex_hull_consensus
from repro.geometry.cache import PERF, clear_geometry_caches
from repro.runtime.channel import ChannelError
from repro.runtime.faults import (
    AMNESIA,
    DURABLE,
    FaultPlan,
    LinkFaultPlan,
    LinkFaultSpec,
)
from repro.runtime.lockstep import run_lockstep_consensus
from repro.workloads import gaussian_cluster
from repro.workloads.scenarios import outlier_attack


def decision_digest(result) -> str:
    digest = hashlib.sha256()
    for pid, poly in sorted(result.trace.outputs().items()):
        digest.update(pid.to_bytes(4, "little"))
        digest.update(
            np.ascontiguousarray(poly.vertices, dtype=np.float64).tobytes()
        )
    return digest.hexdigest()


def fingerprint(result) -> dict:
    report = result.report
    return {
        "digest": decision_digest(result),
        "delivery_steps": report.delivery_steps,
        "messages_sent": report.messages_sent,
        "messages_delivered": report.messages_delivered,
        "recovered": list(report.recovered),
        "app_deliveries": len(report.app_deliveries),
    }


#: Transport counters pinned for the full-fabric scenario: they move with
#: any change to which frames are ready, when timers fire, or when a
#: partition heals — even when the decisions come out the same.
FABRIC_COUNTERS = (
    "retransmissions",
    "ack_messages",
    "partition_heals",
    "corrupt_drops",
)


def fabric_fingerprint(result) -> dict:
    counters = result.report.perf_counters
    return {
        **fingerprint(result),
        **{name: counters.get(name, 0) for name in FABRIC_COUNTERS},
    }


def structural_cc_crash():
    inputs = gaussian_cluster(6, 2, seed=11)
    plan = FaultPlan.crash_at({5: (1, 2)})
    return run_convex_hull_consensus(inputs, 1, 0.3, fault_plan=plan, seed=4)


def structural_bcc_equivocate():
    inputs = gaussian_cluster(7, 2, seed=12)
    plan = FaultPlan.byzantine_at([6], behaviors=("equivocate",), seed=3)
    return run_convex_hull_consensus(
        inputs, 1, 0.4, fault_plan=plan, seed=5, algorithm="bcc"
    )


def structural_amnesia_recovery():
    inputs = gaussian_cluster(5, 2, seed=16)
    plan = FaultPlan.crash_recover({2: (0, 3, 25)}, durability=AMNESIA)
    return run_convex_hull_consensus(inputs, 1, 0.3, fault_plan=plan, seed=8)


def transport_durable_recovery():
    inputs = gaussian_cluster(5, 1, seed=13)
    plan = FaultPlan.crash_recover({4: (1, 1, 40)}, durability=DURABLE)
    return run_convex_hull_consensus(
        inputs,
        1,
        0.3,
        fault_plan=plan,
        seed=6,
        link_faults=LinkFaultPlan.uniform(loss=0.1, seed=2),
    )


def transport_full_fabric_recovery():
    """Every fabric axis at once: dup, delay, reorder, corruption and one
    healing partition (pid 1 cut off over clock [30, 300)), plus one
    durable recovery."""
    inputs = gaussian_cluster(5, 1, seed=17)
    plan = FaultPlan.crash_recover({4: (1, 1, 40)}, durability=DURABLE)
    links = LinkFaultPlan.isolate(
        [1],
        5,
        start=30,
        heal=300,
        base=LinkFaultSpec(dup=0.05, delay=2, reorder=0.1, corrupt=0.05),
        seed=5,
    )
    return run_convex_hull_consensus(
        inputs, 1, 0.3, fault_plan=plan, seed=9, link_faults=links
    )


def lockstep_amnesia_recovery():
    inputs = gaussian_cluster(5, 1, seed=14)
    plan = FaultPlan.crash_recover({3: (1, 2, 10)}, durability=AMNESIA)
    return run_lockstep_consensus(inputs, 1, 0.3, fault_plan=plan)


def raw_transport_error() -> str:
    inputs = gaussian_cluster(5, 1, seed=15)
    with pytest.raises(ChannelError) as info:
        run_convex_hull_consensus(
            inputs,
            1,
            0.3,
            seed=7,
            link_faults=LinkFaultPlan.uniform(loss=0.2, seed=3),
            reliable_transport=False,
        )
    return str(info.value)


GOLDEN = {
    "structural_cc_crash": {
        "digest": "d811c37b2f9cee2db6d0d5df8bd1a18731dab74e39df9c2bf2b0ab51b88223ee",
        "delivery_steps": 573,
        "messages_sent": 662,
        "messages_delivered": 573,
        "recovered": [],
        "app_deliveries": 0,
    },
    "structural_bcc_equivocate": {
        "digest": "acc9203f14d77bdb97b15dd1791fe3b83b7e0631b21462ff8a4599861c0d07de",
        "delivery_steps": 12936,
        "messages_sent": 12936,
        "messages_delivered": 12936,
        "recovered": [],
        "app_deliveries": 0,
    },
    "structural_amnesia_recovery": {
        "digest": "3bd1414a146ac6040805705c7758073888fdd6e6125f198929bcc494061bb6cd",
        "delivery_steps": 403,
        "messages_sent": 403,
        "messages_delivered": 403,
        "recovered": [2],
        "app_deliveries": 0,
    },
    "transport_durable_recovery": {
        "digest": "1d6ed453ff971013af07d9c51be672f0b41b161b3dae1bd0c6fec8c157f27367",
        "delivery_steps": 1264,
        "messages_sent": 417,
        "messages_delivered": 417,
        "recovered": [4],
        "app_deliveries": 417,
    },
    "transport_full_fabric_recovery": {
        "digest": "20e62259935a21e695432a9cdaeeb232269d0d27226e60036dc4639543cf6721",
        "delivery_steps": 1241,
        "messages_sent": 377,
        "messages_delivered": 377,
        "recovered": [4],
        "app_deliveries": 377,
        "retransmissions": 263,
        "ack_messages": 595,
        "partition_heals": 8,
        "corrupt_drops": 51,
    },
    "lockstep_amnesia_recovery": {
        "digest": "0a4cafa31e02c6134da470090b6e5badb5478e31c25e3991b2a4dd872a48d695",
        "delivery_steps": 382,
        "messages_sent": 382,
        "messages_delivered": 382,
        "recovered": [3],
        "app_deliveries": 0,
    },
}

RAW_TRANSPORT_ERROR = (
    "channel 3->0: transport handed the application seq 1, expected 0 "
    "(reliable FIFO exactly-once contract violated)"
)

SCENARIOS = {
    "structural_cc_crash": structural_cc_crash,
    "structural_bcc_equivocate": structural_bcc_equivocate,
    "structural_amnesia_recovery": structural_amnesia_recovery,
    "transport_durable_recovery": transport_durable_recovery,
    "lockstep_amnesia_recovery": lockstep_amnesia_recovery,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_run(name):
    assert fingerprint(SCENARIOS[name]()) == GOLDEN[name]


def test_golden_full_fabric_run():
    assert (
        fabric_fingerprint(transport_full_fabric_recovery())
        == GOLDEN["transport_full_fabric_recovery"]
    )


def test_golden_raw_transport_error():
    assert raw_transport_error() == RAW_TRANSPORT_ERROR


#: PERF fields pinned by the golden-counters test: the lookups, hits and
#: misses of every memoized geometry primitive, the batched Hausdorff
#: tallies and the LP count.  perfbench's hit-rate and pruning metrics
#: are ratios of exactly these fields.
GOLDEN_COUNTER_FIELDS = (
    "hull_calls",
    "hull_cache_hits",
    "hull_cache_misses",
    "subset_intersection_calls",
    "subset_intersection_cache_hits",
    "subset_intersection_cache_misses",
    "combination_calls",
    "combination_cache_hits",
    "combination_cache_misses",
    "polytope_intern_hits",
    "polytope_intern_misses",
    "batch_hausdorff_pairs",
    "batch_hausdorff_pair_prunes",
    "batch_hausdorff_vertex_prunes",
    "batch_hausdorff_dedup_groups",
    "lp_solves",
)

GOLDEN_COUNTERS = {
    # One structural CC run from cold geometry caches.
    "structural_cc_crash": {
        "hull_calls": 20,
        "hull_cache_hits": 4,
        "hull_cache_misses": 16,
        "subset_intersection_calls": 6,
        "subset_intersection_cache_hits": 5,
        "subset_intersection_cache_misses": 1,
        "combination_calls": 90,
        "combination_cache_hits": 87,
        "combination_cache_misses": 3,
        "polytope_intern_hits": 359,
        "polytope_intern_misses": 3,
        "batch_hausdorff_pairs": 0,
        "batch_hausdorff_pair_prunes": 0,
        "batch_hausdorff_vertex_prunes": 0,
        "batch_hausdorff_dedup_groups": 0,
        "lp_solves": 1,
    },
    # convergence_series alone on the starved 2-d outlier run: the
    # faulty pid's state disagrees, so the Hausdorff maximisation runs.
    "starved_2d_convergence": {
        "hull_calls": 0,
        "hull_cache_hits": 0,
        "hull_cache_misses": 0,
        "subset_intersection_calls": 0,
        "subset_intersection_cache_hits": 0,
        "subset_intersection_cache_misses": 0,
        "combination_calls": 0,
        "combination_cache_hits": 0,
        "combination_cache_misses": 0,
        "polytope_intern_hits": 0,
        "polytope_intern_misses": 0,
        "batch_hausdorff_pairs": 24,
        "batch_hausdorff_pair_prunes": 0,
        "batch_hausdorff_vertex_prunes": 21,
        "batch_hausdorff_dedup_groups": 56,
        "lp_solves": 0,
    },
}


def perf_delta(fn) -> dict:
    before = PERF.snapshot()
    fn()
    delta = PERF.diff(before)
    return {name: delta[name] for name in GOLDEN_COUNTER_FIELDS}


def test_golden_counters():
    clear_geometry_caches()
    cc = perf_delta(structural_cc_crash)
    clear_geometry_caches()
    starved = outlier_attack(n=5, d=2).run(seed=0)
    convergence = perf_delta(lambda: convergence_series(starved.trace))
    assert {
        "structural_cc_crash": cc,
        "starved_2d_convergence": convergence,
    } == GOLDEN_COUNTERS
