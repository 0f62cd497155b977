#!/usr/bin/env python
"""A/B benchmark for the batch geometry core and the shared worker cache.

Two claims, recorded into ``BENCH_batch.json`` at the repository root:

* **Batched analysis makes large simulations feasible.**  The headline
  configuration runs one end-to-end pipeline — simulate an ``n=50``,
  ``d=3`` execution, then compute the full per-round convergence series —
  under both ``batch_override`` settings and asserts the batch
  path is at least 10x faster end-to-end while producing bit-identical
  rounds, disagreement values, and decision polytopes.  (At the seed's
  scalar path this analysis took ~5 s *per round* at ``n=50`` — hundreds
  of rounds made such sweeps infeasible in practice.)
* **The shared cache is genuinely cross-worker.**  A two-worker
  ``run_grid`` sweep over seeded scenarios runs twice against one
  ``cache_dir``: the warm pass — fresh worker processes, same directory —
  answers its cold misses from entries the first pass's workers wrote
  (``shared_cache_hits_foreign > 0``) and returns byte-identical rows.
  No wall-clock floor is asserted for the sweep: on single-CPU runners
  (see ``usable_cpus`` in ``BENCH_sweep.json``) worker parallelism
  cannot speed anything up, only the sharing itself is the claim.

``--smoke`` runs a small configuration of both parts in under a minute
for CI's fast tier: bit-identity and counter plumbing are still
asserted, the 10x floor is not (timing floors on shared CI runners are
flake generators).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import record_bench  # noqa: E402
from repro.analysis.engine import TaskSpec, run_grid, task_key  # noqa: E402
from repro.analysis.metrics import convergence_series  # noqa: E402
from repro.analysis.perf_counters import shared_cache_hit_rate  # noqa: E402
from repro.geometry.batch import batch_override  # noqa: E402
from repro.geometry.cache import PERF, clear_geometry_caches  # noqa: E402
from repro.geometry.shared_cache import set_shared_cache_dir  # noqa: E402
from repro.workloads.scenarios import benign  # noqa: E402

#: The end-to-end A/B configurations: (n, d, eps).  eps is chosen so the
#: scalar arm terminates in minutes rather than hours — the speedup is
#: per-round, so it transfers directly to the small-eps runs that were
#: previously infeasible (t_end grows as eps shrinks, the per-round cost
#: does not change).
HEADLINE = {"n": 50, "d": 3, "eps": 20.0, "seed": 0}
SMOKE = {"n": 10, "d": 2, "eps": 0.1, "seed": 0}

BATCH_COUNTER_FIELDS = (
    "batch_hausdorff_pairs",
    "batch_hausdorff_pair_prunes",
    "batch_hausdorff_vertex_prunes",
    "batch_hausdorff_dedup_groups",
)


# ---------------------------------------------------------------------------
# Part 1: end-to-end batch-vs-scalar A/B.


def _pipeline(cfg: dict) -> tuple[dict, float]:
    """Simulate one scenario and analyse it; return (digest, seconds).

    The digest captures everything the batch/scalar contract promises to
    keep bit-identical: the analysed rounds, the exact float bits of the
    per-round disagreement, and every decided polytope's vertex bytes.
    """
    clear_geometry_caches()
    start = time.perf_counter()
    scenario = benign(n=cfg["n"], d=cfg["d"], eps=cfg["eps"], seed=cfg["seed"])
    result = scenario.run(seed=cfg["seed"])
    series = convergence_series(result.trace)
    seconds = time.perf_counter() - start
    digest = {
        "t_end": result.trace.t_end,
        "rounds": list(series.rounds),
        "disagreement_bits": np.asarray(series.disagreement).tobytes().hex(),
        "outputs": {
            pid: hashlib.sha256(poly.vertices.tobytes()).hexdigest()
            for pid, poly in sorted(result.outputs.items())
        },
    }
    return digest, seconds


def measure_ab(cfg: dict, *, name: str, assert_floor: bool) -> dict:
    """Run the pipeline under both switch settings and compare."""
    # Keep the on-disk cache out of the A/B timing: both arms measure
    # computation, not disk reuse.
    previous_dir = set_shared_cache_dir("")
    try:
        with batch_override(False):
            digest_scalar, sec_scalar = _pipeline(cfg)
        before = PERF.snapshot()
        with batch_override(True):
            digest_batch, sec_batch = _pipeline(cfg)
        deltas = PERF.diff(before)
    finally:
        set_shared_cache_dir(previous_dir)

    assert digest_batch == digest_scalar, (
        f"batch and scalar pipelines disagree at {cfg}"
    )
    speedup = sec_scalar / sec_batch
    row = {
        **{k: cfg[k] for k in ("n", "d", "eps", "seed")},
        "t_end": digest_batch["t_end"],
        "rounds_analysed": len(digest_batch["rounds"]),
        "seconds_scalar": sec_scalar,
        "seconds_batch": sec_batch,
        "speedup": speedup,
        "bit_identical": True,
        "batch_counters": {k: int(deltas[k]) for k in BATCH_COUNTER_FIELDS},
        "asserted": assert_floor,
    }
    print(
        f"{name}: n={cfg['n']} d={cfg['d']} eps={cfg['eps']} "
        f"t_end={row['t_end']}  scalar {sec_scalar:8.2f} s  "
        f"batch {sec_batch:6.2f} s  speedup {speedup:6.1f}x"
    )
    # The batch machinery must actually have engaged — dedup groups are
    # counted on every diameter call, prunes whenever bounds cut work.
    assert deltas["batch_hausdorff_dedup_groups"] > 0, (
        "batch diameter path was never taken"
    )
    if assert_floor:
        assert speedup >= 10.0, (
            f"end-to-end speedup only {speedup:.1f}x at {cfg} (floor: 10x)"
        )
    record_bench("batch", name, **row)
    return row


# ---------------------------------------------------------------------------
# Part 2: cross-worker shared-cache sweep.


def scenario_cell(*, seed: int, n: int, d: int, eps: float) -> dict:
    """One sweep cell: simulate + analyse, return a digest row.

    Module-level and JSON-safe so spawned workers can unpickle and
    journal it.  All geometry kernels inside route through the shared
    disk cache whenever the engine exports ``REPRO_CACHE_DIR``.
    """
    scenario = benign(n=n, d=d, eps=eps, seed=seed)
    result = scenario.run(seed=seed)
    series = convergence_series(result.trace)
    return {
        "seed": seed,
        "t_end": result.trace.t_end,
        "disagreement_bits": np.asarray(series.disagreement).tobytes().hex(),
        "outputs_digest": hashlib.sha256(
            b"".join(
                poly.vertices.tobytes()
                for _, poly in sorted(result.outputs.items())
            )
        ).hexdigest(),
    }


def measure_multiworker(*, seeds: int, n: int, d: int, eps: float) -> dict:
    """Cold-then-warm two-worker sweeps against one cache directory."""
    grid = [
        TaskSpec(
            key=task_key(seed=s, n=n, d=d),
            runner=scenario_cell,
            params={"seed": s, "n": n, "d": d, "eps": eps},
        )
        for s in range(seeds)
    ]
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = Path(tmp) / "cache"
        start = time.perf_counter()
        cold = run_grid(grid, workers=2, cache_dir=cache, start_method="spawn")
        sec_cold = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_grid(grid, workers=2, cache_dir=cache, start_method="spawn")
        sec_warm = time.perf_counter() - start
        entries = sum(
            1 for path in cache.rglob("*.npz") if path.is_file()
        )

    assert cold.failed == 0 and warm.failed == 0
    cold_rows = json.dumps(cold.rows(), sort_keys=True)
    warm_rows = json.dumps(warm.rows(), sort_keys=True)
    assert warm_rows == cold_rows, (
        "warm-cache sweep rows differ from the cold-cache run"
    )
    warm_stats = {
        k: int(v)
        for k, v in warm.counters.items()
        if k.startswith("shared_cache")
    }
    hit_rate = shared_cache_hit_rate(warm.counters)
    assert warm_stats.get("shared_cache_hits_foreign", 0) > 0, (
        f"no cross-worker hits on a warm directory: {warm_stats}"
    )
    assert warm_stats.get("shared_cache_errors", 0) == 0, warm_stats
    row = {
        "workers": 2,
        "cells": seeds,
        "n": n,
        "d": d,
        "eps": eps,
        "seconds_cold": sec_cold,
        "seconds_warm": sec_warm,
        "cache_entries": entries,
        "rows_bit_identical_to_cold": True,
        "cross_worker_hit_rate": hit_rate,
        "shared_cache_counters": warm_stats,
        "note": (
            "No wall-clock floor asserted: on single-CPU runners worker "
            "parallelism cannot help; the claim is the sharing itself "
            "(foreign hits > 0, rows byte-identical to the cold run)."
        ),
    }
    print(
        f"multiworker: {seeds} cells, warm pass foreign hits "
        f"{warm_stats.get('shared_cache_hits_foreign', 0)}, "
        f"cross-worker hit rate {hit_rate:.2f}, "
        f"cold {sec_cold:.1f} s warm {sec_warm:.1f} s"
    )
    record_bench("batch", "multiworker_shared_cache", **row)
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast configuration for CI: bit-identity and counter "
        "plumbing only, no timing floors",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        measure_ab(SMOKE, name="smoke_n10_d2", assert_floor=False)
        measure_multiworker(seeds=2, n=8, d=2, eps=0.1)
    else:
        measure_ab(HEADLINE, name="headline_n50_d3", assert_floor=True)
        measure_multiworker(seeds=4, n=8, d=2, eps=0.05)
    print("BENCH_batch.json updated")
    return 0


def bench_batch_smoke(benchmark):
    """pytest-benchmark entry: the smoke subset.

    The full headline A/B is minutes of wall-clock (its scalar arm is the
    point of the benchmark); it is run explicitly via
    ``python benchmarks/bench_batch.py`` to refresh the artifact.
    """
    benchmark.pedantic(lambda: main(["--smoke"]), rounds=1, iterations=1)


if __name__ == "__main__":
    sys.exit(main())
