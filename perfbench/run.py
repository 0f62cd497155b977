#!/usr/bin/env python3
"""Repository benchmark: consensus cells, decided and verified, timed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decide-benign --seed 0 --seconds 25 --trace 0

One process, no threads, no engine worker pool.  A run sets up (imports,
input generation and an untimed warm-up cell, repeated and reported as a
median), runs one traced *guard cell* whose counters must show the
workload took the path it claims, then:

* ``--trace 0`` runs cells with every original function in place for
  ``--seconds`` and prints the end-to-end metrics;
* ``--trace 1`` runs cells untraced for half of ``--seconds``, re-runs
  the first of them (at most ``MAX_TRACED_CELLS``) with the outside-in
  span tracer installed, and prints the per-layer metrics (plus the
  tracing overhead between the two runs of those cells).

End-to-end times are processor time, scaled to a fixed machine speed by
timing :func:`reference_work` before every cell (see ``perfbench/README.md``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-cell records
(seed, timings, decision digest) and, for traced runs, every span are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Set-up repetitions; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Upper bound on cells per run (a run normally ends on time first).
MAX_CELLS = 2000
#: A traced run re-runs at most this many of its untraced cells, which
#: bounds the spans held in memory (about 55,000 per byzantine-bcc cell).
MAX_TRACED_CELLS = 25
#: Every timing is processor time of this single-threaded process: the
#: simulator never waits on a wall clock, so processor time is its cost,
#: and it leaves out time the process spends descheduled.
cpu_clock = time.process_time
#: Median processor time of :func:`reference_work` on the machine the
#: benchmark was defined on (a 2-CPU container, Python 3.11, numpy 2.4).
REFERENCE_S = 0.0045


class GuardError(RuntimeError):
    """A workload missed the code path it claims to exercise."""


@dataclass
class CellOutcome:
    index: int
    seed: int
    ok: bool
    raised: bool = False
    detail: str = ""
    decide_s: float = 0.0
    verify_s: float = 0.0
    digest: str = ""
    counters: dict = field(default_factory=dict)
    states_checked: int = 0
    distinct_checked: int = 0
    rounds_analysed: int = 0

    @property
    def cell_s(self) -> float:
        return self.decide_s + self.verify_s


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------

def scrub_environment() -> None:
    """Unset every ``REPRO_*`` switch so each one takes its default, and
    keep numpy's linear algebra on one thread (call before importing it)."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"


def pin_defaults() -> None:
    """Force every library switch to its default; no shared disk cache."""
    from repro.geometry import batch, cache, intersection, shared_cache

    cache.set_cache_enabled(True)
    batch.set_batch_enabled(None)
    intersection.set_subset_mode("auto")
    shared_cache.set_shared_cache_dir(None)
    if shared_cache.shared_cache_enabled():
        raise RuntimeError("shared disk cache still enabled")


def commit_id() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit_id(),
    }


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------

def reference_work() -> None:
    """Fixed work that uses nothing from ``repro``: dict and tuple churn in
    the interpreter, small numpy products and one Qhull call, the mix a
    cell spends its time on."""
    import numpy as np
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(12345)
    points = rng.standard_normal((40, 3))
    mats = rng.standard_normal((32, 6, 6))
    for _ in range(3):
        acc: dict = {}
        for i in range(3000):
            key = (i % 97, i % 13)
            acc[key] = acc.get(key, 0) + i
        sorted(acc.items())
        for m in mats:
            np.linalg.norm(m @ m.T, ord=2)
        ConvexHull(points)


def time_reference() -> float:
    t0 = cpu_clock()
    reference_work()
    return cpu_clock() - t0


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------

def run_cell(wl, cell, tracer=None) -> CellOutcome:
    """Decide then verify one cell, from cold geometry caches."""
    from repro.geometry.cache import PERF, clear_geometry_caches

    from workloads import CELL_ERRORS, cell_counters, decision_digest

    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    out = CellOutcome(index=cell.index, seed=cell.seed, ok=False)
    clear_geometry_caches()
    before = PERF.snapshot()
    if tracer is not None:
        tracer.cell_id = cell.index
    try:
        with span("bench.cell"):
            t0 = cpu_clock()
            with span("bench.decide"):
                result = wl.decide(cell)
            t1 = cpu_clock()
            with span("bench.verify"):
                verdict = wl.verify(result)
            t2 = cpu_clock()
    except CELL_ERRORS as exc:
        out.raised = True
        out.detail = f"{type(exc).__name__}: {exc}"
        return out
    finally:
        if tracer is not None:
            tracer.cell_id = -1
    out.decide_s, out.verify_s = t1 - t0, t2 - t1
    out.ok, out.detail = verdict.ok, verdict.detail
    out.digest = decision_digest(result)
    out.counters = cell_counters(result, PERF.diff(before))
    out.states_checked = verdict.states_checked
    out.distinct_checked = verdict.distinct_checked
    out.rounds_analysed = verdict.rounds_analysed
    return out


def check_guard(wl, out: CellOutcome, extra: dict | None = None) -> None:
    if out.raised:
        return
    problems = wl.guard({**out.counters, **(extra or {})})
    if problems:
        raise GuardError(
            f"{wl.name} cell {out.index} (seed {out.seed}) missed its path: "
            + "; ".join(problems)
        )


def report_failure(out: CellOutcome) -> None:
    if not out.ok:
        print(f"cell FAILED index={out.index} seed={out.seed}: {out.detail}")


def make_cells(wl, seed: int, count: int, start: int = 0):
    from workloads import Cell, cell_seed

    cells = []
    for index in range(start, start + count):
        s = cell_seed(seed, index)
        cells.append(Cell(index=index, seed=s, inputs=wl.make_inputs(s)))
    return cells


def setup(wl, seed: int, refs: list[float]):
    """Input generation plus one warm-up cell, ``SETUP_REPS`` times."""
    times = []
    for rep in range(SETUP_REPS):
        refs.append(time_reference())
        t0 = cpu_clock()
        cells = make_cells(wl, seed, MAX_CELLS)
        warm = make_cells(wl, seed, 1, start=MAX_CELLS + rep)[0]
        outcome = run_cell(wl, warm)
        times.append(cpu_clock() - t0)
        report_failure(outcome)
    return cells, warm, statistics.median(times)


def timed_cells(wl, cells, seconds: float, refs: list[float], tracer=None):
    """Run cells in list order until ``seconds`` of wall time have passed,
    timing the reference work before each cell.

    Returns the outcomes and the processor time the cells took.
    """
    outcomes = []
    cpu_start = cpu_clock()
    ref_total = 0.0
    deadline = time.perf_counter() + seconds
    for cell in cells:
        if outcomes and time.perf_counter() >= deadline:
            break
        refs.append(time_reference())
        ref_total += refs[-1]
        out = run_cell(wl, cell, tracer)
        report_failure(out)
        check_guard(wl, out)
        outcomes.append(out)
    return outcomes, cpu_clock() - cpu_start - ref_total


def median_of(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def end_to_end(outcomes, elapsed: float, setup_s: float, speed: float) -> dict:
    """End-to-end metrics; times are scaled by ``speed`` to the reference
    machine (see :data:`REFERENCE_S`)."""
    timed = [o for o in outcomes if not o.raised]
    passed = sum(1 for o in outcomes if o.ok)
    return {
        "cell_s": (speed * median_of(o.cell_s for o in timed), "s"),
        "decide_s": (speed * median_of(o.decide_s for o in timed), "s"),
        "verify_s": (speed * median_of(o.verify_s for o in timed), "s"),
        "cells_per_min": (60.0 * len(outcomes) / (speed * elapsed), "cells/cpu-min"),
        "setup_s": (speed * setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
        "pass_frac": (passed / len(outcomes), "ratio"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced, untraced, stats, overhead: float) -> dict:
    """Per-layer metrics: per-cell medians of counts and times, and
    total-over-total ratios, over the traced cells."""
    cells = [o for o in traced if not o.raised]

    def med(fn) -> float:
        return median_of(fn(o) for o in cells)

    def busy(group):
        return lambda o: stats[o.index][group]["busy_s"]

    def self_s(group):
        return lambda o: stats[o.index][group]["self_s"]

    def calls(group):
        return lambda o: stats[o.index][group]["calls"]

    def counter(name):
        return lambda o: o.counters[name]

    def total(fn) -> float:
        return float(sum(fn(o) for o in cells))

    def runtime_self(o):
        return busy("runtime.simulate")(o) - busy("core.handler")(o)

    def sim_layers(o):
        return (
            runtime_self(o)
            + self_s("runtime.stable_vector")(o)
            + self_s("geometry.intern")(o)
            + self_s("geometry.combination")(o)
        )

    base = [o for o in untraced if not o.raised]
    intern_lookups = total(counter("polytope_intern_hits")) + total(
        counter("polytope_intern_misses")
    )
    m = {
        "runtime.deliveries": (med(counter("deliveries")), "count"),
        "runtime.app_messages": (med(counter("app_messages")), "count"),
        "runtime.self_s": (med(runtime_self), "s"),
        "runtime.us_per_delivery": (
            1e6 * _ratio(
                sum(o.decide_s for o in base),
                sum(o.counters["deliveries"] for o in base),
            ),
            "us",
        ),
        "runtime.sched_s": (med(busy("runtime.sched")), "s"),
        "runtime.stable_vector_s": (med(busy("runtime.stable_vector")), "s"),
        "runtime.stable_vector_calls": (med(calls("runtime.stable_vector")), "count"),
        "runtime.frames": (med(counter("frames")), "count"),
        "runtime.frames_per_message": (
            _ratio(total(counter("frames")), total(counter("app_messages"))),
            "frames/msg",
        ),
        "runtime.retransmissions": (med(counter("retransmissions")), "count"),
        "runtime.app_delivery_ratio": (
            _ratio(total(counter("app_messages")), total(counter("frames"))),
            "ratio",
        ),
        "runtime.transport_s": (med(busy("runtime.transport")), "s"),
        "runtime.checkpoint_saves": (med(counter("checkpoint_saves")), "count"),
        "runtime.checkpoint_s": (med(busy("runtime.checkpoint")), "s"),
        "runtime.recoveries": (med(counter("recoveries")), "count"),
        "runtime.rb_s": (med(busy("runtime.rb")), "s"),
        "runtime.byz_mutations": (med(counter("byz_mutations")), "count"),
        "core.handler_self_s": (med(self_s("core.handler")), "s"),
        "core.states": (med(counter("states")), "count"),
        "core.check_validity_s": (med(busy("core.check_validity")), "s"),
        "core.check_optimality_s": (med(busy("core.check_optimality")), "s"),
        "core.check_agreement_s": (med(busy("core.check_agreement")), "s"),
        "core.check_states": (med(lambda o: o.states_checked), "count"),
        "core.check_distinct_frac": (
            _ratio(
                total(lambda o: o.distinct_checked),
                total(lambda o: o.states_checked),
            ),
            "ratio",
        ),
        "geometry.intern_s": (med(busy("geometry.intern")), "s"),
        "geometry.intern_calls": (med(calls("geometry.intern")), "count"),
        "geometry.intern_hit_rate": (
            _ratio(total(counter("polytope_intern_hits")), intern_lookups),
            "ratio",
        ),
        "geometry.combination_s": (med(busy("geometry.combination")), "s"),
        "geometry.combination_calls": (med(calls("geometry.combination")), "count"),
        "geometry.combination_hit_rate": (
            _ratio(
                total(counter("combination_cache_hits")),
                total(counter("combination_calls")),
            ),
            "ratio",
        ),
        "geometry.hull_calls": (med(counter("hull_calls")), "count"),
        "geometry.minkowski_candidates": (med(counter("minkowski_candidates")), "count"),
        "geometry.subset_intersection_s": (
            med(busy("geometry.subset_intersection")),
            "s",
        ),
        "geometry.subset_intersection_calls": (
            med(calls("geometry.subset_intersection")),
            "count",
        ),
        "geometry.projection_s": (med(busy("geometry.projection")), "s"),
        "geometry.projection_calls": (med(calls("geometry.projection")), "count"),
        "geometry.projection_us_per_call": (
            1e6 * _ratio(
                total(busy("geometry.projection")),
                total(calls("geometry.projection")),
            ),
            "us",
        ),
        "geometry.hausdorff_pairs": (med(counter("batch_hausdorff_pairs")), "count"),
        "geometry.hausdorff_pair_prunes": (
            med(counter("batch_hausdorff_pair_prunes")),
            "count",
        ),
        "geometry.hausdorff_vertex_prunes": (
            med(counter("batch_hausdorff_vertex_prunes")),
            "count",
        ),
        "geometry.hausdorff_dedup_groups": (
            med(counter("batch_hausdorff_dedup_groups")),
            "count",
        ),
        "geometry.lp_solves": (med(counter("lp_solves")), "count"),
        "analysis.convergence_s": (med(busy("analysis.convergence")), "s"),
        "analysis.output_size_s": (med(busy("analysis.output_size")), "s"),
        "analysis.rounds_analysed": (med(lambda o: o.rounds_analysed), "count"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.sim_layers_share_of_decide": (
            _ratio(total(sim_layers), total(busy("bench.decide"))),
            "ratio",
        ),
        "trace.projection_share_of_cell": (
            _ratio(total(busy("geometry.projection")), total(busy("bench.cell"))),
            "ratio",
        ),
        "trace.checkpoint_share_of_decide": (
            _ratio(total(busy("runtime.checkpoint")), total(busy("bench.decide"))),
            "ratio",
        ),
    }
    return m


def print_predictions(workload: str, metrics: dict) -> None:
    """Confirm or contradict the workload's recorded layer prediction."""
    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    for pred in layers["predictions"]:
        if pred["workload"] != workload:
            continue
        value = metrics[pred["metric"]][0]
        holds = value >= pred["at_least"]
        print(
            f"prediction {workload}: {pred['claim']} -- "
            f"{pred['metric']}={value:.3f} (want >= {pred['at_least']}): "
            f"{'CONFIRMED' if holds else 'CONTRADICTED'}"
        )


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import the package from the checkout's ``src``; time the import."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro package under {src.name}/ next to "
            f"{BENCH_DIR.name}/; run from the root of a full checkout"
        )
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    t0 = cpu_clock()
    import repro  # noqa: F401
    import workloads  # noqa: F401

    return cpu_clock() - t0


def format_metrics(metrics: dict) -> dict:
    return {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def write_cells(path: Path, meta: dict, groups: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    records = {
        label: [
            {
                "index": o.index,
                "seed": o.seed,
                "ok": o.ok,
                "detail": o.detail,
                "decide_s": o.decide_s,
                "verify_s": o.verify_s,
                "digest": o.digest,
            }
            for o in outcomes
        ]
        for label, outcomes in groups.items()
    }
    path.write_text(json.dumps({"meta": meta, "cells": records}, indent=1))


def main(argv=None) -> int:
    args = parse_args(argv)
    scrub_environment()
    import_s = import_program()
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    pin_defaults()
    env = environment()
    meta = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **env}
    print("perfbench", json.dumps(meta, sort_keys=True))

    refs: list[float] = []
    cells, warm, setup_once = setup(wl, args.seed, refs)
    setup_s = import_s + setup_once

    # Guard cell: the warm-up inputs again, traced, so span counts can be
    # checked as well as counters.  Untimed.
    guard_tracer = Tracer()
    with guard_tracer.installed():
        guard = run_cell(wl, warm, guard_tracer)
    if guard_tracer.missing:
        print("trace: binding sites not found:", ", ".join(guard_tracer.missing))
    gstats = guard_tracer.per_cell([warm.index])[warm.index]
    try:
        report_failure(guard)
        check_guard(wl, guard, {
            "projection_calls": gstats["geometry.projection"]["calls"],
        })
        if args.trace == 0:
            outcomes, elapsed = timed_cells(wl, cells, args.seconds, refs)
            speed = REFERENCE_S / statistics.median(refs)
            print(f"machine speed: reference work {statistics.median(refs):.6f} s "
                  f"(median of {len(refs)}), times scaled by {speed:.4f}")
            metrics = end_to_end(outcomes, elapsed, setup_s, speed)
            groups = {"timed": outcomes}
        else:
            base, _ = timed_cells(wl, cells, args.seconds / 2.0, refs)
            count = min(len(base), MAX_TRACED_CELLS)
            tracer = Tracer()
            with tracer.installed():
                outcomes, _ = timed_cells(wl, cells[:count], float("inf"), refs, tracer)
            stats = tracer.per_cell([o.index for o in outcomes])
            overhead = _ratio(
                median_of(o.cell_s for o in outcomes if not o.raised),
                median_of(o.cell_s for o in base[:count] if not o.raised),
            ) - 1.0
            metrics = per_layer(outcomes, base, stats, overhead)
            print_predictions(wl.name, metrics)
            tracer.write(OUT_DIR / f"spans-{wl.name}.npz", meta)
            groups = {"untraced": base, "traced": outcomes}
    except GuardError as exc:
        print(f"GUARD FAILED: {exc}", file=sys.stderr)
        return 3

    write_cells(OUT_DIR / f"cells-{wl.name}-trace{args.trace}.json", meta, groups)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if not o.ok)
    print(json.dumps({
        "correct": failed == 0 and guard.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": format_metrics(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
