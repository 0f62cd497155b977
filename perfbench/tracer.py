"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public entry points of the ``repro`` layers from
outside the package: it replaces the attribute at every place a caller
looks the function up (the defining module *and* each module that bound
the name with ``from ... import``), records one span per call, and puts
every original back on :meth:`Tracer.restore`.  Nothing in ``repro`` is
edited, and untimed code paths never see a wrapper.

Spans live in flat in-memory arrays (name id, start, end, parent index,
cell id, outermost-in-group flag) and are written out once, when the run
ends.  A span's self time is its duration minus the durations of its
direct children; a group's busy time sums only its outermost spans, so a
wrapped function that calls another member of its own group (for example
``equal_weight_combination`` calling ``linear_combination``) is not
counted twice.
"""

from __future__ import annotations

import importlib
import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

#: Span group -> binding sites ``(module, attribute path)``.  An attribute
#: path ``Class.method`` patches the method on the class; every other
#: path patches a module-level name where callers look it up.
SITES: dict[str, tuple[tuple[str, str], ...]] = {
    "runtime.simulate": (("repro.core.runner", "run_simulation"),),
    "runtime.sched": (
        ("repro.runtime.scheduler", "RandomScheduler.choose"),
        ("repro.runtime.scheduler", "TargetedDelayScheduler.choose"),
        ("repro.runtime.scheduler", "BurstyScheduler.choose"),
    ),
    "runtime.stable_vector": (
        ("repro.runtime.stable_vector", "StableVectorEngine.start"),
        ("repro.runtime.stable_vector", "StableVectorEngine.on_init"),
        ("repro.runtime.stable_vector", "StableVectorEngine.on_view"),
    ),
    "runtime.transport": (
        ("repro.runtime.transport", "TransportNetwork.send"),
        ("repro.runtime.transport", "TransportNetwork.on_frame"),
        ("repro.runtime.transport", "TransportNetwork.pump"),
        ("repro.runtime.transport", "LossyFabric.send"),
    ),
    "runtime.checkpoint": (
        ("repro.core.algorithm_cc", "CCProcess.checkpoint"),
        ("repro.runtime.transport", "TransportNetwork.checkpoint"),
        ("repro.runtime.checkpoint", "CheckpointStore.save"),
    ),
    "runtime.rb": (
        ("repro.runtime.broadcast", "BrachaBroadcast.broadcast"),
        ("repro.runtime.broadcast", "BrachaBroadcast.on_payload"),
    ),
    "core.handler": (
        ("repro.core.algorithm_cc", "CCProcess.on_message"),
        ("repro.core.algorithm_bcc", "BCCProcess.on_message"),
    ),
    "core.check_validity": (("repro.core.invariants", "check_validity"),),
    "core.check_optimality": (("repro.core.invariants", "check_optimality"),),
    "core.check_agreement": (("repro.core.invariants", "check_agreement"),),
    "geometry.intern": (
        ("repro.geometry.polytope", "ConvexPolytope.from_trusted_vertices"),
    ),
    "geometry.combination": (
        ("repro.core.algorithm_cc", "equal_weight_combination"),
        ("repro.core.algorithm_bcc", "equal_weight_combination"),
        ("repro.geometry.combination", "equal_weight_combination"),
        ("repro.geometry.combination", "linear_combination"),
    ),
    "geometry.subset_intersection": (
        ("repro.core.algorithm_cc", "intersect_subset_hulls"),
        ("repro.core.algorithm_bcc", "intersect_subset_hulls"),
        ("repro.geometry.intersection", "intersect_subset_hulls"),
    ),
    "geometry.projection": (
        ("repro.geometry.projection", "distance_to_hull"),
        ("repro.geometry.polytope", "distance_to_hull"),
        ("repro.geometry.projection", "project_onto_hull"),
        ("repro.geometry.polytope", "project_onto_hull"),
        ("repro.geometry.batch", "project_onto_hull"),
        ("repro.geometry.hausdorff", "project_onto_hull"),
    ),
    "analysis.convergence": (
        ("repro.analysis.metrics", "convergence_series"),
        ("repro.analysis.sweeps", "convergence_series"),
    ),
    "analysis.output_size": (
        ("repro.analysis.metrics", "output_size_report"),
        ("repro.analysis.sweeps", "output_size_report"),
    ),
}

#: Spans the benchmark opens around its own phases (no patching).
PHASES = ("bench.cell", "bench.decide", "bench.verify")


def _resolve(module_name: str, path: str):
    """Return ``(owner, attribute, raw value)`` for one binding site."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory span recorder with install/restore of wrappers."""

    def __init__(self) -> None:
        self.groups: list[str] = list(PHASES) + list(SITES)
        self._gid = {name: i for i, name in enumerate(self.groups)}
        self._depth = [0] * len(self.groups)
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell = array("i")
        self.outer = array("b")
        self.cell_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # ------------------------------------------------------------------
    def _open(self, gid: int) -> int:
        idx = len(self.name)
        self.name.append(gid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cell.append(self.cell_id)
        self.outer.append(1 if self._depth[gid] == 0 else 0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._depth[gid] += 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, gid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self._depth[gid] -= 1
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def span(self, group: str):
        gid = self._gid[group]
        idx = self._open(gid)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, gid, t0, perf_counter())

    def _wrap(self, gid: int, fn):
        def traced(*args, **kwargs):
            idx = self._open(gid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, gid, t0, perf_counter())

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every resolvable binding site; record the missing ones."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for group, sites in SITES.items():
            gid = self._gid[group]
            for module_name, path in sites:
                try:
                    owner, attr, raw = _resolve(module_name, path)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(f"{module_name}:{path}")
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(gid, raw.__func__))
                else:
                    # One wrapper per original function, whatever the
                    # number of names it is bound under.
                    key = id(raw)
                    if key not in wrappers:
                        wrappers[key] = self._wrap(gid, raw)
                    new = wrappers[key]
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)

    def restore(self) -> None:
        """Put every original back and check that each one is in place."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        for owner, attr, raw in self._patches:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not raw:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "cell": np.frombuffer(self.cell, dtype=np.int32),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
            "dur": dur,
            "self": dur - child,
        }

    def per_cell(self, cells: list[int]) -> dict[int, dict[str, dict[str, float]]]:
        """Per cell and group: outermost ``calls``, ``busy_s`` and ``self_s``."""
        if not cells:
            return {}
        a = self.arrays()
        width = len(self.groups)
        size = (max(cells) + 1) * width
        keep = np.isin(a["cell"], cells)
        key = a["cell"][keep].astype(np.int64) * width + a["name"][keep]
        outer = a["outer"][keep]

        def table(keys, weights=None):
            return np.bincount(keys, weights=weights, minlength=size).reshape(-1, width)

        calls = table(key[outer])
        busy = table(key[outer], a["dur"][keep][outer])
        self_s = table(key, a["self"][keep])
        out: dict[int, dict[str, dict[str, float]]] = {}
        for cid in cells:
            out[cid] = {
                group: {
                    "calls": int(calls[cid, gid]),
                    "busy_s": float(busy[cid, gid]),
                    "self_s": float(self_s[cid, gid]),
                }
                for gid, group in enumerate(self.groups)
            }
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write every span (compressed arrays) plus the group-name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        a = self.arrays()
        np.savez_compressed(
            path,
            groups=np.array(self.groups),
            meta=np.array(json.dumps(meta, sort_keys=True)),
            **{k: a[k] for k in ("name", "start", "end", "parent", "cell", "outer")},
        )
