"""Per-layer tracing for the benchmark, done entirely from outside ``src/``.

``Tracer.installed()`` rebinds the layer functions that
``repro.mce.engine``, ``repro.mce.recursions`` and ``repro.core.spark_rmce``
import, so every call into a layer opens a span and adds to that layer's
counters. The program itself is not edited; leaving the context restores
the original bindings.

A span is ``(name, run, parent, start, end)``; every span of one top-level
``enumerate_cliques``/``enumerate_cliques_spark`` call shares its run id, and
each run is tagged with the configuration the caller set in
``Tracer.config``. Spans stay in compact in-memory arrays (every recursion
frame opens a ``dynamic_reduce`` span) and are written out once, at the
end, by ``Tracer.save``.

A layer's self time is its spans' duration minus the time covered by their
child spans. Spark layers also run under a fresh job group per call, and the
group's jobs, stages and tasks are read from the status tracker straight
after the call returns; that read is its own ``trace.status_read`` span so
it is not charged to any layer.
"""
from __future__ import annotations

import contextlib
import itertools
import time
from array import array
from collections import defaultdict

import numpy as np

from repro.core import spark_rmce
from repro.mce import engine, recursions

# (module, attribute, span name) for every wrapped layer entry point.
LOCAL_LAYERS = (
    (engine, "enumerate_cliques", "engine"),
    (engine, "global_reduce_local", "global_reduction"),
    (engine, "degeneracy_order", "degeneracy_order"),
    (engine, "update_ignore_ids", "forbidden_reduction.update"),
    (engine, "reduce_forbidden", "forbidden_reduction.drop"),
    (engine, "build_subproblem", "build_subproblem"),
    (engine, "run_subproblem", "search"),
    (recursions, "dynamic_reduce", "dynamic_reduction"),
)
# (module, attribute, span name, whether to read per-stage task counts).
SPARK_LAYERS = (
    (spark_rmce, "enumerate_cliques_spark", "spark.subproblem_kernel", True),
    (spark_rmce, "global_reduce_spark", "spark.global_reduction", False),
    (spark_rmce, "degeneracy_order_spark", "spark.degeneracy_order", False),
)
STATUS_READ = "trace.status_read"


class _Counter:
    """A ``report`` callback stand-in that counts the cliques passing through."""

    __slots__ = ("report", "n")

    def __init__(self, report):
        self.report = report
        self.n = 0

    def __call__(self, vs) -> None:
        self.n += 1
        self.report(vs)


class Tracer:
    """Spans and counters for one benchmark process."""

    def __init__(self, spark_context=None):
        self.sc = spark_context
        self.config = "untagged"  # tag for the next top-level run
        self.run_config: list[str] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sp_name = array("H")
        self.sp_run = array("l")
        self.sp_parent = array("l")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self._stack: list[int] = []
        self._run = -1
        self.sums: dict[tuple[int, str], float] = defaultdict(float)
        self.maxes: dict[tuple[int, str], float] = {}
        self._groups = itertools.count()

    # -- span recording -------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        stack = self._stack
        if not stack:
            self._run = len(self.run_config)
            self.run_config.append(self.config)
        idx = len(self.sp_start)
        self.sp_name.append(nid)
        self.sp_run.append(self._run)
        self.sp_parent.append(stack[-1] if stack else -1)
        self.sp_start.append(0.0)
        self.sp_end.append(0.0)
        stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.sp_start[idx] = t0
        self.sp_end[idx] = t1

    def add(self, key: str, value: float) -> None:
        self.sums[self._run, key] += value

    def peak(self, key: str, value: float) -> None:
        k = (self._run, key)
        self.maxes[k] = max(self.maxes.get(k, value), value)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, before=None):
        """Span around ``fn``; ``before(args)`` may swap the arguments and
        returns ``(args, state)``; ``after(args, out, state)`` adds counts."""
        nid = self._name_id(name)
        perf = time.perf_counter

        def wrapped(*args, **kwargs):
            idx = self._open(nid)
            state = None
            if before is not None:
                args, state = before(args)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                self._close(idx, t0, t1)
            if after is not None:
                after(args, out, state)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def _local_wrappers(self):
        add, peak = self.add, self.peak

        def gr_after(args, out, _):
            st = out[2]
            add("global_reduction.n_before", st.n_before)
            add("global_reduction.n_after", st.n_after)
            add("global_reduction.m_before", st.m_before)
            add("global_reduction.m_after", st.m_after)
            add("global_reduction.cliques_reported", st.cliques_reported)

        def order_after(args, out, _):
            add("degeneracy_order.vertices", len(out[0]))
            peak("degeneracy_order.degeneracy", out[2])

        def drop_after(args, out, _):
            xb, xa = len(args[0]), len(out)
            add("forbidden_reduction.subproblems", 1)
            add("forbidden_reduction.x_before", xb)
            add("forbidden_reduction.x_after", xa)
            add("forbidden_reduction.subproblems_reduced", xa < xb)

        def build_after(args, out, _):
            add("build_subproblem.calls", 1)
            add("build_subproblem.universe_slots", len(out.ids))

        def search_before(args):
            sub, recursion, dynamic, report, metrics = args
            counter = _Counter(report)
            return (sub, recursion, dynamic, counter, metrics), (
                counter,
                metrics.recursive_calls,
            )

        def search_after(args, out, state):
            counter, calls0 = state
            add("search.recursive_calls", args[4].recursive_calls - calls0)
            add("search.cliques", counter.n)

        def dyn_before(args):
            counter = _Counter(args[5])
            return args[:5] + (counter,), counter

        def dyn_after(args, out, counter):
            add("dynamic_reduction.calls", 1)
            add("dynamic_reduction.useful", (out[3] | out[4]) != 0)
            add("dynamic_reduction.cliques_reported", counter.n)

        hooks = {
            "global_reduction": (None, gr_after),
            "degeneracy_order": (None, order_after),
            "forbidden_reduction.drop": (None, drop_after),
            "build_subproblem": (None, build_after),
            "search": (search_before, search_after),
            "dynamic_reduction": (dyn_before, dyn_after),
        }
        for mod, attr, name in LOCAL_LAYERS:
            before, after = hooks.get(name, (None, None))
            yield mod, attr, self._wrap(name, getattr(mod, attr), after, before)

    def _spark_wrap(self, name: str, fn, after, tasks: bool):
        """Span plus a fresh Spark job group around one layer call."""
        sc = self.sc
        nid, read_nid = self._name_id(name), self._name_id(STATUS_READ)
        perf = time.perf_counter

        def wrapped(*args, **kwargs):
            group = f"bench-{next(self._groups)}-{name}"
            prev = sc.getLocalProperty("spark.jobGroup.id")
            prev_desc = sc.getLocalProperty("spark.job.description")
            idx = self._open(nid)
            t0 = perf()
            try:
                sc.setJobGroup(group, name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    if prev is None:
                        sc.setLocalProperty("spark.jobGroup.id", None)
                        sc.setLocalProperty("spark.job.description", None)
                    else:
                        sc.setJobGroup(prev, prev_desc or prev)
                # A child span, so the read is charged to no layer.
                ridx = self._open(read_nid)
                r0 = perf()
                try:
                    self._read_group(name, group, tasks)
                finally:
                    self._close(ridx, r0, perf())
            finally:
                self._close(idx, t0, perf())
            if after is not None:
                after(args, out, None)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def _read_group(self, name: str, group: str, tasks: bool) -> None:
        """Jobs and stages of one call's job group; with ``tasks``, also
        its completed and failed tasks (one status query per stage)."""
        tracker = self.sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(group)
        stages: set[int] = set()
        for j in jobs:
            info = tracker.getJobInfo(j)
            if info is not None:
                stages.update(info.stageIds)
        self.add(f"{name}.jobs", len(jobs))
        self.add(f"{name}.stages", len(stages))
        if tasks:
            for s in stages:
                info = tracker.getStageInfo(s)
                if info is not None:
                    self.add(f"{name}.tasks", info.numCompletedTasks)
                    self.add(f"{name}.failed_tasks", info.numFailedTasks)

    def _spark_wrappers(self):
        add = self.add

        def engine_after(args, out, _):
            add("spark.subproblem_kernel.recursive_calls", out.recursive_calls)
            add("spark.subproblem_kernel.subproblems", out.subproblems)
            add("spark.subproblem_kernel.x_before", out.x_before)
            add("spark.subproblem_kernel.x_after", out.x_after)

        def gr_after(args, out, _):
            add("spark.global_reduction.rounds", out.rounds)
            add("spark.global_reduction.m_before", out.m_before)
            add("spark.global_reduction.m_after", out.m_after)

        hooks = {
            "spark.subproblem_kernel": engine_after,
            "spark.global_reduction": gr_after,
        }
        for mod, attr, name, tasks in SPARK_LAYERS:
            yield mod, attr, self._spark_wrap(name, getattr(mod, attr), hooks.get(name), tasks)

    @contextlib.contextmanager
    def installed(self):
        """Rebind every layer entry point to its traced wrapper."""
        wrappers = list(self._local_wrappers())
        if self.sc is not None:
            wrappers += list(self._spark_wrappers())
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in wrappers]
        try:
            for mod, attr, w in wrappers:
                setattr(mod, attr, w)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    # -- results ----------------------------------------------------------

    def _arrays(self):
        return (
            np.asarray(self.sp_name, dtype=np.int64),
            np.asarray(self.sp_run, dtype=np.int64),
            np.asarray(self.sp_parent, dtype=np.int64),
            np.asarray(self.sp_start, dtype=np.float64),
            np.asarray(self.sp_end, dtype=np.float64),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per configuration: ``<span>.self_s`` and ``.wall_s`` per span
        name, plus every counter, summed over that configuration's runs."""
        name, run, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_t = dur - child
        cfgs = sorted(set(self.run_config))
        cfg = np.array([cfgs.index(c) for c in self.run_config], dtype=np.int64)[run]
        out: dict[str, dict[str, float]] = {c: {} for c in cfgs}
        for ci, c in enumerate(cfgs):
            sel = cfg == ci
            spans = np.bincount(name[sel], minlength=len(self.names))
            st = np.bincount(name[sel], weights=self_t[sel], minlength=len(self.names))
            for nid, nm in enumerate(self.names):
                if spans[nid]:
                    out[c][f"{nm}.self_s"] = float(st[nid])
            out[c]["wall_s"] = float(dur[sel & ~has_parent].sum())
        for (r, key), v in self.sums.items():
            c = self.run_config[r]
            out[c][key] = out[c].get(key, 0.0) + v
        for (r, key), v in self.maxes.items():
            c = self.run_config[r]
            out[c][key] = max(out[c].get(key, v), v)
        return out

    def save(self, path) -> None:
        """Write every span (and the run → configuration map) to ``path``."""
        name, run, parent, start, end = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            run_config=np.array(self.run_config),
            name=name.astype(np.uint16),
            run=run.astype(np.int32),
            parent=parent,
            start=start,
            end=end,
        )
