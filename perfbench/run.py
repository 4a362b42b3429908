"""RMCE benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``rmce_s``,
``bk_s``, ``peak_rss_mb``); ``--trace 1`` runs each configuration once
untraced and once traced and prints the per-layer metrics. The end-to-end
times are normalised to a reference host speed by the probe in
``hostspeed.py``; the wall times are printed beside them and recorded. Either way the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the input identity, sample counts and ``fail_frac`` for a reader.
The full record is written to ``.perfbench/<workload>.trace<0|1>.json``
(and the traced spans to ``.perfbench/<workload>.spans.npz``). The exit
code is non-zero when any output fails its reference check.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
CONFIGS = ("rmce", "bk")


def _per(key):
    return lambda s, k: s.get(key, 0.0) / k


def _frac(num, den, empty=0.0):
    return lambda s, k: s.get(num, 0.0) / s[den] if s.get(den) else empty


def _deleted(before, after):
    return lambda s, k: 1.0 - s.get(after, 0.0) / s[before] if s.get(before) else 0.0


def _peak(key):
    return lambda s, k: s.get(key, 0.0)


BOTH, RMCE = CONFIGS, ("rmce",)
GR, FR, DR = "global_reduction", "forbidden_reduction", "dynamic_reduction"
SGR, SDO, SK = "spark.global_reduction", "spark.degeneracy_order", "spark.subproblem_kernel"
# (metric, unit, better, configurations it is reported for, value from the
# trace summary ``s`` of one configuration over ``k`` traced passes).
LAYER_METRICS = (
    (f"{GR}.self_s", "s", "lower", RMCE, _per(f"{GR}.self_s")),
    (f"{GR}.vertices_deleted_frac", "ratio", "higher", RMCE, _deleted(f"{GR}.n_before", f"{GR}.n_after")),
    (f"{GR}.edges_deleted_frac", "ratio", "higher", RMCE, _deleted(f"{GR}.m_before", f"{GR}.m_after")),
    (f"{GR}.cliques_reported", "count", "higher", RMCE, _per(f"{GR}.cliques_reported")),
    ("degeneracy_order.self_s", "s", "lower", BOTH, _per("degeneracy_order.self_s")),
    ("degeneracy_order.vertices", "count", "lower", BOTH, _per("degeneracy_order.vertices")),
    ("degeneracy_order.degeneracy", "count", "lower", BOTH, _peak("degeneracy_order.degeneracy")),
    (f"{FR}.update_s", "s", "lower", RMCE, _per(f"{FR}.update.self_s")),
    (f"{FR}.drop_s", "s", "lower", RMCE, _per(f"{FR}.drop.self_s")),
    (f"{FR}.x_before", "count", "lower", RMCE, _per(f"{FR}.x_before")),
    (f"{FR}.x_after", "count", "lower", RMCE, _per(f"{FR}.x_after")),
    (f"{FR}.r_vertex", "ratio", "lower", RMCE, _frac(f"{FR}.x_after", f"{FR}.x_before", 1.0)),
    (f"{FR}.r_subproblem", "ratio", "higher", RMCE, _frac(f"{FR}.subproblems_reduced", f"{FR}.subproblems")),
    ("build_subproblem.self_s", "s", "lower", BOTH, _per("build_subproblem.self_s")),
    ("build_subproblem.calls", "count", "lower", BOTH, _per("build_subproblem.calls")),
    ("build_subproblem.universe_slots", "count", "lower", BOTH, _per("build_subproblem.universe_slots")),
    ("search.self_s", "s", "lower", BOTH, _per("search.self_s")),
    ("search.recursive_calls", "count", "lower", BOTH, _per("search.recursive_calls")),
    ("search.cliques", "count", "lower", BOTH, _per("search.cliques")),
    (f"{DR}.self_s", "s", "lower", RMCE, _per(f"{DR}.self_s")),
    (f"{DR}.calls", "count", "lower", RMCE, _per(f"{DR}.calls")),
    (f"{DR}.useful_frac", "ratio", "higher", RMCE, _frac(f"{DR}.useful", f"{DR}.calls")),
    (f"{DR}.cliques_reported", "count", "higher", RMCE, _per(f"{DR}.cliques_reported")),
    ("engine.self_s", "s", "lower", BOTH, _per("engine.self_s")),
    (f"{SGR}.self_s", "s", "lower", RMCE, _per(f"{SGR}.self_s")),
    (f"{SGR}.jobs", "count", "lower", RMCE, _per(f"{SGR}.jobs")),
    (f"{SGR}.stages", "count", "lower", RMCE, _per(f"{SGR}.stages")),
    (f"{SGR}.rounds", "count", "lower", RMCE, _per(f"{SGR}.rounds")),
    (f"{SGR}.edges_deleted_frac", "ratio", "higher", RMCE, _deleted(f"{SGR}.m_before", f"{SGR}.m_after")),
    (f"{SDO}.self_s", "s", "lower", BOTH, _per(f"{SDO}.self_s")),
    (f"{SDO}.jobs", "count", "lower", BOTH, _per(f"{SDO}.jobs")),
    (f"{SDO}.stages", "count", "lower", BOTH, _per(f"{SDO}.stages")),
    (f"{SK}.self_s", "s", "lower", BOTH, _per(f"{SK}.self_s")),
    (f"{SK}.jobs", "count", "lower", BOTH, _per(f"{SK}.jobs")),
    (f"{SK}.stages", "count", "lower", BOTH, _per(f"{SK}.stages")),
    (f"{SK}.tasks", "count", "lower", BOTH, _per(f"{SK}.tasks")),
    (f"{SK}.recursive_calls", "count", "lower", BOTH, _per(f"{SK}.recursive_calls")),
    (f"{SK}.failed_tasks", "count", "lower", BOTH, _per(f"{SK}.failed_tasks")),
)
# Spark layers whose job counts two back-to-back calls must agree on.
SPARK_JOB_LAYERS = (SGR, SDO, SK)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    specs = [
        (f"{cfg}.{name}", unit, better)
        for cfg in CONFIGS
        for name, unit, better, cfgs, _ in LAYER_METRICS
        if cfg in cfgs
    ]
    return specs + [("trace.overhead_frac", "ratio", "lower")]


def peak_rss_mb(extra_pids=()) -> float:
    """Peak resident memory of this process plus ``extra_pids``, in MB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in extra_pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                kib += next(int(ln.split()[1]) for ln in f if ln.startswith("VmHWM:"))
        except (OSError, StopIteration, ValueError):
            pass
    return kib * 1024 / 1e6


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, wl, seconds: int):
        self.wl = wl
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}

    def setup(self) -> tuple[float, float]:
        """Build the inputs, then the references; returns the set-up's
        (wall, normalised) seconds."""
        setup = self.wl.setup()
        self.wl.prepare_reference()
        # Cached inputs and references never die: stop rescanning them.
        gc.collect()
        gc.freeze()
        return setup

    def pair(self, order, tracer=None) -> tuple[dict, dict, dict]:
        """Run every configuration once; returns (outputs, per-input wall
        seconds, per-input normalised seconds) by configuration."""
        outs, walls, norms = {}, {}, {}
        for cfg in order:
            if tracer is not None:
                tracer.config = cfg
            timed = self.wl.run(cfg)
            outs[cfg] = [o for o, _, _ in timed]
            walls[cfg] = [w for _, w, _ in timed]
            norms[cfg] = [n for _, _, n in timed]
        fails = self.wl.check(outs)
        self.attempted += sum(len(o) for o in outs.values())
        self.failed += sum(fails.values())
        return outs, walls, norms

    def measure(self) -> tuple[dict[str, float], dict[str, dict[str, list[float]]]]:
        """Passes, alternating which configuration goes first, until the
        timed calls' wall times add up to ``seconds``. Returns, per
        configuration, the sum over inputs of each input's median
        normalised time, and every pass's wall and normalised totals."""
        walls: dict[str, list[list[float]]] = {cfg: [] for cfg in CONFIGS}
        norms: dict[str, list[list[float]]] = {cfg: [] for cfg in CONFIGS}
        k = 0
        while True:
            outs, w, n = self.pair(CONFIGS if k % 2 == 0 else CONFIGS[::-1])
            for cfg in CONFIGS:
                walls[cfg].append(w[cfg])
                norms[cfg].append(n[cfg])
            del outs
            gc.collect()
            k += 1
            if sum(sum(map(sum, p)) for p in walls.values()) >= self.seconds:
                break
        values = {
            f"{cfg}_s": sum(statistics.median(col) for col in zip(*p))
            for cfg, p in norms.items()
        }
        totals = {
            f"{cfg}_s": dict(wall=[sum(t) for t in walls[cfg]], normalised=[sum(t) for t in norms[cfg]])
            for cfg in CONFIGS
        }
        return values, totals

    def trace(self, tracer) -> tuple[dict, dict, int]:
        """A traced warm-up, then traced pairs, each followed by an
        untraced pair on the same inputs, until ``seconds`` of calls;
        returns (trace summary, normalised seconds of the traced and of the
        untraced calls, passes) after checking the trace's
        counts against the program's own counters and, on Spark, the
        warm-up's job counts against the first traced call's."""
        tracer.config = "warmup"
        with tracer.installed():
            self.wl.warmup()
        walls = {"traced": 0.0, "untraced": 0.0}
        program: dict[str, dict[str, float]] = {cfg: {} for cfg in CONFIGS}
        k = 0
        while True:
            with tracer.installed():
                outs, _, t = self.pair(CONFIGS, tracer)
            walls["traced"] += sum(map(sum, t.values()))
            del outs
            outs, _, t = self.pair(CONFIGS)
            walls["untraced"] += sum(map(sum, t.values()))
            for cfg in CONFIGS:
                for key, v in self.wl.counts(cfg, outs[cfg]).items():
                    program[cfg][key] = program[cfg].get(key, 0) + v
            del outs
            gc.collect()
            k += 1
            if sum(walls.values()) >= self.seconds:
                break
        summary = tracer.summary()
        for cfg in CONFIGS:
            s = summary.get(cfg, {})
            s["cliques"] = s.get("search.cliques", 0) + s.get(f"{GR}.cliques_reported", 0)
            for key, v in program[cfg].items():
                self.checks[f"{cfg}: traced {key} == program's"] = s.get(key) == v
        if self.wl.spark_context is not None:
            warm, rmce = summary.get("warmup", {}), summary.get("rmce", {})
            for layer in SPARK_JOB_LAYERS:
                self.checks[f"back-to-back {layer}.jobs equal"] = (
                    warm.get(f"{layer}.jobs", 0) * k == rmce.get(f"{layer}.jobs", 0)
                )
        return summary, walls, k


def layer_metrics(summary, walls, k) -> dict[str, float]:
    out = {}
    for cfg in CONFIGS:
        s = summary.get(cfg, {})
        for name, _, _, cfgs, value in LAYER_METRICS:
            if cfg in cfgs:
                out[f"{cfg}.{name}"] = float(value(s, k))
    out["trace.overhead_frac"] = (walls["traced"] - walls["untraced"]) / walls["untraced"]
    return out


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hostspeed import REF_PROBE_S, HostClock
    from workloads import SETUP_REPEATS, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    WORK_DIR.mkdir(exist_ok=True)
    clock = HostClock()
    wl = WORKLOADS[args.workload](args.seed, WORK_DIR, clock)
    runner = Runner(wl, args.seconds)
    record: dict = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, gc_freeze=True, settings=wl.settings, ref_probe_s=REF_PROBE_S,
    )
    try:
        if args.trace:
            from tracing import Tracer

            runner.setup()
            tracer = Tracer(wl.spark_context)
            summary, walls, k = runner.trace(tracer)
            tracer.save(WORK_DIR / f"{args.workload}.spans.npz")
            units = {name: unit for name, unit, _ in per_layer_specs()}
            values = layer_metrics(summary, walls, k)
            record.update(passes=k, walls=walls, summary=summary)
        else:
            setup_wall, setup_s = runner.setup()
            times, totals = runner.measure()
            units = {"setup_s": "s", "rmce_s": "s", "bk_s": "s", "peak_rss_mb": "MB"}
            values = dict(setup_s=setup_s, **times, peak_rss_mb=peak_rss_mb(wl.rss_pids()))
            record.update(setup_wall_s=setup_wall, pass_totals=totals)
    finally:
        wl.close()
    record.update(probe=clock.summary())

    correct = runner.failed == 0 and all(runner.checks.values())
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    record.update(
        inputs=wl.identity, attempted=runner.attempted, failed=runner.failed,
        checks=runner.checks, correct=correct, metrics=metrics,
    )
    (WORK_DIR / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )

    print(f"# {args.workload} seed={args.seed} trace={args.trace} gc.freeze=on")
    for ident in wl.identity:
        print(" ".join(f"{k}={v}" for k, v in ident.items()))
    totals = record.get("pass_totals", {})
    for name, m in metrics.items():
        if name in totals:
            walls = " ".join(f"{w:.4g}" for w in totals[name]["wall"])
            how = (
                f"normalised; sum over inputs of per-input medians of "
                f"{len(totals[name]['wall'])} passes; pass wall totals {walls} s"
            )
        elif args.trace:
            how = f"per pass, mean of {record['passes']} traced passes"
        elif name == "setup_s":
            how = (
                f"normalised; median of {SETUP_REPEATS} input builds; "
                f"wall {record['setup_wall_s']:.4g} s"
            )
        else:
            how = "peak over the run"
        print(f"{name} {m['value']:.6g} {m['unit']} ({how})")
    if record["probe"]:
        pr = record["probe"]
        print(
            f"probe median {pr['median_s'] * 1e3:.4g} ms over {pr['samples']} samples "
            f"(range {pr['min_s'] * 1e3:.4g}-{pr['max_s'] * 1e3:.4g} ms; "
            f"normalised = wall x {REF_PROBE_S * 1e3:g} ms / probe)"
        )
    frac = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"fail_frac {frac:.6g} ratio ({runner.failed} failed of {runner.attempted} calls)")
    for name, ok in runner.checks.items():
        if not ok:
            print(f"check failed: {name}")
    print(json.dumps(dict(
        correct=correct, attempted=runner.attempted, failed=runner.failed, metrics=metrics,
    )))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
