"""The benchmark's workloads: inputs, timed calls and reference checks.

Every workload runs the same inputs through two configurations of one
public entry point:

- ``rmce`` — all reductions on (RMCEdegen, or the Spark RMCE pipeline);
- ``bk``   — all reductions off (BKdegen, or the Spark baseline).

Inputs are made from the workload seed alone; the program only ever sees
the generated edges. Reference checks run outside the timed region; both
workloads compare against ``repro.mce.reference.maximal_cliques_bruteforce``,
computed once per process.

Every timed call, and every set-up step, runs between two host-speed probe
samples (``hostspeed.HostClock.timed``) and yields its wall time and its
normalised time.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from pyspark import SparkContext
from pyspark.sql import SparkSession

from repro.core import spark_rmce
from repro.graphs import catalog
from repro.gx.graph import edges_df
from repro.mce import engine, reference
from repro.mce.bitgraph import LocalGraph

from hostspeed import HostClock

# A Spark call is bound by the driver's control plane, not by task slots;
# two leave the host-speed probe a core of its own on a 4-core VM.
CORES = min(2, os.cpu_count() or 1)
# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
# Recorded with every spark-pipeline result.
SPARK_CONF = {
    "spark.master": f"local[{CORES}]",
    "spark.driver.memory": "1g",
    "spark.sql.shuffle.partitions": "2",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.driver.host": "127.0.0.1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
}


def relabel(edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Rename vertex ids by a random permutation drawn from ``rng``."""
    perm = rng.permutation(int(edges.max()) + 1 if len(edges) else 0)
    return perm[edges]


def describe(name: str, g: LocalGraph, degeneracy: int, cliques: int, seed: int) -> dict:
    """Input identity recorded with every result."""
    return dict(
        input=name, n=g.n, m=g.m, degeneracy=degeneracy, cliques=cliques, seed=seed
    )


class CatalogSweep:
    """The 18 catalog analogs at bench scale through
    ``repro.mce.engine.enumerate_cliques``, ids relabelled by the seed."""

    name = "catalog-sweep"
    spark_context = None
    settings = {"entry_point": "repro.mce.engine.enumerate_cliques", "recursion": "pivot"}

    # Probes per host-speed sample: one call takes 0.02-2 s.
    PROBES = 3

    def __init__(self, seed: int, work_dir: Path, clock: HostClock):
        self.seed = seed
        self.clock = clock
        self.identity: list[dict] = []

    def setup(self) -> tuple[float, float]:
        """Build every input ``SETUP_REPEATS`` times, each graph between
        probes; returns (wall, normalised) seconds, each the sum over
        inputs of the per-input medians."""
        walls, norms = [], []
        for _ in range(SETUP_REPEATS):
            rng = np.random.default_rng(self.seed)
            inputs, w, n = [], [], []
            for name in catalog.GRAPH_NAMES:
                g, wall, norm = self.clock.timed(
                    lambda: LocalGraph.from_edges(relabel(catalog.edges_for(name, "bench"), rng)),
                    self.PROBES,
                )
                if isinstance(g, Exception):
                    raise g
                inputs.append((name, g))
                w.append(wall)
                n.append(norm)
            self.inputs = inputs
            walls.append(w)
            norms.append(n)
        return tuple(
            sum(statistics.median(col) for col in zip(*t)) for t in (walls, norms)
        )

    def warmup(self) -> None:
        """Local calls have no lazy set-up to pay before a traced run."""

    def run(self, config: str) -> list:
        """One pass: ``(output, wall, normalised)`` per input, where a
        raising call's output is its error."""
        on = config == "rmce"
        return [
            self.clock.timed(lambda: engine.enumerate_cliques(g, "pivot", on, on, on), self.PROBES)
            for _, g in self.inputs
        ]

    def prepare_reference(self) -> None:
        self.expected = [reference.maximal_cliques_bruteforce(g) for _, g in self.inputs]

    @staticmethod
    def _ok(res, expected: set) -> bool:
        """A call passes when it returned, without duplicates, exactly
        the expected clique set."""
        return (
            not isinstance(res, Exception)
            and len(res.reported) == len(res.cliques)
            and res.cliques == expected
        )

    def check(self, outs: dict[str, list]) -> dict[str, int]:
        """Failed calls per configuration."""
        if not self.identity:
            self.identity = [
                describe(name, g, getattr(res, "degeneracy", -1), len(exp), self.seed)
                for (name, g), res, exp in zip(self.inputs, outs["bk"], self.expected)
            ]
        return {
            cfg: sum(not self._ok(r, e) for r, e in zip(res, self.expected))
            for cfg, res in outs.items()
        }

    def counts(self, config: str, outs: list) -> dict[str, int]:
        """The program's own counters for one pass, keyed like the trace's."""
        res = [r for r in outs if isinstance(r, engine.EngineResult)]

        def total(attr: str) -> int:
            return sum(getattr(r.metrics, attr) for r in res)

        c = {
            "search.recursive_calls": total("recursive_calls"),
            "degeneracy_order.vertices": total("subproblems"),
            "cliques": total("cliques"),
        }
        if config == "rmce":
            c.update({
                "forbidden_reduction.subproblems": total("subproblems"),
                "forbidden_reduction.subproblems_reduced": total("subproblems_reduced"),
                "forbidden_reduction.x_before": total("x_before"),
                "forbidden_reduction.x_after": total("x_after"),
                "dynamic_reduction.calls": total("recursive_calls"),
            })
        return c

    def rss_pids(self) -> list[int]:
        return []

    def close(self) -> None:
        pass


class SparkPipeline:
    """Unit ``ca-CondMat`` through ``enumerate_cliques_spark`` in local mode."""

    name = "spark-pipeline"
    settings = dict(
        SPARK_CONF, entry_point="repro.core.spark_rmce.enumerate_cliques_spark", recursion="pivot"
    )

    # Probes per host-speed sample, and seconds between samples during a
    # call: one call takes 10-60 s.
    PROBES = 3
    DURING = 0.25

    def __init__(self, seed: int, work_dir: Path, clock: HostClock):
        self.seed = seed
        self.work_dir = work_dir
        self.clock = clock
        self.spark = None
        self.identity: list[dict] = []

    @property
    def spark_context(self):
        return self.spark.sparkContext

    def _start(self) -> SparkSession:
        """Local-mode session whose scratch files stay in ``work_dir`` and
        whose Python workers import ``repro`` from this checkout's ``src``."""
        tmp = self.work_dir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        src = str(Path(engine.__file__).resolve().parents[2])
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        os.environ["PYSPARK_PYTHON"] = sys.executable
        os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
        os.environ["TMPDIR"] = os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
        tempfile.tempdir = str(tmp)
        builder = (
            SparkSession.builder.appName("perfbench")
            # A pre-touched fixed heap keeps the JVM's resident size steady.
            .config(
                "spark.driver.extraJavaOptions",
                f"-Xms1g -XX:+AlwaysPreTouch -Djava.io.tmpdir={tmp}",
            )
            .config("spark.local.dir", str(tmp))
            .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        )
        for key, value in SPARK_CONF.items():
            builder = builder.config(key, value)
        spark = builder.getOrCreate()
        spark.sparkContext.setLogLevel("ERROR")
        return spark

    def _load(self):
        edges = relabel(catalog.edges_for("ca-CondMat", "unit"), np.random.default_rng(self.seed))
        self.inputs = [("ca-CondMat/unit", LocalGraph.from_edges(edges))]
        self.df = edges_df(self.spark, edges).localCheckpoint(eager=True)

    def setup(self) -> tuple[float, float]:
        """Start the session once, then build the input ``SETUP_REPEATS``
        times; returns (wall, normalised) seconds: the session start plus
        the median input build."""
        spark, wall, norm = self.clock.timed(self._start, self.PROBES, self.DURING)
        if isinstance(spark, Exception):
            raise spark
        self.spark = spark
        builds = []
        for _ in range(SETUP_REPEATS):
            err, w, n = self.clock.timed(self._load, self.PROBES, self.DURING)
            if isinstance(err, Exception):
                raise err
            builds.append((w, n))
        return (
            wall + statistics.median(w for w, _ in builds),
            norm + statistics.median(n for _, n in builds),
        )

    def warmup(self) -> None:
        """One RMCE call before a traced run, so that the session's one-off
        JIT, code generation and worker start-up fall on neither side of
        the traced-versus-untraced comparison."""
        self.run("rmce")

    def run(self, config: str) -> list:
        """One call, cliques collected to the driver:
        ``[(output, wall, normalised)]``."""
        on = config == "rmce"

        def call():
            res = spark_rmce.enumerate_cliques_spark(self.spark, self.df, "pivot", on, on, on)
            return res, [row[0] for row in res.cliques.collect()]

        return [self.clock.timed(call, self.PROBES, self.DURING)]

    def prepare_reference(self) -> None:
        self.expected = reference.maximal_cliques_bruteforce(self.inputs[0][1])

    def _ok(self, out) -> bool:
        if isinstance(out, Exception):
            return False
        rows = [tuple(sorted(int(t) for t in s.split(","))) for s in out[1]]
        return len(rows) == len(set(rows)) and set(rows) == self.expected

    def check(self, outs: dict[str, list]) -> dict[str, int]:
        if not self.identity:
            name, g = self.inputs[0]
            bk = outs["bk"][0]
            lam = -1 if isinstance(bk, Exception) else bk[0].degeneracy
            self.identity = [describe(name, g, lam, len(self.expected), self.seed)]
        return {cfg: int(not self._ok(r)) for cfg, (r,) in outs.items()}

    def counts(self, config: str, outs: list) -> dict[str, int]:
        """The result's own counters for one call, keyed like the trace's."""
        if isinstance(outs[0], Exception):
            return {}
        res = outs[0][0]
        k = "spark.subproblem_kernel"
        c = {
            f"{k}.recursive_calls": res.recursive_calls,
            f"{k}.subproblems": res.subproblems,
            f"{k}.x_before": res.x_before,
            f"{k}.x_after": res.x_after,
        }
        if res.reduction is not None:
            c["spark.global_reduction.rounds"] = res.reduction.rounds
        return c

    def rss_pids(self) -> list[int]:
        """The driver JVM, whose memory is not this process's."""
        proc = getattr(SparkContext._gateway, "proc", None)
        return [proc.pid] if proc is not None else []

    def close(self) -> None:
        """Stop the session and wait for the driver JVM to exit."""
        if self.spark is None:
            return
        gateway = SparkContext._gateway
        self.spark.stop()
        proc = getattr(gateway, "proc", None)
        if gateway is not None:
            gateway.shutdown()
        if proc is not None:
            proc.stdin.close()  # the gateway exits when its stdin closes
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.spark = None


WORKLOADS = {w.name: w for w in (CatalogSweep, SparkPipeline)}
