"""Host-speed probe, so that times measured at different moments compare.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent, over seconds and over minutes, with other tenants' load;
wall and CPU time drift together, so neither alone is steady. A fixed probe
is therefore timed next to every measured call: a pure-Python
Bron–Kerbosch with pivoting over int bitsets on a fixed 48-vertex random
graph. It is written here and shares no code with ``repro``, so a change to
the program never changes the probe.

A call's *normalised* time is its wall time scaled by how much slower the
probe ran around it than ``REF_PROBE_S``::

    normalised = wall * REF_PROBE_S / median(probe times around the call)

so it reads as seconds on a host where one probe takes ``REF_PROBE_S``.
Local calls are probed only between calls, in the calling thread. A Spark
call spends tens of seconds in the driver JVM while the calling thread
waits on a socket, so it is also probed from a background thread every
``during`` seconds of the call; the probe then shares the cores with the
JVM, which at ``local[4]`` on 4 cores can make it slower, so a Spark
change that keeps more cores busy reads slightly faster than it is.
"""
from __future__ import annotations

import random
import statistics
import threading
import time

# Probe time that normalised seconds are scaled to: about the probe's time
# on an idle core of the 4-core VM the bounds were set on.
REF_PROBE_S = 0.5e-3


def _probe_graph(n: int = 48, p: float = 0.3, seed: int = 0) -> list[int]:
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


_ADJ = _probe_graph()


def _bk(adj: list[int], p: int, x: int) -> int:
    """Maximal cliques of ``adj`` extending an implicit R within ``p``."""
    if not p and not x:
        return 1
    best, pivot = -1, 0
    q = p | x
    while q:
        b = q & -q
        q ^= b
        w = b.bit_length() - 1
        c = (p & adj[w]).bit_count()
        if c > best:
            best, pivot = c, w
    found = 0
    cand = p & ~adj[pivot]
    while cand:
        b = cand & -cand
        cand ^= b
        v = b.bit_length() - 1
        found += _bk(adj, p & adj[v], x & adj[v])
        p &= ~b
        x |= b
    return found


def probe_once() -> float:
    """Seconds one probe takes now."""
    t0 = time.perf_counter()
    _bk(_ADJ, (1 << len(_ADJ)) - 1, 0)
    return time.perf_counter() - t0


class HostClock:
    """Probe samples over a run, and the normalised time of a call."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, seconds)

    def probe(self, k: int = 1) -> None:
        """Record the median of ``k`` back-to-back probes as one sample."""
        t0 = time.perf_counter()
        s = statistics.median(probe_once() for _ in range(k))
        self.samples.append((t0, time.perf_counter(), s))

    def scale(self, t0: float, t1: float) -> float:
        """``REF_PROBE_S`` over the median probe of the samples nearest
        before ``t0`` and after ``t1``, and of any in between."""
        before = [s for s in self.samples if s[1] <= t0]
        after = [s for s in self.samples if s[0] >= t1]
        near = [s for s in self.samples if s[1] > t0 and s[0] < t1]
        near += before[-1:] + after[:1]
        if not near:
            raise RuntimeError("no probe sample around the call")
        return REF_PROBE_S / statistics.median(s[2] for s in near)

    def timed(self, fn, k: int = 1, during: float | None = None):
        """Call ``fn()`` between two probe samples, and with a sample every
        ``during`` seconds from a background thread while it runs, if
        given; returns ``(result or the exception raised, wall seconds,
        normalised seconds)``."""
        self.probe(k)
        stop = threading.Event()

        def sample():
            while not stop.wait(during):
                self.probe(k)

        bg = threading.Thread(target=sample, daemon=True) if during else None
        t0 = time.perf_counter()
        if bg is not None:
            bg.start()
        try:
            res = fn()
        except Exception as exc:  # a failed call is counted, not fatal
            res = exc
        finally:
            stop.set()
            if bg is not None:
                bg.join()
        t1 = time.perf_counter()
        self.probe(k)
        return res, t1 - t0, (t1 - t0) * self.scale(t0, t1)

    def summary(self) -> dict[str, float]:
        """Probe times over the run, for the record."""
        s = sorted(x[2] for x in self.samples)
        if not s:
            return {}
        return dict(samples=len(s), min_s=s[0], median_s=statistics.median(s), max_s=s[-1])
