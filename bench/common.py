"""Passes and how `run.py` turns replayed passes into metrics.

A run replays its workload REPLAYS times with identical inputs on fresh
state. A pass records every timed unit of work (a request, a user action,
an episode, a restart) and the wall time of its measured loop. The
throughput of a replay is its successful operations over its own loop
time, and the run reports the median replay, so a slow spell of the
shared host has to last through most of a run to move the figure.
Failure counts are summed over the replays; the replays must agree on
them, because the workloads are deterministic.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import harness

REPLAYS = 5


@dataclass
class Unit:
    kind: str
    seconds: float
    ops_ok: int = 1


@dataclass
class Pass:
    setup_s: float = 0.0
    loop_s: float = 0.0  # wall time of the measured loop
    units: list[Unit] = field(default_factory=list)
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    unexplained: list[str] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    client_seconds: float = 0.0
    dumps: list[dict] = field(default_factory=list)
    fingerprint: str = ""  # digest of outputs that must repeat exactly across replays
    _start: float = field(default_factory=time.perf_counter, repr=False)

    def start_clock(self) -> None:
        self._start = time.perf_counter()

    def stop_clock(self) -> None:
        self.loop_s = time.perf_counter() - self._start

    def add(self, kind: str, seconds: float, ops_ok: int = 1) -> None:
        self.units.append(Unit(kind, seconds, ops_ok))

    def fail(self, reason: str, detail: str = "") -> None:
        """Count a failed operation. A `detail` marks an output the benchmark cannot explain."""
        self.failures[reason] += 1
        if detail:
            self.unexplained.append(detail)


@dataclass
class Summary:
    metrics: dict[str, float]
    report: list[tuple[str, float, str, str]]
    attempted: int
    failures: Counter
    unexplained: list[str]


def replays_agree(passes: list[Pass]) -> bool:
    shapes = {(tuple(u.kind for u in p.units), tuple(sorted(p.failures.items())), p.fingerprint) for p in passes}
    return len(shapes) == 1


def summarize(passes: list[Pass], latency_kinds: tuple[str, ...], peak_rss_mb: float) -> Summary:
    """Gated metrics from the median replay; latency lines from each unit's best replay."""
    failures: Counter = Counter()
    unexplained: list[str] = []
    for p in passes:
        failures.update(p.failures)
        unexplained.extend(p.unexplained)
    first = passes[0]
    if not replays_agree(passes):
        unexplained.append("replays of the same inputs did not run the same operations or fail the same way")
        passes = [first]

    best = [min(p.units[i].seconds for p in passes) for i in range(len(first.units))]
    timed = [s for s, u in zip(best, first.units) if u.kind in latency_kinds]
    ops_ok = sum(u.ops_ok for u in first.units)
    rates = [ops_ok / p.loop_s for p in passes]
    metrics = {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": harness.percentile(timed, 50) * 1000.0,
        "latency_p90_ms": harness.percentile(timed, 90) * 1000.0,
        "peak_rss_mb": peak_rss_mb,
    }
    n = len(passes)
    report = [
        ("setup_s", metrics["setup_s"], "s", f"median of {n} set-ups"),
        ("ops_per_s", metrics["ops_per_s"], "1/s", f"{ops_ok} ok per replay, median of {n} replays ({min(rates):.2f} to {max(rates):.2f})"),
        ("latency_p50_ms", metrics["latency_p50_ms"], "ms", f"n={len(timed)} {'+'.join(latency_kinds)}, best of {n}, not gated"),
        ("latency_p90_ms", metrics["latency_p90_ms"], "ms", f"n={len(timed)} {'+'.join(latency_kinds)}, best of {n}, not gated"),
        ("peak_rss_mb", peak_rss_mb, "MB", "program process"),
    ]
    return Summary(metrics, report, sum(p.attempted for p in passes), failures, unexplained)


def samples(passes: list[Pass], kind: str) -> list[float]:
    """Seconds of every unit of `kind` in every replay."""
    return [u.seconds for p in passes for u in p.units if u.kind == kind]


def kind_lines(passes: list[Pass], kind: str, quantiles: tuple[int, ...], note: str) -> list:
    """Report lines `<kind>_p<q>_ms` over every sample of `kind` in every replay."""
    values = samples(passes, kind)
    return [(f"{kind}_p{q}_ms", harness.percentile(values, q) * 1000.0, "ms", f"n={len(values)} {note}")
            for q in quantiles]
