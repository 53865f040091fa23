"""simulate: crowd-burst episodes replayed through the in-process client simulator.

Each episode is EPISODE_COMMANDS chat commands in bursts of BURST commands
BURST_GAP_MS apart with QUIET_MS of silence between bursts, ~95% `tag` and
~5% multi-page `cloud` on Zipf resources, against a fresh AnnotationService
and UNITS communication units. A burst is larger than the units' combined
rate window, so the defer and retry paths run. The seed simulator aborts
an episode with ReassemblyError when a tag changes a cloud between the
fetches of its pages; every command left unresolved counts as failed.
"""

from __future__ import annotations

import hashlib
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import harness
from common import Pass
from harness import CheckFailed
from scotcloud import service, sim

EPISODE_COMMANDS = 500
BURST = 150
BURST_GAP_MS = 50
QUIET_MS = 30000
UNITS = 4
CLOUD_SHARE = 0.05
# Episodes per replay per second of --seconds, sized so that the seed
# program spends about --seconds on all replays of a run.
EPISODES_PER_SECOND = 1.9
LATENCY_KINDS = ("episode",)
TRACE_KINDS = ("issue", "defer", "response", "complete", "memory-warn")

# A cold program process: import the simulator and parse one episode script,
# as `scotcloud simulate --script` does before it runs anything.
_COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])
from scotcloud import sim
sim.parse_script(open(sys.argv[2], encoding="utf-8").read())
"""


def episode_script(seed: int, episode: int) -> str:
    """Bot-script text (the replay format `scotcloud simulate` reads) for one episode."""
    rng = random.Random(f"{seed}:simulate:{episode}")
    people = harness.taggers(rng)
    lines = []
    t = 0
    for i in range(EPISODE_COMMANDS):
        if i and i % BURST == 0:
            t += QUIET_MS
        resource, label = harness.draw_tag(rng)
        command = f"cloud {resource}" if rng.random() < CLOUD_SHARE else f"tag {resource} {label}"
        lines.append(f"@{t} 0 {rng.choice(people)} {command}\n")
        t += BURST_GAP_MS
    return "".join(lines)


class _RecordingTransport(sim.InProcessTransport):
    """The program's in-process transport, keeping every response body in fetch order."""

    def __init__(self, svc: service.AnnotationService):
        super().__init__(svc)
        self.bodies: list[bytes] = []

    def get(self, path_query: str) -> tuple[int, bytes]:
        status, raw = super().get(path_query)
        self.bodies.append(raw)
        return status, raw


def _run_episode(seed: int, episode: int, text: str) -> tuple[sim.Simulator, str]:
    """Run one episode; returns the simulator and how it ended: "ok", "aborted: <why>" or the error."""
    simulator = sim.Simulator(_RecordingTransport(service.AnnotationService()), units=UNITS,
                              seed=seed * 100003 + episode)
    try:
        simulator.run(sim.parse_script(text))
    except sim.ReassemblyError as exc:
        return simulator, f"aborted: {exc}"
    except Exception as exc:  # any other error is a wrong answer of the program, not a benchmark crash
        return simulator, repr(exc)
    return simulator, "ok"


def _resource(query: str) -> str:
    return parse_qs(urlsplit(query).query).get("resource", [""])[0]


def _fetches(simulator: sim.Simulator) -> list[tuple[str, bytes]]:
    """(query, response body) of every request, in the order the units issued them."""
    queries = [line.split(" ", 3)[3] for line in simulator.trace if line.split(" ", 2)[1] == "issue"]
    bodies = simulator.transport.bodies
    if len(queries) != len(bodies):
        raise CheckFailed(f"{len(queries)} issue lines in the trace for {len(bodies)} requests")
    return list(zip(queries, bodies))


def _paging_error(fetches: list[tuple[str, bytes]]) -> str:
    """Every /cloud fetch of a resource between the same two /tags on it must serve the same total."""
    writes: Counter = Counter()
    served: dict[tuple[str, int], int] = {}
    for query, raw in fetches:
        resource = _resource(query)
        if query.startswith("/tag?"):
            writes[resource] += 1
        elif query.startswith("/cloud?"):
            total = harness.decode_page(raw)[1]
            first = served.setdefault((resource, writes[resource]), total)
            if first != total:
                return f"{resource}: page totals {first} and {total} with no /tag between"
    return ""


def _not_torn(simulator: sim.Simulator, fetches: list[tuple[str, bytes]], why: str) -> str:
    """Why an aborted episode is not the known torn-walk defect; "" when it is.

    The seed simulator aborts when the pages of one cloud command disagree
    on their total. That is the known defect only if the cloud changed
    between the two fetches: a /tag on the same resource must have been
    issued after the last fetch that served the first page's total and
    before the fetch of the page that failed.
    """
    match = re.fullmatch(r"inconsistent totals: (\d+) vs (\d+)", why)
    if match is None:
        return f"ReassemblyError {why!r}"
    failed_total, first_total = (int(g) for g in match.groups())
    last = simulator.trace[-1].split(" ")  # "<ms> response <unit> <status> <bytes> <sha8>"
    if last[1] != "response":
        return f"abort after {simulator.trace[-1]!r}, not after a response"
    failed = next((i for i in reversed(range(len(fetches)))
                   if hashlib.sha256(fetches[i][1]).hexdigest()[:8] == last[5]), None)
    if failed is None or harness.decode_page(fetches[failed][1])[1] != failed_total:
        return f"no fetch served the failing page of total {failed_total}"
    resource = _resource(fetches[failed][0])
    tagged = False
    for query, raw in reversed(fetches[:failed]):
        if query.startswith("/tag?") and _resource(query) == resource:
            tagged = True
        elif query.startswith("/cloud?") and _resource(query) == resource and harness.decode_page(raw)[1] == first_total:
            return "" if tagged else f"{resource}: page totals {first_total} and {failed_total} with no /tag between"
    return f"{resource}: no fetch served the first page's total {first_total}"


def _check_episode(result: Pass, episode: int, simulator: sim.Simulator, ending: str, elapsed: float) -> None:
    completes = [line.split(" ", 4) for line in simulator.trace if line.split(" ", 2)[1] == "complete"]
    good = sum(1 for parts in completes if parts[3] == "200")
    result.add("episode", elapsed, ops_ok=good)
    result.attempted += EPISODE_COMMANDS
    if len(completes) != good:
        result.fail("wrong-answer", f"episode {episode}: {len(completes) - good} commands completed with an error")
    try:
        fetches = _fetches(simulator)
        why = _paging_error(fetches)
        if not why and ending.startswith("aborted: "):
            why = _not_torn(simulator, fetches, ending.removeprefix("aborted: "))
    except CheckFailed as exc:
        why = str(exc)
    if why:
        result.fail("wrong-answer", f"episode {episode}: {why}")
    if ending.startswith("aborted: "):
        result.counters["aborted_episodes"] += 1
        result.failures["aborted"] += EPISODE_COMMANDS - len(completes)
    elif ending != "ok":
        result.fail("wrong-answer", f"episode {episode}: {ending}")
    elif len(completes) != EPISODE_COMMANDS:
        result.fail("wrong-answer", f"episode {episode}: {len(completes)} of {EPISODE_COMMANDS} commands completed")
    tags_issued = sum(1 for line in simulator.trace if " issue " in line and " /tag?" in line)
    stored = len(simulator.transport.service.store.events)
    if stored != tags_issued:
        result.fail("wrong-answer", f"episode {episode}: {tags_issued} tags issued, {stored} stored")


def _cold_start(seed: int, work: Path) -> float:
    script = work / "simulate-setup-script.txt"
    script.write_text(episode_script(seed, 0), "utf-8")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _COLD_START, str(harness.ROOT / "src"), str(script)], check=True)
    return time.perf_counter() - start


def run_pass(seed: int, seconds: int, work: Path, trace: bool, tracer, label: str) -> Pass:
    """Only the episodes are timed; scripts are written before and checked after each one."""
    result = Pass()
    result.setup_s = _cold_start(seed, work)
    episodes = max(3, round(seconds * EPISODES_PER_SECOND))
    texts = [episode_script(seed, episode) for episode in range(episodes)]
    kinds: Counter = Counter()
    digest = hashlib.sha256()
    for episode, text in enumerate(texts):
        if tracer is not None:
            tracer.request = episode + 1
        start = time.perf_counter()
        simulator, ending = _run_episode(seed, episode, text)
        elapsed = time.perf_counter() - start
        result.loop_s += elapsed
        _check_episode(result, episode, simulator, ending, elapsed)
        for line in simulator.trace:
            digest.update(line.encode("utf-8") + b"\n")
            kinds[line.split(" ", 2)[1]] += 1
    result.fingerprint = digest.hexdigest()
    result.counters["episodes"] = episodes
    for kind in TRACE_KINDS:
        result.counters[f"trace.{kind}"] = kinds[kind]
    return result


def peak_rss_mb() -> float:
    return harness.self_peak_rss_mb()


def report(passes: list[Pass]) -> list:
    counters = passes[0].counters
    return [("episodes_aborted", counters["aborted_episodes"], "count",
             f"of {counters['episodes']} {EPISODE_COMMANDS}-command episodes per replay, by ReassemblyError")]
