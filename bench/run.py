"""scotcloud benchmark: one workload per run, every output checked.

    python3 bench/run.py --workload {annotate,browse,simulate} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
Inputs come only from --seed. --seconds sets the amount of work: each
workload's quota is sized so the seed program spends about that long on
it on a 2-core container, and a fixed quota makes the failure counts of
the seed's known defects repeat exactly at a fixed seed.

--trace 0 measures the end-to-end metrics untraced. --trace 1 runs the
workload twice with the same inputs, untraced and then with span wrappers
installed in this process and in the server child, and reports the
per-layer metrics, the tracing overhead (traced minus untraced end-to-end
metrics) and a scaling probe. Report lines come first; the last line of
stdout is one JSON object. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import uuid
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
HTTP_WORKLOADS = ("annotate", "browse")
PROBE_EVENTS = (2500, 5000)
PROBE_TAGS = (120, 240)


def _import_program():
    if not (ROOT / "src" / "scotcloud" / "__init__.py").is_file():
        sys.exit(f"run.py: no program at {ROOT / 'src' / 'scotcloud'}; run from the root of a scotcloud checkout")
    sys.path.insert(0, str(ROOT / "src"))


def _self_s(stat) -> float:
    return stat.self_ns / 1e9


def layer_metrics(workload: str, traced, summaries, stats, spans: int, probe: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run, by name: (value, unit)."""
    from simulate import TRACE_KINDS
    from tracing import Stat

    def stat(name: str) -> Stat:
        return stats.get(name) or Stat()

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    ops = max(1, traced.attempted)
    handle = stat("service.handle_url")
    paginate = stat("service.paginate")
    sfg = stat("model.store_from_graph")
    write_bytes = sum(d["io"]["wchar"] for d in traced.dumps)
    http = workload in HTTP_WORKLOADS
    trace = {kind: traced.counters[f"trace.{kind}"] for kind in TRACE_KINDS}
    m = {
        "rdfxml.serialize.calls": (stat("rdfxml.serialize").calls, "count"),
        "rdfxml.serialize.self_s": (_self_s(stat("rdfxml.serialize")), "s"),
        "rdfxml.serialize.out_bytes": (stat("rdfxml.serialize").amount[0], "B"),
        "rdfxml.parse.calls": (stat("rdfxml.parse").calls, "count"),
        "rdfxml.parse.self_s": (_self_s(stat("rdfxml.parse")), "s"),
        "rdfxml.parse.in_bytes": (stat("rdfxml.parse").amount[0], "B"),
        "model.record.calls": (stat("model.record").calls, "count"),
        "model.record.self_s": (_self_s(stat("model.record")), "s"),
        "model.cloud_to_rdf.self_s": (_self_s(stat("model.cloud_to_rdf")), "s"),
        "model.store_to_graph.self_s": (_self_s(stat("model.store_to_graph")), "s"),
        "model.store_from_graph.self_s": (_self_s(sfg), "s"),
        "model.store_from_graph.events_out": (sfg.amount[0], "count"),
        "model.store_from_graph.events_per_pair": (ratio(sfg.amount[0], sfg.amount[1]), "ratio"),
        "model.children_of.calls": (stat("model.children_of").calls, "count"),
        "model.subtree.self_s": (_self_s(stat("model.subtree")), "s"),
        "model.rdf_to_cloud.self_s": (_self_s(stat("model.rdf_to_cloud")), "s"),
        "service.handle_url.calls": (handle.calls, "count"),
        "service.handle_url.self_s": (_self_s(handle), "s"),
        "service.handle_url.calls_per_op": (handle.calls / ops, "count"),
        "service.handle_url.self_ms_per_op": (_self_s(handle) * 1000.0 / ops, "ms"),
        "service.paginate.calls": (paginate.calls, "count"),
        "service.paginate.self_s": (_self_s(paginate), "s"),
        "service.paginate.in_bytes": (paginate.amount[0], "B"),
        "service.paginate.amplification": (ratio(paginate.amount[0], handle.amount[0]), "ratio"),
        "service.render_tree.self_s": (_self_s(stat("service.render_tree")), "s"),
        "service.restore_store.self_s": (_self_s(stat("service.restore_store")), "s"),
        "service.write_bytes": (write_bytes, "B"),
        "service.write_bytes_per_event": (ratio(write_bytes, traced.counters["mutations"]), "B"),
        "http.shell_s": (traced.client_seconds - handle.total_ns / 1e9 if http else 0.0, "s"),
        "http.connects": (traced.counters["connects"], "count"),
        "http.connects_per_request": (ratio(traced.counters["connects"], traced.counters["requests"]), "ratio"),
        "sim.run.self_s": (_self_s(stat("sim.run")), "s"),
        "sim.transport_get.calls": (stat("sim.transport_get").calls, "count"),
        "sim.transport_get.s": (stat("sim.transport_get").total_ns / 1e9, "s"),
        "sim.reassemble.calls": (stat("sim.reassemble").calls, "count"),
        "sim.reassemble.self_s": (_self_s(stat("sim.reassemble")), "s"),
        "sim.reassemble.bytes": (stat("sim.reassemble").amount[0], "B"),
        **{f"sim.trace.{kind}": (count, "count") for kind, count in trace.items()},
        "sim.trace.defer_per_issue": (ratio(trace["defer"], trace["issue"]), "ratio"),
        "layout.layout_cloud.calls": (stat("layout.layout_cloud").calls, "count"),
        "layout.layout_cloud.self_s": (_self_s(stat("layout.layout_cloud")), "s"),
        "layout.render_scene_flat.self_s": (_self_s(stat("layout.render_scene_flat")), "s"),
        "layout.prims": (stat("layout.layout_cloud").amount[0], "count"),
        "tracing.spans": (spans, "count"),
    }
    for name in ("setup_s", "ops_per_s"):
        m[f"tracing.overhead.{name}"] = (summaries[1].metrics[name] - summaries[0].metrics[name], END_TO_END[name])
    for name, (value, unit) in probe.items():
        m[f"probe.{name}"] = (value, unit)
    return m


def scaling_probe(seed: int, work: Path) -> dict[str, tuple[float, str]]:
    """Time restore_store and one full cloud walk at two sizes; report the growth exponents."""
    import browse
    import harness
    from scotcloud import service

    restore = []
    for events in PROBE_EVENTS:
        directory = work / f"probe-store-{events}"
        browse.build_store(seed, directory, events, events // 3)
        start = time.perf_counter()
        service.restore_store(str(directory))
        restore.append((events, time.perf_counter() - start))

    walk = []
    tagger = uuid.uuid5(uuid.NAMESPACE_URL, "scotcloud:bench")
    for tags in PROBE_TAGS:
        svc = service.AnnotationService()
        for k in range(tags):
            svc.handle_url(f"/tag?resource=probe&tag={harness.tag_label(k)}&tagger={tagger}")
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            page, total = 0, 1
            while page < total:
                _index, total, _payload = harness.decode_page(svc.handle_url(f"/cloud?resource=probe&page={page}").encode())
                page += 1
            runs.append(time.perf_counter() - start)
        walk.append((tags, statistics.median(runs)))

    return {
        "restore_store.small_s": (restore[0][1], "s"),
        "restore_store.large_s": (restore[1][1], "s"),
        "restore_store.exponent": (harness.exponent(*restore), "ratio"),
        "cloud_walk.small_s": (walk[0][1], "s"),
        "cloud_walk.large_s": (walk[1][1], "s"),
        "cloud_walk.exponent": (harness.exponent(*walk), "ratio"),
    }


def _write_spans(path: Path, parts: list[tuple[str, list]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for process, spans in parts:
            for span in spans:
                fh.write(json.dumps([process, *span], separators=(",", ":")) + "\n")


def _print_report(title: str, lines: list, summary) -> None:
    print(f"# {title}")
    for name, value, unit, note in lines:
        print(f"  {name:<22} {value:>14.4f} {unit:<6} {note}")
    reasons = ", ".join(f"{reason}={n}" for reason, n in sorted(summary.failures.items())) or "none"
    print(f"  attempted {summary.attempted}, failed {sum(summary.failures.values())} ({reasons})")
    for detail in summary.unexplained[:10]:
        print(f"  CHECK FAILED: {detail}")


def _check_declared(metrics: dict[str, tuple[float, str]], key: str) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))[key]
    want = {entry["name"]: entry["unit"] for entry in declared}
    got = {name: unit for name, (_value, unit) in metrics.items()}
    if want != got:
        raise SystemExit(f"run.py: metrics differ from BENCHMARK.json {key}: {sorted(set(want.items()) ^ set(got.items()))}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("annotate", "browse", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    _import_program()

    import annotate
    import browse
    import common
    import harness
    import simulate
    import tracing

    workload = {"annotate": annotate, "browse": browse, "simulate": simulate}[args.workload]
    title = f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
    work = Path.cwd() / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def run_pass(label: str, tracer=None):
        return workload.run_pass(args.seed, args.seconds, work, tracer is not None, tracer, label)

    try:
        if not args.trace:
            passes = [run_pass(f"replay{i}") for i in range(common.REPLAYS)]
            summaries = [common.summarize(passes, workload.LATENCY_KINDS, workload.peak_rss_mb())]
            metrics = {name: (summaries[0].metrics[name], unit) for name, unit in END_TO_END.items()}
            reports = [(title, summaries[0].report + workload.report(passes))]
        else:
            probe = scaling_probe(args.seed, work)
            untraced = run_pass("untraced")
            summaries = [common.summarize([untraced], workload.LATENCY_KINDS, workload.peak_rss_mb())]
            tracer = tracing.Tracer()
            uninstall = tracer.install()
            try:
                traced = run_pass("traced", tracer)
            finally:
                uninstall()
            summaries.append(common.summarize([traced], workload.LATENCY_KINDS, workload.peak_rss_mb()))
            if not common.replays_agree([untraced, traced]):
                summaries[1].unexplained.append("the traced pass did not repeat the untraced one")
            parts = [("client", tracer.spans)] + [(f"server{i}", d["spans"]) for i, d in enumerate(traced.dumps)]
            stats = tracing.merge(*(tracing.aggregate(spans) for _name, spans in parts))
            span_count = sum(len(spans) for _name, spans in parts)
            _write_spans(work.parent / f"spans-{args.workload}.jsonl", parts)
            metrics = layer_metrics(args.workload, traced, summaries, stats, span_count, probe)
            reports = [(f"{title} untraced", summaries[0].report + workload.report([untraced])),
                       (f"{title} traced", summaries[1].report + workload.report([traced]))]
    finally:
        harness.ServerProcess.kill_all()
    shutil.rmtree(work, ignore_errors=True)

    _check_declared(metrics, "per_layer" if args.trace else "end_to_end")
    for (heading, lines), summary in zip(reports, summaries):
        _print_report(heading, lines, summary)
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": not any(summary.unexplained for summary in summaries),
        "attempted": sum(summary.attempted for summary in summaries),
        "failed": sum(sum(summary.failures.values()) for summary in summaries),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
