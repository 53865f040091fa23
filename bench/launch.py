"""Run `scotcloud serve` in this process for the benchmark, optionally traced.

    python3 bench/launch.py --port P --store DIR --dump FILE [--trace]

The server is the program's own CLI entry point. With --trace, span
wrappers are installed first. On SIGUSR1 the process writes its peak RSS,
its OS I/O counters and its spans to FILE (atomically) and keeps serving;
the benchmark stops it with SIGKILL.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402  (the benchmark's own module, beside this file)
from scotcloud import cli  # noqa: E402


def _io_counters() -> dict[str, int]:
    counters = {}
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            counters[key] = int(value)
    return counters


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--dump", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    def dump(_signum, _frame) -> None:
        data = {
            "io": _io_counters(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": list(tracer.spans) if tracer is not None else [],
        }
        tmp = args.dump + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
        os.replace(tmp, args.dump)

    signal.signal(signal.SIGUSR1, dump)
    return cli.main(["serve", "--port", str(args.port), "--store", args.store])


if __name__ == "__main__":
    sys.exit(main())
