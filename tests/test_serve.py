"""`scotcloud serve` as a child process: the simulator's oracle across the
process boundary and a restart, and the loop when descriptors run out.

The server child is the installed console script when the package under
test is the one installed in this interpreter, and `python -m
scotcloud.cli` on the package's source otherwise.
"""

import contextlib
import os
import re
import select
import signal
import socket
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest

import scotcloud
from scotcloud.service import AnnotationService, ServiceConfig, restore_store
from scotcloud.sim import InProcessTransport, ReassemblyError, Simulator, parse_script
from scotcloud.wire import MAX_HEAD, SPARE_DESCRIPTORS, HttpTransport

from conftest import TAGGER, crowd_burst_text, store_state

PACKAGE_ROOT = Path(scotcloud.__file__).resolve().parent.parent
CONSOLE_SCRIPT = Path(sysconfig.get_path("scripts")) / "scotcloud"
INSTALLED = PACKAGE_ROOT == Path(sysconfig.get_path("purelib")).resolve() and CONSOLE_SCRIPT.exists()
_SERVING = re.compile(r"serving on .*:([0-9]+)\n")


def child_env() -> dict[str, str]:
    """This environment, with the package under test first on the child's path."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("SCOTCLOUD_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    return env


@contextlib.contextmanager
def served(argv: list[str]):
    """A server child started with `argv`; yields it and its port once it serves, and kills it after."""
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, env=child_env())
    try:
        line = proc.stderr.readline()
        match = _SERVING.fullmatch(line)
        assert match, f"server did not start: {line!r}"
        yield proc, int(match[1])
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def serve_argv(*args: str) -> list[str]:
    command = [str(CONSOLE_SCRIPT)] if INSTALLED else [sys.executable, "-m", "scotcloud.cli"]
    return [*command, "serve", "--port", "0", *args]


# -- the oracle: the same trace over HTTP as in process, across a restart ------------


def run_episode(sim: Simulator, script, restart_at: int, restart) -> tuple[list[str], str]:
    """Replay `script`, calling `restart()` once every event up to `restart_at` has fired; the trace and the ending."""
    for line in script:
        sim._push(line.time_ms, "chat", line)
    ending = "ok"
    try:
        sim.advance(restart_at - sim.now)
        restart()
        sim.run([])
    except ReassemblyError as exc:
        ending = f"aborted: {exc}"
    return sim.trace, ending


def in_process(script, seed: int, restart_at: int, store: Path) -> tuple[list[str], str]:
    service = AnnotationService(ServiceConfig(store_path=str(store)))
    sim = Simulator(service, units=4, seed=seed)

    def restart():
        sim.transport.service.close()
        restored = AnnotationService(ServiceConfig(store_path=str(store)), now_ms=lambda: sim.now)
        sim.transport = InProcessTransport(restored)

    try:
        return run_episode(sim, script, restart_at, restart)
    finally:
        sim.transport.service.close()


def over_http(script, seed: int, restart_at: int, store: Path) -> tuple[list[str], str]:
    with contextlib.ExitStack() as stack:
        proc, port = stack.enter_context(served(serve_argv("--store", str(store))))
        sim = Simulator(HttpTransport(f"http://127.0.0.1:{port}"), units=4, seed=seed)

        def restart():
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            _, new_port = stack.enter_context(served(serve_argv("--store", str(store))))
            sim.transport = HttpTransport(f"http://127.0.0.1:{new_port}")

        return run_episode(sim, script, restart_at, restart)


class TestWireOracle:
    """A crowd-burst episode gives the same trace in process and against a
    `scotcloud serve --store` child, with the server restarted at the same
    instant on both sides, and both store directories restore alike."""

    # (seed, the script line at whose instant the server restarts): seed 202
    # aborts on a torn walk in its second burst, 12 and 17 complete.
    EPISODES = [(202, 100), (12, 149), (17, 320)]

    @pytest.mark.parametrize("seed, restart_line", EPISODES)
    def test_the_trace_and_the_store_match_across_a_restart(self, tmp_path, seed, restart_line):
        script = parse_script(crowd_burst_text(seed))
        restart_at = script[restart_line].time_ms
        local = in_process(script, seed, restart_at, tmp_path / "local")
        remote = over_http(script, seed, restart_at, tmp_path / "remote")
        assert remote[1] == local[1]
        assert remote[0] == local[0]
        assert int(local[0][-1].split(" ", 1)[0]) > restart_at  # the run went on past the restart
        assert store_state(restore_store(str(tmp_path / "remote"))) == store_state(restore_store(str(tmp_path / "local")))


# -- descriptor exhaustion ---------------------------------------------------------------

# Lower this process's soft descriptor limit, then serve: the limit is the child's own.
_LIMITED_SERVE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_NOFILE, (int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
from scotcloud.cli import main
sys.exit(main(sys.argv[2:]))
"""
# As _LIMITED_SERVE, and hold argv[2] more descriptors open, so that accept runs out before the connection cap.
_CROWDED_SERVE = """
import os, resource, sys
resource.setrlimit(resource.RLIMIT_NOFILE, (int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
held = [os.open(os.devnull, os.O_RDONLY) for _ in range(int(sys.argv[2]))]
from scotcloud.cli import main
sys.exit(main(sys.argv[3:]))
"""
NOFILE = 32
REQUEST = b"GET /cloud?resource=mouse HTTP/1.1\r\nHost: x\r\n\r\n"


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of `pid` so far, from /proc/<pid>/stat."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_resident_bytes(pid: int) -> int:
    """The peak resident set of `pid` so far, VmHWM in /proc/<pid>/status."""
    fields = dict(line.split(":", 1) for line in Path(f"/proc/{pid}/status").read_text().splitlines())
    return int(fields["VmHWM"].split()[0]) * 1024


def answered(socks: list[socket.socket], timeout: float) -> list[socket.socket]:
    """Those of `socks` that have bytes to read within `timeout` seconds."""
    readable, _, _ = select.select(socks, [], [], timeout)
    return [sock for sock in socks if sock in readable]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads CPU time from /proc")
class TestDescriptorExhaustion:
    def test_the_loop_waits_and_serves_the_backlog_once_a_connection_closes(self):
        argv = [sys.executable, "-c", _LIMITED_SERVE, str(NOFILE), "serve", "--port", "0"]
        with served(argv) as (proc, port), contextlib.ExitStack() as stack:
            with socket.create_connection(("127.0.0.1", port)) as warm:  # the first answer loads what it needs
                warm.sendall(REQUEST)
                assert warm.recv(65536).startswith(b"HTTP/1.1 200 ")
            socks = []
            for _ in range(NOFILE + 16):
                sock = stack.enter_context(socket.create_connection(("127.0.0.1", port)))
                sock.sendall(REQUEST)
                socks.append(sock)
            time.sleep(0.5)
            held = answered(socks, 0)
            queued = [sock for sock in socks if sock not in held]
            assert held and queued
            for sock in held:
                assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
            before = cpu_seconds(proc.pid)
            time.sleep(1)
            assert cpu_seconds(proc.pid) - before < 0.1
            held[0].close()
            late = answered(queued, 1.0)
            assert late, "no queued client was answered within 1 s of a close"
            assert late[0].recv(65536).startswith(b"HTTP/1.1 200 ")

    def test_the_loop_backs_off_when_accept_runs_out_of_descriptors_below_the_cap(self):
        argv = [sys.executable, "-c", _CROWDED_SERVE, str(NOFILE), str(SPARE_DESCRIPTORS), "serve", "--port", "0"]
        with served(argv) as (proc, port), contextlib.ExitStack() as stack:
            with socket.create_connection(("127.0.0.1", port)) as warm:
                warm.sendall(REQUEST)
                assert warm.recv(65536).startswith(b"HTTP/1.1 200 ")
            socks = []
            for _ in range(NOFILE + 16):
                sock = stack.enter_context(socket.create_connection(("127.0.0.1", port)))
                sock.sendall(REQUEST)
                socks.append(sock)
            time.sleep(0.5)
            held = answered(socks, 0)
            queued = [sock for sock in socks if sock not in held]
            assert held and queued
            assert len(held) < NOFILE - SPARE_DESCRIPTORS  # EMFILE stopped the accepts, not the cap
            for sock in held:
                assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
            before = cpu_seconds(proc.pid)
            time.sleep(1)
            assert cpu_seconds(proc.pid) - before < 0.1
            held[0].close()
            late = answered(queued, 1.0)
            assert late, "no queued client was answered within 1 s of a close"
            assert late[0].recv(65536).startswith(b"HTTP/1.1 200 ")


class TestConnectionCap:
    def test_the_first_tag_finds_a_descriptor_for_the_log_while_more_clients_than_that_connect(self, tmp_path):
        argv = [sys.executable, "-c", _LIMITED_SERVE, str(NOFILE), "serve", "--port", "0", "--store", str(tmp_path)]
        with served(argv) as (_, port), contextlib.ExitStack() as stack:
            socks = []
            for _ in range(NOFILE + 16):
                sock = stack.enter_context(socket.create_connection(("127.0.0.1", port)))
                sock.sendall(REQUEST)
                socks.append(sock)
            time.sleep(0.5)
            held = answered(socks, 0)
            assert held
            for sock in held:
                assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
            # The log is opened on the first append, so this /tag needs a descriptor the connections left free.
            tag = b"GET /tag?resource=mouse&tag=laser&tagger=%s HTTP/1.1\r\nHost: x\r\n\r\n" % str(TAGGER).encode()
            held[0].sendall(tag)
            assert answered(held[:1], 5.0), "the /tag was not answered"
            answer = held[0].recv(65536)
            assert answer.startswith(b"HTTP/1.1 200 "), answer
            assert answer.endswith(b"\r\n\r\npage 1/1 10\nok laser 1")
        log = (tmp_path / "events.log").read_text("utf-8")
        assert log.endswith(f"\t{TAGGER}\thttp://yourdns.com/rdfs/mouse.rdf\tlaser\n")

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak resident set from /proc")
    def test_the_resident_set_stays_bounded_while_more_clients_than_the_cap_hold_unfinished_heads(self):
        nofile = 64  # a cap of 48 connections: 3 MiB of heads, against which the slack is small
        cap = nofile - SPARE_DESCRIPTORS  # the child's max_connections
        # One read's 64 KiB buffer, the inboxes' over-allocation and the allocator's own pages.
        slack = 1 << 20
        argv = [sys.executable, "-c", _LIMITED_SERVE, str(nofile), "serve", "--port", "0"]
        with served(argv) as (proc, port), contextlib.ExitStack() as stack:
            with socket.create_connection(("127.0.0.1", port)) as warm:  # the first answer loads what it needs
                warm.sendall(REQUEST)
                assert warm.recv(65536).startswith(b"HTTP/1.1 200 ")
            before = peak_resident_bytes(proc.pid)
            start = b"GET /cloud?resource="
            head = start + b"m" * (MAX_HEAD - 1 - len(start))  # one byte short of a refusal, and no blank line
            socks = []
            for _ in range(cap + 48):
                sock = stack.enter_context(socket.create_connection(("127.0.0.1", port), timeout=5))
                sock.sendall(head)
                socks.append(sock)
            time.sleep(0.5)
            assert not answered(socks, 0)
            growth = peak_resident_bytes(proc.pid) - before
            assert growth < cap * MAX_HEAD + slack, f"the peak resident set grew by {growth} bytes"
