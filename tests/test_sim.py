import gc
import hashlib
import random
import uuid
import weakref
from collections import deque

import pytest

from scotcloud import sim as sim_module
from scotcloud.model import VocabConfig
from scotcloud.service import AnnotationService, Page, paginate
from scotcloud.sim import (
    WINDOW_MAX,
    InProcessTransport,
    ReassemblyError,
    ScriptFormatError,
    ScriptLine,
    SimError,
    Simulator,
    parse_command,
    parse_script,
    reassemble,
)

from conftest import TAGGER, cyclic_garbage, store_state

AVATAR = uuid.UUID("00000000-0000-4000-8000-00000000beef")
VOCAB = VocabConfig()


def make_sim(units=1, seed=0, **kwargs) -> Simulator:
    return Simulator(AnnotationService(), units=units, seed=seed, **kwargs)


def chat_at(sim: Simulator, t: int, text: str, channel: int = 0) -> None:
    sim._push(t, "chat", ScriptLine(t, channel, AVATAR, text))


def issue_times(trace: str, unit: str | None = None) -> list[int]:
    times = []
    for line in trace.splitlines():
        parts = line.split(" ")
        if parts[1] == "issue" and (unit is None or parts[2] == unit):
            times.append(int(parts[0]))
    return times


def window_ok(times: list[int], window_ms: int = 20000, cap: int = 25) -> bool:
    # sliding-window oracle over the issue log: closed window ending at each issue
    return all(sum(1 for s in times if t - window_ms <= s <= t) <= cap for t in times)


class TestClock:
    def test_monotone(self):
        sim = make_sim()
        sim.advance(1000)
        chat_at(sim, 0, "help")
        with pytest.raises(SimError, match="backwards"):
            sim.advance(0)

    def test_advance_zero_fires_nothing(self):
        sim = make_sim()
        assert sim.advance(0) == []


class TestLatency:
    @pytest.mark.parametrize("seed,base,jitter", [(3, 50, 0), (9, 10, 40), (42, 0, 90)])
    def test_each_response_comes_one_seeded_draw_after_its_issue(self, seed, base, jitter):
        sim = make_sim(units=2, seed=seed, base_latency_ms=base, jitter_ms=jitter)
        for i in range(60):
            chat_at(sim, i * 700, f"tag r{i % 3} t{i}")
        issued = {}  # unit -> issue times not yet answered, oldest first
        delays = []
        for line in sim.run([]).splitlines():
            time_ms, kind, rest = line.split(" ", 2)
            unit = rest.split(" ", 1)[0]
            if kind == "issue":
                issued.setdefault(unit, deque()).append(int(time_ms))
            elif kind == "response":
                delays.append(int(time_ms) - issued[unit].popleft())
        rng = random.Random(seed)
        assert len(delays) == 60
        assert delays == [base + rng.randint(0, jitter) for _ in delays]

    def test_without_jitter_the_seed_changes_nothing(self):
        traces = set()
        for seed in (0, 1, 2):
            sim = make_sim(units=2, seed=seed, base_latency_ms=40)
            for i in range(60):
                chat_at(sim, i * 300, f"tag r{i % 3} t{i}")
            traces.add(sim.run([]))
        assert len(traces) == 1

    @pytest.mark.parametrize("base,jitter", [(-1, 0), (0, -1)])
    def test_a_negative_latency_parameter_is_refused(self, base, jitter):
        with pytest.raises(ValueError, match="^latency parameters must be non-negative$"):
            make_sim(base_latency_ms=base, jitter_ms=jitter)

    @pytest.mark.parametrize("keyword,value", [("latency", None), ("window_mode", "sliding")])
    def test_the_removed_keywords_are_refused(self, keyword, value):
        with pytest.raises(TypeError, match=keyword):
            make_sim(**{keyword: value})

    def test_response_arrives_at_base_delay(self):
        sim = make_sim()
        chat_at(sim, 0, "tag mouse laser")
        trace = sim.run([])
        response_lines = [l for l in trace.splitlines() if " response " in l]
        assert response_lines[0].startswith("50 ")


class TestSpawn:
    def test_zero_units_rejected(self):
        with pytest.raises(SimError):
            make_sim(units=0)

    def test_more_units_than_one_object_holds_are_rejected(self):
        assert len(make_sim(units=255).units) == 255
        with pytest.raises(SimError, match="1 to 255"):
            make_sim(units=256)

    def test_four_units_give_hundred_per_window(self):
        sim = make_sim(units=4)
        for i in range(100):
            chat_at(sim, 0, f"tag r t{i}")
        trace = sim.run([])
        times = issue_times(trace)
        assert times == [0] * 100
        for unit in ("u1", "u2", "u3", "u4"):
            per_unit = issue_times(trace, unit)  # per-unit token replay oracle
            assert len(per_unit) == 25
            assert window_ok(per_unit)


class TestChat:
    def test_tag_command_issues_one_request(self):
        sim = make_sim()
        lines = sim.post_chat(0, AVATAR, "tag mouse laser")
        assert any(l.split(" ", 2)[1] == "issue" for l in lines)
        assert "/tag?resource=mouse&tag=laser" in "".join(lines)

    def test_help_gets_usage_and_no_request(self):
        sim = make_sim()
        lines = sim.post_chat(0, AVATAR, "help")
        assert any(" usage " in l for l in lines)
        assert not any(" issue " in l for l in lines)

    def test_gibberish_gets_usage_reply(self):
        sim = make_sim()
        lines = sim.post_chat(0, AVATAR, "frobnicate the spline")
        assert any(" usage " in l for l in lines)

    def test_map_command_carries_depth(self):
        sim = make_sim()
        lines = sim.post_chat(0, AVATAR, "map shoe 2")
        assert "/map?root=shoe&depth=2" in "".join(lines)

    def test_other_channel_is_ignored(self):
        sim = make_sim()
        lines = sim.post_chat(5, AVATAR, "tag mouse laser")
        assert len(lines) == 1 and " chat " in lines[0]

    def test_empty_message_rejected(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.post_chat(0, AVATAR, "")

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("tag mouse laser", ("tag", ["mouse", "laser"])),
            ("cloud mouse", ("cloud", ["mouse"])),
            ("map shoe", ("map", ["shoe"])),
            ("map shoe 2", ("map", ["shoe", "2"])),
            ("attach shoe rubber", ("attach", ["shoe", "rubber"])),
            ("help", ("help", [])),
            ("tag onlyone", None),
            ("map shoe zero", None),
            ("map shoe 0", None),
            ("map shoe \u00b2", None),  # a digit to str.isdigit, but not to int
            ("map shoe \u0663", None),  # ARABIC-INDIC DIGIT THREE: int reads 3, the server refuses it
            ("map shoe 1_0", None),
            ("map shoe +1", None),
            ("", None),
        ],
    )
    def test_grammar(self, text, expected):
        assert parse_command(text) == expected


class TestRateLimit:
    def test_26_requests_defer_the_last_to_20001(self):
        sim = make_sim(units=1)
        for i in range(26):
            chat_at(sim, 0, f"tag r t{i}")
        trace = sim.run([])
        times = issue_times(trace)
        assert times == [0] * 25 + [20001]
        assert any(l.split(" ")[1] == "defer" for l in trace.splitlines())

    def test_50_requests_two_units_all_at_zero(self):
        sim = make_sim(units=2)
        for i in range(50):
            chat_at(sim, 0, f"tag r t{i}")
        times = issue_times(sim.run([]))
        assert times == [0] * 50

    def test_random_schedule_respects_sliding_window(self):
        rng = random.Random(17)
        for trial in range(10):
            sim = make_sim(units=rng.randint(1, 3), seed=trial)
            t = 0
            for i in range(rng.randint(30, 120)):
                t += rng.randint(0, 2000)
                chat_at(sim, t, f"tag r{rng.randint(0, 3)} t{i}")
            trace = sim.run([])
            for unit in {f"u{k + 1}" for k in range(len(sim.units))}:
                assert window_ok(issue_times(trace, unit))

    def test_direct_issue_without_headroom_raises(self):
        sim = make_sim(units=1)
        unit = sim.units[0]
        unit.issued = deque([0] * 25)
        from scotcloud.sim import _Command, _Pending

        with pytest.raises(SimError):
            sim.unit_issue(unit, _Pending(_Command("cloud", [("resource", "r")]), "/cloud?resource=r"))

    def test_window_holds_at_most_window_max_stamps(self):
        sim = make_sim(units=2)
        sizes = []
        for name in ("post_chat", "_on_retry", "_on_response"):  # every kind of event
            handler = getattr(sim, name)

            def checked(*args, _handler=handler):
                result = _handler(*args)
                sizes.append(max(len(unit.issued) for unit in sim.units))
                return result

            setattr(sim, name, checked)
        for i in range(1500):
            chat_at(sim, i * 150, f"tag r{i % 7} t{i % 13}")
        trace = sim.run([])
        assert len(issue_times(trace)) == 1500
        assert max(sizes) == WINDOW_MAX
        assert len(sizes) > 3000


class TestReassembly:
    def test_single_page(self):
        assert reassemble([Page(1, 1, b"abc")]) == b"abc"

    def test_three_page_5000_byte_body(self):
        body = bytes(random.Random(4).randrange(256) for _ in range(5000))
        pages = paginate(body, 2048)
        assert len(pages) == 3
        shuffled = [pages[2], pages[0], pages[1]]
        assert reassemble(shuffled) == body  # compared against the unpaged body

    def test_missing_page_is_an_error(self):
        pages = paginate(b"x" * 5000, 2048)
        with pytest.raises(ReassemblyError, match="missing page 2"):
            reassemble([pages[0], pages[2]])

    def test_duplicate_page_is_an_error(self):
        with pytest.raises(ReassemblyError, match="duplicate"):
            reassemble([Page(1, 2, b"a"), Page(1, 2, b"a")])

    def test_inconsistent_totals_is_an_error(self):
        with pytest.raises(ReassemblyError, match="inconsistent"):
            reassemble([Page(1, 2, b"a"), Page(2, 3, b"b")])

    def test_empty_list_is_an_error(self):
        with pytest.raises(ReassemblyError):
            reassemble([])

    def test_multi_page_response_is_fetched_and_reassembled(self):
        service = AnnotationService()
        for i in range(120):
            service.handle_url(f"/tag?resource=big&tag=tag{i:03d}&tagger={TAGGER}")
        direct = service.handle_url("/cloud?resource=big")
        assert direct.page.total >= 3

        sim = Simulator(service, units=1)
        chat_at(sim, 0, "cloud big")
        trace = sim.run([])
        times = issue_times(trace)
        assert len(times) == direct.page.total
        completes = [l for l in trace.splitlines() if " complete " in l]
        assert len(completes) == 1
        import hashlib

        from conftest import fetch_full

        body = fetch_full(service, "cloud", {"resource": "big"})
        assert completes[0].endswith(f"{len(body)} {hashlib.sha256(body).hexdigest()[:8]}")


class _ProxyErrorTransport(InProcessTransport):
    """Answers the queries that contain `broken` with a proxy's HTML page."""

    def __init__(self, service: AnnotationService, broken: str):
        super().__init__(service)
        self.broken = broken

    def get(self, path_query: str) -> tuple[int, bytes]:
        if self.broken in path_query:
            return 502, b"<html>"
        return super().get(path_query)


class TestNonPageBody:
    def test_html_body_fails_only_that_command(self):
        sim = Simulator(_ProxyErrorTransport(AnnotationService(), "/cloud"), units=1)
        chat_at(sim, 0, "tag r t")
        chat_at(sim, 10, "cloud r")
        chat_at(sim, 20, "tag r u")
        lines = sim.run([]).splitlines()
        completes = [line.split()[2:5] for line in lines if " complete " in line]
        assert completes == [["tag", "200", "6"], ["cloud", "502", "badpage"], ["tag", "200", "6"]]
        assert any(line.endswith(f"response u1 502 6 {hashlib.sha256(b'<html>').hexdigest()[:8]}") for line in lines)

    def test_html_page_mid_walk_fails_the_command_once(self):
        service = AnnotationService()
        for i in range(120):
            service.handle_url(f"/tag?resource=big&tag=tag{i:03d}&tagger={TAGGER}")
        assert service.handle_url("/cloud?resource=big").page.total >= 3
        sim = Simulator(_ProxyErrorTransport(service, "page=1"), units=1)
        chat_at(sim, 0, "cloud big")
        trace = sim.run([])
        completes = [line for line in trace.splitlines() if " complete " in line]
        assert [line.split(" ", 1)[1] for line in completes] == ["complete cloud 502 badpage"]


class TestPageFanOut:
    def test_a_walk_longer_than_the_rate_window_asks_for_each_page_once_in_order(self):
        service = AnnotationService()
        for i in range(400):
            service.handle_url(f"/tag?resource=big&tag=tag{i:03d}&tagger={TAGGER}")
        total = service.handle_url("/cloud?resource=big").page.total
        assert total > 2 * WINDOW_MAX

        sim = Simulator(service, units=1)
        chat_at(sim, 0, "cloud big")
        trace = sim.run([])
        pages = [line.rsplit("page=", 1)[1] if "page=" in line else "0"
                 for line in trace.splitlines() if line.split(" ")[1] == "issue"]
        assert pages == [str(i) for i in range(total)]
        assert [line.split(" ", 1)[1].split(" ")[:3] for line in trace.splitlines() if " complete " in line] == [
            ["complete", "cloud", "200"]
        ]


class TestOnePageMutation:
    def test_a_tag_whose_answer_would_need_two_pages_is_sent_once_and_refused(self):
        service = AnnotationService()
        sim = Simulator(service, units=1)
        chat_at(sim, 0, "tag pen " + "y" * 2100)
        trace = sim.run([])
        assert len(issue_times(trace)) == 1
        completes = [line.split(" ", 1)[1] for line in trace.splitlines() if " complete " in line]
        assert completes == ["complete tag 400 badtag"]
        assert service.store.version == 0


class TestMemory:
    def test_65537_bytes_exceeds_default_budget(self):
        sim = make_sim()
        unit = sim.units[0]
        sim.memory_account(unit, 65537)
        assert unit.frozen
        assert any("memory-exceeded" in l for l in sim.trace)

    def test_1024_bytes_is_fine(self):
        sim = make_sim()
        unit = sim.units[0]
        sim.memory_account(unit, 1024)
        assert unit.memory_used == 1024
        assert not unit.frozen

    def test_warning_at_25600_keeps_unit_live(self):
        sim = make_sim()
        unit = sim.units[0]
        sim.memory_account(unit, 25600)
        assert any("memory-warn" in l for l in sim.trace)
        assert not unit.frozen

    def test_budget_boundary_is_inclusive(self):
        sim = make_sim()
        unit = sim.units[0]
        sim.memory_account(unit, 65536)
        assert not unit.frozen
        sim.memory_account(unit, 1)
        assert unit.frozen

    def test_frozen_unit_issues_nothing(self):
        sim = make_sim(units=1)
        sim.memory_account(sim.units[0], 70000)
        chat_at(sim, 0, "tag r t")
        trace = sim.run([])
        assert issue_times(trace) == []

    def test_a_command_queued_behind_frozen_units_reports_a_stall(self):
        sim = make_sim(units=1)
        sim.memory_account(sim.units[0], 70000)
        chat_at(sim, 0, "tag r t")
        trace = sim.run([]).splitlines()
        assert trace[-2:] == ["0 defer /tag?resource=r&tag=t&tagger=" + str(AVATAR), "0 stall 1"]
        assert not any(" complete " in line for line in trace)

    def test_pending_requests_cost_memory(self):
        sim = make_sim(units=1)
        chat_at(sim, 0, "tag r t")
        sim.advance(0)
        assert sim.units[0].memory_used == 512
        sim.advance(100)  # response at t=50 releases the reservation
        assert sim.units[0].memory_used == 0


class TestAdvance:
    def test_deferred_request_fires_after_window_clears(self):
        sim = make_sim(units=1)
        for i in range(26):
            chat_at(sim, 0, f"tag r t{i}")
        sim.advance(0)
        assert len(issue_times("\n".join(sim.trace))) == 25
        sim.advance(20000)
        assert len(issue_times("\n".join(sim.trace))) == 25
        sim.advance(1)
        assert len(issue_times("\n".join(sim.trace))) == 26

    def test_negative_advance_rejected(self):
        sim = make_sim()
        with pytest.raises(SimError):
            sim.advance(-1)


class TestDeterminism:
    def build_script(self, n=40) -> list[ScriptLine]:
        rng = random.Random(1234)
        lines = []
        t = 0
        for i in range(n):
            t += rng.randint(0, 700)
            kind = rng.choice(["tag", "tag", "tag", "cloud", "map", "help"])
            if kind == "tag":
                text = f"tag r{rng.randint(0, 4)} t{rng.randint(0, 9)}"
            elif kind == "cloud":
                text = f"cloud r{rng.randint(0, 4)}"
            elif kind == "map":
                text = "map shoe 2"
            else:
                text = "help"
            lines.append(ScriptLine(t, 0, AVATAR, text))
        return lines

    def test_identical_seeds_identical_traces(self):
        script = self.build_script()
        runs = []
        for _ in range(2):
            sim = Simulator(AnnotationService(), units=2, seed=42, base_latency_ms=40, jitter_ms=30)
            runs.append(sim.run(script))
        assert runs[0] == runs[1]

    def test_different_seed_changes_latency_trace(self):
        script = self.build_script()
        a = Simulator(AnnotationService(), units=2, seed=1, base_latency_ms=40, jitter_ms=30).run(script)
        b = Simulator(AnnotationService(), units=2, seed=2, base_latency_ms=40, jitter_ms=30).run(script)
        assert a != b

    def test_every_accepted_command_completes_exactly_once(self):
        rng = random.Random(7)
        sim = make_sim(units=2, seed=7)
        accepted = 0
        t = 0
        for i in range(150):
            t += rng.randint(0, 400)
            chat_at(sim, t, f"tag r{rng.randint(0, 2)} t{rng.randint(0, 30)}")
            accepted += 1
        trace = sim.run([])
        completes = [l for l in trace.splitlines() if l.split(" ")[1] == "complete"]
        assert len(completes) == accepted
        assert len(issue_times(trace)) == accepted

    def test_store_matches_direct_replay(self):
        script = self.build_script()
        service = AnnotationService()
        Simulator(service, units=1, seed=5).run(script)

        direct = AnnotationService()
        for line in script:
            parsed = parse_command(line.text)
            if parsed is None or parsed[0] == "help":
                continue
            kind, args = parsed
            if kind == "tag":
                direct.handle_url(f"/tag?resource={args[0]}&tag={args[1]}&tagger={line.sender}")
            elif kind == "attach":
                direct.handle_url(f"/attach?parent={args[0]}&child={args[1]}&tagger={line.sender}")
        assert store_state(service.store)[0] == store_state(direct.store)[0]


def torn_walk(service: AnnotationService) -> list[ScriptLine]:
    """A script whose `cloud big` walk is torn: tags that add pages land between its first and second page."""
    for i in range(60):
        service.handle_url(f"/tag?resource=big&tag=word{i}&tagger={TAGGER}")
    return [ScriptLine(0, 0, AVATAR, "cloud big")] + [ScriptLine(10, 0, AVATAR, f"tag big more{i}") for i in range(40)]


class TestFreedAtOnce:
    """A simulator lends its in-process service only the clock, so with the
    cyclic garbage collector off it is freed as soon as its last reference goes."""

    def run_and_drop(self, service: AnnotationService, script: list[ScriptLine]) -> tuple[str, int]:
        sim = Simulator(service, units=4, seed=3)
        ending = "ok"
        try:
            sim.run(script)
        except ReassemblyError:
            ending = "aborted"
        last = sim.now
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
        return ending, last

    def test_a_run_that_completes(self):
        service = AnnotationService()
        script = TestDeterminism().build_script()
        outcome = []
        assert cyclic_garbage(lambda: outcome.append(self.run_and_drop(service, script))) == []
        assert outcome[0][0] == "ok"

    def test_a_run_that_a_torn_walk_aborts(self):
        service = AnnotationService()
        script = torn_walk(service)
        outcome = []
        assert cyclic_garbage(lambda: outcome.append(self.run_and_drop(service, script))) == []
        assert outcome[0][0] == "aborted"

    def test_no_command_outlives_its_run(self):
        service = AnnotationService()
        for i in range(120):
            service.handle_url(f"/tag?resource=held&tag=tag{i:03d}&tagger={TAGGER}")
        assert service.handle_url("/cloud?resource=held").page.total >= 3
        sim = Simulator(service, units=4)
        for t in range(0, 400, 20):
            chat_at(sim, t, "cloud held")
        trace = sim.run([])
        assert trace.count(" complete cloud 200 ") == 20
        commands = [o for o in gc.get_objects() if isinstance(o, sim_module._Command)]
        assert [c for c in commands if c.params == [("resource", "held")]] == []

    def test_the_service_outlives_its_simulator_and_keeps_its_last_time(self):
        service = AnnotationService()
        ending, last = self.run_and_drop(service, TestDeterminism().build_script())
        assert ending == "ok"
        assert last > 0
        response = service.handle_url(f"/tag?resource=after&tag=late&tagger={TAGGER}")
        assert (response.status, response.page.payload) == (200, b"ok late 1")
        assert service.store.events[-1].resource == VOCAB.resource_iri("after")
        assert service.store.events[-1].timestamp_ms == last


class TestScriptFormat:
    def test_parse_and_roundtrip(self):
        text = (
            "# warmup\n"
            f"@0 0 {AVATAR} tag mouse laser\n"
            f"@120 0 {AVATAR} cloud mouse\n"
            f"@120 0 {AVATAR} help\n"
        )
        lines = parse_script(text)
        assert [l.time_ms for l in lines] == [0, 120, 120]
        assert lines[0].text == "tag mouse laser"

    def test_unsorted_times_rejected(self):
        text = f"@10 0 {AVATAR} help\n@5 0 {AVATAR} help\n"
        with pytest.raises(ScriptFormatError):
            parse_script(text)

    def test_times_and_channels_are_ascii_digits(self):
        lines = parse_script(f"@007 -1 {AVATAR} help\n@7 05 {AVATAR} help\n")
        assert [(l.time_ms, l.channel) for l in lines] == [(7, -1), (7, 5)]

    def test_malformed_lines_rejected(self):
        negative = f"@-5 0 {AVATAR} help"
        for bad in [
            "nope",
            "@x 0 u help",
            f"@1 zero {AVATAR} help",
            "@1 0 not-a-uuid help",
            f"@0 0 {AVATAR} ",
            negative,
            f"@1_000 0 {AVATAR} help",
            f"@+5 0 {AVATAR} help",
            f"@\u0665 0 {AVATAR} help",
            f"@1 \u0660 {AVATAR} help",
            f"@1 +0 {AVATAR} help",
            f"@1 1_0 {AVATAR} help",
        ]:
            with pytest.raises(ScriptFormatError):
                parse_script(bad + "\n")
        with pytest.raises(ScriptFormatError, match="^line 1: time must not be negative$"):
            parse_script(negative + "\n")


class TestMemos:
    """Each sender is parsed and written out once, and each query value quoted once."""

    def test_a_script_parses_each_sender_once(self, monkeypatch):
        senders = [str(uuid.UUID(int=i)) for i in range(3)]
        expected = [uuid.UUID(senders[i % 3]) for i in range(300)]
        parsed = []

        class Counted(uuid.UUID):
            def __init__(self, raw):
                parsed.append(raw)
                super().__init__(raw)

        monkeypatch.setattr(uuid, "UUID", Counted)
        lines = parse_script("".join(f"@{i} 0 {senders[i % 3]} tag r{i} t\n" for i in range(300)))
        assert [line.sender for line in lines] == expected
        assert sorted(parsed) == senders
        with pytest.raises(ScriptFormatError, match="^line 2: "):  # a bad sender is refused on every line it is on
            parse_script(f"@0 0 {senders[0]} help\n@1 0 not-a-uuid help\n")

    def test_a_simulator_writes_each_sender_out_once(self, monkeypatch):
        written = []
        real = uuid.UUID.__str__
        monkeypatch.setattr(uuid.UUID, "__str__", lambda self: written.append(self) or real(self))
        avatars = [uuid.UUID(int=i, version=4) for i in range(3)]
        sim = make_sim(units=2)
        trace = sim.run([ScriptLine(i * 50, 0, avatars[i % 3], f"tag r{i % 5} t") for i in range(90)])
        assert sorted(written) == avatars
        requests = [line for line in trace.splitlines() if " request " in line]
        for avatar in avatars:  # the chat lines and the tagger parameters hold the same text
            assert trace.count(f" chat 0 {real(avatar)} tag ") == 30
            assert sum(line.endswith(f"&tagger={real(avatar)}") for line in requests) == 30

    def test_the_quote_memo_holds_at_most_its_bound(self):
        for i in range(5000):
            query = sim_module.build_query("tag", [("resource", f"r {i}"), ("tag", f"t&{i}")])
            assert query == f"/tag?resource=r+{i}&tag=t%26{i}"
        assert sim_module._quote_plus.cache_info().currsize == sim_module.MEMO_ENTRIES


def mixed_script(seed: int, n: int) -> list[ScriptLine]:
    """Bursty chat from three avatars: tags, a cloud that grows past one page
    early on, clouds, attaches (some refused), maps, help, junk and lines on
    other channels."""
    rng = random.Random(seed)
    avatars = [uuid.UUID(int=rng.getrandbits(128), version=4) for _ in range(3)]
    lines = []
    t = 0
    for i in range(n):
        t += rng.choice((0, 0, 0, 20, 50, 300, 2500))
        roll = rng.random()
        channel = 0
        if roll < (0.15 if i < n // 5 else 0.003):
            text = f"tag big b{rng.randrange(300):03d}"
        elif roll < 0.65:
            text = f"tag r{rng.randrange(6)} t{rng.randrange(40)}"
        elif roll < 0.75:
            text = f"cloud {rng.choice(['big', 'big', 'r0', 'r1', 'nothing'])}"
        elif roll < 0.82:
            text = f"attach c{rng.randrange(12)} c{rng.randrange(40)}"
        elif roll < 0.87:
            text = f"map c{rng.randrange(4)} {rng.randint(1, 4)}"
        elif roll < 0.90:
            text = "help"
        elif roll < 0.95:
            text = rng.choice(("frobnicate the spline", "tag onlyone", "map c0 zero"))
        else:
            channel = rng.choice((5, -1))
            text = f"tag r{rng.randrange(6)} elsewhere"
        lines.append(ScriptLine(t, channel, rng.choice(avatars), text))
    return lines


class TestPinnedTraces:
    """SHA-256 of whole traces of 1500-command mixed scripts, recorded from the
    former simulator (listener and center units, rescanned rate windows).
    A run that a torn cloud walk aborts is pinned up to the abort."""

    PINNED = {
        (1, "sliding", 1): ("43afc1a573ed8b120e15b79d69e5a5a9394c4da7e824ef928de7fe4b2e19c1ab", "aborted"),
        (1, "sliding", 3): ("5f6edfb8acc454e1e25fcf06c73c27a839fa4d6ef3d3c3b782abf0db036c4658", "aborted"),
        (2, "sliding", 1): ("563ebfc1ee51bd9f189ccb51ffe5c2fa8fc460acbfeb7fe20dc42d7a9084b985", "aborted"),
        (2, "sliding", 3): ("70d20167c5ec4603541d4e2d56f040b24a3bac2bdd1758daa8789ea3ca6363b3", "ok"),
        (3, "sliding", 1): ("4e756d0a24b2c104c794fdd83ef94236a874abadf53dc6f9f0b84450821954d4", "aborted"),
        (3, "sliding", 3): ("8a860556afab6626c0adfd3ddc75f62acf0a3c5f13d6e6a19fb59c113d2b2678", "aborted"),
        (4, "sliding", 1): ("1ed72521316b633440f7661b0d31a017164b877b363e9c80dd517ea651f7f5ed", "aborted"),
        (4, "sliding", 3): ("9696ff4c35e23f6d057e77d104ff108ec0e18908ee93c658110db3bbff400254", "aborted"),
    }

    @pytest.mark.parametrize("seed,mode,units", sorted(PINNED))
    def test_trace_is_byte_identical(self, seed, mode, units):
        sim = make_sim(units=units, seed=seed, base_latency_ms=30, jitter_ms=90)
        ending = "ok"
        try:
            sim.run(mixed_script(seed, 1500))
        except ReassemblyError:
            ending = "aborted"
        text = "".join(line + "\n" for line in sim.trace)
        assert (hashlib.sha256(text.encode("utf-8")).hexdigest(), ending) == self.PINNED[(seed, mode, units)]


def crowd_burst_text(seed: int, commands: int = 500, burst: int = 150) -> str:
    """A bot script shaped like one `simulate` benchmark episode, built here.

    Twenty avatars send `commands` commands, `burst` at a time 50 ms
    apart with 30 s of quiet between bursts: about 95% `tag` and 5%
    `cloud`, on 50 resources and 240 labels drawn with Zipf weights
    (exponent 1.1). A burst is larger than four units' rate windows, so
    the defer and retry paths run.
    """
    rng = random.Random(seed)
    avatars = [uuid.UUID(int=rng.getrandbits(128), version=4) for _ in range(20)]
    resources = [f"res{k}" for k in range(50)]
    labels = [f"tag{k}" for k in range(240)]
    resource_weights = [1 / k**1.1 for k in range(1, len(resources) + 1)]
    label_weights = [1 / k**1.1 for k in range(1, len(labels) + 1)]
    lines = []
    t = 0
    for i in range(commands):
        if i and i % burst == 0:
            t += 30000
        resource = rng.choices(resources, resource_weights)[0]
        label = rng.choices(labels, label_weights)[0]
        command = f"cloud {resource}" if rng.random() < 0.05 else f"tag {resource} {label}"
        lines.append(f"@{t} 0 {rng.choice(avatars)} {command}\n")
        t += 50
    return "".join(lines)


class TestPinnedCrowdBurst:
    """SHA-256 of the whole trace of one crowd-burst episode through four units,
    recorded before the simulator and the service memoized their parsing.
    A torn cloud walk in the second burst aborts it, as it aborts most
    benchmark episodes; it is pinned up to the abort."""

    PINNED = ("7896d712e7d1ec21d1ccf3e09a7cb0fc871f2a0ef545989711432baa593f8141", "aborted")

    def test_trace_is_byte_identical(self):
        sim = Simulator(AnnotationService(), units=4, seed=202)
        ending = "ok"
        try:
            sim.run(parse_script(crowd_burst_text(202)))
        except ReassemblyError:
            ending = "aborted"
        text = "".join(line + "\n" for line in sim.trace)
        assert (hashlib.sha256(text.encode("utf-8")).hexdigest(), ending) == self.PINNED
